"""2D electrostatic solver for the CPW cross section.

Finite-volume discretization of div(eps * grad(phi)) = 0 on a graded
rectilinear tensor grid. The center trace is held at 1 V, ground planes and
the outer domain box at 0 V. The lateral mirror symmetry is exploited by
default: only x >= 0 is meshed and the symmetry plane carries a natural
zero-flux condition.

The matrix is assembled from edge conductances: each grid edge couples its
two end nodes with eps times the half faces of the adjacent cells over the
edge length. Dirichlet nodes (electrodes and the outer box) are eliminated:
only the free nodes are unknowns, and couplings to Dirichlet neighbours move
into the right-hand side. Each free-free edge enters the reduced matrix at
(a, b) and (b, a), so it is symmetric by construction, and SuperLU factors it
with a symmetric fill-reducing ordering, minimum degree on A^T + A.

Thin interface oxides are never meshed (nm layers in a mm domain); they are
handled by boundary post-processing in the participation module, which
consumes the air-side boundary fields sampled here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.constants import epsilon_0

from .errors import MeshError, SolveError
from .geometry import CpwStack, RegionId

CELL_AIR = 0
CELL_SUBSTRATE = 1
CELL_METAL = 2

RESIDUAL_RTOL = 1e-8  # largest accepted relative residual of the linear solve


def _graded_segment(a, b, ha, hb, ratio, hmax):
    """Node positions on [a, b] graded geometrically from both ends.

    Step sizes start at ha (hb) at the two ends and grow by `ratio` up to
    hmax; all steps are rescaled slightly so the segment closes exactly.
    """
    length = b - a
    if length <= 0:
        raise MeshError(f"degenerate segment [{a}, {b}]")
    steps_l, steps_r = [], []
    cur_l, cur_r = min(ha, length), min(hb, length)
    total = 0.0
    while total < length:
        if cur_l <= cur_r:
            steps_l.append(cur_l)
            total += cur_l
            cur_l = min(cur_l * ratio, hmax)
        else:
            steps_r.append(cur_r)
            total += cur_r
            cur_r = min(cur_r * ratio, hmax)
    scale = length / total
    steps = np.array(steps_l + steps_r[::-1]) * scale
    pts = a + np.concatenate(([0.0], np.cumsum(steps)))
    pts[-1] = b
    return pts


def _graded_axis(breakpoints, end_sizes, ratio, hmax):
    """Concatenate graded segments between successive breakpoints."""
    pts = [np.array([breakpoints[0]])]
    for k in range(len(breakpoints) - 1):
        seg = _graded_segment(
            breakpoints[k], breakpoints[k + 1], end_sizes[k], end_sizes[k + 1],
            ratio, hmax,
        )
        pts.append(seg[1:])
    return np.concatenate(pts)


@dataclass
class Mesh:
    """Tensor-product grid with per-cell permittivity and Dirichlet data."""

    x: np.ndarray  # node x coordinates, shape (nx,)
    y: np.ndarray  # node y coordinates, shape (ny,)
    eps: np.ndarray  # cell relative permittivity, shape (nx-1, ny-1)
    region: np.ndarray  # cell region code, shape (nx-1, ny-1)
    dirichlet: np.ndarray  # node mask, shape (nx, ny)
    dirichlet_value: np.ndarray  # node values where dirichlet is True
    stack: CpwStack | None = None
    symmetry_factor: float = 1.0

    @property
    def n_cells(self):
        return (len(self.x) - 1) * (len(self.y) - 1)


def build_mesh(stack: CpwStack, refinement_level: int = 1,
               full_domain: bool = False) -> Mesh:
    """Mesh the cross section (air + substrate; interface layers excluded)."""
    if refinement_level < 1:
        raise MeshError(f"refinement_level must be >= 1, got {refinement_level}")
    if stack.gap <= 0 or stack.trace_width <= 0:
        raise MeshError("degenerate geometry: trace width and gap must be > 0")

    w2 = stack.trace_width / 2.0
    xg = w2 + stack.gap
    tm = stack.metal_thickness
    td = stack.trench_depth
    xmax = stack.domain_halfwidth
    ymin, ymax = -stack.domain_depth_substrate, stack.domain_height_air

    fine = 4e-9 / 2 ** (refinement_level - 1)
    ratio = 1.0 + 0.3 / 2 ** (refinement_level - 1)
    hmax = xmax / 16.0
    hmid = stack.trace_width / 16.0

    xpts = _graded_axis([0.0, w2, xg, xmax], [hmid, fine, fine, hmax], ratio, hmax)
    ybreaks = [ymin, 0.0, tm, ymax]
    ysizes = [hmax, fine, fine, hmax]
    if td > 0:
        ybreaks = [ymin, -td, 0.0, tm, ymax]
        ysizes = [hmax, fine, fine, fine, hmax]
    ypts = _graded_axis(ybreaks, ysizes, ratio, hmax)

    if full_domain:
        xpts = np.concatenate([-xpts[::-1], xpts[1:]])

    nx, ny = len(xpts), len(ypts)
    xm = 0.5 * (xpts[:-1] + xpts[1:])[:, None]
    ym = 0.5 * (ypts[:-1] + ypts[1:])[None, :]
    axm = np.abs(xm)

    in_metal = (ym > 0) & (ym < tm) & ((axm < w2) | (axm > xg))
    in_trench = (ym < 0) & (ym > -td) & (axm > w2) & (axm < xg) if td > 0 \
        else np.zeros_like(in_metal)
    in_substrate = (ym < 0) & ~in_trench

    region = np.full((nx - 1, ny - 1), CELL_AIR, dtype=np.int8)
    region[in_substrate] = CELL_SUBSTRATE
    region[in_metal] = CELL_METAL

    eps_sub = stack.materials["substrate"].relative_permittivity
    eps = np.ones_like(region, dtype=float)
    eps[in_substrate] = eps_sub
    # metal interior is excluded from the solve via Dirichlet nodes; its cell
    # permittivity is irrelevant but kept at 1

    tol = 1e-15 + 1e-9 * min(tm, stack.gap)
    xn = xpts[:, None]
    yn = ypts[None, :]
    axn = np.abs(xn)
    on_metal_band = (yn > -tol) & (yn < tm + tol)
    on_trace = on_metal_band & (axn < w2 + tol)
    on_ground = on_metal_band & (axn > xg - tol)

    dirichlet = np.zeros((nx, ny), dtype=bool)
    value = np.zeros((nx, ny))
    dirichlet[on_trace] = True
    value[on_trace] = 1.0
    dirichlet[on_ground] = True
    # outer box grounded; the x=0 (or x=xmin in full-domain) side is the
    # symmetry plane only in half-domain mode
    dirichlet[:, 0] = True
    dirichlet[:, -1] = True
    dirichlet[-1, :] = True
    if full_domain:
        dirichlet[0, :] = True

    return Mesh(
        x=xpts, y=ypts, eps=eps, region=region,
        dirichlet=dirichlet, dirichlet_value=value, stack=stack,
        symmetry_factor=1.0 if full_domain else 2.0,
    )


@dataclass
class FieldSolution:
    """Discrete potential, cell fields and per-region energies (per unit length)."""

    mesh: Mesh
    phi: np.ndarray  # node potential, shape (nx, ny)
    ex: np.ndarray  # cell field components, shape (nx-1, ny-1)
    ey: np.ndarray
    region_energy: dict = field(default_factory=dict)  # RegionId -> J/m
    total_energy: float = 0.0
    voltage: float = 1.0
    residual: float = 0.0
    unknowns: int = 0  # free nodes: the size of the reduced system
    factor_nnz: int = 0  # nonzeros SuperLU stores for the L and U factors

    @property
    def capacitance_per_length(self) -> float:
        """C' = 2 U / V^2 in F/m."""
        return 2.0 * self.total_energy / self.voltage**2


def _assemble(eps, hx, hy, free, phi):
    """Reduced matrix A_ff and right-hand side b_f from edge conductances.

    Each grid edge couples its end nodes with conductance g: eps times the
    half faces of the cells on either side, over the edge length. Cells
    outside the domain have zero permittivity (zero flux at the border).
    `free` and `phi` are flat over the nodes; phi is zero on free nodes.
    """
    nx, ny = len(hx) + 1, len(hy) + 1
    ep, hxp, hyp = np.pad(eps, 1), np.pad(hx, 1)[:, None], np.pad(hy, 1)
    gx = (ep[1:-1, :-1] * hyp[:-1] + ep[1:-1, 1:] * hyp[1:]) / (2 * hx[:, None])
    gy = (ep[:-1, 1:-1] * hxp[:-1] + ep[1:, 1:-1] * hxp[1:]) / (2 * hy)
    node = np.arange(nx * ny).reshape(nx, ny)
    a = np.concatenate((node[:-1].ravel(), node[:, :-1].ravel()))
    b = np.concatenate((node[1:].ravel(), node[:, 1:].ravel()))
    g = np.concatenate((gx.ravel(), gy.ravel()))

    ends = np.concatenate((a, b))
    diag = np.bincount(ends, np.concatenate((g, g)), nx * ny)[free]
    # only free-Dirichlet edges carry a nonzero g * V_d into the rhs
    rhs = np.bincount(ends, np.concatenate((g * phi[b], g * phi[a])), nx * ny)[free]
    # a free-free edge adds -g at (a, b) and (b, a): symmetric by construction
    num = np.cumsum(free) - 1  # unknown number of each free node
    both = free[a] & free[b]
    fa, fb, gf = num[a[both]], num[b[both]], -g[both]
    idx = np.arange(len(diag))
    A = sp.csc_matrix(
        (np.concatenate((diag, gf, gf)),
         (np.concatenate((idx, fa, fb)), np.concatenate((idx, fb, fa)))),
        shape=(len(diag), len(diag)),
    )
    return A, rhs


def solve_potential(mesh: Mesh, voltage: float = 1.0) -> FieldSolution:
    """Solve the variable-permittivity Laplace problem on the mesh."""
    dirichlet = mesh.dirichlet.ravel()
    if not dirichlet.any():
        raise SolveError("mesh has no Dirichlet node: the potential is undetermined")
    free = ~dirichlet
    phi = voltage * np.where(dirichlet, mesh.dirichlet_value.ravel(), 0.0)
    hx, hy = np.diff(mesh.x), np.diff(mesh.y)
    A, b = _assemble(mesh.eps, hx, hy, free, phi)
    n_free = A.shape[0]

    # A is exactly symmetric, so a symmetric fill-reducing ordering applies
    try:
        lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise SolveError(
            f"factorization of the reduced system ({n_free} unknowns) failed: {exc}"
        ) from exc
    phi_free = lu.solve(b)
    if not np.all(np.isfinite(phi_free)):
        raise SolveError("linear solve produced non-finite potential")
    # the full system's Dirichlet rows have zero residual, so this equals its
    # residual relative to the Dirichlet data
    res = np.linalg.norm(A @ phi_free - b) / max(np.linalg.norm(phi[dirichlet]), 1e-300)
    if res > RESIDUAL_RTOL:
        raise SolveError(f"linear solve did not converge: relative residual "
                         f"{res:.3e} > {RESIDUAL_RTOL:.1e}")
    phi[free] = phi_free
    phi = phi.reshape(mesh.dirichlet.shape)

    dx = hx[:, None]
    dy = hy[None, :]
    ex = -((phi[1:, :-1] - phi[:-1, :-1]) + (phi[1:, 1:] - phi[:-1, 1:])) / (2 * dx)
    ey = -((phi[:-1, 1:] - phi[:-1, :-1]) + (phi[1:, 1:] - phi[1:, :-1])) / (2 * dy)
    u_cell = 0.5 * epsilon_0 * mesh.eps * (ex**2 + ey**2) * dx * dy

    sf = mesh.symmetry_factor
    e_sub = sf * float(u_cell[mesh.region == CELL_SUBSTRATE].sum())
    e_air = sf * float(u_cell[mesh.region == CELL_AIR].sum())
    region_energy = {RegionId.Substrate: e_sub, RegionId.Air: e_air}

    return FieldSolution(
        mesh=mesh, phi=phi, ex=ex, ey=ey,
        region_energy=region_energy, total_energy=e_sub + e_air,
        voltage=voltage, residual=res,
        unknowns=n_free, factor_nnz=int(lu.nnz),
    )


@dataclass
class BoundarySamples:
    """Air-side field samples along an interface contour (half domain)."""

    region: RegionId
    x: np.ndarray
    y: np.ndarray
    dl: np.ndarray  # arc-length weight per sample
    e_par: np.ndarray  # tangential field, V/m
    e_norm: np.ndarray  # normal field on the air side, V/m


def _one_sided(phi0, phi1, phi2, h1, h2):
    """Second-order one-sided derivative at the surface node."""
    c0 = -(2 * h1 + h2) / (h1 * (h1 + h2))
    c1 = (h1 + h2) / (h1 * h2)
    c2 = -h1 / (h2 * (h1 + h2))
    return c0 * phi0 + c1 * phi1 + c2 * phi2


def _node_index(coords, value):
    i = int(np.searchsorted(coords, value - 1e-18))
    if i >= len(coords) or not np.isclose(coords[i], value, rtol=0, atol=1e-15 + 1e-9 * abs(value)):
        raise MeshError(f"no grid line at coordinate {value}")
    return i


def _trap_weights(coords, i0, i1):
    """Trapezoid weights for nodes i0..i1 inclusive along `coords`."""
    c = coords[i0 : i1 + 1]
    w = np.empty(len(c))
    w[1:-1] = (c[2:] - c[:-2]) / 2
    w[0] = (c[1] - c[0]) / 2
    w[-1] = (c[-1] - c[-2]) / 2
    return w


def boundary_fields(solution: FieldSolution, region: RegionId) -> BoundarySamples:
    """Sample (E_par, E_norm) on the air side of an interface contour.

    Samples cover the half domain (x >= 0); integrals must be scaled by
    mesh.symmetry_factor.
    """
    mesh = solution.mesh
    stack = mesh.stack
    if stack is None:
        raise MeshError("boundary_fields requires a mesh built from a CpwStack")
    if region not in (RegionId.MetalAirTop, RegionId.MetalAirSide,
                      RegionId.SubstrateAir):
        raise MeshError(f"{region} is not an interface region")

    x, y, phi = mesh.x, mesh.y, solution.phi
    w2 = stack.trace_width / 2.0
    xg = w2 + stack.gap
    tm = stack.metal_thickness
    td = stack.trench_depth
    i0 = _node_index(x, 0.0)
    iw = _node_index(x, w2)
    ig = _node_index(x, xg)
    j0 = _node_index(y, 0.0)
    jt = _node_index(y, tm)

    xs, ys, dls, epars, enorms = [], [], [], [], []

    def add_horizontal(jrow, ia, ib, e_par_from_phi):
        """Samples along y = const, nodes ia..ib, normal pointing up."""
        wts = _trap_weights(x, ia, ib)
        xs.append(x[ia : ib + 1])
        ys.append(np.full(ib - ia + 1, y[jrow]))
        dls.append(wts)
        h1, h2 = y[jrow + 1] - y[jrow], y[jrow + 2] - y[jrow + 1]
        enorms.append(-_one_sided(phi[ia:ib + 1, jrow], phi[ia:ib + 1, jrow + 1],
                                  phi[ia:ib + 1, jrow + 2], h1, h2))
        if e_par_from_phi:
            epars.append(-(phi[ia + 1:ib + 2, jrow] - phi[ia - 1:ib, jrow])
                         / (x[ia + 1:ib + 2] - x[ia - 1:ib]))
        else:
            epars.append(np.zeros(ib - ia + 1))

    def add_vertical(icol, ja, jb, right, e_par_from_phi):
        """Samples along x = const, nodes ja..jb, normal pointing +x or -x."""
        wts = _trap_weights(y, ja, jb)
        xs.append(np.full(jb - ja + 1, x[icol]))
        ys.append(y[ja : jb + 1])
        dls.append(wts)
        if right:
            h1, h2 = x[icol + 1] - x[icol], x[icol + 2] - x[icol + 1]
            en = -_one_sided(phi[icol, ja:jb + 1], phi[icol + 1, ja:jb + 1],
                             phi[icol + 2, ja:jb + 1], h1, h2)
        else:
            h1, h2 = x[icol] - x[icol - 1], x[icol - 1] - x[icol - 2]
            en = _one_sided(phi[icol, ja:jb + 1], phi[icol - 1, ja:jb + 1],
                            phi[icol - 2, ja:jb + 1], h1, h2)
        enorms.append(en)
        if e_par_from_phi:
            epars.append(-(phi[icol, ja + 1:jb + 2] - phi[icol, ja - 1:jb])
                         / (y[ja + 1:jb + 2] - y[ja - 1:jb]))
        else:
            epars.append(np.zeros(jb - ja + 1))

    if region == RegionId.MetalAirTop:
        add_horizontal(jt, i0, iw, e_par_from_phi=False)  # trace top
        add_horizontal(jt, ig, len(x) - 3, e_par_from_phi=False)  # ground top
    elif region == RegionId.MetalAirSide:
        add_vertical(iw, j0, jt, right=True, e_par_from_phi=False)  # trace sidewall
        add_vertical(ig, j0, jt, right=False, e_par_from_phi=False)  # ground sidewall
    else:  # SubstrateAir
        if td > 0:
            jd = _node_index(y, -td)
            add_vertical(iw, jd + 1, j0 - 1, right=True, e_par_from_phi=True)
            add_horizontal(jd, iw + 1, ig - 1, e_par_from_phi=True)
            add_vertical(ig, jd + 1, j0 - 1, right=False, e_par_from_phi=True)
        else:
            add_horizontal(j0, iw + 1, ig - 1, e_par_from_phi=True)

    return BoundarySamples(
        region=region,
        x=np.concatenate(xs), y=np.concatenate(ys), dl=np.concatenate(dls),
        e_par=np.concatenate(epars), e_norm=np.concatenate(enorms),
    )


def dump_fields_csv(solution: FieldSolution, path):
    """Write node coordinates and potential as CSV (x, y, potential)."""
    mesh = solution.mesh
    xx, yy = np.meshgrid(mesh.x, mesh.y, indexing="ij")
    data = np.column_stack([xx.ravel(), yy.ravel(), solution.phi.ravel()])
    np.savetxt(path, data, delimiter=",", header="x,y,potential", comments="")


def solve_with_meshed_sa_layer(stack: CpwStack, eps_layer: float,
                               thickness: float, refinement_level: int = 2):
    """Validation mode: mesh the substrate-air oxide directly.

    The gap-floor oxide is a filled trench built by `build_mesh`: a trench
    as deep as the layer, whose cells get `eps_layer` and are booked under
    the substrate. Returns (solution, layer_energy_fraction). Cross-checks
    the analytic thin-layer rule; only practical on geometries where
    thickness/gap is not too extreme.
    """
    if thickness <= 0:
        raise MeshError("layer thickness must be > 0 for direct meshing")
    mesh = build_mesh(replace(stack, trench_depth=thickness), refinement_level)
    ym = 0.5 * (mesh.y[:-1] + mesh.y[1:])
    in_layer = (mesh.region == CELL_AIR) & (ym < 0)[None, :]
    mesh.eps[in_layer] = eps_layer
    mesh.region[in_layer] = CELL_SUBSTRATE
    solution = solve_potential(mesh)

    dx = np.diff(mesh.x)[:, None]
    dy = np.diff(mesh.y)[None, :]
    u_cell = 0.5 * epsilon_0 * mesh.eps * (solution.ex**2 + solution.ey**2) * dx * dy
    layer_energy = mesh.symmetry_factor * float(u_cell[in_layer].sum())
    return solution, layer_energy / solution.total_energy


def cpw_capacitance_conformal(trace_width, gap, eps_substrate):
    """Conformal-mapping C' for a zero-thickness CPW on a half-space.

    C' = 4 eps0 (1 + eps_r)/2 * K(k)/K(k'), k = w / (w + 2 g). Used as the
    independent oracle for the solver; kept separate from the FD path.
    """
    from scipy.special import ellipk

    k = trace_width / (trace_width + 2 * gap)
    kp = np.sqrt(1 - k * k)
    eps_eff = (1 + eps_substrate) / 2
    return 4 * epsilon_0 * eps_eff * ellipk(k * k) / ellipk(kp * kp)
