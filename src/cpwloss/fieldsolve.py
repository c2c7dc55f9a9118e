"""2D electrostatic solver for the CPW cross section.

Finite-volume discretization of div(eps * grad(phi)) = 0 on a graded
rectilinear tensor grid. The center trace is held at 1 V, ground planes and
the outer domain box at 0 V. The lateral mirror symmetry is exploited by
default: only x >= 0 is meshed and the symmetry plane carries a natural
zero-flux condition.

Thin interface oxides are never meshed (nm layers in a mm domain); they are
handled by boundary post-processing in the participation module, which
consumes the host-side boundary fields sampled here.
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

    @property
    def capacitance_per_length(self) -> float:
        """C' = 2 U / V^2 in F/m."""
        return 2.0 * self.total_energy / self.voltage**2


def solve_potential(mesh: Mesh, voltage: float = 1.0,
                    rtol: float = 1e-8) -> FieldSolution:
    """Solve the variable-permittivity Laplace problem on the mesh."""
    x, y = mesh.x, mesh.y
    nx, ny = len(x), len(y)
    n = nx * ny

    # cell permittivities padded with zeros outside the domain so that
    # missing neighbors contribute zero flux (natural Neumann boundaries)
    epad = np.zeros((nx + 1, ny + 1))
    epad[1:nx, 1:ny] = mesh.eps

    hx = np.diff(x)
    hy = np.diff(y)
    hw = np.concatenate(([np.inf], hx))[:, None]  # west spacing per node
    he = np.concatenate((hx, [np.inf]))[:, None]
    hs = np.concatenate(([np.inf], hy))[None, :]
    hn = np.concatenate((hy, [np.inf]))[None, :]
    hs_f = np.where(np.isinf(hs), 0.0, hs)
    hn_f = np.where(np.isinf(hn), 0.0, hn)
    hw_f = np.where(np.isinf(hw), 0.0, hw)
    he_f = np.where(np.isinf(he), 0.0, he)

    ii = np.arange(nx)[:, None]
    jj = np.arange(ny)[None, :]
    g_e = (epad[ii + 1, jj] * hs_f / 2 + epad[ii + 1, jj + 1] * hn_f / 2) / he
    g_w = (epad[ii, jj] * hs_f / 2 + epad[ii, jj + 1] * hn_f / 2) / hw
    g_n = (epad[ii, jj + 1] * hw_f / 2 + epad[ii + 1, jj + 1] * he_f / 2) / hn
    g_s = (epad[ii, jj] * hw_f / 2 + epad[ii + 1, jj] * he_f / 2) / hs

    idx = (ii * ny + jj)
    diag = g_e + g_w + g_n + g_s
    free = ~mesh.dirichlet

    rows, cols, vals = [], [], []
    for g, di, dj in ((g_e, 1, 0), (g_w, -1, 0), (g_n, 0, 1), (g_s, 0, -1)):
        mask = free & (g > 0)
        rows.append(idx[mask])
        cols.append((idx + di * ny + dj)[mask])
        vals.append(-g[mask])
    rows.append(idx[free])
    cols.append(idx[free])
    vals.append(diag[free])
    # Dirichlet rows: identity
    rows.append(idx[mesh.dirichlet])
    cols.append(idx[mesh.dirichlet])
    vals.append(np.ones(np.count_nonzero(mesh.dirichlet)))

    A = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    b = np.zeros(n)
    b[idx[mesh.dirichlet]] = voltage * mesh.dirichlet_value[mesh.dirichlet]

    phi_flat = spla.spsolve(A, b)
    if not np.all(np.isfinite(phi_flat)):
        raise SolveError("linear solve produced non-finite potential")
    res = np.linalg.norm(A @ phi_flat - b) / max(np.linalg.norm(b), 1e-300)
    if res > rtol:
        raise SolveError(
            f"linear solve did not converge: relative residual {res:.3e} > {rtol:.1e}"
        )
    phi = phi_flat.reshape(nx, ny)

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
    )


@dataclass
class BoundarySamples:
    """Host-side field samples along an interface contour (half domain)."""

    region: RegionId
    x: np.ndarray
    y: np.ndarray
    dl: np.ndarray  # arc-length weight per sample
    e_par: np.ndarray  # tangential field, V/m
    e_norm: np.ndarray  # normal field on the host side, V/m
    host: str = "air"  # every contour is sampled on its air side


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
    """Sample (E_par, E_norm) on the host side along an interface contour.

    The host side is air for every contour. Samples cover the half domain
    (x >= 0); integrals must be scaled by mesh.symmetry_factor.
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
