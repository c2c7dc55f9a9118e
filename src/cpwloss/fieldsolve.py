"""2D electrostatic solver for the CPW cross section.

Finite-volume discretization of div(eps * grad(phi)) = 0 on a graded
rectilinear tensor grid. The center trace is held at 1 V, ground planes and
the outer domain box at 0 V. The lateral mirror symmetry is exploited by
default: only x >= 0 is meshed and the symmetry plane carries a natural
zero-flux condition. Every conductor edge and face is a grid line; the mesh
records their node indices, and cells, electrodes and contours are set by
index, never by comparing coordinates.

The matrix is assembled from edge conductances: each grid edge couples its
two end nodes with eps times the half faces of the adjacent cells over the
edge length. Dirichlet nodes (electrodes and the outer box) are eliminated:
only the free nodes are unknowns, and couplings to Dirichlet neighbours move
into the right-hand side. Each free-free edge enters the reduced matrix at
(a, b) and (b, a), so it is symmetric by construction, and SuperLU factors it
with a symmetric fill-reducing ordering, minimum degree on A^T + A.

Thin interface oxides are never meshed (nm layers in a mm domain); they are
handled by boundary post-processing in the participation module, which
consumes the air-side boundary fields sampled here. Contours are sampled on
x >= 0 in either domain mode and their integrals scaled by 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import MeshError, SolveError
from .geometry import CpwStack, RegionId

epsilon_0 = 8.8541878188e-12  # F/m, CODATA 2022 (scipy.constants.epsilon_0)

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
    """Nodes of graded segments between successive breakpoints, and the node
    index of each breakpoint (whose node equals it exactly)."""
    pts = [np.array([breakpoints[0]])]
    for k in range(len(breakpoints) - 1):
        seg = _graded_segment(
            breakpoints[k], breakpoints[k + 1], end_sizes[k], end_sizes[k + 1],
            ratio, hmax,
        )
        pts.append(seg[1:])
    index = np.cumsum([len(p) for p in pts]) - 1
    return np.concatenate(pts), [int(i) for i in index]


@dataclass
class Mesh:
    """Tensor-product grid with per-cell permittivity and Dirichlet data."""

    x: np.ndarray  # node x coordinates, shape (nx,)
    y: np.ndarray  # node y coordinates, shape (ny,)
    eps: np.ndarray  # cell relative permittivity, shape (nx-1, ny-1)
    region: np.ndarray  # cell region code, shape (nx-1, ny-1)
    dirichlet: np.ndarray  # node mask, shape (nx, ny)
    dirichlet_value: np.ndarray  # node values where dirichlet is True
    # node indices of the conductor grid lines on x >= 0: "axis", "trace_edge",
    # "ground_edge" in x; "surface", "metal_top", "trench_floor" (if any) in y
    lines: dict = field(default_factory=dict)
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

    x, (i0, iw, ig, _) = _graded_axis([0.0, w2, xg, xmax],
                                      [hmid, fine, fine, hmax], ratio, hmax)
    ybreaks = [ymin, -td, 0.0, tm, ymax] if td > 0 else [ymin, 0.0, tm, ymax]
    ysizes = [hmax] + [fine] * (len(ybreaks) - 2) + [hmax]
    y, jb = _graded_axis(ybreaks, ysizes, ratio, hmax)
    j0, jt = jb[-3], jb[-2]
    lines = {"axis": i0, "trace_edge": iw, "ground_edge": ig,
             "surface": j0, "metal_top": jt}

    region = np.full((len(x) - 1, len(y) - 1), CELL_AIR, dtype=np.int8)
    region[:, :j0] = CELL_SUBSTRATE
    if td > 0:
        lines["trench_floor"] = jb[1]
        region[iw:ig, jb[1]:j0] = CELL_AIR
    region[:iw, j0:jt] = CELL_METAL
    region[ig:, j0:jt] = CELL_METAL
    # metal interior is excluded from the solve via Dirichlet nodes; its cell
    # permittivity is irrelevant but kept at 1
    eps_sub = stack.materials["substrate"].relative_permittivity
    eps = np.where(region == CELL_SUBSTRATE, eps_sub, 1.0)

    dirichlet = np.zeros((len(x), len(y)), dtype=bool)
    value = np.zeros((len(x), len(y)))
    dirichlet[:iw + 1, j0:jt + 1] = True  # trace
    value[:iw + 1, j0:jt + 1] = 1.0
    dirichlet[ig:, j0:jt + 1] = True  # ground plane
    # outer box grounded; x = 0 is the symmetry plane (zero flux)
    dirichlet[:, [0, -1]] = True
    dirichlet[-1, :] = True

    if full_domain:
        # mirror image about x = 0; the mirrored outer column is grounded too
        shift = len(x) - 1
        x = np.concatenate([-x[::-1], x[1:]])
        region, eps = (np.concatenate([a[::-1], a]) for a in (region, eps))
        dirichlet, value = (np.concatenate([a[::-1], a[1:]])
                            for a in (dirichlet, value))
        for key in ("axis", "trace_edge", "ground_edge"):
            lines[key] += shift

    return Mesh(
        x=x, y=y, eps=eps, region=region,
        dirichlet=dirichlet, dirichlet_value=value, lines=lines,
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
    import scipy.sparse as sp

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
    import scipy.sparse.linalg as spla

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
    """Air-side field samples along an interface contour (x >= 0)."""

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


def _trap_weights(coords, i0, i1):
    """Trapezoid weights for nodes i0..i1 inclusive along `coords`."""
    c = coords[i0 : i1 + 1]
    w = np.empty(len(c))
    w[1:-1] = (c[2:] - c[:-2]) / 2
    w[0] = (c[1] - c[0]) / 2
    w[-1] = (c[-1] - c[-2]) / 2
    return w


def _contour(phi, along, across, k, a, b, step, tangential):
    """Samples on grid line across[k], nodes a..b along `along`.

    phi is indexed [along, across] (pass phi.T for a line of constant x); the
    air side lies towards k + step. Returns (along coordinates, across
    coordinates, dl, e_par, e_norm).
    """
    s = slice(a, b + 1)
    h1 = abs(across[k + step] - across[k])
    h2 = abs(across[k + 2 * step] - across[k + step])
    e_norm = -step * _one_sided(phi[s, k], phi[s, k + step], phi[s, k + 2 * step],
                                h1, h2)
    if tangential:
        e_par = -(phi[a + 1:b + 2, k] - phi[a - 1:b, k]) \
            / (along[a + 1:b + 2] - along[a - 1:b])
    else:  # E_par vanishes on a conductor surface
        e_par = np.zeros(b - a + 1)
    return (along[s], np.full(b - a + 1, across[k]), _trap_weights(along, a, b),
            e_par, e_norm)


def boundary_fields(solution: FieldSolution, region: RegionId) -> BoundarySamples:
    """Sample (E_par, E_norm) on the air side of an interface contour.

    Samples cover x >= 0 only; the cross section is mirror symmetric, so
    contour integrals are twice the sampled ones in either domain mode.
    """
    x, y, lines = solution.mesh.x, solution.mesh.y, solution.mesh.lines
    if not lines:
        raise MeshError("boundary_fields requires a mesh built by build_mesh")
    i0, iw, ig = lines["axis"], lines["trace_edge"], lines["ground_edge"]
    j0, jt, jd = lines["surface"], lines["metal_top"], lines.get("trench_floor")
    # (vertical, line, first node, last node, step towards the air)
    if region == RegionId.MetalAirTop:
        segments = [(False, jt, i0, iw, 1), (False, jt, ig, len(x) - 3, 1)]
    elif region == RegionId.MetalAirSide:
        segments = [(True, iw, j0, jt, 1), (True, ig, j0, jt, -1)]
    elif region == RegionId.SubstrateAir and jd is not None:
        segments = [(True, iw, jd + 1, j0 - 1, 1), (False, jd, iw + 1, ig - 1, 1),
                    (True, ig, jd + 1, j0 - 1, -1)]
    elif region == RegionId.SubstrateAir:
        segments = [(False, j0, iw + 1, ig - 1, 1)]
    else:
        raise MeshError(f"{region} is not an interface region")

    tangential = region == RegionId.SubstrateAir
    phi = solution.phi
    parts = []
    for vertical, k, a, b, step in segments:
        grid = (phi.T, y, x) if vertical else (phi, x, y)
        along, across, *rest = _contour(*grid, k, a, b, step, tangential)
        parts.append((across, along, *rest) if vertical else (along, across, *rest))
    xs, ys, dl, e_par, e_norm = (np.concatenate(c) for c in zip(*parts))
    return BoundarySamples(region=region, x=xs, y=ys, dl=dl, e_par=e_par,
                           e_norm=e_norm)


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
    in_layer = mesh.region == CELL_AIR
    in_layer[:, mesh.lines["surface"]:] = False
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
