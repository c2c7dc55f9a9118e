"""2D electrostatic solver for the CPW cross section.

Finite-volume discretization of div(eps * grad(phi)) = 0 on a graded
rectilinear tensor grid. The center trace is held at 1 V, ground planes and
the outer domain box at 0 V. Every mesh is the x >= 0 half of a
mirror-symmetric cross section: the plane x = 0 carries zero flux, and
energies count the mirror image. Every conductor edge and face is a grid
line; the mesh records their node indices, and cells, electrodes and
contours are set by index, never by comparing coordinates.

The matrix is assembled from edge conductances: each grid edge couples its
two end nodes with eps times the half faces of the adjacent cells over the
edge length. Dirichlet nodes (electrodes and the outer box) are eliminated:
only the free nodes are unknowns, and couplings to Dirichlet neighbours move
into the right-hand side. Each free-free edge enters the reduced matrix at
(a, b) and (b, a), so it is symmetric by construction, and SuperLU factors it
with a symmetric fill-reducing ordering, minimum degree on A^T + A.

The assembly works on the node grid itself, with no edge lists: the
diagonal and the right-hand side are four shifted sums over (nx, ny)
arrays, and the CSC arrays are written in column order with int32 indices.
Its traced peak is about 2.7x the bytes of A and b (a test holds it within
3x); the factors, not the assembly, set the memory of a large solve.

The factorization uses one column per panel (panel_size=1) and no relaxed
supernodes (relax=1). On this 5-point system that cuts the factor time by
about a third at level 2 and a fifth at level 4 against SuperLU's default
settings (measured on a 2-core Xeon, one BLAS thread); the potential moves by
at most 3e-12 V at levels 1-4. Keep relax <= panel_size: relaxed supernodes
wider than a panel (relax 40 with panel 20) have crashed the interpreter.

Thin interface oxides are never meshed (nm layers in a mm domain): the
participation module integrates them along the grid lines in `Mesh.lines`,
from the potential solved here.
"""

from __future__ import annotations

import time
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
    """Tensor-product grid on x >= 0 with per-cell permittivity and Dirichlet
    data: the half of a cross section mirrored about x = 0, whose plane x = 0
    carries zero flux and whose energies count the mirror image."""

    x: np.ndarray  # node x coordinates, shape (nx,)
    y: np.ndarray  # node y coordinates, shape (ny,)
    eps: np.ndarray  # cell relative permittivity, shape (nx-1, ny-1)
    region: np.ndarray  # cell region code, shape (nx-1, ny-1)
    dirichlet: np.ndarray  # node mask, shape (nx, ny)
    dirichlet_value: np.ndarray  # node values where dirichlet is True
    # node indices of the conductor grid lines: "axis", "trace_edge",
    # "ground_edge" in x; "surface", "metal_top", "trench_floor" (if any) in y
    lines: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)  # mesh_inputs() of the stack meshed

    @property
    def n_cells(self):
        return (len(self.x) - 1) * (len(self.y) - 1)


def mesh_inputs(stack: CpwStack) -> dict:
    """What `build_mesh` reads of a stack. One mesh, and its solution, serves
    every stack that agrees on these: the interface layers enter only the
    post-processing."""
    inputs = {name: getattr(stack, name) for name in (
        "trace_width", "gap", "metal_thickness", "trench_depth",
        "domain_halfwidth", "domain_height_air", "domain_depth_substrate")}
    inputs["substrate relative_permittivity"] = (
        stack.materials["substrate"].relative_permittivity)
    return inputs


def build_mesh(stack: CpwStack, refinement_level: int = 1) -> Mesh:
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

    return Mesh(
        x=x, y=y, eps=eps, region=region,
        dirichlet=dirichlet, dirichlet_value=value, lines=lines,
        inputs=mesh_inputs(stack),
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
    matrix_nnz: int = 0  # nonzeros of the reduced matrix
    factor_nnz: int = 0  # nonzeros SuperLU stores for the L and U factors
    # wall s of "assemble", "factor", "solve" and "post" (freeing the
    # factors, residual check, fields and region energies)
    stage_s: dict = field(default_factory=dict)

    @property
    def capacitance_per_length(self) -> float:
        """C' = 2 U / V^2 in F/m."""
        return 2.0 * self.total_energy / self.voltage**2


def _cell_energy(mesh, ex, ey):
    """Energy per unit length of each cell plus its mirror image, J/m."""
    dx, dy = np.diff(mesh.x)[:, None], np.diff(mesh.y)[None, :]
    return epsilon_0 * mesh.eps * (ex**2 + ey**2) * dx * dy


def _assemble(eps, hx, hy, free, phi):
    """Reduced matrix A_ff and right-hand side b_f from edge conductances,
    built on the (nx, ny) node grid.

    Each grid edge couples its end nodes with conductance g: eps times the
    half faces of the cells on either side, over the edge length. Cells
    outside the domain have zero permittivity (zero flux at the border).
    `free` and `phi` are flat over the nodes; phi is zero on free nodes.

    The diagonal and the Dirichlet couplings are shifted in-place sums over
    the grid. Their order (east, north, west, south edge) is fixed: it is
    the order in which bincount over the edge-list reference in the tests
    adds them, so A and b equal that reference bit for bit.
    The CSC arrays are written in column order: each free node's column holds
    its west, south, own, north and east entries, which is increasing row
    order; a neighbour past the border or on a Dirichlet node gives none.
    """
    import scipy.sparse as sp

    nx, ny = len(hx) + 1, len(hy) + 1
    ep, hxp, hyp = np.pad(eps, 1), np.pad(hx, 1)[:, None], np.pad(hy, 1)
    gx = (ep[1:-1, :-1] * hyp[:-1] + ep[1:-1, 1:] * hyp[1:]) / (2 * hx[:, None])
    gy = (ep[:-1, 1:-1] * hxp[:-1] + ep[1:, 1:-1] * hxp[1:]) / (2 * hy)
    free, phi = free.reshape(nx, ny), phi.reshape(nx, ny)

    # only free-Dirichlet edges carry a nonzero g * V_d into the rhs
    diag, rhs = np.zeros((nx, ny)), np.zeros((nx, ny))
    diag[:-1] += gx
    rhs[:-1] += gx * phi[1:]  # east
    diag[:, :-1] += gy
    rhs[:, :-1] += gy * phi[:, 1:]  # north
    diag[1:] += gx
    rhs[1:] += gx * phi[:-1]  # west
    diag[:, 1:] += gy
    rhs[:, 1:] += gy * phi[:, :-1]  # south

    # slots west, south, self, north, east of each node's column; a free-free
    # edge puts -g in the columns of both its nodes: symmetric by construction
    num = np.cumsum(free, dtype=np.int32).reshape(nx, ny) - np.int32(1)
    keep = np.zeros((nx, ny, 5), dtype=bool)
    row = np.zeros((nx, ny, 5), dtype=np.int32)
    val = np.zeros((nx, ny, 5))
    keep[1:, :, 0], row[1:, :, 0], val[1:, :, 0] = free[:-1], num[:-1], -gx
    keep[:, 1:, 1], row[:, 1:, 1], val[:, 1:, 1] = free[:, :-1], num[:, :-1], -gy
    keep[:, :, 2], row[:, :, 2], val[:, :, 2] = True, num, diag
    keep[:, :-1, 3], row[:, :-1, 3], val[:, :-1, 3] = free[:, 1:], num[:, 1:], -gy
    keep[:-1, :, 4], row[:-1, :, 4], val[:-1, :, 4] = free[1:], num[1:], -gx
    keep &= free[:, :, None]
    n_free = np.count_nonzero(free)
    indptr = np.zeros(n_free + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=2, dtype=np.int32)[free], out=indptr[1:])
    A = sp.csc_matrix((val[keep], row[keep], indptr), shape=(n_free, n_free))
    return A, rhs[free]


def solve_potential(mesh: Mesh, voltage: float = 1.0) -> FieldSolution:
    """Solve the variable-permittivity Laplace problem on the mesh."""
    import scipy.sparse.linalg as spla

    dirichlet = mesh.dirichlet.ravel()
    if not dirichlet.any():
        raise SolveError("mesh has no Dirichlet node: the potential is undetermined")
    free = ~dirichlet
    phi = voltage * np.where(dirichlet, mesh.dirichlet_value.ravel(), 0.0)
    hx, hy = np.diff(mesh.x), np.diff(mesh.y)
    t0 = time.perf_counter()
    A, b = _assemble(mesh.eps, hx, hy, free, phi)
    n_free = A.shape[0]

    # A is exactly symmetric, so a symmetric fill-reducing ordering applies;
    # one column per panel, no relaxed supernodes (keep relax <= panel_size)
    t1 = time.perf_counter()
    try:
        lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", relax=1, panel_size=1)
    except RuntimeError as exc:
        raise SolveError(
            f"factorization of the reduced system ({n_free} unknowns) failed: {exc}"
        ) from exc
    t2 = time.perf_counter()
    phi_free = lu.solve(b)
    t3 = time.perf_counter()
    # the L and U factors are the largest arrays of the solve: drop them
    # before the post-processing allocates the fields
    factor_nnz = int(lu.nnz)
    del lu
    if not np.all(np.isfinite(phi_free)):
        raise SolveError("linear solve produced non-finite potential")
    # the full system's Dirichlet rows have zero residual, so this equals its
    # residual relative to the Dirichlet data. The norms are numpy reductions,
    # not BLAS dots, which would spread over every core unless pinned.
    r, d = A @ phi_free - b, phi[dirichlet]
    res = np.sqrt(np.sum(r * r)) / max(np.sqrt(np.sum(d * d)), 1e-300)
    if res > RESIDUAL_RTOL:
        raise SolveError(f"linear solve did not converge: relative residual "
                         f"{res:.3e} > {RESIDUAL_RTOL:.1e}")
    phi[free] = phi_free
    phi = phi.reshape(mesh.dirichlet.shape)

    dx = hx[:, None]
    dy = hy[None, :]
    ex = -((phi[1:, :-1] - phi[:-1, :-1]) + (phi[1:, 1:] - phi[:-1, 1:])) / (2 * dx)
    ey = -((phi[:-1, 1:] - phi[:-1, :-1]) + (phi[1:, 1:] - phi[1:, :-1])) / (2 * dy)
    u_cell = _cell_energy(mesh, ex, ey)
    e_sub = float(u_cell[mesh.region == CELL_SUBSTRATE].sum())
    e_air = float(u_cell[mesh.region == CELL_AIR].sum())
    region_energy = {RegionId.Substrate: e_sub, RegionId.Air: e_air}
    stage_s = {"assemble": t1 - t0, "factor": t2 - t1, "solve": t3 - t2,
               "post": time.perf_counter() - t3}

    return FieldSolution(
        mesh=mesh, phi=phi, ex=ex, ey=ey,
        region_energy=region_energy, total_energy=e_sub + e_air,
        voltage=voltage, residual=res, unknowns=n_free,
        matrix_nnz=A.nnz, factor_nnz=factor_nnz, stage_s=stage_s,
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
    in_layer = mesh.region == CELL_AIR
    in_layer[:, mesh.lines["surface"]:] = False
    mesh.eps[in_layer] = eps_layer
    mesh.region[in_layer] = CELL_SUBSTRATE
    solution = solve_potential(mesh)
    u_layer = _cell_energy(mesh, solution.ex, solution.ey)[in_layer]
    return solution, float(u_layer.sum()) / solution.total_energy

