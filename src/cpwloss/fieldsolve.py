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
(a, b) and (b, a), so it is symmetric by construction. The assembly works on
the node grid itself, with no edge lists: the diagonal and the right-hand
side are four shifted sums over (nx, ny) arrays, and the CSC arrays are
written in column order with int32 indices. Its traced peak is about 2.7x
the bytes of A and b (a test holds it within 3x).

The solve splits the grid into two slabs and the strip between them. Below
the surface (or the trench floor) and above the metal, every node with
x < x_max is free and every cell has one permittivity, so the slab's
operator is separable, eps (Kx (x) N + Mx (x) Ky). Its x-modes,
Kx v = mu Mx v, leave one tridiagonal system per mode, eliminated from the
grounded wall with the positive pivot recursion
q_k = mu n_k + d_k q_(k-1) / (q_(k-1) + d_k): the matrix decomposition
method of Lynch, Rice and Thomas (Numer. Math. 6, 185 (1964)), used as the
Schur-complement splitting of Buzbee, Dorr, George and Golub (SIAM J.
Numer. Anal. 8, 722 (1971)). Each slab adds a dense Schur block on the strip
row next to it, and SuperLU factors only the strip, with a minimum-degree
ordering of A^T + A. The slabs are read off `Mesh.eps` and `Mesh.dirichlet`;
a mesh without them runs the same code with the strip as the whole system.

The modes of the graded grid hold to about 1e-8 relative, so the solver is
applied to b and once more to the residual. That residual is summed edge by
edge as g (phi_j - phi_i): the difference of two close potentials is exact
in floating point, where A phi - b subtracts two sums that agree in nearly
all their digits.

The strip's factorization uses one column per panel (panel_size=1) and no
relaxed supernodes (relax=1), which cut the whole system's factor time by a
fifth to a third against SuperLU's defaults. Keep relax <= panel_size:
relaxed supernodes wider than a panel (relax 40 with panel 20) have crashed
the interpreter.

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
    factor_nnz: int = 0  # nonzeros SuperLU stores for the strip's L and U
    strip_unknowns: int = 0  # free nodes of the strip SuperLU factors
    slab_rows: tuple = (0, 0)  # node rows of the bottom and top slab
    # wall s of "assemble", "factor" (the strip's assembly, the modes, the
    # Schur blocks and the strip's LU), "solve" (both applications of the
    # solver) and "post" (freeing the factors, residual check, fields and
    # region energies)
    stage_s: dict = field(default_factory=dict)

    @property
    def capacitance_per_length(self) -> float:
        """C' = 2 U / V^2 in F/m."""
        return 2.0 * self.total_energy / self.voltage**2


def _cell_energy(mesh, ex, ey):
    """Energy per unit length of each cell plus its mirror image, J/m."""
    dx, dy = np.diff(mesh.x)[:, None], np.diff(mesh.y)[None, :]
    return epsilon_0 * mesh.eps * (ex**2 + ey**2) * dx * dy


def _conductances(eps, hx, hy):
    """Edge conductances of the grid: gx (nx-1, ny) couples nodes (i, j) and
    (i+1, j), gy (nx, ny-1) nodes (i, j) and (i, j+1). Each is eps times the
    half faces of the cells on either side, over the edge length; cells
    outside the domain have zero permittivity (zero flux at the border)."""
    ep, hxp, hyp = np.pad(eps, 1), np.pad(hx, 1)[:, None], np.pad(hy, 1)
    gx = (ep[1:-1, :-1] * hyp[:-1] + ep[1:-1, 1:] * hyp[1:]) / (2 * hx[:, None])
    gy = (ep[:-1, 1:-1] * hxp[:-1] + ep[1:, 1:-1] * hxp[1:]) / (2 * hy)
    return gx, gy


def _assemble(eps, hx, hy, free, phi):
    """Reduced matrix A_ff and right-hand side b_f from the edge conductances,
    built on the (nx, ny) node grid. `free` and `phi` are flat over the
    nodes; phi is zero on free nodes.

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
    gx, gy = _conductances(eps, hx, hy)
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


def _flux_residual(gx, gy, phi):
    """b - A phi at every node of the grid, summed edge by edge as
    g * (phi_j - phi_i) over the node's neighbours j."""
    fx = gx * (phi[1:] - phi[:-1])
    fy = gy * (phi[:, 1:] - phi[:, :-1])
    r = np.zeros_like(phi)
    r[:-1] += fx
    r[1:] -= fx
    r[:, :-1] += fy
    r[:, 1:] -= fy
    return r


def _slab_rows(mesh):
    """Row counts (bottom, top) of the slabs, node rows 1..bottom and
    ny-1-top..ny-2: every node with x < x_max is free and every adjacent cell
    has the permittivity of the slab's corner cell. Slabs need Dirichlet rows
    0 and ny-1 and column nx-1, and leave at least one row to the strip."""
    d = mesh.dirichlet
    ny = d.shape[1]
    if not (d[:, 0].all() and d[:, -1].all() and d[-1].all()):
        return 0, 0
    open_row = ~d[:-1, 1:-1].any(axis=0)  # node rows 1..ny-2

    def in_slab(corner):  # open, and both its cell rows at the corner's eps
        one = (mesh.eps == corner).all(axis=0)  # cell rows 0..ny-2
        return open_row & one[:-1] & one[1:]

    def run(ok):  # length of the leading run of True
        return int(np.argmin(np.append(ok, False)))

    bottom = min(run(in_slab(mesh.eps[0, 0])), ny - 3)
    top = min(run(in_slab(mesh.eps[0, -1])[::-1]), ny - 3 - bottom)
    return bottom, top


def _x_modes(hx):
    """Modes of the x operator on the nodes x < x_max: eigenpairs of
    Kx v = mu Mx v with V^T Mx V = I, where Kx is the 1D stiffness (zero
    flux at x = 0, Dirichlet at x_max) and Mx the nodes' dual lengths.
    Returns (mu, V, m), m the diagonal of Mx."""
    from scipy.linalg import eigh_tridiagonal

    m = (np.pad(hx[:-1], (1, 0)) + hx) / 2
    inv_h = 1.0 / hx
    s = 1.0 / np.sqrt(m)
    mu, w = eigh_tridiagonal((np.pad(inv_h[:-1], (1, 0)) + inv_h) * s * s,
                             -inv_h[:-1] * s[:-1] * s[1:])
    return mu, w * s[:, None], m


def _mode_pivots(mu, h):
    """Pivots (s, modes) of each mode's tridiagonal mu * N + Ky over s slab
    rows eliminated from the wall; h[k] is the step below row k, h[s] the
    step to the strip. q_k = p_k - 1/h[k+1] follows a recursion of positive
    terms only."""
    q = np.empty((len(h) - 1, len(mu)))
    q[0] = mu * (h[0] + h[1]) / 2 + 1.0 / h[0]
    for k in range(1, len(q)):
        t = 1.0 / h[k]
        q[k] = mu * (h[k] + h[k + 1]) / 2 + t * q[k - 1] / (q[k - 1] + t)
    return q + 1.0 / h[1:, None]


class _SlabSolver:
    """Direct solver of the reduced system: the uniform slabs are eliminated
    by x-modes, and SuperLU factors the strip of rows between them, with each
    slab's Schur block added on the strip row next to it."""

    def __init__(self, mesh, hx, hy, slab_rows):
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        ny = mesh.dirichlet.shape[1]
        bottom, top = slab_rows
        # the strip's grid runs over rows lo..hi: with a slab, its row next to
        # the strip is held at 0 V
        self.lo, self.hi = bottom, ny - 1 - top
        strip = ~mesh.dirichlet[:, self.lo:self.hi + 1]
        if bottom:
            strip[:, 0] = False
        if top:
            strip[:, -1] = False
        self.strip = strip
        A, _ = _assemble(mesh.eps[:, self.lo:self.hi], hx, hy[self.lo:self.hi],
                         strip.ravel(), np.zeros(strip.size))
        num = np.cumsum(strip).reshape(strip.shape) - 1

        self.slabs = []
        if bottom or top:
            mu, V, m = _x_modes(hx)
        # per slab: its row count, its node rows and their steps in y from
        # the wall towards the strip, its permittivity, and the strip's row
        # next to it (on the strip's grid)
        for n, rows, h, eps, r in (
                (bottom, slice(1, bottom + 1), hy[:bottom + 1], mesh.eps[0, 0], 1),
                (top, slice(ny - 2, ny - 2 - top, -1), hy[ny - 2 - top:][::-1],
                 mesh.eps[0, -1], strip.shape[1] - 2)):
            if not n:
                continue
            p = _mode_pivots(mu, h)
            f = 1.0 / h[1:, None] / p
            ix = np.flatnonzero(strip[:, r])
            mv, pos = m[ix, None] * V[ix], num[ix, r]
            schur = -eps / h[-1] * (mv * f[-1]) @ mv.T  # on the strip row's nodes
            A = A + sp.csc_matrix((schur.ravel(), (np.repeat(pos, len(pos)),
                                                   np.tile(pos, len(pos)))),
                                  shape=A.shape)
            self.slabs.append((rows, V, f, 1.0 / (eps * p), mv, pos))
        # one column per panel, no relaxed supernodes (keep relax <= panel_size)
        try:
            self.lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", relax=1,
                                panel_size=1)
        except RuntimeError as exc:
            raise SolveError(f"factorization of the strip system ({A.shape[0]} "
                             f"unknowns) failed: {exc}") from exc

    def solve(self, r):
        """x with A x = r; r and x are (nx, ny) over the nodes, zero on the
        Dirichlet nodes."""
        x = np.zeros_like(r)
        rs = r[:, self.lo:self.hi + 1][self.strip]
        zs = []
        for rows, V, f, _, mv, pos in self.slabs:
            z = r[:-1, rows].T @ V  # modal right-hand sides, (rows, modes)
            for k in range(1, len(z)):
                z[k] += f[k - 1] * z[k - 1]
            rs[pos] += mv @ (f[-1] * z[-1])
            zs.append(z)
        xs = self.lu.solve(rs)
        x[:, self.lo:self.hi + 1][self.strip] = xs
        for (rows, V, f, g, mv, pos), z in zip(self.slabs, zs):
            z *= g
            z[-1] += f[-1] * (xs[pos] @ mv)
            for k in range(len(z) - 2, -1, -1):
                z[k] += f[k] * z[k + 1]
            x[:-1, rows] = V @ z.T
        return x


def solve_potential(mesh: Mesh, voltage: float = 1.0) -> FieldSolution:
    """Solve the variable-permittivity Laplace problem on the mesh."""
    dirichlet = mesh.dirichlet
    if not dirichlet.any():
        raise SolveError("mesh has no Dirichlet node: the potential is undetermined")
    free = ~dirichlet
    phi = voltage * np.where(dirichlet, mesh.dirichlet_value, 0.0)
    hx, hy = np.diff(mesh.x), np.diff(mesh.y)
    t0 = time.perf_counter()
    A, b = _assemble(mesh.eps, hx, hy, free.ravel(), phi.ravel())

    t1 = time.perf_counter()
    slab_rows = _slab_rows(mesh)
    solver = _SlabSolver(mesh, hx, hy, slab_rows)
    t2 = time.perf_counter()
    rhs = np.zeros_like(phi)
    rhs[free] = b
    phi += solver.solve(rhs)
    # the modes hold to about 1e-8 relative: one step of refinement on the
    # residual summed edge by edge
    r = _flux_residual(*_conductances(mesh.eps, hx, hy), phi)
    r[dirichlet] = 0.0
    phi += solver.solve(r)
    t3 = time.perf_counter()
    # drop the strip's factors and the modes before the post-processing
    # allocates the fields
    factor_nnz, strip_unknowns = int(solver.lu.nnz), solver.lu.shape[0]
    del solver
    phi_free = phi[free]
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
        voltage=voltage, residual=res, unknowns=A.shape[0],
        matrix_nnz=A.nnz, factor_nnz=factor_nnz, strip_unknowns=strip_unknowns,
        slab_rows=slab_rows, stage_s=stage_s,
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

