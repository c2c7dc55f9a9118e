"""2D electrostatic solver for the CPW cross section.

Finite-volume discretization of div(eps * grad(phi)) = 0 on a graded
rectilinear tensor grid. The center trace is held at 1 V, ground planes and
the outer domain box at 0 V. Every mesh is the x >= 0 half of a
mirror-symmetric cross section: the plane x = 0 carries zero flux, and
energies count the mirror image. Every conductor edge and face is a grid
line; the mesh records their node indices, and cells, electrodes and
contours are set by index, never by comparing coordinates.

The operator is built from edge conductances, computed once per solve:
each grid edge couples its two end nodes with eps times the half faces of
the adjacent cells over the edge length. Dirichlet nodes (electrodes and the
outer box) are eliminated: only the free nodes are unknowns. The whole
reduced system is never formed. Its right-hand side b is the flux residual
of the Dirichlet data, and the solved potential is checked by its own flux
residual, summed edge by edge as g (phi_j - phi_i): the difference of two
close potentials is exact in floating point, where A phi - b subtracts two
sums that agree in nearly all their digits.

The solve splits the node rows into bands and separators. A band is a
maximal run of rows with one free-node mask in which the cells touching a
free node share one permittivity row e (it may vary in x, as in a trench).
On a band the operator is separable, Kx,e (x) N + Mx,e (x) Ky, so its
x-modes, Kx,e v = mu Mx,e v (one eigendecomposition per mask and pattern
of e up to a factor), leave one tridiagonal system per mode: the matrix
decomposition method of Lynch, Rice and Thomas (Numer. Math. 6, 185
(1964)), used as the capacitance-matrix splitting of Buzbee, Dorr, George
and Golub (SIAM J. Numer. Anal. 8, 722 (1971)) and Proskurowski and Widlund
(Math. Comp. 30, 433 (1976)). Each mode is eliminated by pivots from either
side, q_k = mu n_k + q_(k-1) / (1 + h_k q_(k-1)), a recursion of positive
terms only. A band puts dense Schur blocks on the separator row on each
side (none on a Dirichlet row) and a cross block between the two. Where two
bands would touch, the boundary row with fewer free nodes is a separator,
and at least one row always is. SuperLU factors only the separator rows
(556 of 423,672 unknowns on the 400C section at level 4), with a
minimum-degree ordering of A^T + A; a mesh without bands runs the same code
with every free row a separator.

The modes of the graded grid hold to about 1e-8 relative, so the solver is
applied to b and once more to the flux residual. The back sweep leaves
about 1% of the modal coefficients subnormal in the first application at
level 4; they are set to 0 before the back transform, which would
otherwise run about four times slower for no change in the result.

The separators' factorization uses one column per panel (panel_size=1) and
no relaxed supernodes (relax=1), which cut the whole system's factor time by
a fifth to a third against SuperLU's defaults. Keep relax <= panel_size:
relaxed supernodes wider than a panel (relax 40 with panel 20) have crashed
the interpreter. The sub-grid assembly works on the node grid itself, with
no edge lists, and its traced peak is about 2.3x the bytes of A (a test
holds it within 3x).

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
    strip_unknowns: int = 0  # free nodes of the separator rows SuperLU factors
    bands: tuple = ()  # (first, last) node rows of each band
    # wall s of "assemble" (the edge conductances and b), "factor" (the
    # bands, their modes and Schur blocks, the separators' assembly and LU),
    # "solve" (both applications of the solver) and "post" (freeing the
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


def _conductances(eps, hx, hy):
    """Edge conductances of the grid: gx (nx-1, ny) couples nodes (i, j) and
    (i+1, j), gy (nx, ny-1) nodes (i, j) and (i, j+1). Each is eps times the
    half faces of the cells on either side, over the edge length; cells
    outside the domain have zero permittivity (zero flux at the border)."""
    ep, hxp, hyp = np.pad(eps, 1), np.pad(hx, 1)[:, None], np.pad(hy, 1)
    gx = (ep[1:-1, :-1] * hyp[:-1] + ep[1:-1, 1:] * hyp[1:]) / (2 * hx[:, None])
    gy = (ep[:-1, 1:-1] * hxp[:-1] + ep[1:, 1:-1] * hxp[1:]) / (2 * hy)
    return gx, gy


def _assemble(gx, gy, free):
    """Reduced matrix A_ff of the free nodes, built from the edge conductances
    on the (nx, ny) node grid; `free` is the (nx, ny) node mask.

    The diagonal is a shifted in-place sum over the grid. Its order (east,
    north, west, south edge) is fixed: it is the order in which bincount
    over the edge-list reference in the tests adds them, so A equals that
    reference bit for bit.
    The CSC arrays are written in column order: each free node's column holds
    its west, south, own, north and east entries, which is increasing row
    order; a neighbour past the border or on a held node gives none.
    """
    import scipy.sparse as sp

    nx, ny = free.shape
    diag = np.zeros((nx, ny))
    diag[:-1] += gx  # east
    diag[:, :-1] += gy  # north
    diag[1:] += gx  # west
    diag[:, 1:] += gy  # south

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
    return sp.csc_matrix((val[keep], row[keep], indptr), shape=(n_free, n_free))


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


def _flush(a):
    """Set the subnormal entries of a to 0, in place."""
    a[np.abs(a) < np.finfo(a.dtype).tiny] = 0.0


def _bands(mesh):
    """(first, last) node rows of each band: a maximal run of rows with one
    free-node mask in which every cell touching a free node has the
    permittivity of the cell below it, so that all the band's rows see one
    permittivity row. Where two bands would touch, the boundary row with
    fewer free nodes is left to the separators; rows 0 and ny-1 are in no
    band, and at least one free row is a separator."""
    free = ~mesh.dirichlet
    count = free.sum(axis=0)
    ep = np.pad(mesh.eps, ((0, 0), (1, 1)))  # cell rows -1..ny-1
    touch = free[:-1] | free[1:]  # cell i touches nodes i and i+1
    ok = (count > 0) & ~(touch & (ep[:, :-1] != ep[:, 1:])).any(axis=0)
    ok[[0, -1]] = False
    joins = ok[1:] & ok[:-1] & (free[:, 1:] == free[:, :-1]).all(axis=0)
    bands = []
    for a, b in zip(np.flatnonzero(ok & ~np.append(False, joins)).tolist(),
                    np.flatnonzero(ok & ~np.append(joins, False)).tolist()):
        if bands and bands[-1][1] == a - 1:
            if count[a - 1] < count[a]:
                bands[-1][1] -= 1
                if bands[-1][0] > bands[-1][1]:
                    bands.pop()
            else:
                a += 1
        if a <= b:
            bands.append([a, b])
    if bands and sum(b - a + 1 for a, b in bands) == np.count_nonzero(count):
        bands[0][0] += 1
        if bands[0][0] > bands[0][1]:
            bands.pop(0)
    return tuple((a, b) for a, b in bands)


def _x_modes(hx, e, free):
    """Modes of a band's x operator on its free nodes: eigenpairs of
    Kx v = mu Mx v with V^T Mx V = I, where Kx is the 1D stiffness with the
    cells' permittivity e (zero flux past the border, held nodes off the
    mask) and Mx the nodes' dual lengths weighted by e. Returns (mu, V, m),
    m the diagonal of Mx."""
    from scipy.linalg import eigh_tridiagonal

    w, eh = np.pad(e / hx, 1), np.pad(e * hx, 1)
    idx = np.flatnonzero(free)
    m = (eh[idx] + eh[idx + 1]) / 2
    off = np.where(np.diff(idx) == 1, w[idx[:-1] + 1], 0.0)
    s = 1.0 / np.sqrt(m)
    mu, v = eigh_tridiagonal((w[idx] + w[idx + 1]) * s * s, -off * s[:-1] * s[1:])
    return mu, v * s[:, None], m


def _mode_pivots(mu, h):
    """Pivots (s, modes) of each mode's tridiagonal mu * N + Ky over s band
    rows eliminated from the lower side; h[k] is the step below row k, h[s]
    the step above the last row. q_k = p_k - 1/h[k+1] follows a recursion of
    positive terms only, q_k = mu n_k + q_(k-1) / (1 + h[k] q_(k-1))."""
    q = np.multiply.outer((h[:-1] + h[1:]) / 2, mu)
    q[0] += 1.0 / h[0]
    for cur, prev, hk in zip(q[1:], q, h[1:].tolist()):
        cur += prev / (prev * hk + 1.0)
    return q + 1.0 / h[1:, None]


class _BandSolver:
    """Direct solver of the reduced system: every band is eliminated by its
    x-modes, and SuperLU factors the separator rows, which carry each band's
    Schur blocks."""

    def __init__(self, mesh, gx, gy, bands):
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        free = ~mesh.dirichlet
        ny = free.shape[1]
        hx, hy = np.diff(mesh.x), np.diff(mesh.y)
        sep = free.copy()
        for a, b in bands:
            sep[:, a:b + 1] = False
        self.rows = np.flatnonzero(sep.any(axis=0))
        self.sep = sep[:, self.rows]
        # the separator rows and their neighbours, held at 0 V; rows that are
        # not neighbours share no edge
        near = np.unique(np.clip(np.concatenate(
            (self.rows - 1, self.rows, self.rows + 1)), 0, ny - 1))
        # the Schur blocks fill most of the separator system: it is summed
        # dense and handed to SuperLU in CSC
        S = _assemble(gx[:, near], gy[:, near[:-1]] * (np.diff(near) == 1),
                      sep[:, near]).toarray()
        num = np.cumsum(self.sep).reshape(self.sep.shape) - 1

        def side(j, cols, m, V):  # the band's coupling to separator row j
            ix = np.flatnonzero(cols & sep[:, j])
            if not ix.size:
                return None
            k = (np.cumsum(cols) - 1)[ix]  # positions among the band's nodes
            return num[ix, np.searchsorted(self.rows, j)], m[k, None] * V[k]

        def block(s1, s2, d):  # Schur block -mv1 diag(d) mv2^T, and its mirror
            (p1, mv1), (p2, mv2) = s1, s2
            schur = (mv1 * d) @ mv2.T
            S[np.ix_(p1, p2)] -= schur
            if s1 is not s2:
                S[np.ix_(p2, p1)] -= schur.T

        modes = {}
        self.bands = []
        for a, b in bands:
            # the band's operator is c (Kx (x) N + Mx (x) Ky), its modes those
            # of the permittivity row over c, shared by every band of that
            # mask and pattern
            cols = free[:, a]
            e = np.where(cols[:-1] | cols[1:], mesh.eps[:, a], 0.0)
            c = e[np.flatnonzero(e)[0]]
            key = (cols.tobytes(), (e / c).tobytes())
            if key not in modes:
                modes[key] = _x_modes(hx, e / c, cols)
            mu, V, m = modes[key]
            # rows in the order of elimination, from the lower side unless
            # only the lower side is a separator; h[k] is the step before row k
            rows, h = slice(a, b + 1), hy[a - 1:b + 1]
            lo, hi = side(a - 1, cols, m, V), side(b + 1, cols, m, V)
            if lo and not hi:
                rows, h, lo, hi = slice(b, a - 1, -1), h[::-1], None, lo
            p = _mode_pivots(mu, h)
            f = 1.0 / h[1:, None] / p
            gh = None
            if lo:
                # column 0 of the inverse tridiagonal over h[0], from the
                # pivots eliminated from the other side
                q = _mode_pivots(mu, h[::-1])[::-1]
                gh = np.cumprod(np.vstack((1.0 / q[:1], 1.0 / h[1:-1, None] / q[1:])),
                                axis=0) / h[0]
                _flush(gh)
                block(lo, lo, c / h[0] * gh[0])
            if hi:
                block(hi, hi, c / h[-1] * f[-1])
            if lo and hi:
                block(lo, hi, c / h[-1] * gh[-1])
            self.bands.append((cols, rows, V, f, 1.0 / (c * p), lo, hi, gh))

        # S is symmetric (its Schur blocks up to rounding): its rows, in
        # memory order, are the columns of its CSC form
        n, at = len(S), np.flatnonzero(S)
        A = sp.csc_matrix((S.ravel()[at], (at % n).astype(np.int32),
                           np.searchsorted(at, np.arange(0, n * n + 1, n))
                           .astype(np.int32)), shape=S.shape)
        del S
        # one column per panel, no relaxed supernodes (keep relax <= panel_size)
        try:
            self.lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", relax=1,
                                panel_size=1)
        except RuntimeError as exc:
            raise SolveError(f"factorization of the separator system "
                             f"({A.shape[0]} unknowns) failed: {exc}") from exc

    def solve(self, r):
        """x with A x = r; r and x are (nx, ny) over the nodes. Only the free
        entries of r are read; x is zero on the Dirichlet nodes."""
        x = np.zeros_like(r)
        rs = r[:, self.rows][self.sep]
        zs = []
        for cols, rows, V, f, _, lo, hi, gh in self.bands:
            z = r[cols, rows].T @ V  # modal right-hand sides, (rows, modes)
            if lo:
                rs[lo[0]] += lo[1] @ np.einsum("km,km->m", gh, z)
            for cur, prev, fp in zip(z[1:], z, f):
                cur += fp * prev
            if hi:
                rs[hi[0]] += hi[1] @ (f[-1] * z[-1])
            zs.append(z)
        xs = self.lu.solve(rs)
        xr = np.zeros(self.sep.shape)
        xr[self.sep] = xs
        x[:, self.rows] = xr
        for (cols, rows, V, f, g, lo, hi, gh), z in zip(self.bands, zs):
            z *= g
            if hi:
                z[-1] += f[-1] * (xs[hi[0]] @ hi[1])
            for cur, nxt, fc in zip(z[-2::-1], z[::-1], f[-2::-1]):
                cur += fc * nxt
            if lo:
                z += gh * (xs[lo[0]] @ lo[1])
            # the back sweep leaves subnormal coefficients in the decaying
            # modes; they would slow the matmul about fourfold and add nothing
            _flush(z)
            x[cols, rows] = V @ z.T
        return x


def solve_potential(mesh: Mesh, voltage: float = 1.0) -> FieldSolution:
    """Solve the variable-permittivity Laplace problem on the mesh."""
    dirichlet = mesh.dirichlet
    if not dirichlet.any():
        raise SolveError("mesh has no Dirichlet node: the potential is undetermined")
    free = ~dirichlet
    phi = voltage * np.where(dirichlet, mesh.dirichlet_value, 0.0)
    t0 = time.perf_counter()
    gx, gy = _conductances(mesh.eps, np.diff(mesh.x), np.diff(mesh.y))
    b = _flux_residual(gx, gy, phi)  # on the free nodes, the rhs of A phi_f = b

    t1 = time.perf_counter()
    bands = _bands(mesh)
    solver = _BandSolver(mesh, gx, gy, bands)
    t2 = time.perf_counter()
    phi += solver.solve(b)
    # the modes hold to about 1e-8 relative: one step of refinement on the
    # residual summed edge by edge
    phi += solver.solve(_flux_residual(gx, gy, phi))
    t3 = time.perf_counter()
    # drop the factors and the modes before the post-processing allocates
    # the fields
    factor_nnz, strip_unknowns = int(solver.lu.nnz), solver.lu.shape[0]
    del solver
    if not np.all(np.isfinite(phi[free])):
        raise SolveError("linear solve produced non-finite potential")
    # the full system's Dirichlet rows have zero residual, so this equals its
    # residual relative to the Dirichlet data. The norms are numpy reductions,
    # not BLAS dots, which would spread over every core unless pinned.
    r, d = _flux_residual(gx, gy, phi)[free], phi[dirichlet]
    res = np.sqrt(np.sum(r * r)) / max(np.sqrt(np.sum(d * d)), 1e-300)
    if res > RESIDUAL_RTOL:
        raise SolveError(f"linear solve did not converge: relative residual "
                         f"{res:.3e} > {RESIDUAL_RTOL:.1e}")
    unknowns = r.size
    edges = int(np.count_nonzero(free[1:] & free[:-1])
                + np.count_nonzero(free[:, 1:] & free[:, :-1]))

    hx, hy = np.diff(mesh.x), np.diff(mesh.y)
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
        voltage=voltage, residual=res, unknowns=unknowns,
        matrix_nnz=unknowns + 2 * edges, factor_nnz=factor_nnz,
        strip_unknowns=strip_unknowns, bands=bands, stage_s=stage_s,
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

