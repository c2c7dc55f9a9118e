import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.constants import epsilon_0
from scipy.sparse.linalg import spsolve

import cpwloss
from cpwloss import (
    RegionId, build_mesh, build_stack, simulate_budget, solve_potential,
    thin_layer_participation,
)
from cpwloss.errors import MeshError, SolveError
from cpwloss.fieldsolve import (
    CELL_AIR, CELL_METAL, CELL_SUBSTRATE, Mesh, _assemble, _bands, _cell_energy,
    _conductances, _flux_residual, _x_modes, dump_fields_csv, mesh_inputs,
    solve_with_meshed_sa_layer,
)
from cpwloss.geometry import _LENGTH_KEYS


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


def cpw_gap_field_conformal(x, a, b, voltage=1.0):
    """Conformal-mapping E_x on the gap surface a < x < b of a zero-thickness
    CPW (trace |x| < a at `voltage`, grounds |x| > b):

    E_x = V b / (K(k') sqrt((x^2 - a^2)(b^2 - x^2))), k = a / b.

    It is the same on the air and the substrate side, and E_y = 0 there.
    """
    from scipy.special import ellipk

    k = a / b
    return voltage * b / (ellipk(1 - k * k)
                          * np.sqrt((x * x - a * a) * (b * b - x * x)))


def cpw_gap_field_squared_integral(a, b, cut, voltage=1.0):
    """Integral of cpw_gap_field_conformal^2 over a + cut < x < b - cut, in
    closed form by partial fractions:
    1 / ((x^2 - a^2)(b^2 - x^2)) = (1 / (x^2 - a^2) + 1 / (b^2 - x^2)) / (b^2 - a^2).
    """
    from scipy.special import ellipk

    k = a / b

    def antiderivative(x):
        return (np.log((x - a) / (x + a)) / (2 * a)
                + np.log((b + x) / (b - x)) / (2 * b)) / (b * b - a * a)

    return (voltage * b / ellipk(1 - k * k)) ** 2 * (
        antiderivative(b - cut) - antiderivative(a + cut))


def _graded(a, b, n, ratio=1.25):
    """n + 1 coordinates on [a, b] with geometrically growing steps."""
    steps = ratio ** np.arange(n)
    return a + (b - a) * np.concatenate(([0.0], np.cumsum(steps) / steps.sum()))


def _parallel_plate_mesh(x=np.linspace(0.0, 1e-6, 41),
                         y=np.linspace(0.0, 1e-6, 41), eps_rows=1.0):
    """Flat electrodes at y[0] (1 V) and y[-1] (0 V); eps_rows gives the
    permittivity of each row of cells (scalar: uniform dielectric)."""
    nx, ny = len(x), len(y)
    eps = np.array(np.broadcast_to(eps_rows, (nx - 1, ny - 1)), dtype=float)
    region = np.full((nx - 1, ny - 1), CELL_AIR, dtype=np.int8)
    dirichlet = np.zeros((nx, ny), dtype=bool)
    value = np.zeros((nx, ny))
    dirichlet[:, 0] = True
    value[:, 0] = 1.0
    dirichlet[:, -1] = True
    return Mesh(x=x, y=y, eps=eps, region=region, dirichlet=dirichlet,
                dirichlet_value=value)


def test_parallel_plate_linear_potential():
    d = 1e-6
    mesh = _parallel_plate_mesh()
    sol = solve_potential(mesh)
    # rows 1..ny-2 share one mask and one permittivity: one band, less its
    # first row, which stays the one separator row
    assert sol.bands == ((2, len(mesh.y) - 2),)
    assert sol.strip_unknowns == len(mesh.x)
    # potential linear in y, field magnitude V/d, both to 0.1%
    expected = 1.0 - mesh.y / d
    assert np.allclose(sol.phi, expected[None, :], atol=1e-3)
    assert np.allclose(np.abs(sol.ey), 1.0 / d, rtol=1e-3)
    assert np.max(np.abs(sol.ex)) < 1e-3 / d

    # linear data on every border node of a graded grid is reproduced
    # exactly: the discrete fluxes of a linear potential balance at each node
    mesh = _parallel_plate_mesh(x=_graded(0.0, 2e-6, 30), y=_graded(0.0, d, 25, 0.85))
    xx, yy = np.meshgrid(mesh.x, mesh.y, indexing="ij")
    mesh.dirichlet_value = 0.2 + 0.5 * xx / 2e-6 + 0.3 * yy / d
    mesh.dirichlet[[0, -1], :] = True
    sol = solve_potential(mesh)
    np.testing.assert_allclose(sol.phi, mesh.dirichlet_value, rtol=0, atol=1e-12)


def test_parallel_plate_capacitance():
    # the mesh on x in [0, 1 um] is the half of a plate 2 um wide
    d, width = 1e-6, 2e-6
    mesh = _parallel_plate_mesh(eps_rows=4.0)
    sol = solve_potential(mesh)
    assert sol.capacitance_per_length == pytest.approx(
        4.0 * epsilon_0 * width / d, rel=1e-6)

    # two dielectric layers on a graded grid: capacitors in series, exact
    d1, d2, eps1, eps2 = 0.4e-6, 0.7e-6, 11.9, 3.9
    y = np.concatenate((_graded(0.0, d1, 15), _graded(d1, d1 + d2, 20, 0.8)[1:]))
    rows = np.where(0.5 * (y[:-1] + y[1:]) < d1, eps1, eps2)
    sol = solve_potential(_parallel_plate_mesh(x=_graded(0.0, width / 2, 25), y=y,
                                               eps_rows=rows))
    assert sol.capacitance_per_length == pytest.approx(
        epsilon_0 * width / (d1 / eps1 + d2 / eps2), rel=1e-12)


def test_mesh_cell_count_level1():
    mesh = build_mesh(build_stack({}), 1)
    assert mesh.n_cells >= 1e4


def test_refinement_doubles_cells_near_corners():
    stack = build_stack({})
    w2 = stack.trace_width / 2
    tm = stack.metal_thickness

    def near_corner_cells(mesh):
        xm = 0.5 * (mesh.x[:-1] + mesh.x[1:])
        ym = 0.5 * (mesh.y[:-1] + mesh.y[1:])
        nx = np.count_nonzero(np.abs(xm - w2) < 200e-9)
        ny = np.count_nonzero((ym > tm - 200e-9) & (ym < tm + 200e-9))
        return nx * ny

    m1 = build_mesh(stack, 1)
    m2 = build_mesh(stack, 2)
    assert near_corner_cells(m2) >= 2 * near_corner_cells(m1)


def test_finest_cells_sit_at_conductor_corners():
    stack = build_stack({})
    mesh = build_mesh(stack, 1)
    hx = np.diff(mesh.x)
    i_corner = np.searchsorted(mesh.x, stack.trace_width / 2)
    assert hx[i_corner - 1] == pytest.approx(hx.min(), rel=0.5)
    # grading rule: finest cells no larger than trace_width / 50
    assert hx.min() <= stack.trace_width / 50


def test_mesh_depends_on_exactly_mesh_inputs():
    """Changing one stack value changes the mesh exactly when mesh_inputs
    lists it, so a solution reused across stacks that agree on mesh_inputs
    is a solution of the same cross section."""
    base = build_stack({})
    listed = mesh_inputs(base)
    # each length 10% longer; the zero trench_depth becomes 0.5 um
    changes = [(name, {name: getattr(base, name) * 1.1 or 0.5e-6})
               for name in _LENGTH_KEYS]
    for role, mat in base.materials.items():
        if role == "air":  # air's permittivity is fixed at 1
            continue
        denser = replace(mat, relative_permittivity=mat.relative_permittivity * 1.1)
        changes.append((f"{role} relative_permittivity",
                        {"materials": {**base.materials, role: denser}}))

    def arrays(mesh):
        return mesh.x, mesh.y, mesh.eps, mesh.region, mesh.dirichlet

    reference = arrays(build_mesh(base, 1))
    for name, change in changes:
        mesh = build_mesh(replace(base, **change), 1)
        same = all(map(np.array_equal, arrays(mesh), reference))
        assert same == (name not in listed), name


def test_degenerate_geometry_fails_mesh():
    stack = build_stack({})
    object.__setattr__(stack, "gap", 0.0)  # bypass constructor validation
    with pytest.raises(MeshError):
        build_mesh(stack, 1)
    with pytest.raises(MeshError):
        build_mesh(build_stack({}), 0)


def test_cpw_capacitance_vs_conformal_mapping():
    # conformal formula assumes zero metal thickness; use a thin metal
    stack = build_stack({"metal_thickness": "10 nm"})
    sol = solve_potential(build_mesh(stack, 2))
    c_ref = cpw_capacitance_conformal(stack.trace_width, stack.gap, 11.9)
    assert sol.capacitance_per_length == pytest.approx(c_ref, rel=0.02)


@pytest.fixture(scope="module", params=[2, 3], ids=["L2", "L3"])
def thin_metal_solution(request):
    # the conformal forms hold for zero-thickness metal; 2 nm is close to it
    stack = build_stack({"metal_thickness": "2 nm"})
    return solve_potential(build_mesh(stack, request.param))


def _gap_edges(solution):
    x, lines = solution.mesh.x, solution.mesh.lines
    return x[lines["trace_edge"]], x[lines["ground_edge"]]


def test_gap_surface_field_matches_conformal_mapping(thin_metal_solution):
    x, phi = thin_metal_solution.mesh.x, thin_metal_solution.phi
    j0 = thin_metal_solution.mesh.lines["surface"]
    a, b = _gap_edges(thin_metal_solution)
    i = np.flatnonzero((x > a + 0.1 * (b - a)) & (x < b - 0.1 * (b - a)))
    e_x = -(phi[i + 1, j0] - phi[i - 1, j0]) / (x[i + 1] - x[i - 1])
    # measured -0.09..+0.27% at L2 and +0.01..+0.11% at L3
    ratio = e_x / cpw_gap_field_conformal(x[i], a, b)
    assert np.abs(ratio - 1).max() < 0.005


def test_thin_layer_p_sa_matches_conformal_integral(thin_metal_solution):
    t, eps = 2.5e-9, 3.9
    p_sa = thin_layer_participation(thin_metal_solution, RegionId.SubstrateAir,
                                    t, eps)
    # (eps0 t / 2) eps E_x^2 over both gaps, cut off t/4 from each edge as the
    # rule does; E_y = 0 on the gap surface
    a, b = _gap_edges(thin_metal_solution)
    energy = epsilon_0 * t * eps * cpw_gap_field_squared_integral(a, b, t / 4)
    # measured ratios 0.9555 (L2), 1.0295 (L3), 1.0201 (L4): the rule is not
    # monotone in the refinement level, so no level is a bound on the next
    assert p_sa == pytest.approx(energy / thin_metal_solution.total_energy,
                                 rel=0.05)


def test_energy_positivity(ref_solution_l2):
    for energy in ref_solution_l2.region_energy.values():
        assert energy >= 0
    assert ref_solution_l2.total_energy > 0
    assert ref_solution_l2.total_energy == pytest.approx(
        sum(ref_solution_l2.region_energy.values()))


def test_residual_below_tolerance(ref_solution_l2):
    assert ref_solution_l2.residual < 1e-8
    # the refinement step brings it to the level of a whole-system SuperLU
    # solve (5.3e-13); without it, 3.3e-12
    assert ref_solution_l2.residual <= 1e-12


def test_solver_stats(ref_solution_l2):
    mesh = ref_solution_l2.mesh
    free = ~mesh.dirichlet
    assert ref_solution_l2.unknowns == np.count_nonzero(free)
    # one diagonal entry per unknown and two per free-free grid edge
    edges = (np.count_nonzero(free[1:] & free[:-1])
             + np.count_nonzero(free[:, 1:] & free[:, :-1]))
    assert ref_solution_l2.matrix_nnz == ref_solution_l2.unknowns + 2 * edges
    # SuperLU factors the separator rows: the free nodes of the rows in no
    # band, a small part of the system
    in_band = np.zeros(free.shape[1], dtype=bool)
    for first, last in ref_solution_l2.bands:
        in_band[first:last + 1] = True
    strip = np.count_nonzero(free[:, ~in_band])
    assert 0 < ref_solution_l2.strip_unknowns == strip < ref_solution_l2.unknowns
    # the separators' factors hold at least their diagonal and one coupling
    # per unknown
    assert ref_solution_l2.factor_nnz > 2 * ref_solution_l2.strip_unknowns
    assert set(ref_solution_l2.stage_s) == {"assemble", "factor", "solve", "post"}


def test_solver_matches_frozen_l2_budget(ref_solution_l2, ref_stack):
    # level-2 budget of the 400C reference preset, frozen (repr) from the
    # full-system solve that eliminated no Dirichlet node
    frozen = {
        "substrate": 0.9191985745691525,
        "air": 0.0808014254308474,
        "metal_air": 1.4082633830673248e-05,
        "substrate_air": 0.0003567715904660964,
    }
    budget = simulate_budget(ref_stack, solution=ref_solution_l2)
    for region, value in frozen.items():
        assert budget.entry(region).participation == pytest.approx(value, rel=1e-9)
    assert budget.total == pytest.approx(8.668338567930862e-07, rel=1e-9)


def _edge_list_assemble(eps, hx, hy, free, phi):
    """The reduced system built from edge lists: the reference for the
    grid-native `_assemble`, whose A and b must equal it bit for bit.

    Each grid edge (a, b) has conductance g: eps times the half faces of the
    cells on either side, over the edge length. bincount over the edge ends
    gives the diagonal and the Dirichlet couplings; scipy sorts the COO
    entries of the free-free edges into CSC.
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
    rhs = np.bincount(ends, np.concatenate((g * phi[b], g * phi[a])), nx * ny)[free]
    num = np.cumsum(free) - 1
    both = free[a] & free[b]
    fa, fb, gf = num[a[both]], num[b[both]], -g[both]
    idx = np.arange(len(diag))
    A = sp.csc_matrix(
        (np.concatenate((diag, gf, gf)),
         (np.concatenate((idx, fa, fb)), np.concatenate((idx, fb, fa)))),
        shape=(len(diag), len(diag)),
    )
    return A, rhs


def _system_inputs(mesh, voltage=1.0):
    """The arguments `solve_potential` passes to `_assemble`."""
    dirichlet = mesh.dirichlet.ravel()
    phi = voltage * np.where(dirichlet, mesh.dirichlet_value.ravel(), 0.0)
    return mesh.eps, np.diff(mesh.x), np.diff(mesh.y), ~dirichlet, phi


def _assert_same_bits(got, want, name):
    assert got.dtype == want.dtype, name
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


@settings(max_examples=25, deadline=None)
@given(
    width_um=st.floats(2.0, 20.0),
    gap_um=st.floats(1.0, 10.0),
    metal_nm=st.floats(20.0, 500.0),
    trench_um=st.one_of(st.just(0.0), st.floats(0.1, 3.0)),
    level=st.integers(1, 2),
)
def test_assembly_matches_edge_list_reference(width_um, gap_um, metal_nm,
                                              trench_um, level):
    stack = build_stack({
        "trace_width": width_um * 1e-6, "gap": gap_um * 1e-6,
        "metal_thickness": metal_nm * 1e-9, "trench_depth": trench_um * 1e-6,
    })
    mesh = build_mesh(stack, level)
    eps, hx, hy, free, phi = _system_inputs(mesh)
    A = _assemble(*_conductances(eps, hx, hy), free.reshape(mesh.dirichlet.shape))
    A_ref, _ = _edge_list_assemble(eps, hx, hy, free, phi)
    for name in ("indptr", "indices", "data"):
        _assert_same_bits(getattr(A, name), getattr(A_ref, name), name)


@settings(max_examples=25, deadline=None)
@given(
    width_um=st.floats(2.0, 20.0),
    gap_um=st.floats(1.0, 10.0),
    metal_nm=st.floats(20.0, 500.0),
    trench_um=st.one_of(st.just(0.0), st.floats(0.1, 3.0)),
    level=st.integers(1, 2),
    voltage=st.floats(-100.0, 100.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_flux_residual_matches_edge_list_system(width_um, gap_um, metal_nm,
                                                trench_um, level, voltage, seed):
    # the solver never forms the whole system: it takes b as the flux
    # residual of the Dirichlet data, and checks the solved potential by its
    # flux residual. For any phi on the free nodes that is b - A phi.
    stack = build_stack({
        "trace_width": width_um * 1e-6, "gap": gap_um * 1e-6,
        "metal_thickness": metal_nm * 1e-9, "trench_depth": trench_um * 1e-6,
    })
    mesh = build_mesh(stack, level)
    eps, hx, hy, free, phi = _system_inputs(mesh, voltage)
    A, b = _edge_list_assemble(eps, hx, hy, free, phi)
    phi[free] = voltage * np.random.default_rng(seed).random(A.shape[0])
    r = _flux_residual(*_conductances(eps, hx, hy),
                       phi.reshape(mesh.dirichlet.shape)).ravel()[free]
    a_phi = A @ phi[free]
    bound = 1e-12 * (np.linalg.norm(b) + np.linalg.norm(a_phi))
    assert np.linalg.norm(r - (b - a_phi)) <= bound


@pytest.mark.parametrize("trench", [0.0, 2e-6], ids=["flat", "trench"])
def test_assembly_peak_memory_is_bounded_by_its_output(ref_stack, trench):
    # the grid-native build peaks at about 2.7x the bytes it returns, the
    # edge-list reference above at 6x
    mesh = build_mesh(replace(ref_stack, trench_depth=trench), 2)
    gx, gy = _conductances(mesh.eps, np.diff(mesh.x), np.diff(mesh.y))
    free = ~mesh.dirichlet
    tracemalloc.start()
    try:
        A = _assemble(gx, gy, free)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
    assert peak <= 3 * output


def _reference_solve(mesh, voltage=1.0):
    """Potential and per-cell energy from spsolve of the edge-list system:
    SuperLU with scipy's default ordering and factor settings, on the whole
    reduced system."""
    eps, hx, hy, free, phi = _system_inputs(mesh, voltage)
    A, b = _edge_list_assemble(eps, hx, hy, free, phi)
    phi[free] = spsolve(A, b)
    phi = phi.reshape(mesh.dirichlet.shape)
    # cell fields: differences along each axis, averaged over the cell's two edges
    ex = -(np.diff(phi[:, :-1], axis=0) + np.diff(phi[:, 1:], axis=0)) \
        / (2 * hx[:, None])
    ey = -(np.diff(phi[:-1], axis=1) + np.diff(phi[1:], axis=1)) / (2 * hy)
    return phi, _cell_energy(mesh, ex, ey)


def _check_against_reference(solution):
    mesh, voltage = solution.mesh, solution.voltage
    phi, u_cell = _reference_solve(mesh, voltage)
    # the absolute bound is relative to the electrode's potential
    np.testing.assert_allclose(solution.phi, phi, rtol=0, atol=1e-10 * abs(voltage))
    for region, code in ((RegionId.Substrate, CELL_SUBSTRATE),
                         (RegionId.Air, CELL_AIR)):
        assert solution.region_energy[region] == pytest.approx(
            u_cell[mesh.region == code].sum(), rel=1e-10)
    return u_cell


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("trench", [0.0, 2e-6], ids=["flat", "trench"])
def test_solver_matches_independent_spsolve(ref_stack, level, trench):
    stack = replace(ref_stack, trench_depth=trench)
    _check_against_reference(solve_potential(build_mesh(stack, level)))


@settings(max_examples=20, deadline=None)
@given(
    width_um=st.floats(2.0, 20.0),
    gap_um=st.floats(1.0, 10.0),
    trench_um=st.one_of(st.just(0.0), st.floats(0.1, 3.0)),
    eps_sub=st.floats(1.5, 12.0),
    voltage=st.floats(0.01, 100.0),
    level=st.integers(1, 2),
)
def test_solver_matches_independent_spsolve_random_cross_sections(
        width_um, gap_um, trench_um, eps_sub, voltage, level):
    stack = build_stack({
        "trace_width": width_um * 1e-6, "gap": gap_um * 1e-6,
        "trench_depth": trench_um * 1e-6,
        "materials": {"substrate": {"relative_permittivity": eps_sub}},
    })
    _check_against_reference(solve_potential(build_mesh(stack, level), voltage))


def test_separators_are_a_small_part_of_the_system(ref_stack):
    # flat: bands below the surface, in the gap between the electrodes and
    # above the metal; SuperLU factors the surface and metal-top rows of the
    # gap (282 of 109,557 unknowns at L3)
    sol = solve_potential(build_mesh(ref_stack, 3))
    lines, ny = sol.mesh.lines, len(sol.mesh.y)
    j0, jt = lines["surface"], lines["metal_top"]
    assert sol.bands == ((1, j0 - 1), (j0 + 1, jt - 1), (jt + 1, ny - 2))
    assert sol.strip_unknowns <= 0.02 * sol.unknowns
    # with a trench, the trench floor is a separator too, and the trench
    # between it and the surface is a band whose permittivity varies in x
    mesh = build_mesh(replace(ref_stack, trench_depth=2e-6), 2)
    sol = solve_potential(mesh)
    jf, j0, jt = (mesh.lines[k] for k in ("trench_floor", "surface", "metal_top"))
    assert sol.bands == ((1, jf - 1), (jf + 1, j0 - 1), (j0 + 1, jt - 1),
                         (jt + 1, len(mesh.y) - 2))
    assert sol.strip_unknowns <= 0.02 * sol.unknowns


_kinds = st.sampled_from(["flat", "trench", "sa-layer"])


def _random_cross_section(kind, width_um, gap_um, depth_um, level):
    """The mesh of a random cross section: flat, with a trench, or with the
    gap-floor oxide meshed (a trench whose cells have their own permittivity)."""
    stack = build_stack({"trace_width": width_um * 1e-6, "gap": gap_um * 1e-6})
    if kind == "sa-layer":
        return solve_with_meshed_sa_layer(stack, 3.9, depth_um * 1e-6, level)[0].mesh
    depth = depth_um * 1e-6 if kind == "trench" else 0.0
    return build_mesh(replace(stack, trench_depth=depth), level)


@settings(max_examples=12, deadline=None)
@given(kind=_kinds, width_um=st.floats(2.0, 20.0), gap_um=st.floats(1.0, 10.0),
       depth_um=st.floats(0.01, 3.0), level=st.integers(1, 2))
def test_bands_partition_the_free_rows(kind, width_um, gap_um, depth_um, level):
    mesh = _random_cross_section(kind, width_um, gap_um, depth_um, level)
    free, eps = ~mesh.dirichlet, mesh.eps
    bands = _bands(mesh)
    # disjoint, in order, no two touching, none on the border rows
    rows = [j for first, last in bands for j in (first, last)]
    assert rows == sorted(rows) and rows[0] >= 1 and rows[-1] <= len(mesh.y) - 2
    assert all(last + 1 < first for (_, last), (first, _) in zip(bands, bands[1:]))
    in_band = np.zeros(len(mesh.y), dtype=bool)
    for first, last in bands:
        assert first <= last
        in_band[first:last + 1] = True
        # one free-node mask, and one permittivity in each column of cells
        # touching a free node, over the band and the cell rows around it
        cols = free[:, first]
        assert (free[:, first:last + 1] == cols[:, None]).all()
        touch = cols[:-1] | cols[1:]
        assert (eps[touch, first - 1:last + 1] == eps[touch, first, None]).all()
    # every other free row is a separator, and there is at least one
    separators = free.any(axis=0) & ~in_band
    assert separators.any()
    sol = solve_potential(mesh)
    assert sol.bands == bands
    assert sol.strip_unknowns == np.count_nonzero(free[:, separators])


def _second_difference(h):
    """Stiffness D^T diag(1/h) D of a line of len(h) - 1 nodes whose two
    outer neighbours are held (an infinite step links none: zero flux), and
    the nodes' dual lengths."""
    n = len(h) - 1
    d = sp.diags([np.ones(n), -np.ones(n)], [0, -1], shape=(n + 1, n))
    return (d.T @ sp.diags(1.0 / h) @ d).tocsr(), (h[:-1] + h[1:]) / 2


def _assert_band_blocks_separable(mesh):
    """On a band's free nodes, A = Kx,e (x) N + Mx,e (x) Ky: the x stiffness
    Kx,e of the cell permittivity row e on the band's free nodes (zero flux
    at x = 0, held nodes eliminated) and the e-weighted dual lengths Mx,e,
    N and Ky those of the band's rows between the rows around it."""
    nx, ny = mesh.dirichlet.shape
    hx, hy = np.diff(mesh.x), np.diff(mesh.y)
    eps, _, _, free, phi = _system_inputs(mesh)
    A, _ = _edge_list_assemble(eps, hx, hy, free, phi)
    A = A.tocsr()
    num = np.cumsum(free).reshape(nx, ny) - 1
    d = sp.diags([np.ones(nx - 1), -np.ones(nx - 1)], [0, 1], shape=(nx - 1, nx))
    for first, last in _bands(mesh):
        cols = ~mesh.dirichlet[:, first]
        e = np.where(cols[:-1] | cols[1:], mesh.eps[:, first], 0.0)
        kx = (d.T @ sp.diags(e / hx) @ d).tocsr()[cols][:, cols]
        eh = np.pad(e * hx, 1)
        mx = ((eh[:-1] + eh[1:]) / 2)[cols]
        ky, n = _second_difference(hy[first - 1:last + 1])
        separable = (sp.kron(kx, sp.diags(n)) + sp.kron(sp.diags(mx), ky)).tocsr()
        idx = num[cols, first:last + 1].ravel()
        block = A[idx][:, idx]
        separable.eliminate_zeros()
        separable.sort_indices()
        block.sort_indices()
        np.testing.assert_array_equal(separable.indptr, block.indptr)
        np.testing.assert_array_equal(separable.indices, block.indices)
        np.testing.assert_allclose(separable.data, block.data, rtol=1e-14, atol=0)

        # the x-modes of e over its first value are Mx-orthonormal and
        # diagonalise Kx
        c = e[np.flatnonzero(e)[0]]
        mu, V, m = _x_modes(hx, e / c, cols)
        np.testing.assert_allclose(c * m, mx, rtol=1e-15)
        err = V.T @ (mx[:, None] * V) / c - np.eye(len(mx))
        assert np.abs(err).max() <= 1e-12
        err = V.T @ (kx @ V) / c - np.diag(mu)
        assert np.abs(err).max() <= 1e-12 * mu.max()


@pytest.mark.parametrize("trench", [0.0, 2e-6], ids=["flat", "trench"])
def test_slab_blocks_are_separable(ref_stack, trench):
    # the reference layouts have a band in the substrate and one in the air
    mesh = build_mesh(replace(ref_stack, trench_depth=trench), 2)
    bands = _bands(mesh)
    assert len(bands) >= 2
    assert bands[0][0] == 1 and bands[-1][1] == len(mesh.y) - 2
    _assert_band_blocks_separable(mesh)


@settings(max_examples=12, deadline=None)
@given(kind=_kinds, width_um=st.floats(2.0, 20.0), gap_um=st.floats(1.0, 10.0),
       depth_um=st.floats(0.01, 3.0), level=st.integers(1, 2))
def test_band_blocks_are_separable(kind, width_um, gap_um, depth_um, level):
    _assert_band_blocks_separable(
        _random_cross_section(kind, width_um, gap_um, depth_um, level))


def test_meshed_sa_layer_matches_independent_spsolve(ref_stack):
    solution, fraction = solve_with_meshed_sa_layer(ref_stack, 3.9, 2.5e-9, 2)
    u_cell = _check_against_reference(solution)
    in_layer = solution.mesh.eps == 3.9
    assert fraction == pytest.approx(
        u_cell[in_layer].sum() / u_cell.sum(), rel=1e-10)


# solves each case five times in one interpreter; SuperLU settings with
# relax > panel_size (relax 40 with panel 20) have crashed such a process
# or aborted it at exit with a corrupted heap
HEAP_PROBE = """
from dataclasses import replace
import cpwloss
stack = cpwloss.reference_presets("400C")
for level in (1, 2):
    for trench in (0.0, 2e-6):
        mesh = cpwloss.build_mesh(replace(stack, trench_depth=trench), level)
        for _ in range(5):
            cpwloss.solve_potential(mesh)
"""


def test_repeated_solves_exit_cleanly(tmp_path):
    env = dict(os.environ)
    src = str(Path(cpwloss.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", HEAP_PROBE], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


@settings(max_examples=8, deadline=None)
@given(
    width_um=st.floats(2.0, 20.0),
    gap_um=st.floats(1.0, 10.0),
    trench_um=st.one_of(st.just(0.0), st.floats(0.1, 3.0)),
    eps_sub=st.floats(1.5, 12.0),
    voltage=st.floats(0.01, 100.0),
)
def test_solution_invariants_random_cross_sections(width_um, gap_um, trench_um,
                                                   eps_sub, voltage):
    stack = build_stack({
        "trace_width": width_um * 1e-6, "gap": gap_um * 1e-6,
        "trench_depth": trench_um * 1e-6,
        "materials": {"substrate": {"relative_permittivity": eps_sub}},
    })
    mesh = build_mesh(stack, 1)
    unit = solve_potential(mesh)
    scaled = solve_potential(mesh, voltage=voltage)
    # discrete maximum principle: the potential stays within the electrode range
    assert unit.phi.min() >= 0.0 and unit.phi.max() <= 1.0
    assert scaled.phi.min() >= 0.0 and scaled.phi.max() <= voltage
    np.testing.assert_allclose(scaled.phi, voltage * unit.phi,
                               rtol=0, atol=1e-12 * voltage)
    assert unit.residual <= 1e-10 and scaled.residual <= 1e-10


def _classify_by_coordinates(stack, x, y):
    """Cells by midpoint and electrode nodes within a tolerance band of the
    conductor lines: the coordinate classification the index masks replace."""
    w2 = stack.trace_width / 2
    xg, tm, td = w2 + stack.gap, stack.metal_thickness, stack.trench_depth
    xm = 0.5 * (x[:-1] + x[1:])[:, None]
    ym = 0.5 * (y[:-1] + y[1:])[None, :]
    in_metal = (ym > 0) & (ym < tm) & ((xm < w2) | (xm > xg))
    in_trench = (ym < 0) & (ym > -td) & (xm > w2) & (xm < xg)
    in_substrate = (ym < 0) & ~in_trench
    region = np.full(in_metal.shape, CELL_AIR, dtype=np.int8)
    region[in_substrate] = CELL_SUBSTRATE
    region[in_metal] = CELL_METAL
    eps = np.ones(region.shape)
    eps[in_substrate] = stack.materials["substrate"].relative_permittivity

    tol = 1e-15 + 1e-9 * min(tm, stack.gap)
    xn, yn = x[:, None], y[None, :]
    band = (yn > -tol) & (yn < tm + tol)
    on_trace = band & (xn < w2 + tol)
    dirichlet = on_trace | (band & (xn > xg - tol))
    dirichlet[:, [0, -1]] = True
    dirichlet[-1, :] = True
    return region, eps, dirichlet, np.where(on_trace, 1.0, 0.0)


@settings(max_examples=25, deadline=None)
@given(
    width_um=st.floats(2.0, 20.0),
    gap_um=st.floats(1.0, 10.0),
    metal_nm=st.floats(20.0, 500.0),
    trench_um=st.one_of(st.just(0.0), st.floats(0.1, 3.0)),
    level=st.integers(1, 2),
)
def test_index_masks_match_coordinate_classification(width_um, gap_um, metal_nm,
                                                     trench_um, level):
    stack = build_stack({
        "trace_width": width_um * 1e-6, "gap": gap_um * 1e-6,
        "metal_thickness": metal_nm * 1e-9, "trench_depth": trench_um * 1e-6,
    })
    mesh = build_mesh(stack, level)
    expected = _classify_by_coordinates(stack, mesh.x, mesh.y)
    for name, want in zip(("region", "eps", "dirichlet", "dirichlet_value"),
                          expected):
        got = getattr(mesh, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)

    lines = mesh.lines
    w2 = stack.trace_width / 2
    assert mesh.x[lines["axis"]] == 0.0
    assert mesh.x[lines["trace_edge"]] == w2
    assert mesh.x[lines["ground_edge"]] == w2 + stack.gap
    assert mesh.y[lines["surface"]] == 0.0
    assert mesh.y[lines["metal_top"]] == stack.metal_thickness
    if trench_um > 0:
        assert mesh.y[lines["trench_floor"]] == -stack.trench_depth
    else:
        assert "trench_floor" not in lines


def test_singular_factorization_raises_solve_error(ref_stack):
    mesh = build_mesh(ref_stack, 1)
    mesh.eps[5, 5] = np.nan
    with pytest.raises(SolveError, match="factorization.*unknowns"):
        solve_potential(mesh)


def test_mesh_without_dirichlet_node_raises_solve_error():
    mesh = _parallel_plate_mesh()
    mesh.dirichlet[:] = False
    with pytest.raises(SolveError, match="no Dirichlet node"):
        solve_potential(mesh)


def test_mirror_plane_carries_zero_flux(ref_stack):
    # the zero-flux plane x = 0 must act as a mirror: solving the mirrored
    # mesh (both halves meshed) gives the half-domain potential on x >= 0.
    # It has the half mesh's bands, with its separator nodes on both sides
    half_mesh = build_mesh(ref_stack, 1)
    shift = len(half_mesh.x) - 1
    lines = dict(half_mesh.lines)
    for key in ("axis", "trace_edge", "ground_edge"):
        lines[key] += shift
    cells = (np.concatenate([a[::-1], a]) for a in (half_mesh.eps, half_mesh.region))
    nodes = (np.concatenate([a[::-1], a[1:]])
             for a in (half_mesh.dirichlet, half_mesh.dirichlet_value))
    mirrored = Mesh(np.concatenate([-half_mesh.x[::-1], half_mesh.x[1:]]),
                    half_mesh.y, *cells, *nodes, lines=lines)
    assert mirrored.x[lines["axis"]] == 0.0

    half = solve_potential(half_mesh)
    full = solve_potential(mirrored)
    assert full.bands == half.bands
    assert full.strip_unknowns == 2 * half.strip_unknowns
    np.testing.assert_allclose(full.phi[shift:], half.phi, rtol=0, atol=1e-12)
    # the mirrored mesh counts as the half of a cross section twice as wide
    for region in (RegionId.Substrate, RegionId.Air):
        assert full.region_energy[region] == pytest.approx(
            2 * half.region_energy[region], rel=1e-12)


def test_voltage_scaling_squares_energy(ref_stack):
    mesh = build_mesh(ref_stack, 1)
    s1 = solve_potential(mesh)
    s3 = solve_potential(mesh, voltage=3.0)
    assert s3.total_energy == pytest.approx(9.0 * s1.total_energy, rel=1e-12)
    assert s3.capacitance_per_length == pytest.approx(
        s1.capacitance_per_length, rel=1e-12)


def test_energy_mesh_convergence(ref_stack, ref_solution_l2):
    coarse = solve_potential(build_mesh(ref_stack, 1))
    assert ref_solution_l2.total_energy == pytest.approx(
        coarse.total_energy, rel=0.01)


def test_domain_size_insensitivity(ref_stack):
    small = solve_potential(build_mesh(ref_stack, 1))
    big_stack = build_stack(ref_stack.to_config(),
                            domain_halfwidth=2 * ref_stack.domain_halfwidth,
                            domain_height_air=2 * ref_stack.domain_height_air)
    big = solve_potential(build_mesh(big_stack, 1))
    assert big.total_energy == pytest.approx(small.total_energy, rel=0.005)


def test_metal_interior_is_equipotential(ref_solution_l2, ref_stack):
    mesh = ref_solution_l2.mesh
    xn = mesh.x[:, None]
    yn = mesh.y[None, :]
    on_trace = (np.abs(xn) <= ref_stack.trace_width / 2) & (yn >= 0) & \
        (yn <= ref_stack.metal_thickness)
    assert np.allclose(ref_solution_l2.phi[on_trace], 1.0)
    assert np.count_nonzero(mesh.region == CELL_METAL) > 0


def test_corner_field_enhancement(ref_solution_l2, ref_stack):
    # |E|^2 in the cell row just above the gap floor, from trace to ground
    mesh, sol = ref_solution_l2.mesh, ref_solution_l2
    j0, iw, ig = (mesh.lines[k] for k in ("surface", "trace_edge", "ground_edge"))
    e2 = sol.ex[iw:ig, j0]**2 + sol.ey[iw:ig, j0]**2
    xc = (mesh.x[iw:ig] + mesh.x[iw + 1:ig + 1]) / 2
    mid_gap = e2[np.argmin(np.abs(xc - (ref_stack.trace_width / 2 + ref_stack.gap / 2)))]
    assert e2[0] > mid_gap and e2[-1] > mid_gap


def test_dump_fields_csv(tmp_path, ref_stack):
    sol = solve_potential(build_mesh(ref_stack, 1))
    path = tmp_path / "fields.csv"
    dump_fields_csv(sol, path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (len(sol.mesh.x) * len(sol.mesh.y), 3)
    assert data[:, 2].max() == pytest.approx(1.0)
