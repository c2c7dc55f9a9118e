import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.constants import epsilon_0

from cpwloss import (
    RegionId, build_mesh, build_stack, simulate_budget, solve_potential,
)
from cpwloss.errors import MeshError, SolveError
from cpwloss.fieldsolve import (
    CELL_AIR, CELL_METAL, CELL_SUBSTRATE, Mesh, boundary_fields,
    cpw_capacitance_conformal, dump_fields_csv,
)


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
    d, width = 1e-6, 1e-6
    mesh = _parallel_plate_mesh(eps_rows=4.0)
    sol = solve_potential(mesh)
    assert sol.capacitance_per_length == pytest.approx(
        4.0 * epsilon_0 * width / d, rel=1e-6)

    # two dielectric layers on a graded grid: capacitors in series, exact
    d1, d2, eps1, eps2 = 0.4e-6, 0.7e-6, 11.9, 3.9
    y = np.concatenate((_graded(0.0, d1, 15), _graded(d1, d1 + d2, 20, 0.8)[1:]))
    rows = np.where(0.5 * (y[:-1] + y[1:]) < d1, eps1, eps2)
    sol = solve_potential(_parallel_plate_mesh(x=_graded(0.0, width, 25), y=y,
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


def test_energy_positivity(ref_solution_l2):
    for energy in ref_solution_l2.region_energy.values():
        assert energy >= 0
    assert ref_solution_l2.total_energy > 0
    assert ref_solution_l2.total_energy == pytest.approx(
        sum(ref_solution_l2.region_energy.values()))


def test_residual_below_tolerance(ref_solution_l2):
    assert ref_solution_l2.residual < 1e-8


def test_solver_stats(ref_solution_l2):
    mesh = ref_solution_l2.mesh
    assert ref_solution_l2.unknowns == mesh.dirichlet.size - np.count_nonzero(
        mesh.dirichlet)
    # the factors hold at least the diagonal and one coupling per unknown
    assert ref_solution_l2.factor_nnz > 2 * ref_solution_l2.unknowns


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


def _classify_by_coordinates(stack, x, y, full_domain):
    """Cells by midpoint and electrode nodes within a tolerance band of the
    conductor lines: the coordinate classification the index masks replace."""
    w2 = stack.trace_width / 2
    xg, tm, td = w2 + stack.gap, stack.metal_thickness, stack.trench_depth
    axm = np.abs(0.5 * (x[:-1] + x[1:]))[:, None]
    ym = 0.5 * (y[:-1] + y[1:])[None, :]
    in_metal = (ym > 0) & (ym < tm) & ((axm < w2) | (axm > xg))
    in_trench = (ym < 0) & (ym > -td) & (axm > w2) & (axm < xg)
    in_substrate = (ym < 0) & ~in_trench
    region = np.full(in_metal.shape, CELL_AIR, dtype=np.int8)
    region[in_substrate] = CELL_SUBSTRATE
    region[in_metal] = CELL_METAL
    eps = np.ones(region.shape)
    eps[in_substrate] = stack.materials["substrate"].relative_permittivity

    tol = 1e-15 + 1e-9 * min(tm, stack.gap)
    axn, yn = np.abs(x)[:, None], y[None, :]
    band = (yn > -tol) & (yn < tm + tol)
    on_trace = band & (axn < w2 + tol)
    dirichlet = on_trace | (band & (axn > xg - tol))
    dirichlet[:, [0, -1]] = True
    dirichlet[[0, -1] if full_domain else [-1], :] = True
    return region, eps, dirichlet, np.where(on_trace, 1.0, 0.0)


@settings(max_examples=25, deadline=None)
@given(
    width_um=st.floats(2.0, 20.0),
    gap_um=st.floats(1.0, 10.0),
    metal_nm=st.floats(20.0, 500.0),
    trench_um=st.one_of(st.just(0.0), st.floats(0.1, 3.0)),
    level=st.integers(1, 2),
    full_domain=st.booleans(),
)
def test_index_masks_match_coordinate_classification(width_um, gap_um, metal_nm,
                                                     trench_um, level, full_domain):
    stack = build_stack({
        "trace_width": width_um * 1e-6, "gap": gap_um * 1e-6,
        "metal_thickness": metal_nm * 1e-9, "trench_depth": trench_um * 1e-6,
    })
    mesh = build_mesh(stack, level, full_domain=full_domain)
    expected = _classify_by_coordinates(stack, mesh.x, mesh.y, full_domain)
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


def test_half_vs_full_domain_symmetry(ref_stack):
    half = solve_potential(build_mesh(ref_stack, 1))
    full = solve_potential(build_mesh(ref_stack, 1, full_domain=True))
    assert full.total_energy == pytest.approx(half.total_energy, rel=1e-6)
    for region in (RegionId.Substrate, RegionId.Air):
        assert full.region_energy[region] == pytest.approx(
            half.region_energy[region], rel=1e-6)
    # the thin layers too: contours sampled on x >= 0 count both halves
    half_budget = simulate_budget(ref_stack, solution=half)
    full_budget = simulate_budget(ref_stack, solution=full)
    for entry in half_budget.entries:
        assert full_budget.entry(entry.region).participation == pytest.approx(
            entry.participation, rel=1e-6)


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


def test_boundary_fields_metal_top_tangential(ref_solution_l2):
    bs = boundary_fields(ref_solution_l2, RegionId.MetalAirTop)
    # conductor boundary condition: E_par vanishes on the metal surface
    mid = len(bs.x) // 4
    assert abs(bs.e_par[mid]) < 0.01 * abs(bs.e_norm[mid])
    assert np.all(np.isfinite(bs.e_norm))


def test_boundary_fields_substrate_air_positive(ref_solution_l2):
    bs = boundary_fields(ref_solution_l2, RegionId.SubstrateAir)
    integral = np.sum((bs.e_par**2 + bs.e_norm**2) * bs.dl)
    assert np.isfinite(integral) and integral > 0


def test_corner_field_enhancement(ref_solution_l2, ref_stack):
    bs = boundary_fields(ref_solution_l2, RegionId.SubstrateAir)
    gap_center = ref_stack.trace_width / 2 + ref_stack.gap / 2
    e2 = bs.e_par**2 + bs.e_norm**2
    near_corner = e2[np.argmin(np.abs(bs.x - ref_stack.trace_width / 2))]
    mid_gap = e2[np.argmin(np.abs(bs.x - gap_center))]
    assert near_corner > mid_gap


def test_boundary_fields_rejects_bulk_region(ref_solution_l2):
    with pytest.raises(MeshError):
        boundary_fields(ref_solution_l2, RegionId.Substrate)


def test_dump_fields_csv(tmp_path, ref_stack):
    sol = solve_potential(build_mesh(ref_stack, 1))
    path = tmp_path / "fields.csv"
    dump_fields_csv(sol, path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (len(sol.mesh.x) * len(sol.mesh.y), 3)
    assert data[:, 2].max() == pytest.approx(1.0)
