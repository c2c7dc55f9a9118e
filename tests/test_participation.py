from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpwloss import (
    RegionId, budget_shares, build_mesh, build_stack,
    bulk_participation, loss_budget, simulate_budget, solve_potential,
    thin_layer_participation,
)
from cpwloss.errors import ConfigError, MeshError, SolveError
from cpwloss.fieldsolve import solve_with_meshed_sa_layer
from cpwloss.participation import format_budget_table

# published per-chip loss-table rows used as pure-arithmetic inputs
TABLE_REF_400C = {
    "participations": {"substrate": 0.911, "air": 0.088,
                       "metal_air": 1.87e-5, "substrate_air": 3.7e-4},
    "tangents": {"substrate": 1.3e-7, "air": 0.0,
                 "metal_air": 1e-2, "substrate_air": 1.7e-3},
}


def test_budget_arithmetic_reference_total():
    budget = loss_budget(**{"participations": TABLE_REF_400C["participations"],
                            "loss_tangents": TABLE_REF_400C["tangents"]})
    assert budget.total == pytest.approx(9.34e-7, rel=0.01)
    assert budget.entry("substrate").contribution == pytest.approx(1.18e-7, rel=0.01)
    assert budget.entry("metal_air").contribution == pytest.approx(1.87e-7, rel=0.01)
    assert budget.entry("substrate_air").contribution == pytest.approx(6.29e-7, rel=0.01)


def test_budget_arithmetic_500c_total():
    budget = loss_budget(
        {"substrate": 0.911, "air": 0.088, "metal_air": 1.95e-5,
         "substrate_air": 3.94e-4},
        TABLE_REF_400C["tangents"],
    )
    assert budget.total == pytest.approx(9.83e-7, rel=0.01)


def test_budget_zero_tangents():
    budget = loss_budget(TABLE_REF_400C["participations"],
                         {r: 0.0 for r in TABLE_REF_400C["participations"]})
    assert budget.total == 0.0


def test_budget_additivity_exact():
    budget = loss_budget(**{"participations": TABLE_REF_400C["participations"],
                            "loss_tangents": TABLE_REF_400C["tangents"]})
    assert budget.total == sum(e.contribution for e in budget.entries)


def test_budget_missing_tangent():
    with pytest.raises(ConfigError):
        loss_budget({"substrate": 0.9, "metal_air": 1e-5}, {"substrate": 1e-7})
    # air defaults to lossless
    budget = loss_budget({"air": 0.1}, {})
    assert budget.total == 0.0


@pytest.mark.parametrize("p, tan", [
    (np.nan, 1.3e-7), (0.911, np.nan), (np.inf, 1.3e-7), (0.911, -np.inf),
])
def test_budget_rejects_non_finite(p, tan):
    with pytest.raises(ConfigError, match="'substrate'"):
        loss_budget({"substrate": p, "metal_air": 1.87e-5},
                    {"substrate": tan, "metal_air": 1e-2})


def test_budget_shares_reference():
    budget = loss_budget(**{"participations": TABLE_REF_400C["participations"],
                            "loss_tangents": TABLE_REF_400C["tangents"]})
    shares = budget_shares(budget)
    assert sum(shares.values()) == pytest.approx(100.0)
    assert shares["substrate_air"] == pytest.approx(67.0, abs=1.0)
    assert shares["metal_air"] == pytest.approx(20.0, abs=1.0)
    assert shares["substrate"] == pytest.approx(13.0, abs=1.0)


def test_budget_shares_hf():
    budget = loss_budget(
        {"substrate": 0.911, "air": 0.088, "metal_air": 1.53e-5,
         "substrate_air": 0.0},
        TABLE_REF_400C["tangents"],
    )
    shares = budget_shares(budget)
    assert shares["metal_air"] == pytest.approx(56.3, abs=1.0)
    assert shares["substrate"] == pytest.approx(43.5, abs=1.0)


def test_budget_shares_single_entry():
    budget = loss_budget({"metal_air": 1e-5}, {"metal_air": 1e-2})
    assert budget_shares(budget)["metal_air"] == pytest.approx(100.0)


def test_budget_shares_zero_total():
    budget = loss_budget({"air": 0.1}, {"air": 0.0})
    with pytest.raises(ConfigError):
        budget_shares(budget)


def test_bulk_participations_reference(ref_solution_l3):
    p_sub = bulk_participation(ref_solution_l3, RegionId.Substrate)
    p_air = bulk_participation(ref_solution_l3, RegionId.Air)
    assert p_sub == pytest.approx(0.911, abs=0.02)
    assert p_air == pytest.approx(0.088, abs=0.02)
    assert p_sub + p_air == pytest.approx(1.0, abs=1e-12)


def test_bulk_participation_single_dielectric():
    from test_fieldsolve import _parallel_plate_mesh

    sol = solve_potential(_parallel_plate_mesh())
    assert bulk_participation(sol, RegionId.Air) == pytest.approx(1.0)


def test_bulk_participation_bad_region(ref_solution_l2):
    with pytest.raises(SolveError):
        bulk_participation(ref_solution_l2, RegionId.MetalAirTop)


def test_thin_layer_reference_values(ref_solution_l3, ref_stack):
    eps_ma = ref_stack.materials["MA_oxide"].relative_permittivity
    eps_sa = ref_stack.materials["SA_oxide"].relative_permittivity
    p_ma = (
        thin_layer_participation(ref_solution_l3, RegionId.MetalAirTop,
                                 ref_stack.layer_MA_top, eps_ma)
        + thin_layer_participation(ref_solution_l3, RegionId.MetalAirSide,
                                   ref_stack.layer_MA_side, eps_ma)
    )
    p_sa = thin_layer_participation(ref_solution_l3, RegionId.SubstrateAir,
                                    ref_stack.layer_SA, eps_sa)
    assert p_ma == pytest.approx(1.87e-5, rel=0.30)
    assert p_sa == pytest.approx(3.7e-4, rel=0.30)


def test_thin_layer_zero_thickness(ref_solution_l2):
    assert thin_layer_participation(ref_solution_l2, RegionId.SubstrateAir,
                                    0.0, 3.9) == 0.0
    with pytest.raises(ConfigError):
        thin_layer_participation(ref_solution_l2, RegionId.SubstrateAir,
                                 -1e-9, 3.9)


@settings(max_examples=30, deadline=None)
@given(t=st.floats(0.5e-9, 10e-9), eps=st.floats(1.0, 5.0),
       r1=st.floats(1.5, 3.0), r2=st.floats(1.5, 3.0))
def test_thin_layer_permittivity_scaling(ref_solution_l2, t, eps, r1, r2):
    # the layer energy is t (eps E_par^2 + E_norm^2 / eps) / 2 at a cutoff
    # fixed by t: on metal (E_par = 0) p ~ 1/eps exactly, and on the gap
    # floor eps * p is linear in eps^2
    def p(region, e):
        return thin_layer_participation(ref_solution_l2, region, t, e)

    for region in (RegionId.MetalAirTop, RegionId.MetalAirSide):
        assert p(region, 2 * eps) == pytest.approx(p(region, eps) / 2, rel=1e-12)
    e = np.array([eps, eps * r1, eps * r1 * r2])
    y = e * np.array([p(RegionId.SubstrateAir, v) for v in e])
    x = e**2
    assert y[2] == pytest.approx(y[0] + (y[1] - y[0]) * (x[2] - x[0]) / (x[1] - x[0]),
                                 rel=1e-12)


def test_thin_layer_rejects_bulk_region(ref_solution_l2):
    with pytest.raises(MeshError, match="is not an interface region"):
        thin_layer_participation(ref_solution_l2, RegionId.Substrate, 2.5e-9, 3.9)


def test_thin_layer_needs_mesh_lines(ref_solution_l2):
    # a mesh not built by build_mesh records no conductor grid lines
    sol = replace(ref_solution_l2, mesh=replace(ref_solution_l2.mesh, lines={}))
    with pytest.raises(MeshError, match="build_mesh"):
        thin_layer_participation(sol, RegionId.SubstrateAir, 2.5e-9, 3.9)


def test_voltage_scale_invariance(ref_stack):
    mesh = build_mesh(ref_stack, 1)
    s1 = solve_potential(mesh)
    s2 = solve_potential(mesh, voltage=7.5)
    for sol_pair in ((s1, s2),):
        a, b = sol_pair
        assert bulk_participation(b, RegionId.Substrate) == pytest.approx(
            bulk_participation(a, RegionId.Substrate), rel=1e-10)
        pa = thin_layer_participation(a, RegionId.SubstrateAir, 2.5e-9, 3.9)
        pb = thin_layer_participation(b, RegionId.SubstrateAir, 2.5e-9, 3.9)
        assert pb == pytest.approx(pa, rel=1e-10)


def test_participation_sum_rule(ref_solution_l3, ref_stack):
    budget = simulate_budget(ref_stack, solution=ref_solution_l3)
    assert budget.participation_sum == pytest.approx(1.0, abs=1e-3)


def test_participation_mesh_convergence(ref_stack, ref_solution_l3):
    b3 = simulate_budget(ref_stack, solution=ref_solution_l3)
    b4 = simulate_budget(ref_stack, refinement_level=4)
    for region in ("substrate", "air", "metal_air", "substrate_air"):
        assert b4.entry(region).participation == pytest.approx(
            b3.entry(region).participation, rel=0.015)


def test_direct_mesh_cross_check():
    # shrunken geometry so the nm oxide is meshable: compare the analytic
    # thin-layer rule against direct meshing of the gap-floor layer
    stack = build_stack({
        "trace_width": "2 um", "gap": "0.9 um", "metal_thickness": "50 nm",
        "layer_SA": "4 nm",
    })
    sol = solve_potential(build_mesh(stack, 3))
    p_analytic = thin_layer_participation(sol, RegionId.SubstrateAir,
                                          4e-9, 3.9)
    _, p_direct = solve_with_meshed_sa_layer(stack, 3.9, 4e-9,
                                             refinement_level=3)
    assert p_analytic == pytest.approx(p_direct, rel=0.20)


def test_simulate_budget_full_pipeline():
    stack = build_stack({})
    budget = simulate_budget(stack, refinement_level=1, label="default")
    assert 0 < budget.total < 1e-5
    assert budget.entry("air").loss_tangent == 0.0
    table = format_budget_table(budget)
    assert "Silicon substrate" in table
    assert "Total loss" in table


def test_simulate_budget_hf_scaling(ref_stack, ref_solution_l3):
    from cpwloss.geometry import reference_presets

    stack = reference_presets("400C", "hf_treated")
    # the published treated-to-reference p_MA ratio of the 400C chip
    assert stack.ma_scale == 1.53e-5 / 1.87e-5
    budget = simulate_budget(stack, solution=ref_solution_l3)
    reference = simulate_budget(ref_stack, solution=ref_solution_l3)
    assert budget.entry("metal_air").participation == pytest.approx(
        stack.ma_scale * reference.entry("metal_air").participation, rel=1e-12)
    assert budget.entry("substrate_air").contribution == 0.0


@pytest.mark.parametrize("overrides, name", [
    ({"materials": {"substrate": {"relative_permittivity": 3.0}}},
     "substrate relative_permittivity"),
    ({"gap": "6 um"}, "gap"),
    ({"trench_depth": "1 um"}, "trench_depth"),
], ids=["substrate-permittivity", "gap", "trench-depth"])
def test_simulate_budget_rejects_another_cross_sections_solution(
        ref_stack, ref_solution_l2, overrides, name):
    stack = build_stack(ref_stack.to_config(), **overrides)
    with pytest.raises(ConfigError, match=f"solved for {name} = "):
        simulate_budget(stack, solution=ref_solution_l2)


def test_budget_on_its_own_trenched_solve():
    # as in a sweep of cross sections: each solve budgets its own stack
    stack = build_stack(trench_depth="1 um")
    solution = solve_potential(build_mesh(stack, 1))
    budget = simulate_budget(stack, solution=solution)
    assert budget.entry("substrate_air").participation > 0
