"""Acceptance suite: ten end-to-end criteria, one test per criterion.

Each test prints a single `ACCEPTANCE <n> PASS/FAIL: <summary>` line (visible
with `pytest -v -s` or on failure). Tolerances are deliberately loose where
the published values came from a different solver/mesher; arithmetic-only
criteria are tight.
"""

import time

import numpy as np
import pytest

from cpwloss import (
    RegionId, boxplot_stats, build_mesh, build_stack, bulk_participation,
    budget_shares, compare_measured_vs_simulated, fit_s21, fit_tls,
    loss_budget, simulate_budget, solve_potential, synth_sweep, synth_trace,
    thin_layer_participation, weighted_mean,
)
from cpwloss.geometry import reference_presets
from cpwloss.tlsfit import thermal_factor, tls_inverse_q, tls_jacobian

TANGENTS = {"substrate": 1.3e-7, "air": 0.0,
            "metal_air": 1e-2, "substrate_air": 1.7e-3}

# published per-chip tables: (p_sub, p_ma, p_sa, total)
PUBLISHED = {
    ("400C", "reference"): (0.911, 1.87e-5, 3.7e-4, 9.34e-7),
    ("450C", "reference"): (0.911, 1.83e-5, 3.7e-4, 9.30e-7),
    ("500C", "reference"): (0.911, 1.95e-5, 3.94e-4, 9.83e-7),
    ("400C", "hf_treated"): (0.911, 1.53e-5, 0.0, 2.72e-7),
    ("450C", "hf_treated"): (0.911, 1.53e-5, 0.0, 2.72e-7),
    ("500C", "hf_treated"): (0.911, 1.66e-5, 0.0, 2.85e-7),
}

# measured weighted means (sample holders A and B), units 1e-6
MEASURED = {
    ("400C", "reference"): (1.06, 1.04),
    ("450C", "reference"): (1.06, 1.13),
    ("500C", "reference"): (1.14, 1.13),
    ("400C", "hf_treated"): (0.40, 0.44),
    ("450C", "hf_treated"): (0.40, 0.28),
    ("500C", "hf_treated"): (0.35, 0.36),
}


def _report(n, ok, summary):
    print(f"\nACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {summary}")
    assert ok, summary


@pytest.fixture(scope="module")
def simulated_budgets(ref_solution_l3):
    budgets = {}
    for key in PUBLISHED:
        stack = reference_presets(*key)
        budgets[key] = simulate_budget(stack, solution=ref_solution_l3,
                                       label=f"{key[0]} {key[1]}")
    return budgets


def test_criterion_1_table_arithmetic():
    start = time.perf_counter()
    inputs = {
        ("400C", "reference"): {"substrate": 0.911, "air": 0.088,
                                "metal_air": 1.87e-5, "substrate_air": 3.7e-4},
        ("450C", "reference"): {"substrate": 0.911, "air": 0.088,
                                "metal_air": 1.83e-5, "substrate_air": 3.7e-4},
        ("500C", "reference"): {"substrate": 0.911, "air": 0.088,
                                "metal_air": 1.95e-5, "substrate_air": 3.94e-4},
        ("400C", "hf_treated"): {"substrate": 0.911, "air": 0.088,
                                 "metal_air": 1.53e-5, "substrate_air": 0.0},
        ("450C", "hf_treated"): {"substrate": 0.911, "air": 0.088,
                                 "metal_air": 1.53e-5, "substrate_air": 0.0},
        ("500C", "hf_treated"): {"substrate": 0.911, "air": 0.088,
                                 "metal_air": 1.66e-5, "substrate_air": 0.0},
    }
    cells = {"substrate": 1.18e-7, "air": 0.0}
    worst = 0.0
    for key, participations in inputs.items():
        budget = loss_budget(participations, TANGENTS)
        total_ref = PUBLISHED[key][3]
        worst = max(worst, abs(budget.total - total_ref) / total_ref)
        for region, p in participations.items():
            expected = p * TANGENTS[region]
            got = budget.entry(region).contribution
            if expected:
                worst = max(worst, abs(got - expected) / expected)
        for region, cell in cells.items():
            if region == "substrate":
                worst = max(worst,
                            abs(budget.entry(region).contribution - cell) / cell)
    elapsed = time.perf_counter() - start
    ok = worst < 0.01 and elapsed < 1.0
    _report(1, ok, f"all six totals and cells within 1% "
                   f"(worst {worst * 100:.2f}%), runtime {elapsed:.3f} s")


def test_criterion_2_solver_reproduction(simulated_budgets):
    start = time.perf_counter()
    failures = []
    for key, budget in simulated_budgets.items():
        p_sub_ref, p_ma_ref, p_sa_ref, total_ref = PUBLISHED[key]
        p_sub = budget.entry("substrate").participation
        p_air = budget.entry("air").participation
        p_ma = budget.entry("metal_air").participation
        p_sa = budget.entry("substrate_air").participation
        if abs(p_sub - p_sub_ref) > 0.02:
            failures.append(f"{key}: p_sub {p_sub:.3f}")
        if abs(p_air - 0.088) > 0.02:
            failures.append(f"{key}: p_air {p_air:.3f}")
        if abs(p_ma - p_ma_ref) / p_ma_ref > 0.30:
            failures.append(f"{key}: p_MA {p_ma:.3g} vs {p_ma_ref:.3g}")
        if p_sa_ref and abs(p_sa - p_sa_ref) / p_sa_ref > 0.30:
            failures.append(f"{key}: p_SA {p_sa:.3g} vs {p_sa_ref:.3g}")
        if not p_sa_ref and p_sa != 0.0:
            failures.append(f"{key}: p_SA {p_sa:.3g} expected 0")
        if abs(budget.total - total_ref) / total_ref > 0.25:
            failures.append(f"{key}: total {budget.total:.3g} vs {total_ref:.3g}")
    elapsed = time.perf_counter() - start
    ref = simulated_budgets[("400C", "reference")]
    devs = (
        abs(ref.entry("metal_air").participation - 1.87e-5) / 1.87e-5,
        abs(ref.entry("substrate_air").participation - 3.7e-4) / 3.7e-4,
        abs(ref.total - 9.34e-7) / 9.34e-7,
    )
    ok = not failures
    _report(2, ok, "six presets within tolerance "
                   f"(400C ref devs: p_MA {devs[0] * 100:.0f}%, "
                   f"p_SA {devs[1] * 100:.0f}%, total {devs[2] * 100:.0f}%); "
                   f"{elapsed:.1f} s" + (f"; failures: {failures}" if failures else ""))


def test_criterion_3_loss_shares(simulated_budgets):
    ref_shares = budget_shares(simulated_budgets[("400C", "reference")])
    hf_shares = budget_shares(simulated_budgets[("400C", "hf_treated")])
    checks = [
        ("ref S-A", ref_shares["substrate_air"], 68.0),
        ("ref M-A", ref_shares["metal_air"], 20.0),
        ("ref substrate", ref_shares["substrate"], 12.0),
        ("HF M-A", hf_shares["metal_air"], 57.0),
        ("HF substrate", hf_shares["substrate"], 43.0),
    ]
    failures = [f"{name} {got:.1f}% vs {ref:.0f}%"
                for name, got, ref in checks if abs(got - ref) > 8.0]
    summary = ", ".join(f"{name} {got:.1f}%/{ref:.0f}%"
                        for name, got, ref in checks)
    _report(3, not failures, f"shares within 8 points ({summary})"
            + (f"; failures: {failures}" if failures else ""))


def test_criterion_4_analytic_field_oracles():
    from test_fieldsolve import _parallel_plate_mesh, cpw_capacitance_conformal

    # CPW capacitance vs the conformal-mapping formula (thin metal so the
    # zero-thickness assumption of the oracle applies)
    stack = build_stack({"metal_thickness": "10 nm"})
    sol = solve_potential(build_mesh(stack, 3))
    c_ref = cpw_capacitance_conformal(stack.trace_width, stack.gap, 11.9)
    c_dev = abs(sol.capacitance_per_length - c_ref) / c_ref

    mesh = _parallel_plate_mesh()
    flat = solve_potential(mesh)
    lin_dev = float(np.max(np.abs(flat.phi - (1.0 - mesh.y / 1e-6)[None, :])))
    ok = c_dev < 0.02 and lin_dev < 1e-3
    _report(4, ok, f"capacitance within 2% of conformal mapping "
                   f"({c_dev * 100:.2f}%), parallel-plate potential linear "
                   f"to {lin_dev:.1e}")


def test_criterion_5_sum_rule(ref_stack, ref_solution_l3):
    budget = simulate_budget(ref_stack, solution=ref_solution_l3)
    sum_residual = abs(budget.participation_sum - 1.0)

    mesh = build_mesh(ref_stack, 1)
    s1 = solve_potential(mesh)
    s2 = solve_potential(mesh, voltage=5.0)
    devs = [abs(bulk_participation(s2, r) - bulk_participation(s1, r))
            / bulk_participation(s1, r)
            for r in (RegionId.Substrate, RegionId.Air)]
    p1 = thin_layer_participation(s1, RegionId.SubstrateAir, 2.5e-9, 3.9)
    p2 = thin_layer_participation(s2, RegionId.SubstrateAir, 2.5e-9, 3.9)
    devs.append(abs(p2 - p1) / p1)
    ok = sum_residual < 1e-3 and max(devs) < 1e-10
    _report(5, ok, f"participation sum residual {sum_residual:.1e} (< 1e-3), "
                   f"voltage-scale deviation {max(devs):.1e} (< 1e-10)")


def test_criterion_6_s21_round_trip():
    trace = synth_trace(f_r=6e9, q_l=5e5, q_c_mag=1e6, phi=0.1, a=0.9,
                        alpha=0.3, tau=40e-9)
    fit = fit_s21(trace)
    q_c_true = 1e6 / np.cos(0.1)
    q_i_true = 1 / (1 / 5e5 - 1 / q_c_true)
    f_dev = abs(fit.f_r - 6e9) / 6e9
    q_devs = (abs(fit.q_i - q_i_true) / q_i_true,
              abs(fit.q_c - q_c_true) / q_c_true)
    noiseless_ok = f_dev < 1e-7 and max(q_devs) < 0.005

    hits = 0
    for seed in range(100):
        noisy = synth_trace(f_r=6e9, q_l=5e5, q_c_mag=1e6, phi=0.1, a=0.9,
                            alpha=0.3, tau=40e-9, snr_db=40.0, seed=seed)
        try:
            nf = fit_s21(noisy)
        except Exception:
            continue
        if abs(nf.q_i - q_i_true) / q_i_true < 0.05:
            hits += 1
    ok = noiseless_ok and hits >= 95
    _report(6, ok, f"noiseless f_r dev {f_dev:.1e}, Q devs "
                   f"{max(q_devs) * 100:.2f}%; 40 dB SNR: {hits}/100 trials "
                   f"with Q_i within 5% (need >= 95)")


def test_criterion_7_tls_round_trip():
    true = dict(f_tan_delta0=1.0e-6, n_c=10.0, b=0.4, delta_other=5e-8)
    fit = fit_tls(synth_sweep(**true))
    devs = [abs(getattr(fit, k) - v) / v for k, v in true.items()]
    noiseless_ok = max(devs) < 0.01

    hits = 0
    for seed in range(100):
        noisy = synth_sweep(**true, noise_frac=0.03, seed=seed)
        try:
            nf = fit_tls(noisy)
        except Exception:
            continue
        if abs(nf.f_tan_delta0 - 1e-6) / 1e-6 < 0.10:
            hits += 1

    rng = np.random.default_rng(1)
    n = np.logspace(-1, 6, 15)
    jac_ok = True
    for _ in range(10):
        p = np.array([10 ** rng.uniform(-7, -5), 10 ** rng.uniform(-1, 3),
                      rng.uniform(0.1, 0.9), 10 ** rng.uniform(-8, -6)])
        jac = tls_jacobian(p, n, 0.01, 6e9)
        for k in range(4):
            h = 1e-6 * p[k]
            pp, pm = p.copy(), p.copy()
            pp[k] += h
            pm[k] -= h
            fd = (tls_inverse_q(pp, n, 0.01, 6e9)
                  - tls_inverse_q(pm, n, 0.01, 6e9)) / (2 * h)
            scale = np.max(np.abs(fd)) or 1.0
            if not np.allclose(jac[:, k], fd, atol=1e-6 * scale, rtol=1e-6):
                jac_ok = False
    ok = noiseless_ok and hits >= 90 and jac_ok
    _report(7, ok, f"noiseless params within {max(devs) * 100:.2f}% (< 1%); "
                   f"3% noise: {hits}/100 with F*tan_d0 within 10% "
                   f"(need >= 90); Jacobian vs finite differences "
                   f"{'OK' if jac_ok else 'MISMATCH'}")


def test_criterion_8_thermal_factor():
    worst = 0.0
    for f_r in np.linspace(4e9, 8e9, 41):
        worst = max(worst, 1.0 - thermal_factor(f_r, 0.01))
    ok = worst < 1e-8
    _report(8, ok, f"tanh factor within {worst:.1e} of 1 for 4-8 GHz "
                   f"at 10 mK (< 1e-8)")


def test_criterion_9_measured_vs_simulated(simulated_budgets):
    rows = []
    failures = []
    for key, (meas_a, meas_b) in MEASURED.items():
        simulated = simulated_budgets[key].total
        for holder, meas in (("A", meas_a), ("B", meas_b)):
            c = compare_measured_vs_simulated(meas * 1e-6, simulated)
            rows.append(f"{key[0]}/{key[1]}/{holder} ratio {c.ratio:.2f}")
            if not c.underestimated:
                failures.append(rows[-1])
    ok = not failures
    _report(9, ok, "underestimation flag set for all six chip classes, "
                   "both sample holders"
            + (f"; failures: {failures}" if failures else ""))


def test_criterion_10_statistics_oracles():
    from test_stats import brute_force_boxplot

    rng = np.random.default_rng(123)
    box_ok = True
    for _ in range(1000):
        x = rng.normal(size=rng.integers(1, 60)) * 10.0 ** rng.integers(-6, 3)
        b = boxplot_stats(x)
        q1, mean, q3, wlo, whi, outs = brute_force_boxplot(x)
        if not (np.isclose(b.q1, q1, rtol=1e-12, atol=1e-300)
                and np.isclose(b.mean, mean, rtol=1e-12, atol=1e-300)
                and np.isclose(b.q3, q3, rtol=1e-12, atol=1e-300)
                and np.isclose(b.whisker_low, wlo, rtol=1e-12, atol=1e-300)
                and np.isclose(b.whisker_high, whi, rtol=1e-12, atol=1e-300)
                and np.allclose(b.outliers, sorted(outs))):
            box_ok = False
            break

    wm = weighted_mean([(1.0, 0.1), (3.0, 0.3)])
    wm_ok = (abs(wm.mean - 1.2) < 1e-12
             and abs(wm.uncertainty - np.sqrt(1 / (100 + 100 / 9))) < 1e-12)
    ok = box_ok and wm_ok
    _report(10, ok, "boxplot_stats matches brute-force oracle on 1000 "
                    "random vectors; weighted_mean matches hand-computed "
                    "example to 1e-12")
