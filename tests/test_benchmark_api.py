"""The calls that `bench/run.py` and `bench/make_oracle.py` make, in the same
argument forms, and the attributes they read of the results.

A name or keyword that the benchmark uses must not be removed or renamed
without changing the benchmark too. `python -m pytest bench/test_bench.py`
runs the benchmark itself on small inputs, in about 10 s on two cores; this
test takes well under one.
"""

import math

import numpy as np

import cpwloss as cp
import cpwloss.cli


def test_field_workload_calls():
    assert isinstance(cp.__version__, str)
    budget = cp.simulate_budget(cp.reference_presets("400C"), refinement_level=1)
    assert budget.total > 0
    base = cp.reference_presets("400C", "reference")
    mesh = cp.build_mesh(base, 1)
    sol = cp.solve_potential(mesh)
    assert mesh.x.size * mesh.y.size > int(mesh.dirichlet.sum()) > 0
    assert sol.residual <= 1e-8
    for temp in ("400C", "450C", "500C"):
        for treatment in ("reference", "hf_treated"):
            budget = cp.simulate_budget(cp.reference_presets(temp, treatment),
                                        solution=sol)
            p = {e.region: e.participation for e in budget.entries}
            assert set(p) == {"substrate", "air", "metal_air", "substrate_air"}
            assert abs(budget.participation_sum - 1.0) < 1e-3
            assert budget.total > 0
    stack = cp.build_stack(**{"trace_width": 8e-6, "gap": 4e-6,
                              "trench_depth": 1e-7})
    assert cp.simulate_budget(stack, refinement_level=1).total > 0


def test_fit_workload_calls():
    f = np.linspace(5.99e9, 6.01e9, 401)
    z = 1 - 0.5 / (1 + 2j * 2e5 * (f / 6e9 - 1))
    cp.fit_s21(cp.S21Trace(f, z))
    fit = cp.fit_s21(cp.S21Trace(f, z, power_dbm=-120.0))
    n = cp.photon_number(-120.0, fit)
    assert all(map(math.isfinite, (fit.q_i, fit.q_l, fit.q_c, fit.q_i_err,
                                   fit.f_r, fit.phi, n)))

    n = np.logspace(-1, 6, 12)
    q = 1 / (1e-6 / (1 + n / 10) ** 0.4 + 1e-7)
    cp.fit_tls(cp.PhotonSweep(n, q, 0.01 * q, 6e9, 0.01))
    sweep = cp.PhotonSweep(n, q, 0.01 * q, 6e9, 0.01, chip="400C/reference",
                           resonator="r0")
    tfit = cp.fit_tls(sweep)
    ends = cp.q_low_high(tfit, sweep)
    assert not tfit.flags
    assert all(map(math.isfinite, (tfit.f_tan_delta0, tfit.n_c, tfit.b,
                                   tfit.delta_other, ends.q_low, ends.q_high)))
    summary = cp.summarize_chip("400C/reference", [tfit], q_lows=[ends.q_low],
                                q_highs=[ends.q_high], simulated_total=9.34e-7)
    assert summary.n_resonators == 1
    assert math.isfinite(summary.f_tan_delta0.mean)
    assert summary.comparison.ratio > 0

    for name in ("NoDipFoundError", "FitDivergedError", "IllConditionedError"):
        assert issubclass(getattr(cp.errors, name), cp.errors.CpwLossError)


def test_cli_chain_calls(tmp_path):
    trace_path, sweep_path = tmp_path / "trace.csv", tmp_path / "sweep.csv"
    cp.s21fit.write_trace(cp.synth_trace(6e9, 5e5, 1e6, snr_db=45, seed=1),
                          trace_path)
    cp.tlsfit.write_sweep(cp.synth_sweep(1e-6, 10.0, 0.4, 5e-8, seed=1),
                          sweep_path)
    cp.fit_s21(cp.s21fit.read_trace(str(trace_path), power_dbm=-130.0))
    cp.fit_tls(cp.tlsfit.read_sweep(str(sweep_path)))
    cpwloss.cli.build_parser()
