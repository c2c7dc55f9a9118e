import re

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings, strategies as st

from cpwloss import PhotonSweep, fit_tls, q_low_high, synth_sweep, tls_inverse_q
from cpwloss.errors import ConfigError
from cpwloss.tlsfit import (
    BOUNDS_HIGH, BOUNDS_LOW, read_sweep, thermal_factor, tls_jacobian, write_sweep,
)

TRUE = dict(f_tan_delta0=1.0e-6, n_c=10.0, b=0.4, delta_other=5e-8)


def test_model_documented_example():
    # F*tan_d0 = 1.06e-6, delta_other = 0, T = 10 mK, f_r = 6 GHz, n = n_c,
    # b = 0.5 -> 1.06e-6 * tanh(14.39) / sqrt(2)
    inv_q = tls_inverse_q((1.06e-6, 50.0, 0.5, 0.0), 50.0, 0.01, 6e9)
    expected = 1.06e-6 * np.tanh(14.39) / np.sqrt(2)
    assert float(inv_q) == pytest.approx(expected, rel=1e-6)
    assert float(inv_q) == pytest.approx(7.50e-7, rel=1e-3)


def test_model_high_power_limit():
    inv_q = tls_inverse_q((1e-6, 10.0, 0.4, 5e-8), 1e15, 0.01, 6e9)
    assert float(inv_q) == pytest.approx(5e-8, rel=1e-3)


def test_model_saturated_low_power_limit():
    inv_q = tls_inverse_q((1e-6, 10.0, 0.4, 5e-8), 1e-12, 1e-4, 6e9)
    assert float(inv_q) == pytest.approx(1e-6 + 5e-8, rel=1e-9)


def test_model_monotonic_in_n():
    n = np.logspace(-2, 8, 200)
    inv_q = tls_inverse_q(tuple(TRUE.values()), n, 0.01, 6e9)
    assert np.all(np.diff(inv_q) < 0)


def test_thermal_factor_near_unity_at_10mk():
    for f_r in np.linspace(4e9, 8e9, 9):
        th = thermal_factor(f_r, 0.01)
        assert 1 - 1e-8 <= th <= 1.0


def test_jacobian_vs_finite_differences():
    rng = np.random.default_rng(42)
    n = np.logspace(-1, 6, 15)
    for _ in range(10):
        p = np.array([
            10 ** rng.uniform(-7, -5),      # F*tan_d0
            10 ** rng.uniform(-1, 3),       # n_c
            rng.uniform(0.1, 0.9),          # b
            10 ** rng.uniform(-8, -6),      # delta_other
        ])
        jac = tls_jacobian(p, n, 0.01, 6e9)
        for k in range(4):
            h = 1e-6 * p[k]
            pp, pm = p.copy(), p.copy()
            pp[k] += h
            pm[k] -= h
            fd = (tls_inverse_q(pp, n, 0.01, 6e9)
                  - tls_inverse_q(pm, n, 0.01, 6e9)) / (2 * h)
            scale = np.max(np.abs(fd)) or 1.0
            assert np.allclose(jac[:, k], fd, atol=1e-6 * scale, rtol=1e-6)


def test_noiseless_round_trip():
    sweep = synth_sweep(**TRUE, n_points=30, n_min=0.1, n_max=1e6)
    fit = fit_tls(sweep)
    assert fit.f_tan_delta0 == pytest.approx(TRUE["f_tan_delta0"], rel=0.01)
    assert fit.n_c == pytest.approx(TRUE["n_c"], rel=0.01)
    assert fit.b == pytest.approx(TRUE["b"], rel=0.01)
    assert fit.delta_other == pytest.approx(TRUE["delta_other"], rel=0.01)
    assert not fit.flags


def test_noise_monte_carlo_3pct():
    hits = 0
    for seed in range(100):
        sweep = synth_sweep(**TRUE, noise_frac=0.03, seed=seed)
        try:
            fit = fit_tls(sweep)
        except Exception:
            continue
        if abs(fit.f_tan_delta0 - TRUE["f_tan_delta0"]) / TRUE["f_tan_delta0"] < 0.10:
            hits += 1
    assert hits >= 90


def test_b_beyond_its_bound_ends_on_it():
    sweep = synth_sweep(f_tan_delta0=1e-6, n_c=10.0, b=1.5, delta_other=5e-8)
    fit = fit_tls(sweep)
    assert fit.b == BOUNDS_HIGH[2]
    assert "parameter-at-bound" in fit.flags
    assert fit.status in (1, 2, 3) and fit.nfev > 0


def test_n_c_below_its_bound_ends_on_it():
    # n_c = 1e-4 is far below the lowest photon number: only F n_c^b is
    # seen, and the best fit lies beyond the bound at 1e-3
    sweep = synth_sweep(f_tan_delta0=1e-6, n_c=1e-4, b=0.4, delta_other=5e-8)
    fit = fit_tls(sweep)
    assert fit.n_c == BOUNDS_LOW[1]
    assert "parameter-at-bound" in fit.flags


def test_f_on_its_bound_is_flagged():
    # n_c = 1e10 lies far beyond the sweep, which shows no saturation: the
    # saturable loss is fitted to 0, where its error is not defined
    sweep = synth_sweep(f_tan_delta0=1e-6, n_c=1e10, b=0.4, delta_other=5e-8,
                        noise_frac=0.02, seed=1)
    fit = fit_tls(sweep)
    assert fit.f_tan_delta0 == 0.0
    assert "f-at-bound" in fit.flags


def _trf_fit(sweep):
    """fit_tls's problem (start, weights, log residual, Jacobian, box) solved
    by scipy's trf with the settings fit_tls once used; returns the solution
    and the residual function."""
    n, q = sweep.n_photon, sweep.q_i
    inv_q = 1 / q
    x0 = np.clip([inv_q.max() - inv_q.min(), np.exp(np.median(np.log(n))), 0.5,
                  inv_q.min()], BOUNDS_LOW + 1e-300, BOUNDS_HIGH)
    rel = sweep.q_i_sigma / q
    wt = rel.min() / rel if np.all(rel > 0) else np.ones_like(q)
    wt = wt / wt.mean()

    def resid(p):
        model = tls_inverse_q(p, n, sweep.temperature, sweep.f_r)
        return wt * (np.log(model) - np.log(inv_q))

    def jac(p):
        model = tls_inverse_q(p, n, sweep.temperature, sweep.f_r)
        return (wt / model)[:, None] * tls_jacobian(p, n, sweep.temperature, sweep.f_r)

    sol = scipy.optimize.least_squares(
        resid, x0, jac=jac, bounds=(BOUNDS_LOW, BOUNDS_HIGH),
        x_scale=np.maximum(np.abs(x0), 1e-12), xtol=1e-14, ftol=1e-14, gtol=1e-14)
    return sol, resid


def _at_bound(p):
    _, n_c, b, _ = p
    return bool(b >= BOUNDS_HIGH[2] - 1e-9 or b <= BOUNDS_LOW[2] + 1e-9
                or n_c >= BOUNDS_HIGH[1] * (1 - 1e-9)
                or n_c <= BOUNDS_LOW[1] * (1 + 1e-9))


# the published range that the benchmark's generator also draws from; the
# example's subnormal noise once overflowed the weights q / sigma
@example(log_f=-6.0, log_n_c=1.0, b=0.4, log_other=-7.0,
         noise=2.2250738585072014e-309, n_points=5, seed=0)
@settings(max_examples=60, deadline=None)
@given(log_f=st.floats(-6.5, -5.5), log_n_c=st.floats(0.0, 2.0),
       b=st.floats(0.2, 0.5), log_other=st.floats(np.log10(5e-8), np.log10(3e-7)),
       noise=st.floats(0.0, 0.05), n_points=st.integers(5, 30),
       seed=st.integers(0, 2**32 - 1))
def test_fit_matches_trf(log_f, log_n_c, b, log_other, noise, n_points, seed):
    sweep = synth_sweep(10**log_f, 10**log_n_c, b, 10**log_other,
                        n_points=n_points, noise_frac=noise, seed=seed)
    fit = fit_tls(sweep)
    sol, resid = _trf_fit(sweep)
    assert sol.success
    ours = resid([fit.f_tan_delta0, fit.n_c, fit.b, fit.delta_other])
    # residual norms, up to the rounding of the log model: 2 eps |log 1/Q|
    rounding = np.linalg.norm(2 * np.finfo(float).eps * np.log(sweep.q_i))
    assert np.linalg.norm(ours) <= np.sqrt(2 * sol.cost * (1 + 1e-9)) + rounding
    assert ("parameter-at-bound" in fit.flags) == _at_bound(sol.x)
    assert fit.f_tan_delta0 == pytest.approx(sol.x[0], rel=1e-6)


def test_reduced_chi2_on_matched_noise():
    chi2s = []
    for seed in range(20):
        sweep = synth_sweep(**TRUE, noise_frac=0.03, seed=seed, n_points=60)
        chi2s.append(fit_tls(sweep).reduced_chi2)
    assert np.mean(chi2s) == pytest.approx(1.0, abs=0.5)


def test_constant_sweep_degenerate():
    n = np.logspace(0, 5, 12)
    sweep = PhotonSweep(n_photon=n, q_i=np.full(12, 1e6),
                        q_i_sigma=np.full(12, 1e4), f_r=6e9, temperature=0.01)
    fit = fit_tls(sweep)
    assert "insufficient-span" in fit.flags
    assert fit.delta_other == pytest.approx(1e-6, rel=1e-6)
    assert fit.f_tan_delta0 == 0.0


def test_insufficient_span_flagged():
    sweep = synth_sweep(**TRUE, n_min=10.0, n_max=100.0, n_points=8)
    fit = fit_tls(sweep)
    assert "insufficient-span" in fit.flags


def test_q_endpoints_consistency():
    sweep = synth_sweep(**TRUE)
    fit = fit_tls(sweep)
    ends = q_low_high(fit, sweep)
    assert ends.q_low == pytest.approx(
        1 / float(tls_inverse_q(fit, 1.0, 0.01, 6e9)), rel=1e-12)
    assert ends.q_high == pytest.approx(
        1 / float(tls_inverse_q(fit, sweep.n_photon.max(), 0.01, 6e9)),
        rel=1e-12)
    assert ends.q_high > ends.q_low
    assert not ends.extrapolated


def test_q_low_extrapolation_flag():
    sweep = synth_sweep(**TRUE, n_min=100.0, n_max=1e6, n_points=12)
    fit = fit_tls(sweep)
    ends = q_low_high(fit, sweep)
    assert ends.extrapolated


def test_q_low_plausibility_band():
    # reference-chip-like loss amplitude; the fitted low-power Q_i must land
    # near the measured range (sanity band, not an exact target)
    sweep = synth_sweep(f_tan_delta0=1.06e-6, n_c=10.0, b=0.5,
                        delta_other=5e-7)
    fit = fit_tls(sweep)
    ends = q_low_high(fit, sweep)
    assert 0.4e6 <= ends.q_low <= 0.8e6


def test_sweep_validation():
    with pytest.raises(ConfigError):
        PhotonSweep(n_photon=[0.0, 1.0], q_i=[1e6, 1e6],
                    q_i_sigma=[0, 0], f_r=6e9, temperature=0.01)
    with pytest.raises(ConfigError):
        PhotonSweep(n_photon=[1.0, 2.0], q_i=[1e6, -1e6],
                    q_i_sigma=[0, 0], f_r=6e9, temperature=0.01)
    with pytest.raises(ConfigError):
        PhotonSweep(n_photon=[1.0, 2.0], q_i=[1e6, 1e6],
                    q_i_sigma=[0, 0], f_r=6e9, temperature=-1.0)
    with pytest.raises(ConfigError, match="no points"):
        PhotonSweep(n_photon=[], q_i=[], q_i_sigma=None, f_r=6e9,
                    temperature=0.01)


@pytest.mark.parametrize("field, value", [
    ("n_photon", [1.0, np.nan]), ("n_photon", [1.0, np.inf]), ("q_i", [1e6, np.nan]),
    ("f_r", np.nan), ("temperature", np.nan), ("temperature", np.inf),
])
def test_sweep_rejects_non_finite(field, value):
    kwargs = dict(n_photon=[1.0, 2.0], q_i=[1e6, 1e6], q_i_sigma=[0, 0],
                  f_r=6e9, temperature=0.01)
    kwargs[field] = value
    with pytest.raises(ConfigError, match=field):
        PhotonSweep(**kwargs)


def test_sweep_accepts_nan_sigma():
    # a singular S21 covariance gives q_i_err = NaN; that sweep is fitted
    # unweighted rather than rejected
    sweep = PhotonSweep(n_photon=[1.0, 2.0], q_i=[1e6, 1e6], q_i_sigma=[np.nan, 0],
                        f_r=6e9, temperature=0.01)
    assert np.isnan(sweep.q_i_sigma[0])


def test_sweep_io_round_trip(tmp_path):
    sweep = synth_sweep(**TRUE, noise_frac=0.02, seed=5, chip="400C-ref",
                        resonator="R3")
    path = tmp_path / "sweep.csv"
    write_sweep(sweep, path)
    again = read_sweep(path)
    assert np.allclose(again.n_photon, sweep.n_photon)
    assert np.allclose(again.q_i, sweep.q_i)
    assert again.f_r == pytest.approx(sweep.f_r)
    assert again.temperature == pytest.approx(sweep.temperature)
    assert again.chip == "400C-ref"
    assert again.resonator == "R3"


@pytest.mark.parametrize("line, match", [
    ("nan,1e6,1e4", "n_photon must be finite"),
    ("-1,1e6,1e4", "photon numbers must be strictly positive"),
])
def test_read_sweep_value_error_names_file(tmp_path, line, match):
    path = tmp_path / "sweep.csv"
    write_sweep(synth_sweep(**TRUE, seed=5), path)
    path.write_text(path.read_text() + line + "\n")
    with pytest.raises(ConfigError, match=re.escape(f"{path}: {match}")):
        read_sweep(path)


def test_read_sweep_requires_metadata(tmp_path):
    path = tmp_path / "sweep.csv"
    path.write_text("n_photon,q_i,q_i_sigma\n1.0,1e6,1e4\n")
    with pytest.raises(ConfigError):
        read_sweep(path)
