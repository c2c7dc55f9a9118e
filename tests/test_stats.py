import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpwloss import (
    boxplot_stats, compare_measured_vs_simulated, summarize_chip, weighted_mean,
)
from cpwloss.errors import ConfigError
from cpwloss.tlsfit import TlsFit


def brute_force_boxplot(values):
    """Independent oracle: sort-and-interpolate quartiles, 1.5*IQR fences."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)

    def quantile(q):
        # linear interpolation of order statistics ("type 7")
        pos = q * (n - 1)
        lo = int(np.floor(pos))
        hi = min(lo + 1, n - 1)
        return x[lo] + (pos - lo) * (x[hi] - x[lo])

    q1, q3 = quantile(0.25), quantile(0.75)
    iqr = q3 - q1
    inside = x[(x >= q1 - 1.5 * iqr) & (x <= q3 + 1.5 * iqr)]
    outliers = tuple(x[(x < q1 - 1.5 * iqr) | (x > q3 + 1.5 * iqr)])
    return q1, float(x.mean()), q3, inside[0], inside[-1], outliers


def test_weighted_mean_equal_sigmas_is_arithmetic_mean():
    values = [(1.0, 0.2), (2.0, 0.2), (6.0, 0.2)]
    wm = weighted_mean(values)
    assert wm.mean == pytest.approx(3.0, rel=1e-12)


def test_weighted_mean_two_point_example():
    wm = weighted_mean([(1.0, 0.1), (3.0, 0.3)])
    # w = 100, 11.11...; mean = (100 + 33.33)/111.11 = 1.2
    assert wm.mean == pytest.approx(1.2, abs=1e-12)
    assert wm.uncertainty == pytest.approx(np.sqrt(1 / (100 + 100 / 9)),
                                           abs=1e-12)
    assert wm.uncertainty == pytest.approx(0.0949, abs=1e-4)


def test_weighted_mean_single_value():
    wm = weighted_mean([(2.5, 0.4)])
    assert wm.mean == 2.5
    assert wm.uncertainty == pytest.approx(0.4)
    assert wm.spread == 0.0


def test_weighted_mean_fallback_unweighted():
    wm = weighted_mean([(1.0, 0.0), (3.0, 0.5)])
    assert wm.mean == pytest.approx(2.0)


@pytest.mark.parametrize("bad_sigma", [np.nan, np.inf])
def test_weighted_mean_non_finite_sigma_falls_back_unweighted(bad_sigma):
    wm = weighted_mean([(1.0, bad_sigma), (2.0, 1.0)])
    assert wm.mean == 1.5
    assert wm.spread == pytest.approx(np.sqrt(0.5), rel=1e-15)
    assert wm.uncertainty == pytest.approx(0.5, rel=1e-15)


def test_weighted_mean_empty():
    with pytest.raises(ConfigError):
        weighted_mean([])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-6.0, 6.0)),
                min_size=2, max_size=8))
def test_weighted_mean_spread_matches_exact_arithmetic(points):
    # sigmas span up to twelve decades, so one weight can exceed the sum of
    # the others by 1e24. The best-measured point sits at x = 0: rounding of
    # the float mean then stays far below the spread, and what is checked
    # is the Bessel-type denominator.
    sigmas = [10.0**k for _, k in points]
    best = sigmas.index(min(sigmas))
    xs = [0.0 if i == best else x for i, (x, _) in enumerate(points)]
    w = [1 / Fraction(s) ** 2 for s in sigmas]
    total = sum(w)
    mean = sum(wi * Fraction(x) for wi, x in zip(w, xs)) / total
    num = sum(wi * (Fraction(x) - mean) ** 2 for wi, x in zip(w, xs))
    denom = total - sum(wi * wi for wi in w) / total
    exact = math.sqrt(num / denom)
    assert weighted_mean(zip(xs, sigmas)).spread == pytest.approx(exact, rel=1e-12)


def test_boxplot_simple_example():
    b = boxplot_stats([1, 2, 3, 4, 5])
    assert b.q1 == pytest.approx(2.0)
    assert b.q3 == pytest.approx(4.0)
    assert b.mean == pytest.approx(3.0)
    assert b.whisker_low == 1.0
    assert b.whisker_high == 5.0
    assert b.outliers == ()


def test_boxplot_all_equal():
    b = boxplot_stats([7.0] * 6)
    assert b.q1 == b.q3 == b.mean == 7.0
    assert b.iqr == 0.0
    assert b.outliers == ()


def test_boxplot_outlier():
    b = boxplot_stats([1, 2, 3, 4, 100])
    assert b.outliers == (100.0,)
    assert b.whisker_high == 4.0


def test_boxplot_vs_brute_force_oracle():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = rng.integers(1, 40)
        x = rng.standard_cauchy(n)  # heavy tails exercise the outlier path
        b = boxplot_stats(x)
        q1, mean, q3, wlo, whi, outs = brute_force_boxplot(x)
        assert b.q1 == pytest.approx(q1, rel=1e-12, abs=1e-12)
        assert b.mean == pytest.approx(mean, rel=1e-12, abs=1e-12)
        assert b.q3 == pytest.approx(q3, rel=1e-12, abs=1e-12)
        assert b.whisker_low == pytest.approx(wlo, rel=1e-12, abs=1e-12)
        assert b.whisker_high == pytest.approx(whi, rel=1e-12, abs=1e-12)
        assert np.allclose(b.outliers, sorted(outs))


def test_boxplot_scale_equivariance():
    x = [0.3, 1.7, 2.9, 4.1, 9.5, 30.0]
    b1 = boxplot_stats(x)
    c = 2.5
    b2 = boxplot_stats([c * v for v in x])
    assert b2.q1 == pytest.approx(c * b1.q1)
    assert b2.mean == pytest.approx(c * b1.mean)
    assert b2.q3 == pytest.approx(c * b1.q3)
    assert b2.whisker_low == pytest.approx(c * b1.whisker_low)
    assert b2.whisker_high == pytest.approx(c * b1.whisker_high)


def test_boxplot_empty():
    with pytest.raises(ConfigError):
        boxplot_stats([])


def test_boxplot_nan_is_input_error():
    with pytest.raises(ConfigError, match="NaN"):
        boxplot_stats([1.0, math.nan, 2.0])
    # summarize_chip names the quantity that holds the NaN
    with pytest.raises(ConfigError, match="q_i_high.*NaN"):
        summarize_chip("x", _fake_fits([1e-6, 2e-6]), q_lows=[4e5, 5e5],
                       q_highs=[2e6, math.nan])


def test_boxplot_inf_is_input_error():
    for bad in (math.inf, -math.inf):
        with pytest.raises(ConfigError, match="1 infinite"):
            boxplot_stats([1.0, 2.0, bad])
    with pytest.raises(ConfigError, match="q_i_low.*infinite"):
        summarize_chip("x", _fake_fits([1e-6, 2e-6]), q_lows=[math.inf, 5e5])


def test_compare_table_row_400c():
    c = compare_measured_vs_simulated(1.06e-6, 0.93e-6)
    assert c.ratio == pytest.approx(1.14, abs=0.01)
    assert c.underestimated


def test_compare_table_row_450c_hf():
    c = compare_measured_vs_simulated(0.28e-6, 0.27e-6)
    assert c.ratio == pytest.approx(1.04, abs=0.01)
    assert c.underestimated


def test_compare_equal_no_flag():
    c = compare_measured_vs_simulated(1e-6, 1e-6)
    assert c.ratio == pytest.approx(1.0)
    assert not c.underestimated
    with pytest.raises(ConfigError):
        compare_measured_vs_simulated(1e-6, 0.0)


def _fake_fits(values, errs=None):
    errs = errs or [0.1 * v for v in values]
    return [TlsFit(f_tan_delta0=v, n_c=10, b=0.4, delta_other=5e-8,
                   f_tan_delta0_err=e) for v, e in zip(values, errs)]


def test_summarize_chip():
    fits = _fake_fits([1.0e-6, 1.2e-6, 0.9e-6, 1.5e-6])
    summary = summarize_chip("400C-ref-A", fits,
                             q_lows=[4e5, 5e5, 6e5, 4.5e5],
                             q_highs=[2e6, 3e6, 2.5e6, 2.2e6],
                             sample_holder="A", simulated_total=0.93e-6)
    assert summary.n_resonators == 4
    assert set(summary.boxplots) == {"f_tan_delta0", "q_i_low", "q_i_high"}
    assert summary.f_tan_delta0.mean == pytest.approx(
        weighted_mean([(f.f_tan_delta0, f.f_tan_delta0_err) for f in fits]).mean)
    assert summary.comparison.underestimated == (
        summary.f_tan_delta0.mean > 0.93e-6)


def test_summarize_chip_empty():
    with pytest.raises(ConfigError):
        summarize_chip("x", [])
