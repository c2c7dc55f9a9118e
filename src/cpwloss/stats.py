"""Chip-level aggregation: weighted means, boxplot statistics, comparisons."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class WeightedMean:
    mean: float
    uncertainty: float  # standard error of the weighted mean
    spread: float  # weighted sample standard deviation


def weighted_mean(values) -> WeightedMean:
    """Inverse-variance weighted mean of (x, sigma) pairs.

    Falls back to the unweighted mean when any sigma is not finite and
    positive (zero, negative, NaN or infinite). Both the standard error
    (sqrt(1/sum w)) and the weighted sample spread are reported; chip
    summaries display the spread, which is what the per-chip +/- values
    resemble.
    """
    values = list(values)
    if not values:
        raise ConfigError("weighted_mean: empty input")
    x = np.array([v[0] for v in values], dtype=float)
    s = np.array([v[1] for v in values], dtype=float)
    n = len(x)
    if not np.all(np.isfinite(s) & (s > 0)):
        mean = float(x.mean())
        spread = float(x.std(ddof=1)) if n > 1 else 0.0
        unc = spread / np.sqrt(n) if n > 1 else 0.0
        return WeightedMean(mean, unc, spread)
    w = 1.0 / s**2
    mean = float(np.sum(w * x) / np.sum(w))
    unc = float(np.sqrt(1.0 / np.sum(w)))
    if n > 1:
        # frequency-weight analogue of the Bessel-corrected sample variance;
        # sum(w) - sum(w**2)/sum(w) equals 2 sum_{i<j} w_i w_j / sum(w),
        # which has no cancellation when one weight dominates
        suffix = np.cumsum(w[::-1])[::-1]
        denom = 2.0 * np.sum(w[:-1] * suffix[1:]) / np.sum(w)
        spread = float(np.sqrt(np.sum(w * (x - mean) ** 2) / denom))
    else:
        spread = 0.0
    return WeightedMean(mean, unc, spread)


@dataclass(frozen=True)
class BoxplotStats:
    q1: float
    mean: float
    q3: float
    whisker_low: float
    whisker_high: float
    outliers: tuple

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1


def boxplot_stats(values) -> BoxplotStats:
    """Quartiles (linear-interpolation convention), mean line, 1.5*IQR whiskers.

    Whiskers sit at the most extreme data points within 1.5*IQR of the box;
    anything beyond is an outlier. NaN or infinite input is a ConfigError.
    """
    x = np.asarray(list(values), dtype=float)
    if x.size == 0:
        raise ConfigError("boxplot_stats: empty input")
    if not np.isfinite(x).all():
        raise ConfigError(f"boxplot_stats: {np.isnan(x).sum()} NaN and "
                          f"{np.isinf(x).sum()} infinite value(s)")
    q1, q3 = np.percentile(x, [25, 75])
    iqr = q3 - q1
    lo_fence, hi_fence = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    inside = x[(x >= lo_fence) & (x <= hi_fence)]
    outliers = tuple(sorted(x[(x < lo_fence) | (x > hi_fence)]))
    return BoxplotStats(
        q1=float(q1), mean=float(x.mean()), q3=float(q3),
        whisker_low=float(inside.min()), whisker_high=float(inside.max()),
        outliers=outliers,
    )


@dataclass(frozen=True)
class Comparison:
    measured: float
    simulated: float
    ratio: float
    difference: float
    underestimated: bool  # True when the simulation sits below the measurement


def compare_measured_vs_simulated(measured_mean: float,
                                  simulated_total: float) -> Comparison:
    """Measured weighted-mean loss vs the simulated budget total."""
    if not np.isfinite(measured_mean):
        raise ConfigError(f"measured mean must be finite, got {measured_mean}")
    if not (np.isfinite(simulated_total) and simulated_total > 0):
        raise ConfigError(
            f"simulated total must be finite and positive, got {simulated_total}")
    ratio = measured_mean / simulated_total
    return Comparison(
        measured=measured_mean, simulated=simulated_total,
        ratio=ratio, difference=measured_mean - simulated_total,
        underestimated=measured_mean > simulated_total,
    )


@dataclass
class ChipSummary:
    """Aggregated per-chip fit results."""

    chip: str
    sample_holder: str = ""
    f_tan_delta0: WeightedMean | None = None
    boxplots: dict = field(default_factory=dict)  # quantity -> BoxplotStats
    n_resonators: int = 0
    comparison: Comparison | None = None


def summarize_chip(chip: str, fits, q_lows=None, q_highs=None,
                   sample_holder: str = "",
                   simulated_total: float | None = None) -> ChipSummary:
    """Build a ChipSummary from per-resonator TLS fits and Q endpoints."""
    fits = list(fits)
    if not fits:
        raise ConfigError("summarize_chip: no fits given")
    # the boxplots reject non-finite values before weighted_mean sees them
    boxplots = {}
    for name, vals in (("f_tan_delta0", [f.f_tan_delta0 for f in fits]),
                       ("q_i_low", q_lows), ("q_i_high", q_highs)):
        if vals:
            try:
                boxplots[name] = boxplot_stats(vals)
            except ConfigError as exc:
                raise ConfigError(f"summarize_chip: {name}: {exc}") from None
    wm = weighted_mean([(f.f_tan_delta0, f.f_tan_delta0_err) for f in fits])
    summary = ChipSummary(
        chip=chip, sample_holder=sample_holder, f_tan_delta0=wm,
        boxplots=boxplots, n_resonators=len(fits),
    )
    if simulated_total is not None:
        summary.comparison = compare_measured_vs_simulated(wm.mean, simulated_total)
    return summary
