"""Notch-port S21 resonance fitting with environment calibration.

Model:

    S21(f) = a * exp(i*alpha) * exp(-2*pi*i*f*tau)
             * [1 - (Q_l / |Q_c|) * exp(i*phi) / (1 + 2i*Q_l*(f/f_r - 1))]

Fit pipeline: cable-delay estimation from the off-resonant phase slope with
a circularity-based refinement, algebraic circle fit, phase-vs-frequency fit
for (f_r, Q_l), environment recovery from the off-resonant point, and the
diameter correction Q_c = |Q_c| / cos(phi). Q_i follows from
1/Q_i = 1/Q_l - 1/Q_c.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FitDivergedError, IllConditionedError, NoDipFoundError

hbar = 1.0545718176461565e-34  # J s, h / (2 pi) (scipy.constants.hbar)


@dataclass
class S21Trace:
    frequency: np.ndarray  # Hz, strictly increasing
    s21: np.ndarray  # complex
    power_dbm: float | None = None
    label: str = ""

    def __post_init__(self):
        self.frequency = np.asarray(self.frequency, dtype=float)
        self.s21 = np.asarray(self.s21, dtype=complex)
        if len(self.frequency) < 50:
            raise ConfigError(f"trace needs >= 50 points, got {len(self.frequency)}")
        if len(self.frequency) != len(self.s21):
            raise ConfigError("frequency and s21 lengths differ")
        if not np.all(np.diff(self.frequency) > 0):
            raise ConfigError("frequencies must be strictly increasing")
        if not (np.all(np.isfinite(self.frequency))
                and np.all(np.isfinite(self.s21))):
            raise ConfigError("trace contains NaN or infinite values")


@dataclass
class ResonatorFit:
    f_r: float
    q_l: float
    q_c: float  # diameter-corrected, real
    q_i: float
    phi: float  # impedance-mismatch angle, rad
    a: float
    alpha: float
    tau: float
    f_r_err: float = 0.0
    q_l_err: float = 0.0
    q_c_err: float = 0.0
    q_i_err: float = 0.0
    label: str = ""

    @property
    def q_c_mag(self) -> float:
        """|Q_c| before the diameter correction."""
        return self.q_c * np.cos(self.phi)


def notch_model(f, f_r, q_l, q_c_mag, phi=0.0, a=1.0, alpha=0.0, tau=0.0):
    """Evaluate the notch-port transmission model."""
    f = np.asarray(f, dtype=float)
    env = a * np.exp(1j * alpha) * np.exp(-2j * np.pi * f * tau)
    resonance = 1 - (q_l / q_c_mag) * np.exp(1j * phi) / (
        1 + 2j * q_l * (f / f_r - 1)
    )
    return env * resonance


def _fit_circle_algebraic(z):
    """Algebraic least-squares circle fit (Taubin, via eigen-problem)."""
    x, y = z.real, z.imag
    xm, ym = x.mean(), y.mean()
    u, v = x - xm, y - ym
    zsq = u * u + v * v
    zm = zsq.mean()
    n = len(z)
    # Taubin constraint matrix formulation
    mat = np.array([
        [np.mean(zsq * zsq), np.mean(zsq * u), np.mean(zsq * v), zm],
        [np.mean(zsq * u), np.mean(u * u), np.mean(u * v), 0.0],
        [np.mean(zsq * v), np.mean(u * v), np.mean(v * v), 0.0],
        [zm, 0.0, 0.0, 1.0],
    ])
    cons = np.array([
        [4 * zm, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ])
    from scipy.linalg import eig

    w, vecs = eig(mat, cons)
    w = w.real
    w[~np.isfinite(w)] = np.inf
    if not np.any(np.isfinite(w)):
        raise FitDivergedError("circle fit failed (no valid eigenvalue)")
    # both matrices are positive semi-definite, so the finite eigenvalues are
    # >= 0 up to round-off; noiseless data makes the smallest one ~ -eps
    p = vecs[:, np.argmin(np.abs(w))].real
    A, B, C, D = p
    if abs(A) < 1e-300 * max(abs(B), abs(C), 1.0):
        raise FitDivergedError("circle fit degenerate (points collinear)")
    cx = -B / (2 * A) + xm
    cy = -C / (2 * A) + ym
    r = np.sqrt(B * B + C * C - 4 * A * D) / (2 * abs(A))
    return complex(cx, cy), r


def _circle_residual(z):
    center, r = _fit_circle_algebraic(z)
    d = np.abs(z - center) - r
    return float(np.sum(d * d)), center, r


def _estimate_delay(f, z):
    """Cable delay from the phase slope of the outer 20% of points."""
    n = len(f)
    k = max(n // 10, 5)
    phase = np.unwrap(np.angle(z))
    slopes = []
    for sl in (slice(0, k), slice(n - k, n)):
        pf = np.polyfit(f[sl], phase[sl], 1)
        slopes.append(pf[0])
    return -np.mean(slopes) / (2 * np.pi)


def _refine_delay(f, z, tau0):
    """Refine tau by maximizing circularity of the delay-corrected data."""
    from scipy.optimize import minimize_scalar

    span = f[-1] - f[0]
    # the slope estimate is good to a small fraction of a phase cycle across
    # the span; a narrow bracket avoids spurious circularity minima at
    # delays off by large fractions of a cycle
    scale = 0.05 / span

    def cost(tau):
        zz = z * np.exp(2j * np.pi * f * tau)
        try:
            res, _, r = _circle_residual(zz)
        except FitDivergedError:
            return np.inf
        return res / max(r * r, 1e-300)

    res = minimize_scalar(cost, bounds=(tau0 - scale, tau0 + scale),
                          method="bounded", options={"xatol": 1e-9 * scale})
    return float(res.x)


def _phase_model(f, theta0, q_l, f_r):
    return theta0 + 2 * np.arctan(2 * q_l * (1 - f / f_r))


def fit_s21(trace: S21Trace) -> ResonatorFit:
    """Extract (f_r, Q_l, Q_c, Q_i) and environment parameters from a trace."""
    from scipy.optimize import least_squares

    f = trace.frequency
    z = trace.s21

    mag = np.abs(z)
    baseline = np.median(mag)
    depth = baseline - mag.min()
    # noise floor from first differences of the magnitude
    noise = np.std(np.diff(mag)) / np.sqrt(2)
    if depth < max(5 * noise, 1e-6 * baseline):
        raise NoDipFoundError("no resonance dip found in trace")

    tau0 = _estimate_delay(f, z)
    tau = _refine_delay(f, z, tau0)
    zc = z * np.exp(2j * np.pi * f * tau)

    _, center, radius = _circle_residual(zc)

    # phase of the centered data vs frequency
    theta = np.unwrap(np.angle(zc - center))
    f_r0 = f[np.argmin(mag)]
    # crude Q_l from the half-depth width
    half = mag.min() + depth / 2
    below = np.where(mag < half)[0]
    width = f[below[-1]] - f[below[0]] if len(below) > 1 else (f[-1] - f[0]) / 10
    q_l0 = f_r0 / max(width, (f[1] - f[0]))
    theta0_init = np.mean(theta) - np.mean(
        2 * np.arctan(2 * q_l0 * (1 - f / f_r0))
    )

    def resid(p):
        d = theta - _phase_model(f, *p)
        return np.arctan2(np.sin(d), np.cos(d))  # wrap to (-pi, pi]

    sol = least_squares(resid, x0=[theta0_init, q_l0, f_r0],
                        x_scale=[1.0, q_l0, f_r0], xtol=1e-15, ftol=1e-15,
                        gtol=1e-15)
    if not sol.success:
        raise FitDivergedError(f"phase fit failed: {sol.message}")
    theta0, q_l, f_r = sol.x
    if q_l <= 0 or not f[0] <= f_r <= f[-1]:
        raise FitDivergedError(
            f"phase fit unphysical (Q_l={q_l:.3g}, f_r={f_r:.6g})"
        )

    # covariance of the phase fit
    dof = max(len(f) - 3, 1)
    s_sq = 2 * sol.cost / dof
    jtj = sol.jac.T @ sol.jac
    try:
        cov = np.linalg.inv(jtj) * s_sq
    except np.linalg.LinAlgError:
        cov = np.full((3, 3), np.nan)
    q_l_err = float(np.sqrt(abs(cov[1, 1])))
    f_r_err = float(np.sqrt(abs(cov[2, 2])))

    # off-resonant point and environment
    beta = theta0 + np.pi
    offres = center + radius * np.exp(1j * beta)
    a = abs(offres)
    alpha = float(np.angle(offres))
    if a <= 0:
        raise FitDivergedError("degenerate off-resonant point")
    center_n = center / offres
    r_n = radius / a
    phi = float(np.angle(1 - center_n))
    if abs(phi) >= np.pi / 2:
        raise IllConditionedError(
            f"impedance-mismatch angle |phi| = {abs(phi):.3f} >= pi/2"
        )

    q_c_mag = q_l / (2 * r_n)
    q_c = q_c_mag / np.cos(phi)
    inv_q_i = 1.0 / q_l - 1.0 / q_c
    if inv_q_i <= 0:
        raise FitDivergedError("fit implies non-positive internal loss")
    q_i = 1.0 / inv_q_i

    # radius scatter -> |Q_c| uncertainty; combine with Q_l covariance
    d_r = np.abs(zc - center) - radius
    r_err = np.std(d_r) / np.sqrt(len(f))
    q_c_err = q_c * np.sqrt((q_l_err / q_l) ** 2 + (r_err / radius) ** 2)
    q_i_err = q_i**2 * np.sqrt(
        (q_l_err / q_l**2) ** 2 + (q_c_err / q_c**2) ** 2
    )

    return ResonatorFit(
        f_r=float(f_r), q_l=float(q_l), q_c=float(q_c), q_i=float(q_i),
        phi=phi, a=float(a), alpha=alpha, tau=float(tau),
        f_r_err=f_r_err, q_l_err=q_l_err, q_c_err=float(q_c_err),
        q_i_err=float(q_i_err), label=trace.label,
    )


def photon_number(power_dbm: float, fit: ResonatorFit) -> float:
    """Mean intracavity photon number for an applied power at the device.

    Convention: <n> = 2 P Q_l^2 / (Q_c hbar omega_r^2). The absolute scale
    depends on the attenuation-chain calibration and is order-of-magnitude
    when comparing across setups.
    """
    if fit.q_l <= 0 or fit.q_c <= 0 or fit.f_r <= 0:
        raise ConfigError("photon_number requires positive Q_l, Q_c and f_r")
    p_watt = 10 ** (power_dbm / 10) * 1e-3
    omega = 2 * np.pi * fit.f_r
    return 2 * p_watt * fit.q_l**2 / (fit.q_c * hbar * omega**2)


def synth_trace(f_r, q_l, q_c_mag, phi=0.0, a=1.0, alpha=0.0, tau=0.0,
                n_points=1001, span_linewidths=100.0, snr_db=None,
                seed=None, label="") -> S21Trace:
    """Generate a synthetic notch trace, optionally with complex Gaussian noise.

    snr_db is the ratio of the baseline amplitude `a` to the noise standard
    deviation per quadrature pair.
    """
    linewidth = f_r / q_l
    half_span = span_linewidths * linewidth / 2
    f = np.linspace(f_r - half_span, f_r + half_span, n_points)
    z = notch_model(f, f_r, q_l, q_c_mag, phi, a, alpha, tau)
    if snr_db is not None:
        rng = np.random.default_rng(seed)
        sigma = a * 10 ** (-snr_db / 20)
        z = z + sigma / np.sqrt(2) * (
            rng.standard_normal(n_points) + 1j * rng.standard_normal(n_points)
        )
    return S21Trace(frequency=f, s21=z, label=label)


def read_trace(path, fmt: str = "reim", power_dbm=None) -> S21Trace:
    """Read a trace CSV: `freq_hz,re,im` or `freq_hz,mag_db,phase_rad`."""
    if fmt not in ("reim", "magphase"):
        raise ConfigError(f"unknown trace format {fmt!r}")
    freq, s21 = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        expected = ["freq_hz", "re", "im"] if fmt == "reim" else \
            ["freq_hz", "mag_db", "phase_rad"]
        if [h.strip() for h in header] != expected:
            raise ConfigError(
                f"{path}: expected header {','.join(expected)}, "
                f"got {','.join(header)}"
            )
        for row in reader:
            if not row:
                continue
            freq.append(float(row[0]))
            if fmt == "reim":
                s21.append(float(row[1]) + 1j * float(row[2]))
            else:
                s21.append(10 ** (float(row[1]) / 20) * np.exp(1j * float(row[2])))
    return S21Trace(frequency=np.array(freq), s21=np.array(s21),
                    power_dbm=power_dbm, label=str(path))


def write_trace(trace: S21Trace, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["freq_hz", "re", "im"])
        for f, z in zip(trace.frequency, trace.s21):
            writer.writerow([f"{f:.10e}", f"{z.real:.10e}", f"{z.imag:.10e}"])
