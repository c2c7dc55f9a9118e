"""Notch-port S21 resonance fitting with environment calibration.

Model:

    S21(f) = a * exp(i*alpha) * exp(-2*pi*i*f*tau)
             * [1 - (Q_l / |Q_c|) * exp(i*phi) / (1 + 2i*Q_l*(f/f_r - 1))]

Fit pipeline: start values from the delay (the least-squares phase slope of
each end of the span, in closed form) and Taubin's circle fit, by one SVD
(Chernov, Circular and Linear Regression, CRC 2010), with Q_l from the area
of the dip; then one complex least-squares fit over the seven model
parameters; errors from its covariance (Probst et al., Rev. Sci. Instrum.
86, 024706 (2015)). The diameter correction gives Q_c = |Q_c| / cos(phi), and
1/Q_i = 1/Q_l - 1/Q_c.

The fit is a numpy Levenberg-Marquardt (`_lm.levenberg_marquardt`, shared
with the TLS fit) with Moré's column scaling (Moré, LNM 630 (1978)). It
works on the complex residual: J^T J and J^T r of the real problem are
Re(J^H J) and Re(J^H d) of the complex 7-column Jacobian J. Each column is a
constant times one of five vectors, so both come from one 6x6 Gram matrix of
those vectors and d (`_notch_evaluate`), not from J itself. It ends on
MINPACK's cost test (ftol=1e-8) or step test (xtol=1e-15), with at most
700 evaluations (100 per parameter); `status` numbers the test that ended
it as MINPACK does (1 cost, 2 step, 3 both).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from ._lm import levenberg_marquardt
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
    alpha: float  # environment phase at f = 0, rad
    tau: float
    f_r_err: float = 0.0
    q_l_err: float = 0.0
    q_c_err: float = 0.0
    q_i_err: float = 0.0
    # linearised error of the wrapped alpha: meaningful only well below ~1 rad
    alpha_err: float = 0.0
    tau_err: float = 0.0
    alpha_c: float = 0.0  # environment phase at the span centre, rad
    alpha_c_err: float = 0.0
    nfev: int = 0  # model evaluations of the least-squares fit
    status: int = 0  # the test that ended the fit: 1 cost, 2 step, 3 both
    start: tuple = ()  # start values (f_r, Q_l, |Q_c|, phi, a, alpha, tau)
    # cost / dof, cost |d|^2 (d = model - S21): variance per real component
    reduced_chi2: float = np.nan
    jtj_cond: float = np.nan  # cond(J^T J), its columns scaled to unit norm
    diameter_z: float = np.nan  # Q_l / |Q_c| over its error from cov
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


def _cis(phase):
    """exp(i phase) for real phase, by cos and sin: twice np.exp's speed."""
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def _fit_circle_algebraic(z):
    """Taubin's algebraic circle fit by one SVD (Chernov, *Circular and
    Linear Regression*, CRC 2010).

    In coordinates (u, v) centred on the points' mean, with rho^2 = u^2 +
    v^2 and s^2 = mean(rho^2), Taubin's circle A rho^2 + B u + C v + D = 0
    has D = -s^2 A, and (2 s A, B, C) is the right singular vector of
    [(rho^2 - s^2) / (2 s), u, v] for its smallest singular value. As a unit
    vector, it gives the radius s over its first component.
    """
    u, v = z.real - z.real.mean(), z.imag - z.imag.mean()
    rho2 = u * u + v * v
    s2 = rho2.mean()  # mean square distance of the points from their mean
    if not s2 > 0:
        raise FitDivergedError("circle fit degenerate (all points coincide)")
    s = np.sqrt(s2)
    cols = np.stack([(rho2 - s2) / (2 * s), u, v], axis=1)
    a, b, c = np.linalg.svd(cols, full_matrices=False)[2][-1]
    # collinear points give a = 0 up to rounding: a line, not a circle; the
    # bound rejects radii over 1/sqrt(eps) ~ 7e7 times the points' rms spread
    if abs(a) < np.sqrt(np.finfo(float).eps):
        raise FitDivergedError("circle fit degenerate (points collinear)")
    return z.mean() - complex(b, c) * s / a, s / abs(a)


def _estimate_delay(f, z):
    """Cable delay from the phase slope of the outer 20% of points: the
    least-squares slope of each end, over frequencies centred on that end."""
    n = len(f)
    k = max(n // 10, 5)
    phase = np.unwrap(np.angle(z))
    ends = np.stack([np.arange(k), np.arange(n - k, n)])
    df = f[ends] - f[ends].mean(axis=1, keepdims=True)
    slopes = (df * phase[ends]).sum(axis=1) / (df * df).sum(axis=1)
    return -np.mean(slopes) / (2 * np.pi)


def _start_values(f, z, mag):
    """Start values (f_r, Q_l, |Q_c|, phi, a, alpha, tau) from the phase-slope
    delay, a circle fit to the delay-corrected data and the dip's area."""
    tau = _estimate_delay(f, z)
    zc = z * _cis(2 * np.pi * f * tau)
    center, radius = _fit_circle_algebraic(zc)
    f_r = f[np.argmin(mag)]
    # off-resonant point: the circle point in the mean direction of the
    # outer 10% of points, as seen from the centre
    k = max(len(f) // 20, 1)
    outer = np.concatenate([zc[:k], zc[-k:]]) - center
    offres = center + radius * np.exp(1j * np.angle(np.sum(outer / np.abs(outer))))
    a = abs(offres)
    if a <= 0:
        raise FitDivergedError("degenerate off-resonant point")
    phi = np.angle(1 - center / offres)
    # Q_l from the dip's area: w = 1 - zc/offres has |w|^2 = D^2 / (1 +
    # 4 Q_l^2 (f/f_r - 1)^2) with the diameter D = 2 radius / a, whose
    # integral over f is D^2 pi f_r / (2 Q_l). The noise power per point,
    # from first differences, comes off first. A half-depth width would also
    # count noise points far from the dip. A non-positive area (no dip above
    # the noise) starts Q_l at the upper clamp.
    w = 1 - zc / offres
    floor = np.mean(np.abs(np.diff(w)) ** 2) / 2
    y = np.abs(w) ** 2 - floor
    area = (np.diff(f) * (y[1:] + y[:-1]) / 2).sum()  # trapezoid rule
    q_max = f_r / (f[1] - f[0])  # no dip above the noise: one point wide
    q_l = (np.clip((2 * radius / a) ** 2 * np.pi * f_r / (2 * area),
                   f_r / (f[-1] - f[0]), q_max) if area > 0 else q_max)
    return f_r, q_l, q_l * a / (2 * radius), phi, a, np.angle(offres), tau


def _notch_evaluate(p, f, z, start, units):
    """|d|^2 of the S21 fit's residual d = model - z at its parameters p, in
    the `units` (lw0, fc, tau_unit) of `fit_s21`, and a callable giving
    Re(J^H J), Re(J^H d) from the Gram matrix M = conj(w) w^T of six rows w:
    g = eg/den, df g (df = f - fc), eg, the model, df model and d. Each
    Jacobian column is a constant times one of the first five (the f_r column
    is -2i lw0 Q_l / f_r^2 (fc g + df g)), so with their 5x7 coefficients C,
    J^H J = C^H M[:5, :5] C and J^H d = C^H M[:5, 5]."""
    f_r0, q_l0, q_c0, _, a0, _, tau0 = start
    lw0, fc, tau_unit = units
    df = f - fc
    f_r, q_l = f_r0 + p[0] * lw0, q_l0 * p[1]
    w = np.empty((6, len(f)), dtype=complex)
    g, dfg, eg, model, dfmodel, d = w
    env = _cis(p[5] - 2 * np.pi * df * (tau0 + p[6] * tau_unit))
    env *= a0 * p[4]
    den = 1 + 2j * q_l * (f / f_r - 1)
    np.divide(env * (q_l / (q_c0 * p[2])) * np.exp(1j * p[3]), den, out=eg)
    np.subtract(env, eg, out=model)
    np.subtract(model, z, out=d)

    def normal():
        np.divide(eg, den, out=g)
        np.multiply(df, g, out=dfg)
        np.multiply(df, model, out=dfmodel)
        m = w.conj() @ w.T
        c = np.zeros((5, 7), dtype=complex)
        c[:2, 0] = -2j * lw0 * q_l / f_r**2 * np.array([fc, 1.0])  # f_r offset
        c[0, 1] = -1 / p[1]  # Q_l ratio
        c[2, 2:4] = 1 / p[2], -1j  # |Q_c| ratio, phi
        c[3, 4:6] = 1 / p[4], 1j  # a ratio, alpha at fc
        c[4, 6] = -2j * np.pi * tau_unit  # tau offset
        chm = c.conj().T @ m[:5]
        return (chm[:, :5] @ c).real, chm[:, 5].real

    return np.vdot(d, d).real, normal


def fit_s21(trace: S21Trace) -> ResonatorFit:
    """Extract (f_r, Q_l, Q_c, Q_i) and environment parameters from a trace."""
    f = trace.frequency
    z = trace.s21

    mag = np.abs(z)
    baseline = np.median(mag)
    depth = baseline - mag.min()
    # noise floor from first differences of the magnitude
    noise = np.std(np.diff(mag)) / np.sqrt(2)
    # `not >` also stops a trace without signal (0 > 0 is false) and a NaN
    if not depth > max(5 * noise, 1e-6 * baseline):
        raise NoDipFoundError("no resonance dip found in trace")

    start = _start_values(f, z, mag)
    f_r0, q_l0, q_c0, phi0, a0, alpha0, tau0 = start
    # Parameters in units of their start values: f_r as an offset in
    # linewidths, Q_l, |Q_c| and a as ratios, tau as an offset in radians of
    # phase across the span, phi in radians, and the environment phase taken
    # at the span centre fc, where it does not trade off against tau.
    lw0, fc = f_r0 / q_l0, 0.5 * (f[0] + f[-1])
    tau_unit = 1 / (2 * np.pi * (f[-1] - f[0]))
    x0 = [0.0, 1.0, 1.0, phi0, 1.0, alpha0 - 2 * np.pi * fc * tau0, 0.0]

    # the fit ends when a step lowers the cost by at most 1e-8 relative (and
    # predicts no more), or when the step is at the rounding level of the
    # parameters, as on a noiseless trace
    sol = levenberg_marquardt(
        lambda p: _notch_evaluate(p, f, z, start, (lw0, fc, tau_unit)), x0,
        ftol=1e-8, xtol=1e-15, maxfev=700)
    if not sol.status:
        raise FitDivergedError(
            f"S21 fit did not converge in {sol.nfev} evaluations")
    p = sol.x
    f_r, q_l, q_c_mag, a = f_r0 + p[0] * lw0, q_l0 * p[1], q_c0 * p[2], a0 * p[4]
    if q_l <= 0 or q_c_mag <= 0 or a <= 0 or not f[0] <= f_r <= f[-1]:
        raise FitDivergedError(
            f"S21 fit unphysical (Q_l={q_l:.3g}, |Q_c|={q_c_mag:.3g}, "
            f"a={a:.3g}, f_r={f_r:.6g})"
        )
    phi = float(np.angle(np.exp(1j * p[3])))
    if abs(phi) >= np.pi / 2:
        raise IllConditionedError(
            f"impedance-mismatch angle |phi| = {abs(phi):.3f} >= pi/2"
        )
    q_c = q_c_mag / np.cos(phi)
    inv_q_i = 1.0 / q_l - 1.0 / q_c
    if inv_q_i <= 0:
        raise FitDivergedError("fit implies non-positive internal loss")
    q_i = 1.0 / inv_q_i
    tau = tau0 + p[6] * tau_unit
    alpha = float(np.angle(np.exp(1j * (p[5] + 2 * np.pi * fc * tau))))
    alpha_c = float(np.angle(np.exp(1j * p[5])))

    # covariance, carried linearly to f_r, Q_l, Q_c, Q_i, alpha, tau and Q_l/|Q_c|
    dof = max(2 * len(f) - len(p), 1)
    s_sq = sol.cost / dof
    col = np.sqrt(np.diag(sol.jtj))
    try:
        cov = np.linalg.inv(sol.jtj) * s_sq
        jtj_cond = float(np.linalg.cond(sol.jtj / np.outer(col, col)))
    except np.linalg.LinAlgError:
        cov, jtj_cond = np.full((len(p), len(p)), np.nan), np.nan
    d_f_r = np.array([lw0, 0, 0, 0, 0, 0, 0])
    d_q_l = np.array([0, q_l0, 0, 0, 0, 0, 0])
    d_q_c = np.array([0, 0, q_c0 / np.cos(phi), q_c * np.tan(phi), 0, 0, 0])
    d_q_i = q_i**2 * (d_q_l / q_l**2 - d_q_c / q_c**2)
    d_alpha = np.array([0, 0, 0, 0, 0, 1, 2 * np.pi * fc * tau_unit])
    d_tau = np.array([0, 0, 0, 0, 0, 0, tau_unit])
    diameter = q_l / q_c_mag
    d_diameter = np.array([0, diameter / p[1], -diameter / p[2], 0, 0, 0, 0])
    grads = np.array([d_f_r, d_q_l, d_q_c, d_q_i, d_alpha, d_tau, d_diameter])
    f_r_err, q_l_err, q_c_err, q_i_err, alpha_err, tau_err, diameter_err = (
        float(e) for e in np.sqrt(np.abs(np.sum(grads @ cov * grads, axis=1))))

    return ResonatorFit(
        f_r=float(f_r), q_l=float(q_l), q_c=float(q_c), q_i=float(q_i),
        phi=phi, a=float(a), alpha=alpha, tau=float(tau),
        f_r_err=f_r_err, q_l_err=q_l_err, q_c_err=q_c_err, q_i_err=q_i_err,
        alpha_err=alpha_err, tau_err=tau_err,
        alpha_c=alpha_c, alpha_c_err=float(np.sqrt(np.abs(cov[5, 5]))),
        nfev=sol.nfev, status=sol.status,
        start=tuple(float(v) for v in start), reduced_chi2=float(s_sq),
        jtj_cond=jtj_cond,
        diameter_z=float(diameter / diameter_err) if diameter_err else np.inf,
        label=trace.label,
    )


def photon_number(power_dbm: float, fit: ResonatorFit) -> float:
    """Mean intracavity photon number for an applied power at the device.

    Convention: <n> = 2 P Q_l^2 / (Q_c hbar omega_r^2). The absolute scale
    depends on the attenuation-chain calibration and is order-of-magnitude
    when comparing across setups.
    """
    if not np.isfinite(power_dbm):
        raise ConfigError(f"power must be finite, got {power_dbm} dBm")
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
    for name, value in (("f_r", f_r), ("q_l", q_l), ("q_c_mag", q_c_mag)):
        if not 0.0 < value < np.inf:
            raise ConfigError(f"{name} must be finite and > 0, got {value}")
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
            try:
                f, u, v = (float(x) for x in row)
            except ValueError as exc:
                raise ConfigError(f"{path}: line {reader.line_num}: {exc}") from None
            freq.append(f)
            s21.append(u + 1j * v if fmt == "reim" else 10 ** (u / 20) * np.exp(1j * v))
    return S21Trace(frequency=np.array(freq), s21=np.array(s21),
                    power_dbm=power_dbm, label=str(path))


def write_trace(trace: S21Trace, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["freq_hz", "re", "im"])
        for f, z in zip(trace.frequency, trace.s21):
            writer.writerow([f"{f:.10e}", f"{z.real:.10e}", f"{z.imag:.10e}"])
