"""Saturable-TLS power-dependence model and fitting.

Model for the internal loss vs mean photon number n at temperature T:

    1/Q_i = F_tan_delta0 * tanh(h f_r / (2 k_B T)) / (1 + n/n_c)^b
            + delta_other

The four parameters are the saturable loss amplitude F_tan_delta0, the
critical photon number n_c, the saturation exponent b (0.5 for
non-interacting defects, below 0.5 with defect-defect interactions) and the
power-independent loss delta_other. The fit runs in log(1/Q_i) coordinates
to balance the many decades a power sweep spans, by the numpy
Levenberg-Marquardt the S21 fit uses (`_lm.levenberg_marquardt`), kept inside
the box BOUNDS_LOW..BOUNDS_HIGH; a fit that ends on the b or n_c bound is
flagged `parameter-at-bound`, and one whose F_tan_delta0 ends on 0
`f-at-bound`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from ._lm import levenberg_marquardt
from .errors import ConfigError, FitDivergedError

h = 6.62607015e-34  # J s, exact SI value (scipy.constants.h)
k_B = 1.380649e-23  # J/K, exact SI value (scipy.constants.k)

BOUNDS_LOW = np.array([0.0, 1e-3, 0.01, 0.0])  # F, n_c, b, delta_other
BOUNDS_HIGH = np.array([np.inf, 1e9, 1.0, np.inf])


@dataclass
class PhotonSweep:
    n_photon: np.ndarray
    q_i: np.ndarray
    q_i_sigma: np.ndarray
    f_r: float
    temperature: float
    chip: str = ""
    resonator: str = ""

    def __post_init__(self):
        self.n_photon = np.asarray(self.n_photon, dtype=float)
        self.q_i = np.asarray(self.q_i, dtype=float)
        if self.q_i_sigma is None:
            self.q_i_sigma = np.zeros_like(self.q_i)
        self.q_i_sigma = np.asarray(self.q_i_sigma, dtype=float)
        if not (len(self.n_photon) == len(self.q_i) == len(self.q_i_sigma)):
            raise ConfigError("sweep arrays have mismatched lengths")
        if len(self.q_i) == 0:
            raise ConfigError("sweep has no points")
        for name in ("n_photon", "q_i", "f_r", "temperature"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ConfigError(f"{name} must be finite")
        if np.any(self.n_photon <= 0):
            raise ConfigError("photon numbers must be strictly positive")
        if np.any(self.q_i <= 0):
            raise ConfigError("Q_i values must be strictly positive")
        if np.any(self.q_i_sigma < 0):
            raise ConfigError("Q_i uncertainties must be >= 0")
        if self.f_r <= 0 or self.temperature <= 0:
            raise ConfigError("f_r and temperature must be positive")

    @property
    def decades(self) -> float:
        return float(np.log10(self.n_photon.max() / self.n_photon.min()))


@dataclass
class TlsFit:
    f_tan_delta0: float
    n_c: float
    b: float
    delta_other: float
    f_tan_delta0_err: float = 0.0
    n_c_err: float = 0.0
    b_err: float = 0.0
    delta_other_err: float = 0.0
    reduced_chi2: float = float("nan")
    flags: tuple = ()
    nfev: int = 0  # model evaluations of the least-squares fit
    status: int = 0  # the test that ended it: 1 cost, 2 step, 3 both; 0 no fit
    f_r: float = 0.0
    temperature: float = 0.0
    chip: str = ""
    resonator: str = ""


def thermal_factor(f_r: float, temperature: float) -> float:
    """tanh(h f_r / (2 k_B T)); ~1 for GHz resonators at mK temperatures."""
    return float(np.tanh(h * f_r / (2 * k_B * temperature)))


def tls_inverse_q(params, n, temperature: float, f_r: float):
    """Evaluate the loss model 1/Q_i(n)."""
    f0, n_c, b, other = _unpack(params)
    n = np.asarray(n, dtype=float)
    th = thermal_factor(f_r, temperature)
    return f0 * th / (1 + n / n_c) ** b + other


def tls_jacobian(params, n, temperature: float, f_r: float):
    """Analytic Jacobian of 1/Q_i w.r.t. (F_tan_delta0, n_c, b, delta_other)."""
    f0, n_c, b, other = _unpack(params)
    n = np.asarray(n, dtype=float)
    th = thermal_factor(f_r, temperature)
    base = 1 + n / n_c
    sat = base ** (-b)
    d_f0 = th * sat
    d_nc = f0 * th * b * n / (n_c * n_c) * base ** (-b - 1)
    d_b = -f0 * th * sat * np.log(base)
    d_other = np.ones_like(n)
    return np.column_stack([d_f0, d_nc, d_b, d_other])


def _unpack(params):
    if isinstance(params, TlsFit):
        return params.f_tan_delta0, params.n_c, params.b, params.delta_other
    f0, n_c, b, other = params
    return f0, n_c, b, other


def fit_tls(sweep: PhotonSweep) -> TlsFit:
    """Weighted nonlinear least-squares fit of the loss model to a sweep."""
    n = sweep.n_photon
    q = sweep.q_i
    inv_q = 1.0 / q
    flags = []
    if len(n) < 5 or sweep.decades < 2.0:
        flags.append("insufficient-span")

    inv_lo, inv_hi = inv_q.min(), inv_q.max()
    if (inv_hi - inv_lo) / inv_hi < 1e-3:
        # power-independent data: b and n_c are unidentifiable
        if "insufficient-span" not in flags:
            flags.append("insufficient-span")
        return TlsFit(
            f_tan_delta0=0.0, n_c=float(np.exp(np.mean(np.log(n)))), b=0.5,
            delta_other=float(inv_q.mean()),
            delta_other_err=float(inv_q.std() / np.sqrt(len(n))),
            flags=tuple(flags), f_r=sweep.f_r, temperature=sweep.temperature,
            chip=sweep.chip, resonator=sweep.resonator,
        )

    # endpoint-based initialization: high power leaves delta_other, low power
    # adds the full saturable loss
    other0 = inv_lo
    f00 = inv_hi - inv_lo
    nc0 = float(np.exp(np.median(np.log(n))))
    x0 = np.clip(np.array([f00, nc0, 0.5, other0]),
                 BOUNDS_LOW + 1e-300, BOUNDS_HIGH)

    # weights: sigma(log 1/Q) = sigma_Q / Q, taken over its smallest value so
    # that tiny uncertainties cannot overflow
    rel = sweep.q_i_sigma / q
    weighted = np.all(rel > 0)
    wt = rel.min() / rel if weighted else np.ones_like(q)
    wt = wt / wt.mean()

    log_inv_q = np.log(inv_q)

    def evaluate(p):
        model = tls_inverse_q(p, n, sweep.temperature, sweep.f_r)
        if not np.all(model > 0):
            return np.inf, None  # F = delta_other = 0 at the box's corner
        r = wt * (np.log(model) - log_inv_q)

        def normal():
            jac = (wt / model)[:, None] * tls_jacobian(
                p, n, sweep.temperature, sweep.f_r)
            return jac.T @ jac, jac.T @ r

        return r @ r, normal

    # every trial point stays in the box; maxfev is 100 per parameter
    sol = levenberg_marquardt(evaluate, x0, ftol=1e-14, xtol=1e-14, maxfev=400,
                              lower=BOUNDS_LOW, upper=BOUNDS_HIGH)
    if not sol.status:
        raise FitDivergedError(
            f"TLS fit did not converge in {sol.nfev} evaluations")
    f0, n_c, b, other = sol.x

    at_bound = (
        b >= BOUNDS_HIGH[2] - 1e-9 or b <= BOUNDS_LOW[2] + 1e-9
        or n_c >= BOUNDS_HIGH[1] * (1 - 1e-9) or n_c <= BOUNDS_LOW[1] * (1 + 1e-9)
    )
    if at_bound:
        flags.append("parameter-at-bound")
    if f0 == 0.0:  # F_tan_delta0 on its lower bound
        flags.append("f-at-bound")

    dof = max(len(n) - 4, 1)
    s_sq = sol.cost / dof
    try:
        cov = np.linalg.inv(sol.jtj) * s_sq
        errs = np.sqrt(np.abs(np.diag(cov)))
    except np.linalg.LinAlgError:
        errs = np.full(4, np.nan)

    # goodness of fit in linear 1/Q space with the supplied uncertainties
    if weighted:
        # (model - 1/Q) / (sigma_Q / Q^2); uncertainties far below the misfit
        # give chi^2 = inf
        model = tls_inverse_q(sol.x, n, sweep.temperature, sweep.f_r)
        with np.errstate(over="ignore"):
            chi2 = float(np.sum(((model * q - 1) / rel) ** 2)) / dof
    else:
        chi2 = float("nan")

    return TlsFit(
        f_tan_delta0=float(f0), n_c=float(n_c), b=float(b),
        delta_other=float(other),
        f_tan_delta0_err=float(errs[0]), n_c_err=float(errs[1]),
        b_err=float(errs[2]), delta_other_err=float(errs[3]),
        reduced_chi2=chi2, flags=tuple(flags), nfev=sol.nfev, status=sol.status,
        f_r=sweep.f_r, temperature=sweep.temperature,
        chip=sweep.chip, resonator=sweep.resonator,
    )


@dataclass
class QEndpoints:
    q_low: float  # Q_i evaluated at n = 1
    q_high: float  # Q_i at the highest measured photon number
    n_high: float
    extrapolated: bool  # True when no measured point reaches n <= 1


def q_low_high(fit: TlsFit, sweep: PhotonSweep) -> QEndpoints:
    """Low/high-power Q_i endpoints from the fitted model.

    Convention: Q_i,low at n = 1, Q_i,high at the largest measured n.
    """
    n_high = float(sweep.n_photon.max())
    q_low = 1.0 / float(tls_inverse_q(fit, 1.0, fit.temperature or sweep.temperature,
                                      fit.f_r or sweep.f_r))
    q_high = 1.0 / float(tls_inverse_q(fit, n_high, fit.temperature or sweep.temperature,
                                       fit.f_r or sweep.f_r))
    return QEndpoints(q_low=q_low, q_high=q_high, n_high=n_high,
                      extrapolated=bool(sweep.n_photon.min() > 1.0))


def synth_sweep(f_tan_delta0, n_c, b, delta_other, f_r=6e9, temperature=0.01,
                n_min=0.1, n_max=1e6, n_points=30, noise_frac=0.0,
                seed=None, chip="", resonator="") -> PhotonSweep:
    """Generate a synthetic power sweep on a log-spaced photon grid."""
    if not 0.0 <= noise_frac < np.inf:
        raise ConfigError(f"noise_frac must be finite and >= 0, got {noise_frac}")
    n = np.logspace(np.log10(n_min), np.log10(n_max), n_points)
    inv_q = tls_inverse_q((f_tan_delta0, n_c, b, delta_other), n,
                          temperature, f_r)
    q = 1.0 / inv_q
    if noise_frac > 0:
        rng = np.random.default_rng(seed)
        q = q * (1 + noise_frac * rng.standard_normal(n_points))
        if np.any(q <= 0):
            raise ConfigError("noise level too large: non-positive Q_i")
        sigma = noise_frac * q
    else:
        sigma = np.zeros_like(q)
    return PhotonSweep(n_photon=n, q_i=q, q_i_sigma=sigma, f_r=f_r,
                       temperature=temperature, chip=chip, resonator=resonator)


def read_sweep(path) -> PhotonSweep:
    """Read a sweep CSV: `# key=value` metadata lines, then
    `n_photon,q_i,q_i_sigma` rows."""
    meta = {}
    rows = []
    with open(path, newline="") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.lower().startswith("n_photon"):
                continue
            try:
                if line.startswith("#"):
                    body = line.lstrip("#").strip()
                    if "=" in body:
                        key, val = (part.strip() for part in body.split("=", 1))
                        meta[key] = float(val) if key in ("f_r_hz", "temp_k") else val
                    continue
                n_photon, q_i, q_i_sigma = (float(v) for v in line.split(","))
                rows.append((n_photon, q_i, q_i_sigma))
            except ValueError as exc:
                raise ConfigError(f"{path}: line {lineno}: {exc}") from None
    if "f_r_hz" not in meta or "temp_k" not in meta:
        raise ConfigError(f"{path}: missing '# f_r_hz=' or '# temp_k=' metadata")
    if not rows:
        raise ConfigError(f"{path}: no n_photon,q_i,q_i_sigma rows")
    data = np.array(rows)
    try:
        return PhotonSweep(
            n_photon=data[:, 0], q_i=data[:, 1], q_i_sigma=data[:, 2],
            f_r=meta["f_r_hz"], temperature=meta["temp_k"],
            chip=meta.get("chip", ""), resonator=meta.get("resonator", ""),
        )
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def write_sweep(sweep: PhotonSweep, path):
    with open(path, "w", newline="") as fh:
        fh.write(f"# f_r_hz={sweep.f_r:.10e}\n")
        fh.write(f"# temp_k={sweep.temperature:.10e}\n")
        if sweep.chip:
            fh.write(f"# chip={sweep.chip}\n")
        if sweep.resonator:
            fh.write(f"# resonator={sweep.resonator}\n")
        writer = csv.writer(fh)
        writer.writerow(["n_photon", "q_i", "q_i_sigma"])
        for row in zip(sweep.n_photon, sweep.q_i, sweep.q_i_sigma):
            writer.writerow([f"{v:.10e}" for v in row])
