"""Saturable-TLS power-dependence model and fitting.

Model for the internal loss vs mean photon number n at temperature T:

    1/Q_i = F_tan_delta0 * tanh(h f_r / (2 k_B T)) / (1 + n/n_c)^b
            + delta_other

The four parameters are the saturable loss amplitude F_tan_delta0, the
critical photon number n_c, the saturation exponent b (0.5 for
non-interacting defects, below 0.5 with defect-defect interactions) and the
power-independent loss delta_other. The fit runs in log(1/Q_i) coordinates
to balance the many decades a power sweep spans.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

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
    from scipy.optimize import least_squares

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

    # weights: sigma(log 1/Q) = sigma_Q / Q
    if np.all(sweep.q_i_sigma > 0):
        wt = q / sweep.q_i_sigma
        wt = wt / wt.mean()
    else:
        wt = np.ones_like(q)

    def resid(p):
        model = tls_inverse_q(p, n, sweep.temperature, sweep.f_r)
        return wt * (np.log(model) - np.log(inv_q))

    def jac(p):
        model = tls_inverse_q(p, n, sweep.temperature, sweep.f_r)
        return (wt / model)[:, None] * tls_jacobian(
            p, n, sweep.temperature, sweep.f_r
        )

    sol = least_squares(resid, x0=x0, jac=jac,
                        bounds=(BOUNDS_LOW, BOUNDS_HIGH),
                        x_scale=np.maximum(np.abs(x0), 1e-12),
                        xtol=1e-14, ftol=1e-14, gtol=1e-14)
    if not sol.success or not np.all(np.isfinite(sol.x)):
        raise FitDivergedError(f"TLS fit did not converge: {sol.message}")
    f0, n_c, b, other = sol.x

    at_bound = (
        b >= BOUNDS_HIGH[2] - 1e-9 or b <= BOUNDS_LOW[2] + 1e-9
        or n_c >= BOUNDS_HIGH[1] * (1 - 1e-9) or n_c <= BOUNDS_LOW[1] * (1 + 1e-9)
    )
    if at_bound:
        flags.append("parameter-at-bound")

    dof = max(len(n) - 4, 1)
    s_sq = 2 * sol.cost / dof
    jtj = sol.jac.T @ sol.jac
    try:
        cov = np.linalg.inv(jtj) * s_sq
        errs = np.sqrt(np.abs(np.diag(cov)))
    except np.linalg.LinAlgError:
        errs = np.full(4, np.nan)

    # goodness of fit in linear 1/Q space with the supplied uncertainties
    if np.all(sweep.q_i_sigma > 0):
        sigma_inv = sweep.q_i_sigma / q**2
        model = tls_inverse_q(sol.x, n, sweep.temperature, sweep.f_r)
        chi2 = float(np.sum(((model - inv_q) / sigma_inv) ** 2)) / dof
    else:
        chi2 = float("nan")

    return TlsFit(
        f_tan_delta0=float(f0), n_c=float(n_c), b=float(b),
        delta_other=float(other),
        f_tan_delta0_err=float(errs[0]), n_c_err=float(errs[1]),
        b_err=float(errs[2]), delta_other_err=float(errs[3]),
        reduced_chi2=chi2, flags=tuple(flags),
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
    n = np.logspace(np.log10(n_min), np.log10(n_max), n_points)
    inv_q = tls_inverse_q((f_tan_delta0, n_c, b, delta_other), n,
                          temperature, f_r)
    q = 1.0 / inv_q
    if noise_frac > 0:
        rng = np.random.default_rng(seed)
        q = q * (1 + noise_frac * rng.standard_normal(n_points))
        if np.any(q <= 0):
            raise FitDivergedError("noise level too large: non-positive Q_i")
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
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if "=" in body:
                    key, val = body.split("=", 1)
                    meta[key.strip()] = val.strip()
                continue
            if line.lower().startswith("n_photon"):
                continue
            rows.append([float(v) for v in line.split(",")])
    if "f_r_hz" not in meta or "temp_k" not in meta:
        raise ConfigError(f"{path}: missing '# f_r_hz=' or '# temp_k=' metadata")
    data = np.array(rows)
    if data.ndim != 2 or data.shape[1] != 3:
        raise ConfigError(f"{path}: expected 3 columns n_photon,q_i,q_i_sigma")
    return PhotonSweep(
        n_photon=data[:, 0], q_i=data[:, 1], q_i_sigma=data[:, 2],
        f_r=float(meta["f_r_hz"]), temperature=float(meta["temp_k"]),
        chip=meta.get("chip", ""), resonator=meta.get("resonator", ""),
    )


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
