"""The shared Levenberg-Marquardt driver: its box-free path and the box path
give the same steps where no bound is active, bit for bit."""

import numpy as np

from cpwloss import fit_s21, fit_tls, synth_sweep, synth_trace
from cpwloss import _lm, s21fit, tlsfit
from cpwloss.errors import CpwLossError


def _same(a, b):
    """Two LmResults equal bit for bit."""
    return (a.x.tobytes() == b.x.tobytes() and a.cost == b.cost
            and a.jtj.tobytes() == b.jtj.tobytes()
            and (a.nfev, a.status) == (b.nfev, b.status))


def test_infinite_box_equals_no_box(monkeypatch):
    # every call the fits make runs again without a box and with an
    # infinite one: both must give the same result, bit for bit
    pairs = []

    def both(evaluate, x0, ftol, xtol, maxfev, lower=None, upper=None):
        inf = np.full(len(x0), np.inf)
        # unboxed, the TLS model meets n_c < 0: a refused step, not an error
        with np.errstate(invalid="ignore"):
            pairs.append((
                _lm.levenberg_marquardt(evaluate, x0, ftol, xtol, maxfev),
                _lm.levenberg_marquardt(evaluate, x0, ftol, xtol, maxfev,
                                        lower=-inf, upper=inf)))
        return _lm.levenberg_marquardt(evaluate, x0, ftol, xtol, maxfev, lower, upper)

    monkeypatch.setattr(s21fit, "levenberg_marquardt", both)
    monkeypatch.setattr(tlsfit, "levenberg_marquardt", both)
    fit_s21(synth_trace(6e9, 2e5, 4e5, phi=0.1, alpha=0.3, tau=4e-8,
                        snr_db=45.0, seed=3))
    fit_tls(synth_sweep(1e-6, 10.0, 0.4, 1e-7, noise_frac=0.02, seed=3))
    assert len(pairs) == 2
    for free, inf in pairs:
        assert free.status and free.nfev > 2
        assert _same(free, inf)


def _boxed_lm(evaluate, x0, ftol, xtol, maxfev, lower=None, upper=None):
    """The driver as it was before its box-free path: every step is solved
    over the parameters a bound does not hold, by np.ix_, also when all
    are free. The reference for `test_fit_tls_matches_the_boxed_step_solve`."""
    x = np.array(x0, dtype=float)
    cost, normal = evaluate(x)
    jtj, grad = normal()
    nfev, lam, grow = 1, 1e-3, 2.0
    scale = np.zeros(len(x))
    while nfev < maxfev:
        scale = np.maximum(scale, np.diag(jtj))
        d = np.where(scale > 0, scale, 1.0)
        s = 1 / np.sqrt(d)
        free = np.ones(len(x), dtype=bool)
        while True:
            sf = s[free]
            h = np.zeros(len(x))
            h[free] = -sf * np.linalg.solve(
                jtj[np.ix_(free, free)] * np.outer(sf, sf) + lam * np.eye(len(sf)),
                sf * grad[free])
            if lower is None:
                break
            out = (x <= lower) & (h < 0) | (x >= upper) & (h > 0)
            if not out.any():
                break
            free &= ~out
        trial = x + h
        if lower is not None:
            bound = np.where(h < 0, lower, upper)
            room = np.divide(bound - x, h, out=np.full(len(x), np.inf), where=h != 0)
            k = np.argmin(room)
            if room[k] < 1:
                trial = np.clip(x + room[k] * h, lower, upper)
                trial[k] = bound[k]
                h = trial - x
        predicted = -(2 * h @ grad + h @ jtj @ h)
        new_cost, new_normal = evaluate(trial)
        nfev += 1
        actual = cost - new_cost
        rho = actual / predicted if predicted > 0 else -np.inf
        status = (int(abs(actual) <= ftol * cost and predicted <= ftol * cost
                      and rho <= 2)
                  + 2 * int(np.linalg.norm(np.sqrt(d) * h)
                            <= xtol * np.linalg.norm(np.sqrt(d) * x)))
        if rho > 1e-4:
            x, cost = trial, new_cost
            jtj, grad = new_normal()
            lam *= max(1 / 3, 1 - (2 * min(rho, 1.0) - 1) ** 3)
            grow = 2.0
        else:
            lam *= grow
            grow *= 2
        if status:
            return _lm.LmResult(x, float(cost), jtj, nfev, status)
    return _lm.LmResult(x, float(cost), jtj, nfev, 0)


def _outcome(sweep):
    """A fit's values as their reprs, which round-trip every bit (NaN too)."""
    try:
        fit = fit_tls(sweep)
    except CpwLossError as exc:
        return repr(exc)
    return repr(fit)


def test_fit_tls_matches_the_boxed_step_solve(monkeypatch):
    # 200 sweeps in the benchmark's fit-batch TLS ranges (F tan_d0 over the
    # six chips' budgets, n_c 1-100, b 0.2-0.5, delta_other 5e-8-3e-7,
    # 10 powers from 0.01 to 1e7 photons, 1-5% noise), the last 20 with b
    # 0.8-1.5, where the fit runs into the b <= 1 bound: the fits equal
    # those of the boxed step solve, bit for bit
    rng = np.random.default_rng(29)
    sweeps = [synth_sweep(10 ** rng.uniform(-6.3, -5.4), 10 ** rng.uniform(0, 2),
                          rng.uniform(0.2, 0.5) if k < 180 else rng.uniform(0.8, 1.5),
                          10 ** rng.uniform(-7.3, -6.5),
                          n_min=0.01, n_max=1e7, n_points=10,
                          noise_frac=rng.uniform(0.01, 0.05), seed=k)
              for k in range(200)]
    ours = [_outcome(s) for s in sweeps]
    monkeypatch.setattr(tlsfit, "levenberg_marquardt", _boxed_lm)
    assert [_outcome(s) for s in sweeps] == ours
    assert sum("parameter-at-bound" in o for o in ours) >= 10
