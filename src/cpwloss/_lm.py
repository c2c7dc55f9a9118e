"""Levenberg-Marquardt least squares in numpy, shared by the S21 and TLS fits.

Each iteration solves the damped normal equations

    (J^T J + lam * diag(D)) h = -J^T r

with D the running maximum of diag(J^T J): Moré's scaling, MINPACK's mode 1
(Moré, LNM 630 (1978)), which makes the steps independent of the units of
the parameters. The damping lam follows the gain ratio rho, the actual over
the predicted reduction of the cost |r|^2 (Nielsen, IMM-REP-1999-05): a step
with rho > 1e-4 is taken and lam shrinks by up to 3x; a worse step is
refused and lam grows 2x, 4x, 8x, ... until one is taken.

The fit ends on MINPACK's tests, numbered as MINPACK numbers them:
1, the cost test: the actual and the predicted relative reduction of the
cost are both at most ftol (and rho <= 2); 2, the step test: the scaled step
is at most xtol times the scaled parameters; 3, both. Status 0 means that
maxfev evaluations passed before either test.

Each step is first one solve of the full scaled system. An optional box
[lower, upper] keeps every trial point feasible: a parameter on a bound
whose step points out of the box is held there (only then is the step
solved again, without it), and a step that would cross a bound stops
on the first bound it meets. A shortened step keeps its direction, so the
damped model still predicts a reduction; clipping each coordinate instead
lets a wild first step land several parameters on their bounds at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class LmResult:
    x: np.ndarray
    cost: float  # |r|^2 at x
    jtj: np.ndarray  # J^T J at x
    nfev: int  # evaluations of the residual, the first included
    status: int  # 1 cost test, 2 step test, 3 both, 0 maxfev reached


def levenberg_marquardt(evaluate, x0, ftol, xtol, maxfev, lower=None, upper=None):
    """Minimise |r(x)|^2 from x0 (inside the box, when one is given).

    `evaluate(x)` returns the cost |r|^2 and a callable that gives
    (J^T J, J^T r) at x; that callable runs only for points taken. A
    trial cost that is not finite refuses the step; the cost at x0 must be
    finite.
    """
    x = np.array(x0, dtype=float)
    cost, normal = evaluate(x)
    jtj, grad = normal()
    nfev, lam, grow = 1, 1e-3, 2.0
    scale = np.zeros(len(x))
    while nfev < maxfev:
        scale = np.maximum(scale, np.diag(jtj))
        d = np.where(scale > 0, scale, 1.0)
        sqrt_d = np.sqrt(d)
        s = 1 / sqrt_d
        h = -s * np.linalg.solve(jtj * np.outer(s, s) + lam * np.eye(len(x)), s * grad)
        if lower is not None:
            free = np.ones(len(x), dtype=bool)
            while (out := (x <= lower) & (h < 0) | (x >= upper) & (h > 0)).any():
                free &= ~out
                sf = s[free]
                h = np.zeros(len(x))
                h[free] = -sf * np.linalg.solve(
                    jtj[np.ix_(free, free)] * np.outer(sf, sf) + lam * np.eye(len(sf)),
                    sf * grad[free])
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
                  + 2 * int(np.linalg.norm(sqrt_d * h)
                            <= xtol * np.linalg.norm(sqrt_d * x)))
        if rho > 1e-4:
            x, cost = trial, new_cost
            jtj, grad = new_normal()
            lam *= max(1 / 3, 1 - (2 * min(rho, 1.0) - 1) ** 3)
            grow = 2.0
        else:
            lam *= grow
            grow *= 2
        if status:
            return LmResult(x, float(cost), jtj, nfev, status)
    return LmResult(x, float(cost), jtj, nfev, 0)
