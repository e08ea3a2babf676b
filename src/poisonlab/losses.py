"""Margin losses, their proximal operators, and the score function.

The asymptotic theory needs each loss L through three channels: the
proximal map

    prox(delta, x) = argmin_u [ L(u) + (u - x)^2 / (2 * delta) ],

the score f(delta, x) = -L'(prox(delta, x)), and its x-derivative
f'(delta, x) = -L''(u) / (1 + delta * L''(u)) at u = prox(delta, x).
The squared loss admits closed forms; the logistic prox is solved by a
safeguarded Newton iteration that never leaves its bracket and returns
only certified values.
"""

import math

import numpy as np

PROX_RTOL = 1e-14
_PROX_MAX_ITER = 200


def expit(t):
    """The logistic sigmoid 1 / (1 + exp(-t)).

    Below t = -709 exp(-t) overflows to inf and the sigmoid is 0, never
    NaN; that overflow is expected and its warning silenced.  Within
    5e-16 relative of scipy's ``expit`` on [-700, 700], without
    importing scipy.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(t, dtype=float)))


class SquaredLoss:
    """L(t) = (1 - t)^2 / 2."""

    name = "squared"

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return 0.5 * (1.0 - t) ** 2

    def deriv(self, t):
        return np.asarray(t, dtype=float) - 1.0

    def second_deriv(self, t):
        return np.ones_like(np.asarray(t, dtype=float))


class LogisticLoss:
    """L(t) = log(1 + exp(-t)), evaluated overflow-free."""

    name = "logistic"

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return np.logaddexp(0.0, -t)

    def deriv(self, t):
        return -expit(-np.asarray(t, dtype=float))

    def second_deriv(self, t):
        t = np.asarray(t, dtype=float)
        return expit(t) * expit(-t)


def loss_by_name(name: str):
    if name == "squared":
        return SquaredLoss()
    if name == "logistic":
        return LogisticLoss()
    raise ValueError(f"unknown loss {name!r}; expected 'squared' or 'logistic'")


def prox(loss, delta: float, x):
    """Proximal map of ``loss`` with step ``delta``, vectorized in x.

    Solves u + delta * L'(u) = x to relative residual PROX_RTOL; the
    logistic solve raises ArithmeticError if some x does not certify
    within _PROX_MAX_ITER steps.  For delta = 0 the map is the identity.
    """
    if not (np.isfinite(delta) and delta >= 0):
        raise ValueError("delta must be nonnegative and finite")
    x = np.asarray(x, dtype=float)
    if delta == 0.0:
        return x.copy()
    if isinstance(loss, SquaredLoss):
        return (x + delta) / (1.0 + delta)

    # Logistic: g(u) = u + delta * L'(u) - x is increasing, and L' in
    # (-1, 0) puts its root in [x, x + delta].  It also lies below
    # u1 = max(x, 0) + log1p(delta) + 1, since -L'(u) = expit(-u) <= e^-u
    # gives g(u1) > 1 - 1/e > 0; at large delta with x < 0 the root sits
    # near log(delta) and u1 is the far tighter end.  Undamped Newton can
    # cycle inside the bracket once delta is about 20 or more, so this
    # is rtsafe (Numerical Recipes, 9.4): a Newton step is taken only if
    # it lands strictly inside the bracket, whose ends are these bounds
    # or evaluated points that did not certify, and at most halves the
    # step before last; otherwise the bracket is bisected.  Every pass
    # thus evaluates a point strictly inside the bracket and shrinks it.
    # The start, one fixed-point step x - delta * L'(x) clamped to the
    # bracket, is the root to rounding at saturated margins.
    lo = x.copy()
    hi = np.minimum(x + delta, np.maximum(x, 0.0) + math.log1p(delta) + 1.0)
    u = np.minimum(x + delta * expit(-x), hi)
    tol = PROX_RTOL * np.maximum(1.0, np.abs(x))
    step_before_last = step_last = np.full_like(x, delta)
    for _ in range(_PROX_MAX_ITER):
        s = expit(-u)  # -L'(u); L''(u) = s * (1 - s)
        g = u - delta * s - x
        todo = np.abs(g) > tol
        if not todo.any():
            return u
        lo = np.where(g < 0, u, lo)
        hi = np.where(g > 0, u, hi)
        step = g / (1.0 + delta * s * (1.0 - s))
        newton = u - step
        bisect = (newton <= lo) | (newton >= hi) | (2.0 * np.abs(step) > step_before_last)
        step_before_last, step_last = step_last, np.where(bisect, 0.5 * (hi - lo), np.abs(step))
        u = np.where(todo, np.where(bisect, 0.5 * (lo + hi), newton), u)
    raise ArithmeticError(
        f"logistic prox did not certify in {_PROX_MAX_ITER} steps at delta {delta:g}"
    )


def f_both(loss, delta: float, x):
    """(f, f') sharing one prox solve; f' = -L''(u) / (1 + delta * L''(u))."""
    u = prox(loss, delta, x)
    f = -loss.deriv(u)
    # Logistic: L''(u) = expit(u) expit(-u) = expit(u) f, so f serves twice.
    ell2 = expit(u) * f if isinstance(loss, LogisticLoss) else loss.second_deriv(u)
    return f, -ell2 / (1.0 + delta * ell2)

