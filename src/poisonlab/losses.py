"""Margin losses, their proximal operators, and the score function.

The asymptotic theory needs each loss L through three channels: the
proximal map

    prox(delta, x) = argmin_u [ L(u) + (u - x)^2 / (2 * delta) ],

the score f(delta, x) = -L'(prox(delta, x)), and its x-derivative
f'(delta, x) = -L''(u) / (1 + delta * L''(u)) at u = prox(delta, x).
The squared loss admits closed forms; the logistic prox is solved by a
safeguarded Newton iteration that never leaves its bracket and returns
only certified values.  Its last pass has evaluated f = expit(-u) at
the certified u, and hands it to ``f_both`` with u.
"""

import math

import numpy as np

PROX_RTOL = 1e-14
_PROX_MAX_ITER = 200
# From this pass on, a logistic node whose bracket has closed on adjacent
# floats also certifies: u is then the root to its last bit, where rounding
# can keep the residual above PROX_RTOL (delta ~ 2e5).  Nodes that meet the
# residual test do so within 12 passes on the tested grid, so the check,
# which costs a fifth of a pass, is skipped before.
_PROX_PINNED_PASS = 12


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

    Solves u + delta * L'(u) = x to relative residual PROX_RTOL, or a
    logistic node to its last bit where rounding keeps the residual above
    that; the logistic solve raises ArithmeticError if some x does not
    certify within _PROX_MAX_ITER steps.  For delta = 0 the map is the
    identity.
    """
    return _prox_and_score(loss, delta, x)[0]


def f_both(loss, delta: float, x):
    """(f, f') sharing one prox solve; f' = -L''(u) / (1 + delta * L''(u))."""
    u, f = _prox_and_score(loss, delta, x)
    # Logistic: L''(u) = expit(u) expit(-u) = expit(u) f, so f serves twice.
    ell2 = expit(u) * f if isinstance(loss, LogisticLoss) else loss.second_deriv(u)
    return f, -ell2 / (1.0 + delta * ell2)


def _prox_and_score(loss, delta, x):
    """(u, f) at u = prox(delta, x): the logistic solve's last pass has
    already evaluated f = -L'(u) = expit(-u), and returns it."""
    if not (np.isfinite(delta) and delta >= 0):
        raise ValueError("delta must be nonnegative and finite")
    x = np.asarray(x, dtype=float)
    if isinstance(loss, LogisticLoss) and delta > 0.0:
        # The solve updates 1-d buffers in place; a 0-d x gets its shape back.
        u, f = _logistic_prox(delta, x.ravel())
        return u.reshape(x.shape), f.reshape(x.shape)
    u = x.copy() if delta == 0.0 else (x + delta) / (1.0 + delta)
    return u, -loss.deriv(u)


def _logistic_prox(delta, x):
    """(u, expit(-u)) at the logistic prox u of the 1-d array x, delta > 0.

    g(u) = u + delta * L'(u) - x is increasing, and L' in (-1, 0) puts
    its root in [x, x + delta].  It also lies below u1 = max(x, 0) +
    log1p(delta) + 1, since -L'(u) = expit(-u) <= e^-u gives g(u1) >
    1 - 1/e > 0; at large delta with x < 0 the root sits near log(delta)
    and u1 is the far tighter end.  Undamped Newton can cycle inside the
    bracket once delta is about 20 or more, so this is rtsafe (Numerical
    Recipes, 9.4): a Newton step is taken only if it lands strictly
    inside the bracket, whose ends are these bounds or evaluated points
    that did not certify, and at most halves the step before last;
    otherwise the bracket is bisected.  Every pass thus evaluates a point
    strictly inside the bracket and shrinks it.  The start, one
    fixed-point step x - delta * L'(x) clamped to the bracket, is the
    root to rounding at saturated margins.

    A pass costs one exp; every update writes into the buffers allocated
    here.  expit(-u) = 1 / (1 + exp(u)) is 0 where exp(u) overflows.
    """
    lo = x.copy()
    hi = np.minimum(x + delta, np.maximum(x, 0.0) + math.log1p(delta) + 1.0)
    tol = np.abs(x)
    np.maximum(tol, 1.0, out=tol)
    tol *= PROX_RTOL
    s, ds, g, step, newton, half, abs_step, before_last, last = np.empty((9, x.size))
    before_last.fill(delta)
    last.fill(delta)
    with np.errstate(over="ignore"):
        # u = min(x + delta * expit(-x), hi)
        np.exp(x, out=s)
        s += 1.0
        np.divide(1.0, s, out=s)
        u = np.multiply(s, delta)
        u += x
        np.minimum(u, hi, out=u)
        for k in range(_PROX_MAX_ITER):
            np.exp(u, out=s)
            s += 1.0
            np.divide(1.0, s, out=s)  # -L'(u); L''(u) = s * (1 - s)
            np.multiply(s, delta, out=ds)
            np.subtract(u, ds, out=g)  # g = u - delta * s - x
            g -= x
            todo = np.abs(g, out=abs_step) > tol
            if k >= _PROX_PINNED_PASS:
                todo &= np.nextafter(lo, hi, out=half) < hi
            if not todo.any():
                return u, s
            np.copyto(lo, u, where=g < 0)
            np.copyto(hi, u, where=g > 0)
            # step = g / (1 + delta * s * (1 - s)), newton = u - step
            np.subtract(1.0, s, out=step)
            step *= ds
            step += 1.0
            np.divide(g, step, out=step)
            np.subtract(u, step, out=newton)
            np.abs(step, out=abs_step)
            bisect = newton <= lo
            bisect |= newton >= hi
            bisect |= 2.0 * abs_step > before_last
            # This pass's step: the half-width where it bisects, else |step|.
            np.subtract(hi, lo, out=half)
            half *= 0.5
            np.copyto(abs_step, half, where=bisect)
            before_last, last, abs_step = last, abs_step, before_last
            # Points not yet certified move to the midpoint or to newton.
            np.add(lo, hi, out=half)
            half *= 0.5
            np.copyto(newton, half, where=bisect)
            np.copyto(u, newton, where=todo)
    raise ArithmeticError(
        f"logistic prox did not certify in {_PROX_MAX_ITER} steps at delta {delta:g}"
    )
