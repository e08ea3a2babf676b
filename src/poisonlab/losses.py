"""Margin losses and their proximal operators.

The asymptotic theory reads a loss L through L' and L'' at the nodes of
its quadrature rule, and through the proximal map

    prox(delta, x) = argmin_u [ L(u) + (u - x)^2 / (2 * delta) ]

only where that rule places its segment edges (``fixed_point``).  Each
loss also states where the rule splits a segment in u and how the
solver treats its scores.  The squared loss's prox is closed-form; the
logistic prox calls ``rtsafe``, the bracketed Newton solver it shares
with ``theory_squared.solve_tau``, and returns only certified values.
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
    # Which of (tau, gamma, eta1, eta2) a Newton step moves multiplicatively
    # (see ``fixed_point._newton_solve``): the eta rows are affine in
    # (eta1, eta2) at fixed tau, and stay linear.
    log_coords = np.array([False, True, False, False])
    # -L' is unbounded, so a score never underflows.
    saturates = False

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return 0.5 * (1.0 - t) ** 2

    def deriv(self, t):
        return np.asarray(t, dtype=float) - 1.0

    def second_deriv(self, t):
        return np.ones_like(np.asarray(t, dtype=float))

    def breaks(self, delta):
        return ()  # L'' is constant, so the rule needs no split in u.


class LogisticLoss:
    """L(t) = log(1 + exp(-t)), evaluated overflow-free."""

    name = "logistic"
    # The eta2 image is positive and decays exponentially in the poisoned
    # margin, and a linear step overshoots it when alpha doubles.
    log_coords = np.array([False, True, False, True])
    # -L' = expit(-t) underflows to 0 at large margins, where eta2 is then
    # resolved only to absolute tolerance (``eta2_clamped``).
    saturates = True

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return np.logaddexp(0.0, -t)

    def deriv(self, t):
        return -expit(-np.asarray(t, dtype=float))

    def second_deriv(self, t):
        # expit(t) expit(-t), with one exp that cannot overflow.
        e = np.exp(-np.abs(np.asarray(t, dtype=float)))
        return e / (1.0 + e) ** 2

    def breaks(self, delta):
        # L'' = expit(t) expit(-t) has poles at t = +-i pi: a split at 0,
        # graded to +-40.  x(u) = u + delta L'(u) bends where delta L''(u) =
        # 1, near |u| = log(delta), which past 10 is a break too.
        bend = math.log(max(delta, 1.0))
        return (-40.0, -10.0, 0.0, 10.0, 40.0) + ((-bend, bend) if bend > 10.0 else ())


def loss_by_name(name: str):
    if name == "squared":
        return SquaredLoss()
    if name == "logistic":
        return LogisticLoss()
    raise ValueError(f"unknown loss {name!r}; expected 'squared' or 'logistic'")


def _logistic_score(u):
    """-L'(u) of the logistic loss at a float, with the bits of ``expit(-u)``
    (numpy's exp, not math's, which differs in the last bit); 0 past
    u = 709, where expit(-u) < 1e-307."""
    return 1.0 / (1.0 + float(np.exp(u))) if u < 709.0 else 0.0


def rtsafe(fun, lo, hi, x, tol, first, max_iter=200):
    """Root of an increasing function, fun(t) = (g(t), g'(t)), on [lo, hi]
    from x, by rtsafe (Numerical Recipes, 9.4): a Newton step is taken
    only if it lands strictly inside the bracket, whose ends are evaluated
    points, and at most halves the step before last (``first`` stands in
    for the two before the first); otherwise the bracket is bisected.  It
    returns once |g| <= tol or the bracket has closed on adjacent floats,
    and raises ArithmeticError after max_iter evaluations.
    """
    before_last = last = first
    for _ in range(max_iter):
        g, slope = fun(x)
        if abs(g) <= tol or math.nextafter(lo, hi) >= hi:
            return x
        lo, hi = (x, hi) if g < 0.0 else (lo, x)
        step = g / slope
        newton = x - step
        if lo < newton < hi and 2.0 * abs(step) <= before_last:
            before_last, last, x = last, abs(step), newton
        else:
            before_last, last, x = last, 0.5 * (hi - lo), 0.5 * (lo + hi)
    raise ArithmeticError(f"did not certify in {max_iter} steps")


def prox(loss, delta: float, x: float) -> float:
    """Proximal map of ``loss`` with step ``delta`` at the number x.

    Solves u + delta * L'(u) = x.  For delta = 0 the map is the identity,
    and the squared loss's is (x + delta) / (1 + delta).  The logistic
    root is certified when its residual is at most PROX_RTOL * max(1,
    |x|), or when its bracket has closed on adjacent floats: u is then
    the root to its last bit, where rounding can keep the residual above
    that bound (delta ~ 2e5).  It raises ArithmeticError if neither
    holds within _PROX_MAX_ITER steps of ``rtsafe``.

    g(u) = u + delta * L'(u) - x is increasing, and L' in (-1, 0) puts
    the logistic root in [x, x + delta], whose width bounds the first
    Newton steps.  It also lies below u1 = max(x, 0) + log1p(delta) + 1,
    since -L'(u) = expit(-u) <= e^-u gives g(u1) > 1 - 1/e > 0; at large
    delta with x < 0 the root sits near log(delta) and u1 is the far
    tighter end.  Undamped Newton cycles inside the bracket once delta is
    about 20 or more.  The start, one fixed-point step x - delta * L'(x)
    clamped to the bracket, is the root to rounding at saturated margins.
    """
    if not (math.isfinite(delta) and delta >= 0.0):
        raise ValueError("delta must be nonnegative and finite")
    x = float(x)
    if delta == 0.0:
        return x
    if not isinstance(loss, LogisticLoss):
        return (x + delta) / (1.0 + delta)

    def g(u):
        s = _logistic_score(u)  # L''(u) = s (1 - s)
        return u - delta * s - x, 1.0 + delta * s * (1.0 - s)

    hi = min(x + delta, max(x, 0.0) + math.log1p(delta) + 1.0)
    try:
        return rtsafe(g, x, hi, min(x + delta * _logistic_score(x), hi),
                      PROX_RTOL * max(1.0, abs(x)), delta, _PROX_MAX_ITER)
    except ArithmeticError as err:
        raise ArithmeticError(f"logistic prox {err} at delta {delta:g}") from None
