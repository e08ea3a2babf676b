"""Closed-form asymptotics for the squared loss.

With L(t) = (1 - t)^2 / 2 the proximal score is affine, so the
self-consistent characterization of the regularized estimator collapses
to one scalar equation for the resolvent weight tau,

    tau * (1 + delta(tau)) = 1,    delta(tau) = tr[C R(lam, tau)] / n,

after which the mean alignment h_mu = mu' R theta-bar and trigger
alignment h_v = v' R theta-bar are rational in the Gram entries

    m = mu' R mu,    eps = mu' R v,    q = v' R v.

This module carries those rational forms, the exact optimizer of h_v
over the trigger magnitude alpha, and the partial derivatives of both
alignments in the poisoned fraction phi.  The isotropic and eigen-pair
geometries, where mu and v are eigendirections of C, are the case
eps = 0 of the same forms.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import covariance as cov

TAU_RESIDUAL_TOL = 1e-12
_TAU_MAX_ITER = 200
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class SquaredScalars:
    """Solution (tau, delta) of the squared-loss scalar equation."""

    tau: float
    delta: float


@dataclass(frozen=True)
class AlphaStar:
    """Exact peak of h_v over alpha, and its eps -> 0 leading form."""

    exact: float
    leading: float


def solve_tau(model: cov.SpectrumCovariance, lam: float, n: int) -> SquaredScalars:
    """Solve tau * (1 + delta(tau)) = 1 for tau in (0, 1].

    psi(tau) = tau * (1 + delta(tau)) - 1 is increasing and concave, and
    delta decreases from delta(0), so the root lies in the bracket
    [1 / (1 + delta(0)), 1 / (1 + delta(1))].  It is found by rtsafe
    (Numerical Recipes, 9.4) on the slope psi' = 1 + delta - tau *
    tr[C^2 R^2] / n: a Newton step is taken while it stays inside the
    bracket, and the bracket is bisected otherwise.  Residual is
    certified to TAU_RESIDUAL_TOL.
    """
    if not (lam > 0 and math.isfinite(lam)):
        raise ValueError("lam must be positive and finite")
    if n < 1:
        raise ValueError("n must be a positive integer")

    zero = np.zeros(model.dim)
    table = cov.SpectralTable(model, n, zero, zero)
    lo = 1.0 / (1.0 + table.moments(lam, 0.0).tr_cr)
    hi = 1.0 / (1.0 + table.moments(lam, 1.0).tr_cr)
    tau = lo
    for _ in range(_TAU_MAX_ITER):
        mom = table.moments(lam, tau)
        psi = tau * (1.0 + mom.tr_cr) - 1.0
        if psi < 0.0:
            lo = tau
        else:
            hi = tau
        step = psi / (1.0 + mom.tr_cr - tau * mom.tr_c2r2)
        if abs(step) <= _EPS * tau:
            break
        newton = tau - step
        tau = newton if lo < newton < hi else 0.5 * (lo + hi)
    delta = table.moments(lam, tau).tr_cr
    resid = abs(tau * (1.0 + delta) - 1.0)
    if resid > TAU_RESIDUAL_TOL:
        raise ArithmeticError(f"tau residual {resid:.3e} exceeds {TAU_RESIDUAL_TOL}")
    return SquaredScalars(tau=tau, delta=delta)


def _projections_from_gram(m, eps, q, tau, phi, alpha):
    delta_g = m * q - eps * eps
    d = (
        1.0
        + tau * m
        - 2.0 * tau * phi * alpha * eps
        + tau * phi * alpha**2 * q
        + tau**2 * phi * (1.0 - phi) * alpha**2 * delta_g
    )
    h_mu = tau * (
        (1.0 - 2.0 * phi) * m
        + phi * alpha * eps
        + tau * phi * (1.0 - phi) * alpha**2 * delta_g
    ) / d
    h_v = tau * (
        (1.0 - 2.0 * phi) * eps
        + phi * alpha * q
        + 2.0 * tau * phi * (1.0 - phi) * alpha * delta_g
    ) / d
    return h_mu, h_v


def _alpha_star_from_gram(m, eps, q, tau, phi):
    if phi <= 0.0:
        raise ValueError("alpha peak requires phi > 0")
    if q <= 0.0:
        raise ValueError("alpha peak requires a nondegenerate trigger direction")
    delta_g = m * q - eps * eps
    n_e = tau * (1.0 - 2.0 * phi) * eps
    d_e = -2.0 * tau * phi * eps
    a_e = tau * phi * (q + 2.0 * tau * (1.0 - phi) * delta_g)
    c_e = tau * phi * (q + tau * (1.0 - phi) * delta_g)
    b = 1.0 + tau * m
    # Positive root of a_e*b - n_e*d_e - 2*n_e*c_e*alpha - a_e*c_e*alpha^2.
    shift = n_e / a_e
    exact = -shift + math.sqrt(shift**2 + (a_e * b - n_e * d_e) / (a_e * c_e))
    leading = math.sqrt((1.0 + tau * m) / (tau * phi * q * (1.0 + tau * (1.0 - phi) * m)))
    return AlphaStar(exact=exact, leading=leading)


def projections_exact(spec: cov.ProblemSpec, scalars: SquaredScalars) -> tuple[float, float]:
    """(h_mu, h_v) at spec.alpha from the exact rational expressions."""
    (m, eps), (_, q) = spec.spectral.moments(spec.lam, scalars.tau).r.tolist()
    return _projections_from_gram(m, eps, q, scalars.tau, spec.phi, spec.alpha)


def alpha_star_exact(spec: cov.ProblemSpec, scalars: SquaredScalars) -> AlphaStar:
    """Trigger magnitude maximizing h_v, with its eps -> 0 simplification.

    h_v(alpha) is a ratio of a linear over a positive quadratic, so the
    stationarity condition is itself a quadratic with exactly one
    positive root.
    """
    (m, eps), (_, q) = spec.spectral.moments(spec.lam, scalars.tau).r.tolist()
    return _alpha_star_from_gram(m, eps, q, scalars.tau, spec.phi)


def phi_sensitivity(
    g_mumu: float, g_vv: float, tau: float, phi: float, alpha: float
) -> tuple[float, float]:
    """(dh_v/dphi, dh_mu/dphi) in the eps = 0 geometry.

    Derived by differentiating the rational forms at fixed (lam, tau);
    tau itself does not depend on phi.  The mean derivative is negative
    for every admissible argument: poisoning always erodes alignment
    with the clean mean.  The trigger derivative starts positive and
    crosses zero once alpha is large enough that the quadratic term
    phi^2 tau^2 m q alpha^2 dominates.
    """
    m, q = g_mumu, g_vv
    u = tau * m
    big_q = tau * q * alpha**2
    d = (1.0 + u) + big_q * phi * (1.0 + u * (1.0 - phi))
    dh_v = tau * q * alpha * (
        (1.0 + u) * (1.0 + 2.0 * u * (1.0 - 2.0 * phi)) - phi**2 * u * big_q
    ) / d**2
    dh_mu = -tau * m * (
        2.0 * (1.0 + u) + 2.0 * phi * (1.0 + phi * u) * big_q + phi**2 * big_q**2
    ) / d**2
    return dh_v, dh_mu
