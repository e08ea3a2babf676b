"""Population (infinite-sample) limit in the eigen geometry.

When n grows with the dimension held fixed, the regularized risk
concentrates on its population value

    (1 - phi) E[L(theta' z_1)] + phi E[L(theta' z_2)] + lam ||theta||^2 / 2

over the absorbed components z_1 ~ N(mu, C) and z_2 ~ N(alpha v - mu, C).
By Stein's lemma E[-L'(theta' z) z] = E[f] m - E[L''] C theta for
z ~ N(m, C) and f = -L', so its minimizer solves

    theta = (lam I + tau C)^{-1} mbar,   tau = E[L''],
    mbar = eta_1 mu + eta_2 (alpha v - mu),   eta_c = pi_c E[f(theta' z_c)].

That is the self-consistent closure of ``fixed_point`` at n = infinity:
there delta = tr[C R] / n = 0, so the prox is the identity, the
closure's rule over the prox output integrates over the margin itself,
and the noise term zeta vanishes.  So ``PopulationParams`` builds the
two-dimensional problem C = diag(s_mu^2, s_v^2), mu = ||mu|| e_0,
v = e_1, n = inf once, and ``minimize_population_eigen`` solves the
closure on it and reads theta = a mu + b v off the solved state: theta
is the proxy mean R mbar, so a = m1 / ||mu||^2 and b = h_v.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import covariance as cov
from .fixed_point import SolverConfig, margin_rule, solve_lockstep
from .losses import loss_by_name

# The residual sup|G(x) - x| a population solve certifies to.
GRAD_TOL = 1e-10


@dataclass(frozen=True)
class PopulationParams:
    """Geometry, poisoning level, and loss for the population problem, and
    ``spec``, that problem at n = inf.  Its ``ProblemSpec`` checks every
    value but ``norm_mu`` and the loss."""

    norm_mu: float
    s_mu_sq: float
    s_v_sq: float
    lam: float
    phi: float
    alpha: float
    loss: str = "logistic"
    spec: cov.ProblemSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.norm_mu > 0:
            raise ValueError("norm_mu must be positive")
        loss_by_name(self.loss)
        object.__setattr__(self, "spec", cov.ProblemSpec(
            cov=cov.SpectrumCovariance(np.array([self.s_mu_sq, self.s_v_sq])),
            mu=np.array([self.norm_mu, 0.0]),
            v=np.array([0.0, 1.0]),
            alpha=self.alpha,
            phi=self.phi,
            lam=self.lam,
            n=math.inf,
        ))

    def with_alpha(self, alpha: float) -> "PopulationParams":
        return replace(self, alpha=float(alpha))


@dataclass(frozen=True)
class PopulationMinimum:
    """theta = a mu + b v; ``grad_norm`` is the certified residual
    sup|G(x) - x| of the closure and ``iters`` counts its evaluations."""

    a: float
    b: float
    grad_norm: float
    iters: int
    converged: bool


def minimize_population(params_list) -> list[PopulationMinimum]:
    """Population minimizers of problems that share a loss, by cold
    fixed-point solves at n = inf to GRAD_TOL, run as one lockstep batch
    (``fixed_point.solve_lockstep``); theta = R mbar gives a = m1 /
    ||mu||^2 and b = h_v.  Each equals its problem's lone minimizer."""
    losses = {params.loss for params in params_list}
    if len(losses) != 1:
        raise ValueError(f"a lockstep batch solves one loss, got {sorted(losses)}")
    states = solve_lockstep([params.spec for params in params_list], losses.pop(),
                            SolverConfig(tol=GRAD_TOL))
    return [PopulationMinimum(
        a=state.m1 / params.norm_mu**2,
        b=state.h_v,
        grad_norm=state.residual,
        iters=state.iters,
        converged=state.converged,
    ) for params, state in zip(params_list, states)]


def minimize_population_eigen(params: PopulationParams) -> PopulationMinimum:
    """``minimize_population`` of the one problem ``params``."""
    return minimize_population([params])[0]


def benign_params(params: PopulationParams) -> PopulationParams:
    """The unpoisoned problem of ``params``: phi = 0, alpha = 0 and lam / (1 -
    phi), whose risk is the unpoisoned risk (1 - phi) E[L] + lam ||theta||^2
    / 2 divided by 1 - phi."""
    return replace(params, phi=0.0, lam=params.lam / (1.0 - params.phi), alpha=0.0)


def benign_minimizer_eigen(params: PopulationParams) -> float:
    """Minimizer a of the unpoisoned risk (1 - phi) E[L] + lam a^2 ||mu||^2 / 2,
    that of ``benign_params``, whose minimizer has b = 0 exactly."""
    rs = minimize_population_eigen(benign_params(params))
    if not rs.converged:
        raise ArithmeticError("benign minimizer fixed-point solve failed to converge")
    return rs.a


def one_step_gradient(params: PopulationParams, a_ben: float | None = None) -> float:
    """Directional derivative along mu of the poisoned risk at the benign optimum.

    The benign optimum zeroes the clean-risk gradient, so the full
    population gradient along mu reduces to the poisoned-class term

        phi * E[ L'(M) * (-||mu||^2 + s_mu ||mu|| xi) ],

    with M the poisoned margin at theta = a_ben mu.  The trigger
    magnitude does not enter: at b = 0 the poisoned margin never sees
    alpha, which is what makes this a useful early-warning statistic.
    The value is positive whenever phi > 0: the poisoned class pulls
    the estimator away from the clean mean from the very first step.
    A caller that already holds ``benign_minimizer_eigen(params)``
    passes it as ``a_ben`` to skip solving for it again.  The expectation
    is ``fixed_point.margin_rule`` at delta = 0.
    """
    loss = loss_by_name(params.loss)
    r = params.norm_mu**2
    if a_ben is None:
        a_ben = benign_minimizer_eigen(params)
    s = math.sqrt(params.s_mu_sq * r)
    # The margin is -a_ben r + a_ben s xi; the benign a_ben is positive, so
    # z is xi.
    _, d1, z, w = margin_rule(loss, 0.0, (-a_ben * r,), a_ben * s)
    return params.phi * float(w[0] @ (d1[0] * (-r + s * z[0])))
