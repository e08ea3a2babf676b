"""Self-consistent equations for general convex margin losses.

The regularized empirical minimizer over an absorbed two-component
Gaussian mixture is asymptotically equivalent to a Gaussian proxy
whose law is pinned down by five coupled scalars: the resolvent weight
tau, the score second moment gamma, the per-component score means
eta_1 and eta_2, and the effective proximal step delta.  Writing
f(x) = -L'(prox_{delta L}(x)) and letting the component margins be
r_c ~ N(M_c, sigma^2), the closure is

    tau   = E[-f'(r_K)]           (mixture over both components)
    gamma = E[f(r_K)^2]
    eta_c = pi_c * E[f(r_c)]
    delta = tr[C R] / n,          R = (lam I + tau C)^{-1}

with M_c and sigma^2 induced by (eta_1, eta_2, gamma) through the
resolvent.  Writing G for that closure map on x = (tau, gamma, eta_1,
eta_2), the solver finds a root of F(x) = G(x) - x with MINPACK's
hybrid Powell method (``scipy.optimize.root``, method "hybr").  A
sweep continues along its grid: the first solve starts from the root
of the previous grid point when the caller passes it, and otherwise
cold.  A warm solve that does not certify falls back to the cold one.
At large alpha the poisoned-component feedback has Jacobian entries of
size phi * tau * alpha^2 * (v' R v), and the cold solve can stall away
from the root; the solver then walks alpha up from 0 one decade per
step, warm-starting each solve from the last.  A state is certified
when its residual sup|G(x) - x| is at most tol.

Tolerances are absolute: each scalar satisfies its equation to within
tol.  At extreme trigger magnitudes (alpha ~ 1e5 and beyond for the
logistic loss) the true eta_2 is below tol, so the certificate alone
says nothing about the relative accuracy of quantities proportional to
eta_2.  Each solve runs until its steps stop improving, which in
practice resolves them far below tol: h_v on the isotropic README
problem at alpha = 1e6 agrees with an independent tol = 1e-13 solve to
about 1e-10 relative.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from . import covariance as cov
from . import metrics
from .losses import f_both, loss_by_name
from .quadrature import standard_normal_nodes

# Logistic scores below exp(-700) are indistinguishable from zero in
# float64; past this component mean the poisoned-class expectations are
# frozen at their limits instead of being integrated.
ETA2_CLAMP_MEAN = 700.0


@dataclass(frozen=True)
class SolverConfig:
    gh_nodes: int = 100
    tol: float = 1e-10
    max_iter: int = 10000

    def __post_init__(self):
        if self.gh_nodes < 1:
            raise ValueError("gh_nodes must be positive")
        if not (0 < self.tol < 1):
            raise ValueError("tol must lie in (0, 1)")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")


@dataclass(frozen=True)
class FixedPointState:
    """Solved scalars plus solver diagnostics; ``iters`` counts
    closure-map evaluations."""

    loss_name: str
    tau: float
    gamma: float
    delta: float
    eta1: float
    eta2: float
    m1: float
    m2: float
    sigma_sq: float
    residual: float
    iters: int
    converged: bool
    # True if the returned poisoned-component mean m2 exceeds
    # ETA2_CLAMP_MEAN (logistic loss only): eta2 is then frozen at its
    # limit 0 and resolved only to absolute tolerance.
    eta2_clamped: bool


def _moments(spec, tau, gamma, eta1, eta2):
    """(delta, m1, m2, v' R mbar, sigma^2, zeta) implied by the current scalars.

    The proxy mean mbar has coefficients c = (eta1 - eta2, eta2 alpha)
    on [mu, v], so every form reduces to 2 x 2 algebra on the Gram
    matrices of the resolvent.
    """
    mom = spec.spectral.moments(spec.lam, tau)
    c = cov.mean_combination(eta1, eta2, spec.alpha)
    m1, mv = (mom.r @ c).tolist()
    zeta = gamma * mom.tr_c2r2
    sigma_sq = float(c @ mom.rcr @ c) + zeta
    return mom.tr_cr, m1, spec.alpha * mv - m1, mv, sigma_sq, zeta


def _closure_map(x, spec, loss, xi, wq):
    """G(x) for x = (tau, gamma, eta1, eta2).

    Both components share one f_both call; past the clamp only the clean
    one is integrated and eta2 is frozen at its limit 0.
    """
    delta, m1, m2, _, sigma_sq, _ = _moments(spec, *x)
    sigma = math.sqrt(max(sigma_sq, 0.0))
    clamped = loss.name == "logistic" and m2 > ETA2_CLAMP_MEAN
    means = np.array([m1] if clamped else [m1, m2])
    f, fp = f_both(loss, delta, (means[:, None] + sigma * xi).ravel())
    f, fp = f.reshape(means.size, -1), fp.reshape(means.size, -1)
    w = np.array(spec.class_weights())[: means.size]
    eta = np.zeros(2)
    eta[: means.size] = w * (f @ wq)
    return np.array([-w @ (fp @ wq), w @ (f**2 @ wq), *eta])


class _BudgetSpent(Exception):
    """A root solve has used its max_iter closure-map evaluations."""


def solve_self_consistent(
    spec: cov.ProblemSpec, loss, config: SolverConfig | None = None, start=None
) -> FixedPointState:
    """Root of G(x) - x on x = (tau, gamma, eta1, eta2), certified to tol.

    ``loss`` is a loss model or its registry name.  If ``start`` is
    given, typically the (tau, gamma, eta1, eta2) solved at the previous
    point of a sweep, one root solve runs at ``spec.alpha`` from it.
    If there is no start or that solve does not certify, one runs from
    the cold start; if that does not certify either, alpha is walked up
    from 0 one decade per step, each solve warm-started from the last.
    Each solve evaluates G at most ``max_iter`` times, and ``iters``
    counts the evaluations of all of them.  The returned
    state is the evaluated x with the smallest residual sup|G(x) - x|
    in the last solve; ``converged`` means that residual is <= tol.
    Trial points with tau < 0, where the resolvent is undefined, are
    evaluated at |tau|.
    """
    cfg = config or SolverConfig()
    if isinstance(loss, str):
        loss = loss_by_name(loss)
    xi, wq = standard_normal_nodes(cfg.gh_nodes)

    w1, w2 = spec.class_weights()
    f0 = float(-loss.deriv(np.asarray([0.0]))[0])
    cold = np.array([1.0, 1.0, w1 * f0, w2 * f0])
    evals = 0

    def root_solve(point, start):
        """(residual, x) at the best x one solve at ``point`` evaluated."""
        best = (math.inf, start)
        budget = evals + cfg.max_iter

        def residual(x, point):
            nonlocal evals, best
            if evals == budget:
                raise _BudgetSpent
            evals += 1
            at = np.array([abs(x[0]), *x[1:]])
            g = _closure_map(at, point, loss, xi, wq)
            sup = float(np.max(np.abs(g - at)))
            if sup < best[0]:
                best = (sup, at)
            return g - x

        # xtol = 0 runs the solve until its steps stop improving, so the
        # residual falls to its rounding floor rather than just under tol.
        # factor = 0.1 bounds the first step to a tenth of |x|.  With
        # MINPACK's default of 100 a cold solve at large alpha can jump far
        # from the root and crawl back: squared-loss theory at 7 alphas in
        # [0, 1e3] on random p = 1000 spectra took 150 to 5400 evaluations,
        # depending on the draw, and 250 to 580 with the bounded step.
        # The spec goes in as an argument, not through the closure: scipy
        # wraps fun in a reference cycle that is freed only by the garbage
        # collector, which would keep the covariance alive after the run.
        try:
            optimize.root(residual, start, args=(point,), method="hybr",
                          options={"xtol": 0.0, "maxfev": cfg.max_iter, "factor": 0.1})
        except _BudgetSpent:
            pass
        return best

    residual = math.inf
    if start is not None:
        residual, x = root_solve(spec, np.array(start, dtype=float))
    if residual > cfg.tol:
        residual, x = root_solve(spec, cold)
    if residual > cfg.tol and spec.alpha > 0:
        decades = max(0, math.ceil(math.log10(spec.alpha)))
        walk = [0.0] + [spec.alpha / 10.0**k for k in range(decades, 0, -1)]
        x = cold
        for point in [spec.with_alpha(a) for a in walk] + [spec]:
            residual, x = root_solve(point, x)

    tau, gamma, eta1, eta2 = x.tolist()
    delta, m1, m2, _, sigma_sq, _ = _moments(spec, tau, gamma, eta1, eta2)
    return FixedPointState(
        loss_name=loss.name,
        tau=tau,
        gamma=gamma,
        delta=delta,
        eta1=eta1,
        eta2=eta2,
        m1=m1,
        m2=m2,
        sigma_sq=sigma_sq,
        residual=residual,
        iters=evals,
        converged=residual <= cfg.tol,
        eta2_clamped=loss.name == "logistic" and m2 > ETA2_CLAMP_MEAN,
    )


@dataclass(frozen=True)
class TheoryPrediction:
    h_mu: float
    h_v: float
    sigma_sq: float
    zeta: float
    clean_acc: float
    asr: float
    alpha_test: float


def theory_predictions(
    state: FixedPointState, spec: cov.ProblemSpec, alpha_test: float
) -> TheoryPrediction:
    """Alignments, margin variance, and error metrics at a solved state.

    ``alpha_test`` is the trigger magnitude applied at evaluation time,
    allowing train/test mismatch studies.
    """
    _, h_mu, _, h_v, sigma_sq, zeta = _moments(
        spec, state.tau, state.gamma, state.eta1, state.eta2
    )

    if spec.alpha > 0:
        gap = abs(h_v - (state.m1 + state.m2) / spec.alpha)
        if gap > 1e-9 * max(1.0, abs(h_v)):
            raise ArithmeticError(
                f"trigger alignment identity violated: gap {gap:.3e}"
            )

    return TheoryPrediction(
        h_mu=h_mu,
        h_v=h_v,
        sigma_sq=sigma_sq,
        zeta=zeta,
        clean_acc=metrics.clean_accuracy(h_mu, sigma_sq),
        asr=metrics.attack_success(h_mu, h_v, alpha_test, sigma_sq),
        alpha_test=alpha_test,
    )


def proxy_expected_norm_sq(state: FixedPointState, spec: cov.ProblemSpec) -> float:
    """E ||theta||^2 of the proxy: mbar' R^2 mbar + gamma tr[R^2 C] / n."""
    mom = spec.spectral.moments(spec.lam, state.tau)
    c = cov.mean_combination(state.eta1, state.eta2, spec.alpha)
    return float(c @ mom.r2 @ c) + state.gamma * mom.tr_cr2
