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
resolvent.  This module iterates that map with damping.  Plain damped
iteration at the default 0.5 is reliable through moderate trigger
magnitudes but can diverge or enter shallow limit cycles at large
alpha, where the poisoned-component feedback has Jacobian entries of
size phi * tau * alpha^2 * (v' R v); the solver therefore monitors the
residual and halves the damping whenever it explodes or stalls,
restarting from the best iterate seen.  At any damping the fixed point
itself is unchanged, so converged results are damping-independent.

Tolerances are absolute: each scalar is resolved to within tol of the
fixed point.  At extreme trigger magnitudes (alpha ~ 1e5 and beyond
for the logistic loss) the true eta_2 drops below tol and is reported
as ~0, which matches the overflow clamp's limiting semantics; relative
accuracy of quantities proportional to eta_2 is not meaningful there.
"""

import math
from dataclasses import dataclass

import numpy as np

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
    damping: float = 0.5
    max_iter: int = 10000

    def __post_init__(self):
        if self.gh_nodes < 1:
            raise ValueError("gh_nodes must be positive")
        if not (0 < self.tol < 1):
            raise ValueError("tol must lie in (0, 1)")
        if not (0 < self.damping <= 1):
            raise ValueError("damping must lie in (0, 1]")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")


@dataclass(frozen=True)
class FixedPointState:
    """Converged scalars plus solver diagnostics."""

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
    damping_used: float
    # True if the poisoned-component mean ever exceeded ETA2_CLAMP_MEAN,
    # in which case eta2 is resolved only to absolute tolerance (it is
    # indistinguishable from zero at that scale).
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


def solve_self_consistent(
    spec: cov.ProblemSpec, loss, config: SolverConfig | None = None
) -> FixedPointState:
    """Damped iteration on (tau, gamma, eta1, eta2) to residual <= tol.

    ``loss`` is a loss model or its registry name.  The residual is the
    max absolute change of the undamped update, so a converged state
    satisfies the fixed-point equations themselves to tol, not merely a
    damping-scaled version.
    """
    cfg = config or SolverConfig()
    if isinstance(loss, str):
        loss = loss_by_name(loss)
    xi, wq = standard_normal_nodes(cfg.gh_nodes)

    w1, w2 = spec.class_weights()

    f0 = float(-loss.deriv(np.asarray([0.0]))[0])
    tau, gamma, eta1, eta2 = 1.0, 1.0, w1 * f0, w2 * f0
    damping = cfg.damping
    best = math.inf
    best_state = (tau, gamma, eta1, eta2)
    window_start = None
    window_count = 0
    ever_clamped = False
    residual = math.inf
    iters = 0

    while iters < cfg.max_iter:
        iters += 1
        delta, m1, m2, _, sigma_sq, _ = _moments(spec, tau, gamma, eta1, eta2)
        sigma = math.sqrt(max(sigma_sq, 0.0))

        clamped = loss.name == "logistic" and m2 > ETA2_CLAMP_MEAN
        ever_clamped = ever_clamped or clamped
        if clamped:
            f1, fp1 = f_both(loss, delta, m1 + sigma * xi)
            tau_new = -w1 * float(wq @ fp1)
            gamma_new = w1 * float(wq @ f1**2)
            eta1_new = w1 * float(wq @ f1)
            eta2_new = 0.0
        else:
            r_all = np.concatenate([m1 + sigma * xi, m2 + sigma * xi])
            f_all, fp_all = f_both(loss, delta, r_all)
            k = xi.size
            f1, f2 = f_all[:k], f_all[k:]
            fp1, fp2 = fp_all[:k], fp_all[k:]
            tau_new = -(w1 * float(wq @ fp1) + w2 * float(wq @ fp2))
            gamma_new = w1 * float(wq @ f1**2) + w2 * float(wq @ f2**2)
            eta1_new = w1 * float(wq @ f1)
            eta2_new = w2 * float(wq @ f2)

        residual = max(
            abs(tau_new - tau),
            abs(gamma_new - gamma),
            abs(eta1_new - eta1),
            abs(eta2_new - eta2),
        )

        if residual < best:
            best = residual
            best_state = (tau, gamma, eta1, eta2)
        if not math.isfinite(residual) or residual > 1e3 * max(best, 1e-300):
            tau, gamma, eta1, eta2 = best_state
            damping *= 0.5
            window_start = None
            window_count = 0
            continue
        if residual <= cfg.tol:
            tau, gamma, eta1, eta2 = tau_new, gamma_new, eta1_new, eta2_new
            break

        # Limit cycles shrink the residual early and then plateau; demand
        # geometric progress over each 100-iteration window or back off.
        if window_start is None:
            window_start = residual
            window_count = 0
        window_count += 1
        if window_count >= 100:
            if residual > 0.5 * window_start:
                tau, gamma, eta1, eta2 = best_state
                damping *= 0.5
                window_start = None
                window_count = 0
                continue
            window_start = residual
            window_count = 0

        tau += damping * (tau_new - tau)
        gamma += damping * (gamma_new - gamma)
        eta1 += damping * (eta1_new - eta1)
        eta2 += damping * (eta2_new - eta2)

    converged = residual <= cfg.tol
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
        iters=iters,
        converged=converged,
        damping_used=damping,
        eta2_clamped=ever_clamped,
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
