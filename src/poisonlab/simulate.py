"""Finite-sample experiments: sampling, poisoning, and exact ERM.

Randomness is split into independent named streams (data, poison
selection, test draws) derived from (base_seed, replicate, phase)
through SeedSequence, so adding test evaluation never perturbs the
training draw and replicates are reproducible individually.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import expit

from . import covariance as cov
from . import metrics
from .losses import LogisticLoss, newton_minimize

PHASE_DATA = 0
PHASE_POISON = 1
PHASE_TEST = 2

RIDGE_RESIDUAL_TOL = 1e-10
LOGISTIC_GRAD_TOL = 1e-9
LOGISTIC_MAX_ITER = 500


def stream_rng(base_seed: int, rep: int, phase: int) -> np.random.Generator:
    """Generator for one (replicate, phase) cell of the experiment."""
    return np.random.default_rng(np.random.SeedSequence([base_seed, rep, phase]))


@dataclass(frozen=True)
class RawDataset:
    """Labelled features with a poisoning mask."""

    features: np.ndarray
    labels: np.ndarray
    poisoned: np.ndarray

    def __post_init__(self):
        n, _ = self.features.shape
        if self.labels.shape != (n,) or self.poisoned.shape != (n,):
            raise ValueError("labels and poisoned mask must have one entry per row")
        if not np.all(np.abs(self.labels) == 1.0):
            raise ValueError("labels must be +/-1")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]


def sample_clean(spec: cov.ProblemSpec, n: int, rng: np.random.Generator) -> RawDataset:
    """Draw n samples x = y mu + noise with equiprobable labels."""
    labels = rng.integers(0, 2, size=n).astype(float) * 2.0 - 1.0
    features = labels[:, None] * spec.mu + spec.cov.sample_noise(rng, n)
    return RawDataset(features=features, labels=labels, poisoned=np.zeros(n, dtype=bool))


def poison(
    ds: RawDataset, phi: float, alpha: float, v: np.ndarray, rng: np.random.Generator
) -> RawDataset:
    """Plant the trigger on round(phi n) negative samples and flip their labels.

    Selection is uniform without replacement among the negative class;
    everything else is copied untouched.  phi = 0 is an exact no-op.
    """
    if not 0.0 <= phi < 0.5:
        raise ValueError("phi must lie in [0, 0.5)")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    count = round(phi * ds.n)
    if count == 0:
        return RawDataset(ds.features.copy(), ds.labels.copy(), ds.poisoned.copy())
    negatives = np.flatnonzero(ds.labels == -1.0)
    if count > negatives.size:
        raise ValueError(
            f"cannot poison {count} samples: only {negatives.size} negatives available"
        )
    chosen = rng.choice(negatives, size=count, replace=False)
    features = ds.features.copy()
    labels = ds.labels.copy()
    mask = ds.poisoned.copy()
    features[chosen] += alpha * np.asarray(v, dtype=float)
    labels[chosen] = 1.0
    mask[chosen] = True
    return RawDataset(features=features, labels=labels, poisoned=mask)


def absorb(ds: RawDataset) -> np.ndarray:
    """Label-absorbed samples z_i = y_i x_i."""
    return ds.labels[:, None] * ds.features


@dataclass(frozen=True)
class FitResult:
    theta: np.ndarray
    iters: int
    grad_norm: float
    converged: bool


def ridge_fit(z: np.ndarray, lam: float) -> FitResult:
    """Exact minimizer of mean squared margin loss plus lam ||theta||^2 / 2.

    Solves (Z'Z/n + lam I) theta = mean(z) by Cholesky and certifies
    the normal-equation residual to RIDGE_RESIDUAL_TOL.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    n = z.shape[0]
    gram = z.T @ z / n + lam * np.eye(z.shape[1])
    rhs = z.mean(axis=0)
    theta = cho_solve(cho_factor(gram), rhs)
    resid = float(np.abs(gram @ theta - rhs).max())
    if resid > RIDGE_RESIDUAL_TOL:
        raise ArithmeticError(f"ridge residual {resid:.3e} exceeds {RIDGE_RESIDUAL_TOL}")
    _check_norm_bound(theta, lam, loss_at_zero=0.5)
    return FitResult(theta=theta, iters=1, grad_norm=resid, converged=True)


def logistic_fit(
    z: np.ndarray,
    lam: float,
    tol: float = LOGISTIC_GRAD_TOL,
    max_iter: int = LOGISTIC_MAX_ITER,
) -> FitResult:
    """Regularized logistic ERM by ``losses.newton_minimize``.

    Strong convexity (modulus lam) makes Newton with Armijo backtracking
    globally convergent; iteration stops when the gradient sup-norm
    drops below tol.  Each Newton step factors the Hessian once.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    n, p = z.shape
    loss = LogisticLoss()

    def objective(t):
        return float(np.mean(loss.value(z @ t))) + 0.5 * lam * float(t @ t)

    def gradient(t):
        return -(z.T @ expit(-(z @ t))) / n + lam * t

    def newton_step(t, grad):
        margins = z @ t
        weights = expit(margins) * expit(-margins)
        hess = (z.T * weights) @ z / n + lam * np.eye(p)
        return cho_solve(cho_factor(hess), -grad)

    theta, grad_norm, iters = newton_minimize(
        objective, gradient, newton_step, np.zeros(p), tol, max_iter
    )
    converged = grad_norm <= tol
    if converged:
        _check_norm_bound(theta, lam, loss_at_zero=math.log(2.0))
    return FitResult(theta=theta, iters=iters, grad_norm=grad_norm, converged=converged)


def _check_norm_bound(theta, lam, loss_at_zero):
    # Optimality at theta-hat forces lam/2 ||theta||^2 <= objective(0) = L(0).
    bound = 2.0 * loss_at_zero / lam
    nsq = float(theta @ theta)
    if nsq > bound * (1.0 + 1e-9):
        raise ArithmeticError(f"estimator norm {nsq:.6g} violates bound {bound:.6g}")


def evaluate_analytic(
    theta: np.ndarray, spec: cov.ProblemSpec, alpha_test: float
) -> tuple[float, float]:
    """Exact (clean accuracy, attack success) of a fixed direction theta.

    Gaussian inputs make both metrics one-dimensional: only theta' mu,
    theta' v, and theta' C theta enter.
    """
    var = cov.cov_quad(spec.cov, theta, theta)
    t_mu = float(theta @ spec.mu)
    t_v = float(theta @ spec.v)
    return (
        metrics.clean_accuracy(t_mu, var),
        metrics.attack_success(t_mu, t_v, alpha_test, var),
    )


def evaluate_empirical(
    theta: np.ndarray,
    spec: cov.ProblemSpec,
    alpha_test: float,
    n_test: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte Carlo (clean accuracy, attack success) on fresh test draws."""
    clean = sample_clean(spec, n_test, rng)
    acc = float(np.mean(clean.labels * (clean.features @ theta) > 0))
    triggered = -spec.mu + spec.cov.sample_noise(rng, n_test) + alpha_test * spec.v
    asr = float(np.mean(triggered @ theta > 0))
    return acc, asr


@dataclass(frozen=True)
class ErmRunResult:
    """One fitted replicate, evaluated analytically."""

    rep: int
    theta_mu: float
    theta_v: float
    theta_var: float
    theta_norm_sq: float
    clean_acc: float
    asr: float
    solver_iters: int
    grad_norm: float
    converged: bool
    seed: int


def run_replicate(
    spec: cov.ProblemSpec,
    loss_name: str,
    rep: int,
    base_seed: int,
    alpha_test: float,
) -> ErmRunResult:
    """Sample, poison, fit, and evaluate one replicate."""
    rng_data = stream_rng(base_seed, rep, PHASE_DATA)
    ds = sample_clean(spec, spec.n, rng_data)
    rng_poison = stream_rng(base_seed, rep, PHASE_POISON)
    ds = poison(ds, spec.phi, spec.alpha, spec.v, rng_poison)
    z = absorb(ds)
    if loss_name == "squared":
        fit = ridge_fit(z, spec.lam)
    elif loss_name == "logistic":
        fit = logistic_fit(z, spec.lam)
    else:
        raise ValueError(f"unknown loss {loss_name!r}")
    clean_acc, asr = evaluate_analytic(fit.theta, spec, alpha_test)
    return ErmRunResult(
        rep=rep,
        theta_mu=float(fit.theta @ spec.mu),
        theta_v=float(fit.theta @ spec.v),
        theta_var=cov.cov_quad(spec.cov, fit.theta, fit.theta),
        theta_norm_sq=float(fit.theta @ fit.theta),
        clean_acc=clean_acc,
        asr=asr,
        solver_iters=fit.iters,
        grad_norm=fit.grad_norm,
        converged=fit.converged,
        seed=int(np.random.SeedSequence([base_seed, rep, PHASE_DATA]).generate_state(1)[0]),
    )
