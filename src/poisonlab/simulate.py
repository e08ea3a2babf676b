"""Finite-sample experiments: drawing replicates and exact ERM.

Randomness is split into two independent named streams (data and poison
selection) derived from (base_seed, replicate, phase) through
SeedSequence, so replicates are reproducible individually.

No stream sees the trigger strength alpha, so ``draw_replicate`` draws
a replicate once, at alpha = 0, as its absorbed rows Z0 and poisoned
mask P, and ``retrigger`` gives the rows at any alpha,
Z(alpha) = Z0 + alpha 1_P v'.  ``ridge_path`` factors the
smaller Gram once per replicate, the p x p normal matrix Z0'Z0/n + lam I
when p <= n and the n x n kernel Z0Z0'/n + lam I when p > n, and gets
every alpha of the grid from one primal Woodbury form: alpha moves the
normal matrix by a rank-2 update, and only the action of its inverse at
alpha = 0 depends on which Gram was factored.  A fit whose first
residual certifies costs O(p) plus that residual.

A logistic fit runs Newton from theta = 0 at every alpha, and its first
step does not depend on its own iterates.  There the gradient is
L'(0) mean(z) and the Hessian L''(0) (Z'Z/n + lam/L''(0) I), so the step
is -L'(0)/L''(0) = 2 times the ridge fit at lam/L''(0) = 4 lam.  As
L''(0) = 1/4 is a power of two, that Hessian is bit for bit 1/4 of the
ridge Gram, and the step differs from a cold fit's only by rounding.
One ``ridge_path`` per replicate gives every alpha's first step, from
the ridge path's one Gram; an alpha whose ridge fit does not certify
factors its first Hessian itself.  Later steps are chord steps in the
Shamanskii rule (Kelley, Solving Nonlinear Equations with Newton's
Method, 2003, 2.7): the second step factors its Hessian, and each later
one keeps the last factor while the gradient sup-norm has fallen to at
most LOGISTIC_REUSE_RATIO times its previous value, and factors afresh
otherwise.  The kept factor is positive definite, so its step descends
and takes the same Armijo search.  On the benchmark's dense_pipeline
erm run (24 fits at n = 400, p = 200) a pass factors 36 matrices (6
ridge Grams, 30 Hessians) for 206 gradient evaluations, where a factor
at every step took 90 for 132.

Z0 is formed in the one array of the normal draw: the noise is scaled
in place, the class means are added into it, and the rows whose label
stays -1 are negated, so a replicate's draw allocates one n x p array.

One BLAS runtime per process.  numpy and scipy each bundle their own
OpenBLAS, each with its own thread pool, and after a threaded call a
pool's workers keep spinning for about 0.1 s before they sleep.  A
numpy call that wakes numpy's pool therefore takes a core from the
factorizations that follow in scipy's.  So every factorization, and
every product with an n x p or p x p operand, that the CLI reaches runs
in scipy's runtime:

- Gram, kernel and Hessian matrices by ``scipy.linalg.blas.dsyrk``
  (upper triangle only, the one ``dpotrf`` and ``dsymv`` read), their
  Cholesky factors and solves by LAPACK's ``dpotrf`` and ``dpotrs``
  (``_cholesky`` and ``_cho_solve``: no finiteness scan, and no copy
  where the matrix is not read again), their products by ``dsymv``, and
  the logistic margins and gradients and the ridge residual when p > n
  by ``dgemv`` on the Fortran-ordered view Z' (no copy), the ridge
  path's three-column products with Z0 by ``dgemm``;
- the dense covariance's Cholesky factor and eigenbasis by
  ``scipy.linalg``, its samples by ``dtrmm`` and its rotations by
  ``dgemv`` (``covariance.DenseCovariance``).

The one numpy eigensolver call, ``leggauss(40)`` for the Gauss-Legendre
nodes of ``fixed_point``, runs once at import on a 40 x 40 matrix, which
numpy's OpenBLAS keeps on one thread.

numpy's ``@`` stays on vectors and on products with at most four rows or
columns (the p x 2 Woodbury factor, the 3 x p by p x 4 resolvent
contraction), which numpy's OpenBLAS runs on one thread: a 2 x 10^6
matrix-vector product and a 3 x 10^6 by 10^6 x 4 product left its pool
idle, while square matrix-vector products wake it from about 700 x 700.
On a 2-core host with numpy 2.4 and scipy 1.17, one erm run of 24
logistic fits at n = 400, p = 200 on a dense covariance took 0.66-0.74 s
while numpy's pool burned 0.42-0.46 s of CPU, and takes 0.28-0.37 s with
that pool idle.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.blas import dgemm, dgemv, dsymv, dsyrk
from scipy.linalg.lapack import dpotrf, dpotrs

from . import covariance as cov
from . import metrics
from .losses import LogisticLoss

PHASE_DATA = 0
PHASE_POISON = 1

RIDGE_RESIDUAL_TOL = 1e-10
RIDGE_BACKWARD_TOL = 16 * np.finfo(float).eps
RIDGE_FALLBACK_ITERS = 4  # three residuals on the path, one in ridge_fit
LOGISTIC_GRAD_TOL = 1e-9
LOGISTIC_REUSE_RATIO = 0.5  # keep the Hessian factor while the gradient halves
LOGISTIC_MAX_ITER = 500


def stream_rng(base_seed: int, rep: int, phase: int) -> np.random.Generator:
    """Generator for one (replicate, phase) cell of the experiment."""
    return np.random.default_rng(np.random.SeedSequence([base_seed, rep, phase]))


def draw_replicate(
    spec: cov.ProblemSpec, base_seed: int, rep: int
) -> tuple[np.ndarray, np.ndarray]:
    """Absorbed rows Z0 and poisoned mask P of one replicate at alpha = 0.

    Each row is z_i = y_i x_i with x_i = y_i mu + noise and equiprobable
    labels y_i = +/-1 from the data stream.  round(phi n) negatives,
    picked uniformly without replacement on the poison stream, get label
    +1.  Z0 is formed in the normal draw: +/-mu is added in place
    (noise +/- mu has the bits of y mu + noise), and the rows of
    unpoisoned negatives are negated in place (-x has the bits of -1.0 x).
    """
    n = spec.n
    rng = stream_rng(base_seed, rep, PHASE_DATA)
    negative = rng.integers(0, 2, size=n) == 0
    z0 = spec.cov.sample_noise(rng, n)
    negative_rows = negative[:, None]
    np.add(z0, spec.mu, out=z0, where=~negative_rows)
    np.subtract(z0, spec.mu, out=z0, where=negative_rows)
    poisoned = np.zeros(n, dtype=bool)
    count = round(spec.phi * n)
    if count:
        negatives = np.flatnonzero(negative)
        if count > negatives.size:
            raise ValueError(
                f"cannot poison {count} samples: only {negatives.size} negatives available"
            )
        rng_poison = stream_rng(base_seed, rep, PHASE_POISON)
        poisoned[rng_poison.choice(negatives, size=count, replace=False)] = True
    np.negative(z0, out=z0, where=(negative & ~poisoned)[:, None])
    return z0, poisoned


def retrigger(z0: np.ndarray, poisoned: np.ndarray, v: np.ndarray, alpha: float) -> np.ndarray:
    """Rows Z0 + alpha 1_P v' of a replicate drawn at alpha = 0.

    Poisoned rows carry label +1, so the trigger adds to a poisoned row
    of Z0 unsigned: these are the rows of the replicate poisoned at alpha.
    """
    z = z0.copy()
    z[poisoned] += alpha * np.asarray(v, dtype=float)
    return z


@dataclass(frozen=True)
class FitResult:
    theta: np.ndarray
    iters: int
    grad_norm: float
    converged: bool


def ridge_fit(z: np.ndarray, lam: float) -> FitResult:
    """Exact minimizer of mean squared margin loss plus lam ||theta||^2 / 2.

    Solves G theta = b, G = Z'Z/n + lam I and b = mean(z), by Cholesky.
    The fit is ``converged`` when theta obeys the norm bound and the
    residual r = G theta - b is within RIDGE_RESIDUAL_TOL or within a
    normwise backward error of RIDGE_BACKWARD_TOL, that is
    ||r|| <= RIDGE_BACKWARD_TOL (||G|| ||theta|| + ||b||) in the sup norm;
    rounding alone makes ||r|| grow like eps ||G|| ||theta||.  A failed
    certificate is returned, not raised, so the caller can name the point.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    gram, rhs = _ridge_system(z, lam)
    theta = _cho_solve(_cholesky(gram.copy(order="F")), rhs)  # the residual reads gram
    resid = float(np.abs(dsymv(1.0, gram, theta) - rhs).max())
    upper = np.abs(np.triu(gram))
    gram_norm = float((upper.sum(axis=0) + upper.sum(axis=1) - upper.diagonal()).max())
    scale = gram_norm * float(np.abs(theta).max()) + float(np.abs(rhs).max())
    converged = (resid <= max(RIDGE_RESIDUAL_TOL, RIDGE_BACKWARD_TOL * scale)
                 and _within_norm_bound(theta, lam, loss_at_zero=0.5))
    return FitResult(theta=theta, iters=1, grad_norm=resid, converged=converged)


def _gram(rows, lam, kernel=False):
    """Upper triangle of rows'rows/n + lam I, or with ``kernel`` of the
    n x n kernel rows rows'/n + lam I, by one syrk of scipy's BLAS.

    Either is formed from the Fortran-ordered view rows' (no copy) into a
    Fortran-ordered array.  The lower triangle is never read: ``_cholesky``
    and ``dsymv`` use the upper one.
    """
    scale = 1.0 / rows.shape[0]
    gram = dsyrk(scale, rows.T, trans=1) if kernel else dsyrk(scale, rows.T)
    gram.flat[::gram.shape[0] + 1] += lam
    return gram


def _cholesky(gram):
    """Upper Cholesky factor of a ``_gram`` by LAPACK's dpotrf, formed in
    place of its Fortran-ordered upper triangle (no copy).

    Unlike scipy's ``cho_factor`` it does not scan the matrix for
    non-finite values: a NaN passes into the solution, and every fit's
    certificate fails on it.
    """
    factor, info = dpotrf(gram, lower=0, clean=0, overwrite_a=1)
    if info > 0:
        raise LinAlgError(f"leading minor of order {info} is not positive definite")
    return factor


def _cho_solve(factor, b):
    """x with factor'factor x = b, for the upper factor of ``_cholesky``, by dpotrs."""
    return dpotrs(factor, b, lower=0)[0]


def _ridge_system(z, lam):
    """Normal matrix Z'Z/n + lam I (upper triangle) and right-hand side mean(z)."""
    return _gram(z, lam), z.mean(axis=0)


def ridge_path(
    z0: np.ndarray, poisoned: np.ndarray, v: np.ndarray, lam: float, alphas: list[float]
) -> list[FitResult]:
    """``ridge_fit`` on Z(alpha) = Z0 + alpha 1_P v' for every alpha, one Cholesky.

    G(alpha) theta = b(alpha) with G(alpha) = G0 + U C U', G0 = Z0'Z0/n +
    lam I, U = [a, v], a = Z0'1_P/n, C = [[0, alpha], [alpha, alpha^2 m]],
    m = |P|/n and b(alpha) = mean(Z0) + alpha m v, is solved by Woodbury,
    G^-1 = G0^-1 - G0^-1 U (I + C U'G0^-1 U)^-1 C U'G0^-1.  G0^-1 x is
    ``_cho_solve`` on the factor of G0 when p <= n, and (x - Z0'K0^-1 Z0 x/n)
    / lam on the factor of the n x n kernel K0 = Z0Z0'/n + lam I when p > n
    (Saunders, Gammerman & Vovk, ICML 1998).  W = G0^-1 [mean(Z0), a, v]
    is one three-column solve per replicate; an alpha's theta costs O(p).

    A fit is certified by the norm bound and |r|_inf <= RIDGE_RESIDUAL_TOL,
    r = G(alpha) theta - b(alpha) evaluated from G0 by ``dsymv`` or from Z0
    by two ``dgemv``, never from W, whose cancellation could hide it.  As
    G(alpha) >= lam I, |theta - theta*|_inf <= |r|_2 / lam: a certified
    theta with |r|_2 <= RIDGE_RESIDUAL_TOL lam |theta|_inf takes no
    refinement step theta -= G(alpha)^-1 r (Higham, Accuracy and Stability
    of Numerical Algorithms, 2002, ch. 12), any other up to two.  ``iters``
    counts the residuals evaluated, 1 to 3, or is RIDGE_FALLBACK_ITERS where
    the alpha does not certify and ``ridge_fit`` refits its explicit rows.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    v = np.asarray(v, dtype=float)
    n, p = z0.shape
    zt = z0.T  # Fortran-ordered view of a C-ordered z0: BLAS takes it uncopied
    mean0 = z0.mean(axis=0)
    m = np.count_nonzero(poisoned) / n
    a = z0[poisoned].sum(axis=0) / n
    # A non-finite Gram gives a non-finite theta, which fails the certificate.
    if p <= n:
        gram0 = _gram(z0, lam)
        factor = _cholesky(gram0.copy(order="F"))  # the residual reads G0

        def g0(t):
            return dsymv(1.0, gram0, t)

        def g0_inv(x):
            return _cho_solve(factor, x)
    else:
        factor = _cholesky(_gram(z0, lam, kernel=True))

        def g0(t):
            return dgemv(1.0 / n, zt, dgemv(1.0, zt, t, trans=1)) + lam * t

        def g0_inv(x):
            cols = x.reshape(p, -1)
            y = _cho_solve(factor, dgemm(1.0, zt, cols, trans_a=1))
            return ((cols - dgemm(1.0 / n, zt, y)) / lam).reshape(x.shape)

    def settled(t, r):
        return (float(np.abs(r).max()) <= RIDGE_RESIDUAL_TOL
                and math.sqrt(float(r @ r)) <= RIDGE_RESIDUAL_TOL * lam * float(np.abs(t).max()))

    u = np.column_stack([a, v])
    w = g0_inv(np.column_stack([mean0, u]))
    s = u.T @ w[:, 1:]
    fits = []
    for alpha in alphas:
        c = np.array([[0.0, alpha], [alpha, alpha * alpha * m]])
        k = np.eye(2) + c @ s
        rhs = mean0 + alpha * m * v

        def woodbury(y):  # G(alpha)^-1 x from y = G0^-1 x
            return y - w[:, 1:] @ np.linalg.solve(k, c @ (u.T @ y))

        def residual(t):
            tv = float(v @ t)
            return (g0(t) + alpha * (a * tv + v * float(a @ t))
                    + (alpha * alpha * m * tv) * v - rhs)

        theta = woodbury(w[:, 0] + (alpha * m) * w[:, 2])
        r = residual(theta)
        evaluated = 1
        while evaluated < 3 and not settled(theta, r):
            theta = theta - woodbury(g0_inv(r))
            r = residual(theta)
            evaluated += 1
        resid = float(np.abs(r).max())
        if resid <= RIDGE_RESIDUAL_TOL and _within_norm_bound(theta, lam, loss_at_zero=0.5):
            fits.append(FitResult(theta=theta, iters=evaluated, grad_norm=resid, converged=True))
        else:
            fit = ridge_fit(retrigger(z0, poisoned, v, alpha), lam)
            fits.append(replace(fit, iters=RIDGE_FALLBACK_ITERS))
    return fits


def logistic_fit(
    z: np.ndarray,
    lam: float,
    tol: float = LOGISTIC_GRAD_TOL,
    max_iter: int = LOGISTIC_MAX_ITER,
    first_step: np.ndarray | None = None,
) -> FitResult:
    """Regularized logistic ERM by damped Newton with Armijo backtracking.

    Strong convexity (modulus lam) makes the iteration globally
    convergent (Boyd & Vandenberghe, Convex Optimization, 9.5).  It
    starts at theta = 0 and stops when the gradient sup-norm drops below
    tol or after max_iter gradient evaluations, which ``iters`` counts.
    The first step solves with the Hessian at theta = 0, or is the
    caller's ``first_step`` (``run_replicates``); that factor is never
    kept, so both give the same iterates.  The second step factors its
    Hessian, and each later one solves with the last factor while the
    gradient sup-norm is at most LOGISTIC_REUSE_RATIO times the previous
    one, and factors its own Hessian otherwise (a chord step; see the
    module docstring).  Every step takes the same Armijo search.  A
    non-finite gradient stops the fit.  The fit is ``converged`` when the
    gradient certified and theta obeys the norm bound.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    n, p = z.shape
    loss = LogisticLoss()
    zt = z.T  # Fortran-ordered view of a C-ordered z: dgemv takes it uncopied

    def margins(t):
        return dgemv(1.0, zt, t, trans=1)

    def objective(m, t):
        return float(np.mean(loss.value(m))) + 0.5 * lam * float(t @ t)

    theta = np.zeros(p)
    m = margins(theta)
    val = objective(m, theta)
    grad_norm = math.inf
    iters = 0
    for iters in range(1, max_iter + 1):
        grad = dgemv(1.0, zt, loss.deriv(m)) / n + lam * theta
        grad_norm = float(np.abs(grad).max())
        if not grad_norm > tol:  # certified, or NaN
            break
        if iters == 1 and first_step is not None:
            step = first_step
        else:
            # The factor at theta = 0 is never kept, so a given first step
            # leaves the cold iterates unchanged.
            if iters <= 2 or grad_norm > LOGISTIC_REUSE_RATIO * prev_norm:
                hess = _gram(z * np.sqrt(loss.second_deriv(m))[:, None], lam)
                factor = _cholesky(hess)
            step = _cho_solve(factor, -grad)
        prev_norm = grad_norm
        slope = float(grad @ step)
        # Rounding allowance: near the optimum the true decrease is below
        # float resolution and strict Armijo would reject every step.
        allowance = 1e-15 * (1.0 + abs(val))
        # The accepted trial's margins serve its objective and the next
        # gradient and Hessian.  Once t is down to 1e-12 the step is taken
        # whatever its objective.
        t = 1.0
        while True:
            trial = theta + t * step
            m = margins(trial)
            trial_val = objective(m, trial)
            if t <= 1e-12 or trial_val <= val + 1e-4 * t * slope + allowance:
                break
            t *= 0.5
        theta, val = trial, trial_val
    converged = grad_norm <= tol and _within_norm_bound(theta, lam, math.log(2.0))
    return FitResult(theta=theta, iters=iters, grad_norm=grad_norm, converged=converged)


def _within_norm_bound(theta, lam, loss_at_zero):
    # Optimality at theta-hat forces lam/2 ||theta||^2 <= objective(0) = L(0).
    return float(theta @ theta) <= 2.0 * loss_at_zero / lam * (1.0 + 1e-9)


def evaluate_analytic(
    theta: np.ndarray, spec: cov.ProblemSpec, alpha_test: float, var: float | None = None
) -> tuple[float, float]:
    """Exact (clean accuracy, attack success) of a fixed direction theta.

    Gaussian inputs make both metrics one-dimensional: only theta' mu,
    theta' v, and theta' C theta enter.  A caller that already holds
    theta' C theta passes it as ``var``.
    """
    if var is None:
        var = cov.cov_quad(spec.cov, theta, theta)
    t_mu = float(theta @ spec.mu)
    t_v = float(theta @ spec.v)
    return (
        metrics.clean_accuracy(t_mu, var),
        metrics.attack_success(t_mu, t_v, alpha_test, var),
    )


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


def run_replicates(
    spec: cov.ProblemSpec,
    loss_name: str,
    rep: int,
    base_seed: int,
    alpha_test: float,
    alphas: list[float],
) -> list[ErmRunResult]:
    """Draw one replicate once; fit and evaluate it at every alpha.

    ``spec.alpha`` is not read: the replicate is drawn at alpha = 0 and
    retriggered per alpha.  Squared fits share one factorization of the
    smaller Gram, n x n when p > n and p x p otherwise (``ridge_path``).
    Logistic fits start at theta = 0 at every alpha and take their first
    Newton step, -L'(0)/L''(0) times the ridge fit at lam/L''(0), from one
    ``ridge_path`` (see the module docstring); an alpha whose ridge fit
    does not certify factors its first Hessian itself.
    """
    z0, poisoned = draw_replicate(spec, base_seed, rep)
    if loss_name == "squared":
        fits = ridge_path(z0, poisoned, spec.v, spec.lam, alphas)
    elif loss_name == "logistic":
        loss = LogisticLoss()
        d1, d2 = float(loss.deriv(0.0)), float(loss.second_deriv(0.0))
        ridge = ridge_path(z0, poisoned, spec.v, spec.lam / d2, alphas)
        fits = [
            logistic_fit(retrigger(z0, poisoned, spec.v, alpha), spec.lam,
                         first_step=(-d1 / d2) * r.theta if r.converged else None)
            for alpha, r in zip(alphas, ridge)
        ]
    else:
        raise ValueError(f"unknown loss {loss_name!r}")
    results = []
    for fit in fits:
        var = cov.cov_quad(spec.cov, fit.theta, fit.theta)
        clean_acc, asr = evaluate_analytic(fit.theta, spec, alpha_test, var)
        results.append(ErmRunResult(
            rep=rep,
            theta_mu=float(fit.theta @ spec.mu),
            theta_v=float(fit.theta @ spec.v),
            theta_var=var,
            theta_norm_sq=float(fit.theta @ fit.theta),
            clean_acc=clean_acc,
            asr=asr,
            solver_iters=fit.iters,
            grad_norm=fit.grad_norm,
            converged=fit.converged,
        ))
    return results

