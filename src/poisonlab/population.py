"""Population (infinite-sample) limit in the eigen geometry.

When n grows with the dimension held fixed, the regularized risk
concentrates on its population value and the minimizer lives in the
span of the class mean mu and the trigger direction v whenever both
are eigendirections of C.  Writing theta = a mu + b v, each class
contributes E[L(M)] with a scalar Gaussian margin M, so the whole
object is a smooth strongly convex function of (a, b):

    mean_clean    =  a ||mu||^2            (label-absorbed clean class)
    mean_poisoned = -a ||mu||^2 + b alpha
    variance      =  a^2 s_mu^2 ||mu||^2 + b^2 s_v^2  (both classes)

Minimization is exact Newton with Armijo backtracking
(``losses.newton_minimize``).  Parametrizing each margin as
M = mean + std * xi with xi ~ N(0, 1) makes every derivative of the
objective a Gauss-Hermite expectation of L' and L'' along the mean and
standard-deviation paths; no derivatives beyond L'' are needed.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .losses import loss_by_name, newton_minimize
from .quadrature import standard_normal_nodes

GRAD_TOL = 1e-10
MAX_NEWTON_ITER = 200
_NODES = 100


@dataclass(frozen=True)
class PopulationParams:
    """Geometry, poisoning level, and loss for the population problem."""

    norm_mu: float
    s_mu_sq: float
    s_v_sq: float
    lam: float
    phi: float
    alpha: float
    loss: str = "logistic"

    def __post_init__(self):
        if not (math.isfinite(self.norm_mu) and self.norm_mu > 0):
            raise ValueError("norm_mu must be positive and finite")
        for name in ("s_mu_sq", "s_v_sq"):
            s = getattr(self, name)
            if not (math.isfinite(s) and s > 0):
                raise ValueError(f"{name} must be positive and finite")
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError("lam must be positive and finite")
        if not 0.0 <= self.phi < 0.5:
            raise ValueError("phi must lie in [0, 0.5)")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError("alpha must be nonnegative and finite")
        loss_by_name(self.loss)

    def with_alpha(self, alpha: float) -> "PopulationParams":
        return replace(self, alpha=float(alpha))


@dataclass(frozen=True)
class PopulationMinimum:
    a: float
    b: float
    grad_norm: float
    iters: int
    converged: bool


def _margins(params: PopulationParams, a: float, b: float):
    r = params.norm_mu**2
    mean_clean = a * r
    mean_poisoned = -a * r + b * params.alpha
    var = a * a * params.s_mu_sq * r + b * b * params.s_v_sq
    return mean_clean, mean_poisoned, var


def population_loss_eigen(a: float, b: float, params: PopulationParams) -> float:
    """Regularized population risk at theta = a mu + b v."""
    return _risk(params, a, b, *standard_normal_nodes(_NODES))


def _risk(params: PopulationParams, a: float, b: float, xi, w) -> float:
    loss = loss_by_name(params.loss)
    mean_c, mean_p, var = _margins(params, a, b)
    sigma = math.sqrt(var)
    r = params.norm_mu**2
    risk = (1.0 - params.phi) * float(w @ loss.value(mean_c + sigma * xi))
    risk += params.phi * float(w @ loss.value(mean_p + sigma * xi))
    return risk + 0.5 * params.lam * (a * a * r + b * b)


def _class_paths(params: PopulationParams, xi, a: float, b: float):
    """Margins at the nodes and their (a, b) paths for the clean and the
    poisoned class, plus the Hessian of the margin std (the means are
    linear).  At fixed xi, dM/dtheta_i = m_grad[i] + s_grad[i] * xi.
    """
    r = params.norm_mu**2
    mean_c, mean_p, var = _margins(params, a, b)
    sigma = math.sqrt(var)
    sa = a * params.s_mu_sq * r / sigma
    sb = b * params.s_v_sq / sigma
    s_grad = np.array([sa, sb])
    s_hess = (
        np.array(
            [
                [params.s_mu_sq * r - sa * sa, -sa * sb],
                [-sa * sb, params.s_v_sq - sb * sb],
            ]
        )
        / sigma
    )
    classes = [
        (mean + sigma * xi, m_grad[:, None] + s_grad[:, None] * xi[None, :])
        for mean, m_grad in ((mean_c, np.array([r, 0.0])), (mean_p, np.array([-r, params.alpha])))
    ]
    return classes, s_hess


def minimize_population_eigen(params: PopulationParams) -> PopulationMinimum:
    """Newton minimization of the population risk over (a, b).

    Runs ``losses.newton_minimize`` from (0.1, 0), clear of the
    nondifferentiable origin of the margin standard deviation.  The
    Hessian stays bounded below by lam * min(||mu||^2, 1) by strong
    convexity, so steps are always well defined; a Hessian below that
    floor raises ArithmeticError.
    """
    loss = loss_by_name(params.loss)
    xi, w = standard_normal_nodes(_NODES)
    r = params.norm_mu**2
    weights = (1.0 - params.phi, params.phi)
    reg = params.lam * np.array([[r, 0.0], [0.0, 1.0]])

    def objective(x):
        return _risk(params, x[0], x[1], xi, w)

    def gradient(x):
        (m_c, path_c), (m_p, path_p) = _class_paths(params, xi, *x)[0]
        g_c = path_c @ (w * loss.deriv(m_c))
        g_p = path_p @ (w * loss.deriv(m_p))
        return weights[0] * g_c + weights[1] * g_p + reg @ x

    def newton_step(x, grad):
        classes, s_hess = _class_paths(params, xi, *x)
        h_c, h_p = (
            (path * (w * loss.second_deriv(m))) @ path.T
            + s_hess * float(w @ (loss.deriv(m) * xi))
            for m, path in classes
        )
        hess = weights[0] * h_c + weights[1] * h_p + reg
        if float(np.linalg.eigvalsh(hess).min()) < params.lam * min(r, 1.0) - 1e-9:
            raise ArithmeticError("population Hessian lost strong convexity")
        return np.linalg.solve(hess, -grad)

    x, grad_norm, iters = newton_minimize(
        objective, gradient, newton_step, np.array([0.1, 0.0]), GRAD_TOL, MAX_NEWTON_ITER
    )
    return PopulationMinimum(
        a=float(x[0]),
        b=float(x[1]),
        grad_norm=grad_norm,
        iters=iters,
        converged=grad_norm <= GRAD_TOL,
    )


def benign_minimizer_eigen(params: PopulationParams) -> float:
    """Minimizer a of the unpoisoned risk (1 - phi) E[L] + lam a^2 ||mu||^2 / 2.

    Divided by 1 - phi this is the population risk at phi = 0, alpha = 0
    and lam / (1 - phi), whose minimizer has b = 0 exactly.
    """
    clean = replace(params, phi=0.0, lam=params.lam / (1.0 - params.phi), alpha=0.0)
    rs = minimize_population_eigen(clean)
    if not rs.converged:
        raise ArithmeticError("benign minimizer Newton failed to converge")
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
    passes it as ``a_ben`` to skip solving for it again.
    """
    loss = loss_by_name(params.loss)
    xi, w = standard_normal_nodes(_NODES)
    r = params.norm_mu**2
    if a_ben is None:
        a_ben = benign_minimizer_eigen(params)
    s = math.sqrt(params.s_mu_sq * r)
    m = -a_ben * r + a_ben * s * xi
    l1 = loss.deriv(m)
    return params.phi * float(w @ (l1 * (-r + s * xi)))
