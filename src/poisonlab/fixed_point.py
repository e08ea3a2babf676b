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
eta_2), the solver finds a root of F(x) = G(x) - x by a damped Newton
iteration on the analytic Jacobian of G (Dennis & Schnabel, Numerical
Methods for Unconstrained Optimization and Nonlinear Equations, ch. 6):
each step is halved until sup|F| falls, and gamma (and the logistic
eta_2) moves multiplicatively (``_newton_solve``).  The Jacobian needs no
derivative of the loss beyond f and f': Stein's lemma turns the
derivatives of E[f'] into moments of f' and f f' against the Gaussian
nodes (``_closure_map``).  Every solve starts from a root solved at
some alpha0, with eta2 scaled to keep the trigger coefficient alpha *
eta2, which tends to a limit as alpha grows: the predictor step of
continuation (Allgower & Georg, Introduction to Numerical Continuation
Methods, ch. 2).  A sweep passes the state solved at its previous
point; the cold point counts as solved at alpha0 = 0.  At large alpha
the poisoned-component feedback has Jacobian entries of size
phi * tau * alpha^2 * (v' R v), and the cold solve can stall away from
the root; the point is then continued from its root a decade below.
Where that fails as well, as for a strong mean whose margins saturate
the logistic score at the cold start, the solver walks lam down from
1000 times its value, a quarter decade per step, at the requested point
only.  A state is certified when its residual sup|G(x) - x| is at most
tol, and it reports the values of the evaluation that certified it.

Tolerances are absolute: each scalar satisfies its equation to within
tol.  At extreme trigger magnitudes (alpha ~ 1e5 and beyond for the
logistic loss) the true eta_2 is below tol, so the certificate alone
says nothing about the relative accuracy of quantities proportional to
eta_2.  Each solve runs until its steps stop improving or reach the
rounding floor of every scalar, eta_2 included, which resolves them
far below tol: h_v on the isotropic README problem at alpha = 1e6
agrees with an independent tol = 1e-13 damped fixed-point solve to
2e-13 relative.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import covariance as cov
from . import metrics
from .losses import f_both, loss_by_name
from .quadrature import standard_normal_nodes

# Every expectation integrates against this one Gauss-Hermite rule, exact
# for polynomials of degree < 200 (``population`` reads it too).
GH_NODES = 100
# Past this poisoned-component mean the logistic score at the mean, about
# exp(-m2), is below 1e-304: G integrates the poisoned component there as
# anywhere else, eta2 is 0 to within absolute tol, and ``eta2_clamped``
# flags the state.
ETA2_CLAMP_MEAN = 700.0
# A Newton step that does not lower the residual is halved at most this
# many times before the solve gives up on its start.
_MAX_HALVINGS = 10
# Newton steps move gamma, and for the logistic loss eta2, multiplicatively.
# gamma's image is quadratic in the component means, so from a start far
# from the root a linear step in gamma overshoots through zero, and the
# solve stalls at gamma -> 0: cold solves at alpha >= 10 on the closed-form
# test grid did.  The logistic eta2's image is positive and decays
# exponentially in the poisoned margin, and a linear step overshoots it
# when alpha doubles.  The squared loss's eta rows are affine in
# (eta1, eta2) at fixed tau, and stay linear.
_LOG_COORDS = {
    "squared": np.array([False, True, False, False]),
    "logistic": np.array([False, True, False, True]),
}
# Log coordinates scale by 1 / G_i; a subnormal eta2 (phi subnormal) stays
# linear rather than overflow that scale.
_TINY = np.finfo(float).tiny
# A certified solve stops once its next step is below this relative size.
_FLOOR_RTOL = 1e-14
# The last fallback walks lam down to its value from this many decades
# above, a quarter decade per step.  At the cold start a strong mean (|mu|
# of 3 and more) can put the logistic margins deep in the flat tails of f,
# where the Jacobian is near 0 and Newton jumps between saturated and
# unsaturated states; a large ridge keeps the margins small, and each
# step starts near its root (half-decade steps still failed on |mu| = 15,
# p / n = 6).
_LAM_WALK_DECADES = 3


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-10
    max_iter: int = 10000

    def __post_init__(self):
        if not (0 < self.tol < 1):
            raise ValueError("tol must lie in (0, 1)")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")


@dataclass(frozen=True)
class FixedPointState:
    """Solved scalars plus solver diagnostics; ``iters`` counts
    closure-map evaluations."""

    loss_name: str
    # The trigger magnitude the state was solved at.
    alpha: float
    tau: float
    gamma: float
    delta: float
    eta1: float
    eta2: float
    m1: float
    m2: float
    # v' R mbar, the trigger alignment h_v.
    h_v: float
    sigma_sq: float
    # The noise floor gamma tr[C^2 R^2] / n of sigma_sq.
    zeta: float
    residual: float
    iters: int
    converged: bool
    # True if the returned poisoned-component mean m2 exceeds
    # ETA2_CLAMP_MEAN (logistic loss only): the poisoned score at the mean
    # is below 1e-304, and eta2 is resolved only to absolute tolerance.
    eta2_clamped: bool
    # The resolvent moments at tau, as the evaluation that certified the
    # state formed them.
    moments: cov.ResolventMoments = field(compare=False, repr=False)


def _moments(spec, tau, gamma, eta1, eta2):
    """(mom, c, m1, m2, v' R mbar, sigma^2, zeta) implied by the current scalars.

    ``mom`` is the resolvent-moment table at tau, so mom.tr_cr is delta.
    The proxy mean mbar has coefficients c = (eta1 - eta2, eta2 alpha)
    on [mu, v], so every form reduces to 2 x 2 algebra on the Gram
    matrices of the resolvent.
    """
    mom = spec.spectral.moments(spec.lam, tau)
    c = cov.mean_combination(eta1, eta2, spec.alpha)
    # numpy's products, not float arithmetic: they set the last bits of
    # every reported value, and of the certified residuals.
    m1, mv = (mom.r @ c).tolist()
    zeta = gamma * mom.tr_c2r2
    sigma_sq = float(c @ mom.rcr @ c) + zeta
    c = c.tolist()
    return mom, c, m1, spec.alpha * mv - m1, mv, sigma_sq, zeta


def _gram_times(gram, c):
    """gram @ c for a symmetric 2 x 2 Gram matrix, as two floats."""
    (a, b), (_, d) = gram.tolist()
    return a * c[0] + b * c[1], b * c[0] + d * c[1]


def _gram_form(gram, c):
    """c' gram c for a symmetric 2 x 2 Gram matrix."""
    g0, g1 = _gram_times(gram, c)
    return c[0] * g0 + c[1] * g1


def _stein_weights(xi, wq):
    """The rule's weights times 1, xi and xi^2 - 1, as the columns of an
    (N, 3) array: the moments that ``_closure_map`` integrates against."""
    return np.array([wq, wq * xi, wq * (xi * xi - 1.0)]).T


def _closure_map(x, spec, loss, xi, weights, class_weights):
    """(G(x), dG/dx, moments) at x = (tau, gamma, eta1, eta2).

    ``weights`` is ``_stein_weights`` of the nodes ``xi``,
    ``class_weights`` the column of ``spec.class_weights()``, and
    ``moments`` the ``_moments`` result at x.  Both
    components share one f_both call.  G depends on x through
    y = (m1, m2, sigma, delta).  dG/dy is exact at the nodes for the
    gamma and eta rows, from f, f' and the prox identity
    d f / d delta = f f'.  The tau row needs f'', which Stein's lemma
    trades for f': with r = m + sigma xi,
    d E[f'] / dm = E[f' xi] / sigma,
    d E[f'] / dsigma = E[f' (xi^2 - 1)] / sigma and
    d E[f'] / ddelta = E[(f f')'] = E[f f' xi] / sigma.
    dy/dx is exact, from dR/dtau = -R C R.  Returns None where sigma^2
    <= 0, which only a trial point with gamma < 0 reaches.

    Past the one quadrature product, G and both factors of the Jacobian
    are Python floats; only their product is formed as an array.
    """
    tau, gamma, eta1, eta2 = x.tolist()
    alpha = spec.alpha
    moments = _moments(spec, tau, gamma, eta1, eta2)
    mom, c, m1, m2, _, sigma_sq, _ = moments
    if not sigma_sq > 0.0:
        return None
    sigma = math.sqrt(sigma_sq)
    f, fp = f_both(loss, mom.tr_cr, np.add.outer([m1, m2], sigma * xi).ravel())
    f, fp = f.reshape(2, -1), fp.reshape(2, -1)
    ffp = f * fp
    # e[i][c][j]: class weight times integrand i = f, f^2, f', f f', f^2 f'
    # of component c against weight column j.
    e = np.array([f, f * f, fp, ffp, f * ffp]) @ weights * class_weights
    ef, ef2, efp, effp, ef2fp = e.tolist()
    tot_ffp = effp[0][1] + effp[1][1]
    g = [-(efp[0][0] + efp[1][0]), ef2[0][0] + ef2[1][0], ef[0][0], ef[1][0]]
    # Columns d/dm1, d/dm2, d/dsigma, d/ddelta.
    dg_dy = [
        [-efp[0][1] / sigma, -efp[1][1] / sigma, -(efp[0][2] + efp[1][2]) / sigma,
         -tot_ffp / sigma],
        [2.0 * effp[0][0], 2.0 * effp[1][0], 2.0 * tot_ffp, 2.0 * (ef2fp[0][0] + ef2fp[1][0])],
        [efp[0][0], 0.0, efp[0][1], effp[0][0]],
        [0.0, efp[1][0], efp[1][1], effp[1][0]],
    ]

    # m1 = (R c)_mu and m2 = alpha (R c)_v - m1 for c = (eta1 - eta2, alpha eta2).
    (r_mm, r_mv), (_, r_vv) = mom.r.tolist()
    q_m, q_v = _gram_times(mom.rcr, c)
    t2, t3 = mom.tr_c2r2, mom.tr_c3r3
    dm1 = [r_mm, alpha * r_mv - r_mm]  # d m1 / d(eta1, eta2)
    dmv = [r_mv, alpha * r_vv - r_mv]  # d (R c)_v / d(eta1, eta2)
    dy_dx = [
        [-q_m, 0.0, dm1[0], dm1[1]],
        [q_m - alpha * q_v, 0.0, alpha * dmv[0] - dm1[0], alpha * dmv[1] - dm1[1]],
        [-(_gram_form(mom.rcrcr, c) + gamma * t3) / sigma, 0.5 * t2 / sigma,
         q_m / sigma, (alpha * q_v - q_m) / sigma],
        [-t2, 0.0, 0.0, 0.0],
    ]
    return np.array(g), np.array(dg_dy) @ np.array(dy_dx), moments


def _newton_solve(spec, loss, xi, wq, start, tol, max_evals):
    """(residual, x, evaluations, moments) of one damped Newton solve of G(x) = x.

    Each evaluation forms G and its Jacobian J at one point and counts
    once, whether it is a Newton step or a backtracking trial.  A step
    solves the Newton equations of F = G(x) - x, with gamma (and the
    logistic eta2) in log coordinates wherever they and their images are
    positive normal numbers (see _LOG_COORDS), and is halved until
    sup|F| falls; a point with tau < 0, gamma <= 0, sigma^2 <= 0 or a
    non-finite G fails that test.  The solve stops once a step no longer
    lowers sup|F|: at once when the residual already certifies,
    otherwise after _MAX_HALVINGS halvings.  It also stops, without
    evaluating the step, when the residual certifies and the next step
    would move no scalar by more than _FLOOR_RTOL of itself, since x
    then sits at its rounding floor; and it stops after ``max_evals``
    evaluations.  The residual, x and the ``_moments`` result at x are
    those of the last accepted point; the moments are None if the start
    was not accepted, its residual being inf.
    """
    evals = 0
    weights = _stein_weights(xi, wq)
    class_weights = np.array(spec.class_weights())[:, None]
    failed = math.inf, None, None, None

    def evaluate(x):
        """(sup|F|, G, J, moments) at x; sup|F| is inf where G is undefined."""
        nonlocal evals
        evals += 1
        if not (np.isfinite(x).all() and x[0] >= 0.0 and x[1] > 0.0):
            return failed
        found = _closure_map(x, spec, loss, xi, weights, class_weights)
        if found is None:
            return failed
        g, jac, moments = found
        sup = float(np.abs(g - x).max())
        if not (math.isfinite(sup) and np.isfinite(jac).all()):
            return failed
        return sup, g, jac, moments

    # A point that overflows fails the residual test.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x = np.asarray(start, dtype=float)
        sup, g, jac, moments = evaluate(x)
        while math.isfinite(sup) and evals < max_evals:
            # With u_i = log x_i, row i reads log G_i - u_i = 0, whose
            # gradient in u_j is J_ij x_j / G_i - delta_ij.
            logs = _LOG_COORDS[loss.name] & (x > _TINY) & (g > _TINY)
            a = jac / np.where(logs, g, 1.0)[:, None] * np.where(logs, x, 1.0)
            a.flat[::5] -= 1.0
            try:
                step = np.linalg.solve(a, np.where(logs, np.log(x / g), x - g))
            except np.linalg.LinAlgError:
                break
            if not np.isfinite(step).all():
                break
            if sup <= tol:
                moved = np.where(logs, x * np.expm1(step), step)
                if (np.abs(moved) <= _FLOOR_RTOL * np.abs(x)).all():
                    break
            for halving in range(_MAX_HALVINGS + 1):
                t = 0.5**halving
                trial = np.where(logs, x * np.exp(t * step), x + t * step)
                found = evaluate(trial)
                if found[0] < sup or sup <= tol or evals == max_evals:
                    break
            if not found[0] < sup:
                break
            x, (sup, g, jac, moments) = trial, found
    return sup, x, evals, moments


def _root(state):
    """(alpha, x) of a solved state: the form in which a start enters."""
    return state.alpha, np.array([state.tau, state.gamma, state.eta1, state.eta2])


def solve_self_consistent(
    spec: cov.ProblemSpec, loss, config: SolverConfig | None = None,
    start: FixedPointState | None = None,
) -> FixedPointState:
    """Root of G(x) - x on x = (tau, gamma, eta1, eta2), certified to tol.

    ``loss`` is a loss model or its registry name, and ``start`` a state
    solved at another point, typically the previous one of a sweep.  A
    solve from a root at alpha0 enters with eta2 scaled by max(1, alpha0)
    / max(1, alpha), which keeps alpha * eta2 past alpha = 1; the cold
    start (1, 1, w1 f0, w2 f0) counts as solved at alpha0 = 0.  Solves
    run from ``start``, then cold, then from the root at alpha / 10 (at 0
    once alpha <= 1), found by the same ladder, then along lam walked
    down from 10^_LAM_WALK_DECADES times its value, a quarter decade per
    step, until one certifies.  The lam walk runs at ``spec`` only, not
    below it.  Each solve evaluates G at most ``max_iter`` times;
    ``iters`` counts the evaluations of all of them, those below alpha
    included.  The returned state is the last accepted x of the last
    solve, with the moments that evaluation formed; ``converged`` means
    its sup|G(x) - x| is <= tol.
    """
    cfg = config or SolverConfig()
    if isinstance(loss, str):
        loss = loss_by_name(loss)
    xi, wq = standard_normal_nodes(GH_NODES)

    w1, w2 = spec.class_weights()
    f0 = float(-loss.deriv(np.asarray([0.0]))[0])
    cold = 0.0, np.array([1.0, 1.0, w1 * f0, w2 * f0])
    evals = 0

    def root_solve(point, begin):
        """(residual, (alpha, x), moments) of one solve at ``point`` from the
        root ``begin`` = (alpha0, x0); the one place a start is carried."""
        nonlocal evals
        alpha0, x0 = begin
        carry = np.array([1.0, 1.0, 1.0, max(1.0, alpha0) / max(1.0, point.alpha)])
        residual, x, used, moments = _newton_solve(
            point, loss, xi, wq, x0 * carry, cfg.tol, cfg.max_iter
        )
        evals += used
        return residual, (point.alpha, x), moments

    def alpha_ladder(point, begin):
        """``root_solve`` at ``point`` from ``begin`` (if any), then cold,
        then from this ladder's root a decade below."""
        residual = math.inf
        if begin is not None:
            residual, found, moments = root_solve(point, begin)
        if residual > cfg.tol:
            residual, found, moments = root_solve(point, cold)
        if residual > cfg.tol and point.alpha > 0:
            lower = point.alpha / 10.0 if point.alpha > 1.0 else 0.0
            below = alpha_ladder(point.with_alpha(lower), None)[1]
            residual, found, moments = root_solve(point, below)
        return residual, found, moments

    residual, found, moments = alpha_ladder(spec, None if start is None else _root(start))
    if residual > cfg.tol:
        found = cold
        steps = range(4 * _LAM_WALK_DECADES, 0, -1)
        for point in [replace(spec, lam=spec.lam * 10.0 ** (k / 4)) for k in steps] + [spec]:
            residual, found, moments = root_solve(point, found)

    tau, gamma, eta1, eta2 = found[1].tolist()
    if moments is None:
        moments = _moments(spec, tau, gamma, eta1, eta2)
    mom, _, m1, m2, h_v, sigma_sq, zeta = moments
    return FixedPointState(
        loss_name=loss.name,
        alpha=spec.alpha,
        tau=tau,
        gamma=gamma,
        delta=mom.tr_cr,
        eta1=eta1,
        eta2=eta2,
        m1=m1,
        m2=m2,
        h_v=h_v,
        sigma_sq=sigma_sq,
        zeta=zeta,
        residual=residual,
        iters=evals,
        converged=residual <= cfg.tol,
        eta2_clamped=loss.name == "logistic" and m2 > ETA2_CLAMP_MEAN,
        moments=mom,
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


def theory_predictions(state: FixedPointState, alpha_test: float) -> TheoryPrediction:
    """Alignments, margin variance, and error metrics at a solved state.

    ``alpha_test`` is the trigger magnitude applied at evaluation time,
    allowing train/test mismatch studies.
    """
    return TheoryPrediction(
        h_mu=state.m1,
        h_v=state.h_v,
        sigma_sq=state.sigma_sq,
        zeta=state.zeta,
        clean_acc=metrics.clean_accuracy(state.m1, state.sigma_sq),
        asr=metrics.attack_success(state.m1, state.h_v, alpha_test, state.sigma_sq),
        alpha_test=alpha_test,
    )
