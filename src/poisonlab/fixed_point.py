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
resolvent.  Every expectation is integrated over the prox output u, not
the margin r: r(u) = u + delta L'(u) is increasing, and there f = -L'(u)
and f' = -L''(u) / (1 + delta L''(u)).  So G reads the loss only through
L' and L'' at the nodes of one composite Gauss-Legendre rule
(``margin_rule``), and the prox is solved only at the rule's segment
edges.  Writing G for that closure
map on x = (tau, gamma, eta_1, eta_2), the solver finds a root of
F(x) = G(x) - x by a damped Newton iteration on the analytic Jacobian of
G (Dennis & Schnabel, Numerical Methods for Unconstrained Optimization
and Nonlinear Equations, ch. 6): each step is halved until sup|F|
falls, and gamma (and the logistic eta_2) moves multiplicatively
(``_newton_solve``).  The Jacobian differentiates the Gaussian weight at
fixed nodes, so it needs no derivative of the loss beyond L''
(``_closure_map``).  Every solve starts from a root solved at
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
from .losses import loss_by_name, prox

# Every expectation is a composite Gauss-Legendre rule in the prox output
# u with these nodes and weights on [-1, 1] per segment (``margin_rule``).
_LEGENDRE = np.polynomial.legendre.leggauss(40)
# The segment edges in the margin, in standard deviations from its mean.
_EDGE_Z = (-12.0, -6.0, 0.0, 6.0, 12.0)
# Past this poisoned-component mean the logistic score at the mean, about
# exp(-m2), is below 1e-304: G integrates the poisoned component there as
# anywhere else, eta2 is 0 to within absolute tol, and ``eta2_clamped``
# flags the state.
ETA2_CLAMP_MEAN = 700.0
# A Newton step that does not lower the residual is halved at most this
# many times before the solve gives up on its start.
_MAX_HALVINGS = 10
# Newton steps move gamma, and for some losses eta2, multiplicatively
# (``loss.log_coords``).  gamma's image is quadratic in the component
# means, so from a start far from the root a linear step in gamma
# overshoots through zero, and the solve stalls at gamma -> 0: cold solves
# at alpha >= 10 on the closed-form test grid did.  Log coordinates scale
# by 1 / G_i; a subnormal eta2 (phi subnormal) stays linear rather than
# overflow that scale.
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
    # ETA2_CLAMP_MEAN for a loss whose score saturates (``loss.saturates``,
    # the logistic): the poisoned score at the mean
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


def margin_rule(loss, delta, means, sigma):
    """(u, d1, z, w): a rule for E[g(x)], x ~ N(M, sigma^2), that integrates
    over the prox output u, one row per mean M in ``means``.

    x(u) = u + delta L'(u) is increasing.  With d1 = L'(u), z = (x(u) - M)
    / sigma, w = (Legendre weight) phi(z) / sigma and J = 1 + delta L''(u)
    = x'(u), sum(w J g(x(u))) approximates E[g(x)], and sum(w h(u))
    approximates E[h(prox(delta, x)) / J].  The rule is composite
    Gauss-Legendre on the segments between prox(delta, M + k sigma), k in
    _EDGE_Z, split further at the loss's ``breaks`` that fall inside some
    row's range: the prox is solved only at those edges.  A break outside
    a row's range gives that row a segment of zero width.  The tails past
    12 sigma, of mass 4e-33, are dropped.
    """
    rows = [[prox(loss, delta, m + k * sigma) for k in _EDGE_Z] for m in means]
    lo, hi = min(r[0] for r in rows), max(r[-1] for r in rows)
    inner = [b for b in loss.breaks if lo < b < hi]
    edges = np.array([sorted(r + [min(max(b, r[0]), r[-1]) for b in inner]) for r in rows])
    t, wt = _LEGENDRE
    half = 0.5 * (edges[:, 1:] - edges[:, :-1])
    u = ((edges[:, :-1] + half)[:, :, None] + half[:, :, None] * t).reshape(len(means), -1)
    d1 = loss.deriv(u)
    z = (u + delta * d1 - np.array(means)[:, None]) / sigma
    w = (half[:, :, None] * wt).reshape(len(means), -1) * np.exp(-0.5 * z * z)
    return u, d1, z, w / (sigma * math.sqrt(2.0 * math.pi))


def _closure_map(x, spec, loss, class_weights):
    """(G(x), dG/dx, moments) at x = (tau, gamma, eta1, eta2).

    ``class_weights`` is the column of ``spec.class_weights()``, and
    ``moments`` the ``_moments`` result at x.  G depends on x through
    y = (m1, m2, sigma, delta).  With f = -L'(u) and J = 1 + delta L''(u)
    at the nodes u of ``margin_rule`` (both components in one call), the
    rows of G are

        tau   = sum_c pi_c E_c[-f'] = sum_c pi_c sum(w L''),
        gamma = sum_c pi_c sum(w J f^2),    eta_c = pi_c sum(w J f),

    each evaluated about its value at a node (see below).  The nodes are
    held fixed, so dG/dy differentiates only the weight w = phi(z) /
    sigma, z = (u - delta f - M) / sigma, and J: dw/dM = w z / sigma,
    dw/dsigma = w (z^2 - 1) / sigma, dw/ddelta = w z f / sigma and
    dJ/ddelta = L''.  dy/dx is exact, from dR/dtau = -R C R.  Returns
    None where sigma^2 <= 0, which only a trial point with gamma < 0
    reaches.

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
    delta = mom.tr_cr
    u, d1, z, w = margin_rule(loss, delta, (m1, m2), sigma)
    f = -d1
    ell2 = loss.second_deriv(u)
    stretch = 1.0 + delta * ell2
    slope = ell2 / stretch
    jf = stretch * f
    jf2, ell2f = jf * f, ell2 * f
    wz = w * (z / sigma)
    # G takes each expectation as g0 + sum(w J (g - g0)), g0 the integrand
    # at the row's node nearest its mean: w J integrates the density, of
    # mass 1, and the differences carry far less rounding as the nodes move
    # with M and sigma.  -f' = L'' / J is constant for the squared loss,
    # whose tau then does not move with them at all.
    near = (0, 1), np.abs(z).argmin(axis=1)
    f0, s0 = f[near][:, None], slope[near][:, None]
    # e[c][i][j]: class weight times integrand i = J f, J f^2, J f^3, L'',
    # L'' f, L'' f^2, then J (f - f0), J (f^2 - f0^2), J (-f' - s0), of
    # component c against column j = w, w z / sigma and w z^2 / sigma; the
    # names below start with e for the clean component and p for the
    # poisoned one.
    integrands = np.array([jf, jf2, jf2 * f, ell2, ell2f, ell2f * f, stretch * (f - f0),
                           stretch * (f * f - f0 * f0), stretch * (slope - s0)])
    cols = np.array([w, wz, wz * z])
    e = integrands.transpose(1, 0, 2) @ cols.transpose(1, 2, 0) * class_weights[:, :, None]
    (ef, ef2, ef3, el2, el2f, el2f2, e_f, e_f2, e_s), (
        pf, pf2, pf3, pl2, pl2f, pl2f2, p_f, p_f2, p_s) = e.tolist()
    (f1, f2), (s1, s2) = f0[:, 0].tolist(), s0[:, 0].tolist()
    (w1,), (w2,) = class_weights.tolist()
    g = [w1 * s1 + w2 * s2 + e_s[0] + p_s[0], w1 * f1 * f1 + w2 * f2 * f2 + e_f2[0] + p_f2[0],
         w1 * f1 + e_f[0], w2 * f2 + p_f[0]]
    # Columns d/dm1, d/dm2, d/dsigma, d/ddelta; dw/dsigma = w (z^2 - 1) /
    # sigma is the third column less the first over sigma.
    dg_dy = [
        [el2[1], pl2[1], el2[2] + pl2[2] - (el2[0] + pl2[0]) / sigma, el2f[1] + pl2f[1]],
        [ef2[1], pf2[1], ef2[2] + pf2[2] - (ef2[0] + pf2[0]) / sigma,
         ef3[1] + pf3[1] + el2f2[0] + pl2f2[0]],
        [ef[1], 0.0, ef[2] - ef[0] / sigma, ef2[1] + el2f[0]],
        [0.0, pf[1], pf[2] - pf[0] / sigma, pf2[1] + pl2f[0]],
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


def _newton_solve(spec, loss, start, tol, max_evals):
    """(residual, x, evaluations, moments) of one damped Newton solve of G(x) = x.

    Each evaluation forms G and its Jacobian J at one point and counts
    once, whether it is a Newton step or a backtracking trial.  A step
    solves the Newton equations of F = G(x) - x, with gamma (and the
    eta2 of a loss whose score saturates) in log coordinates wherever they
    and their images are positive normal numbers (``loss.log_coords``),
    and is halved until sup|F| falls; a point with tau < 0, gamma <= 0,
    sigma^2 <= 0 or a
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
    class_weights = np.array(spec.class_weights())[:, None]
    failed = math.inf, None, None, None

    def evaluate(x):
        """(sup|F|, G, J, moments) at x; sup|F| is inf where G is undefined."""
        nonlocal evals
        evals += 1
        if not (np.isfinite(x).all() and x[0] >= 0.0 and x[1] > 0.0):
            return failed
        found = _closure_map(x, spec, loss, class_weights)
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
            logs = loss.log_coords & (x > _TINY) & (g > _TINY)
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
            point, loss, x0 * carry, cfg.tol, cfg.max_iter
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
        eta2_clamped=loss.saturates and m2 > ETA2_CLAMP_MEAN,
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
