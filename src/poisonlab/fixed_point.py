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
resolvent.  The squared loss's prox is affine, so f is affine in r and
every expectation is a Gaussian moment, which the loss states in closed
form (``SquaredLoss.gaussian_closure``).  Any other loss, the logistic,
is integrated over the prox output u, not the margin r: r(u) = u + delta
L'(u) is increasing, and there f = -L'(u) and f' = -L''(u) / (1 + delta
L''(u)).  So G reads the loss only through L' and L'' at the nodes of one
composite Gauss-Legendre rule (``margin_rule``), and the prox is solved
only at the rule's ten segment edges, once per rule built
(``anchor_rule``).  A solve weighs each evaluation on the rule of the
one before while the loss's breaks are unchanged and every edge e still
satisfies |e + delta L'(e) - (M + k sigma)| <= _EDGE_SLACK sigma, which
keeps +-11 sigma covered; only otherwise does it build a new rule.
Writing G for that closure map on x = (tau, gamma, eta_1, eta_2), the
solver finds a root of F(x) = G(x) - x by a damped Newton iteration on
the analytic Jacobian of G (Dennis & Schnabel, Numerical Methods for
Unconstrained Optimization and Nonlinear Equations, ch. 6): each step is
halved until sup|F| falls, and gamma (and the logistic eta_2) moves
multiplicatively (``_newton_solve``).  On a rule the Jacobian
differentiates the Gaussian weight at fixed nodes, so it needs no
derivative of the loss beyond L'' (``_integrate``).  Every solve starts
from a root solved at some alpha0, with eta2 scaled to keep the trigger
coefficient alpha * eta2, which tends to a limit as alpha grows: the
predictor step of continuation (Allgower & Georg, Introduction to
Numerical Continuation Methods, ch. 2).  A sweep passes the state solved at its previous
point; the cold point counts as solved at alpha0 = 0.  At large alpha
the poisoned-component feedback has Jacobian entries of size
phi * tau * alpha^2 * (v' R v), and the cold solve can stall away from
the root; the point is then solved cold a decade lower at a time until
that certifies, and continued back up from there.  Where that fails as
well, as for a strong mean whose margins saturate the logistic score at
the cold start, the solver walks lam down from 1000 times its value, a
quarter decade per step, at the requested point only.  A state is
certified when its residual sup|G(x) - x| is at most tol, and it
reports the values of the evaluation that certified it.

Every solve follows one schedule (``_drive``).  A point's solves form
one flat plan (``_point_solves``): from its start, cold, down the alpha
ladder and back up, then the lam walk, until one certifies; a sweep
chains its points' plans along alpha (``_sweep_solves``).  The plans of
points of one dimension that share a loss run in lockstep: an
``eigen_sweep``'s tables, or a population run's benign point and grid.
Each round sends the pending solve of every unfinished plan, first
solves and fallbacks alike, through one ``_newton_solve``, whose closure
map and Newton iteration carry a leading batch axis over them.  Its
rounds evaluate the pending point of every unfinished solve in one call:
the resolvent sums of their stacked spectral tables and, on a rule, the
weights on the nodes of every point's rule, padded to the longest, and
the integrand products; the Newton systems due that round are solved in
one stacked solve.  Each solve keeps its own start, rule (reused while
it covers, rebuilt alone otherwise), halvings, floor stop and
evaluation budget, and every operation treats its row as it treats a
lone point, so a point makes the same evaluations and reaches the same
state, bit for bit, in any batch.  (The padding adds exact zeros to a point's integrand
sums, which leaves them as they are while the BLAS product adds each
row's terms in node order; ``TestLockstep`` checks that it does.)

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
# A solve reweighs its last rule at a new (delta, M, sigma) while each edge
# lies within this many sigma of its margin M + k sigma and the loss's
# breaks are unchanged (``AnchoredRule.covers``); otherwise it builds anew.
_EDGE_SLACK = 1.0
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
# The 4 x 4 identity, the diagonal of each Newton matrix's -I.
_IDENTITY = np.eye(4)
# The row at which a lockstep round forms the moments of a point that it does
# not evaluate (``_newton_solve``).
_STAND_IN = np.array([1.0, 1.0, 0.0, 0.0])


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


class _Points:
    """B problem points of one dimension, stacked for ``_closure_map``: the
    ``SpectralTable.stack`` of their tables with a buffer for its weights,
    each point's lam, alpha and class weights, the specs themselves, and
    the margin rule's buffers (``workspace``).  One solve owns it."""

    def __init__(self, specs):
        self.specs = list(specs)
        self.table = cov.SpectralTable.stack([spec.spectral for spec in self.specs])
        self.resolvent_weights = np.empty((3,) + self.table.ev.shape)
        self.lam = np.array([[spec.lam] for spec in self.specs])
        self.alpha = [spec.alpha for spec in self.specs]
        self.mixture = [spec.class_weights() for spec in self.specs]
        # Each point's class weights, shaped to scale its (2, 9, 3) integrals.
        self.class_weights = np.array(self.mixture)[:, :, None, None]
        self._workspace = None

    def workspace(self, count, width):
        """(nodes, stacked, integrands, columns, their rows, offsets,
        (count, width)): the buffers of ``_integrate`` for ``count``
        points' rules of at most ``width`` nodes.  ``nodes`` is the (4,
        count, 2, width) stack of their nodes and ``stacked`` the rule
        each slot of it holds (``_stack_nodes``); then come the (9, count,
        2, width) integrands and (3, count, 2, width) weight columns, the
        two as one list of rows, and the flat index of each (point,
        component) row's first node.  They are kept while count and width
        hold: at B = 8 the integrands take half a megabyte, which a fresh
        array would fault in page by page at every evaluation."""
        if self._workspace is None or self._workspace[-1] != (count, width):
            nodes = np.empty((4, count, 2, width))
            integrands, cols = np.empty((9, count, 2, width)), np.empty((3, count, 2, width))
            offsets = np.arange(0, count * 2 * width, width).reshape(count, 2, 1)
            self._workspace = (nodes, [None] * count, integrands, cols, [*integrands, *cols],
                               offsets, (count, width))
        return self._workspace


def _moments(points, x):
    """(sums, c, m1, m2, v' R mbar, sigma^2, zeta) implied by x, one row
    (tau, gamma, eta1, eta2) per point of ``points``, each a list with
    one entry per point.

    ``sums`` holds each point's ``SpectralTable.sums`` at its tau as
    nested lists of floats, so sums[k][0][0] is delta (``_member`` turns
    them into ResolventMoments).  The proxy mean mbar has coefficients c
    = (eta1 - eta2, eta2 alpha) on [mu, v], a pair of floats, so every
    form reduces to 2 x 2 algebra on the Gram matrices of the resolvent.
    R c and R C R c are summed from 0 in index order, as numpy's matmul
    loop sums a strided 2 x 2 view, and c' R C R c is numpy's dot of two
    pairs, whose BLAS may fuse its last product: these orders set the
    last bits of every reported value, and of the certified residuals.
    """
    sums = points.table.sums(points.lam, x[:, :1], points.resolvent_weights).tolist()
    _, gamma, eta1, eta2 = x.T.tolist()
    c, m1, mv, rcr_c, zeta = [], [], [], [], []
    for ((_, r_mm, r_mv, r_vv), (t2, a, b, d), _), g, e1, e2, alpha in zip(
            sums, gamma, eta1, eta2, points.alpha):
        c0, c1 = e1 - e2, e2 * alpha
        c.append([c0, c1])
        m1.append(0.0 + r_mm * c0 + r_mv * c1)
        mv.append(0.0 + r_mv * c0 + r_vv * c1)
        rcr_c.append([0.0 + c0 * a + c1 * b, 0.0 + c0 * b + c1 * d])
        zeta.append(g * t2)
    forms = (np.array(rcr_c)[:, None, :] @ np.array(c)[:, :, None]).ravel().tolist()
    sigma_sq = [form + z for form, z in zip(forms, zeta)]
    m2 = [alpha * v - m for alpha, v, m in zip(points.alpha, mv, m1)]
    return sums, c, m1, m2, mv, sigma_sq, zeta


def _member(moments, k):
    """Point k's entry of a ``_moments`` result, its sums turned into the
    point's ResolventMoments."""
    sums, *rest = moments
    return (cov.ResolventMoments.from_sums(np.array(sums[k])), *(column[k] for column in rest))


def _gram_times(a, b, d, c):
    """gram @ c for the symmetric 2 x 2 Gram matrix [[a, b], [b, d]], as two
    floats."""
    return a * c[0] + b * c[1], b * c[0] + d * c[1]


def _gram_form(a, b, d, c):
    """c' gram c for the symmetric 2 x 2 Gram matrix [[a, b], [b, d]]."""
    g0, g1 = _gram_times(a, b, d, c)
    return c[0] * g0 + c[1] * g1


def _weigh(u, d1, wt, delta, means, sigma, out=None):
    """(z, w) of nodes u, with d1 = L'(u) and weights wt, at (delta, means,
    sigma), broadcast together: z = (x(u) - M) / sigma with x(u) = u +
    delta L'(u), and w = wt phi(z) / sigma (see ``margin_rule``), written
    to ``out`` if given."""
    z = (u + delta * d1 - means) / sigma
    w = wt * np.exp(-0.5 * z * z)
    return z, np.divide(w, sigma * math.sqrt(2.0 * math.pi), out=out)


@dataclass(frozen=True, eq=False)
class AnchoredRule:
    """The nodes of a margin rule built at one anchor (delta, means, sigma)
    (``anchor_rule``), with everything that does not move with them.

    ``edges`` holds prox(delta, M + k sigma), k in _EDGE_Z, one list of
    floats per mean, and ``edge_d1`` L' there; ``nodes`` stacks, one row
    per mean, the nodes u, L' and L'' at them, and each node's Legendre
    weight times its segment's half-width.
    """

    loss: object
    breaks: tuple
    edges: list
    edge_d1: list
    nodes: np.ndarray

    def weigh(self, delta, means, sigma):
        """(z, w) at (delta, means, sigma) (``_weigh``)."""
        u, d1, _, wt = self.nodes
        return _weigh(u, d1, wt, delta, np.array(means)[:, None], sigma)

    def covers(self, delta, means, sigma):
        """Whether the rule still serves (delta, means, sigma): the loss's
        breaks are those of the anchor, and each edge e lies within
        _EDGE_SLACK sigma of prox(delta, M + k sigma) in the margin, |e +
        delta L'(e) - (M + k sigma)| <= _EDGE_SLACK sigma."""
        if self.loss.breaks(delta) != self.breaks:
            return False
        slack = _EDGE_SLACK * sigma
        return all(abs(e + delta * d1 - (m + k * sigma)) <= slack
                   for row, row_d1, m in zip(self.edges, self.edge_d1, means)
                   for e, d1, k in zip(row, row_d1, _EDGE_Z))


def anchor_rule(loss, delta, means, sigma):
    """The rule of ``margin_rule`` at (delta, means, sigma), not yet weighed:
    the one place the prox is solved, ten times for two means."""
    rows = [[prox(loss, delta, m + k * sigma) for k in _EDGE_Z] for m in means]
    breaks = loss.breaks(delta)
    lo, hi = min(r[0] for r in rows), max(r[-1] for r in rows)
    inner = [b for b in breaks if lo < b < hi]
    edges = np.array([sorted(r + [min(max(b, r[0]), r[-1]) for b in inner]) for r in rows])
    t, wt = _LEGENDRE
    half = 0.5 * (edges[:, 1:] - edges[:, :-1])[:, :, None]
    nodes = np.empty((4,) + half.shape[:2] + t.shape)
    u = nodes[0]
    np.add(edges[:, :-1, None] + half, half * t, out=u)
    nodes[1] = loss.deriv(u)
    nodes[2] = loss.second_deriv(u)
    np.multiply(half, wt, out=nodes[3])
    return AnchoredRule(loss, breaks, rows, [[-loss.score(e) for e in r] for r in rows],
                        nodes.reshape(4, len(means), -1))


def margin_rule(loss, delta, means, sigma):
    """(u, d1, z, w): a rule for E[g(x)], x ~ N(M, sigma^2), that integrates
    over the prox output u, one row per mean M in ``means``.

    x(u) = u + delta L'(u) is increasing.  With d1 = L'(u), z = (x(u) - M)
    / sigma, w = (Legendre weight) phi(z) / sigma and J = 1 + delta L''(u)
    = x'(u), sum(w J g(x(u))) approximates E[g(x)], and sum(w h(u))
    approximates E[h(prox(delta, x)) / J].  The rule is composite
    Gauss-Legendre on the segments between prox(delta, M + k sigma), k in
    _EDGE_Z, split further at the loss's ``breaks(delta)`` that fall
    inside some row's range: the prox is solved only at those edges.  A
    break outside a row's range gives that row a segment of zero width.
    The tails past 12 sigma, of mass 4e-33, are dropped.

    This is ``anchor_rule`` weighed at its own anchor.  A rule weighed
    away from its anchor, while ``AnchoredRule.covers`` holds, has its
    edges within _EDGE_SLACK sigma of these, so it still spans +-11 sigma,
    whose dropped tails have mass below 4e-28.
    """
    rule = anchor_rule(loss, delta, means, sigma)
    return (*rule.nodes[:2], *rule.weigh(delta, means, sigma))


def _stack_nodes(rules, stack, stacked):
    """``stack``, of shape (4, B, 2, n), holding the rules' ``nodes``, n the
    most nodes of any: a rule of fewer repeats its last node with weight
    0, which only adds exact zeros to each of its sums.  ``stacked`` lists
    the rule each slot holds; a slot is filled only when its rule
    changes."""
    width = stack.shape[-1]
    for k, rule in enumerate(rules):
        if stacked[k] is rule:
            continue
        stacked[k] = rule
        n = rule.nodes.shape[-1]
        stack[:, k, :, :n] = rule.nodes
        if n < width:
            stack[:, k, :, n:] = rule.nodes[:, :, -1:]
            stack[3, k, :, n:] = 0.0
    return stack


def _closure_map(x, points, loss, rules, active=None):
    """(G(x), dG/dx, moments, rules) at the rows x = (tau, gamma, eta1,
    eta2), one per point of ``points`` (a ``_Points``), in one pass.

    ``moments`` is the ``_moments`` result at every row of x.  G and its
    Jacobian are formed at the rows ``active`` (all if None), NaN at the
    others, which need only be valid points for the moments.  G depends on
    x through y = (m1, m2, sigma, delta): a loss whose prox is affine
    states G and dG/dy in closed form (``loss.gaussian_closure``), and
    ``rules`` is returned as passed in; any other loss integrates them on
    a margin rule (``_integrate``), and ``rules`` holds, per point, the
    ``AnchoredRule`` that G was weighed on.  dy/dx is exact, from dR/dtau
    = -R C R.  Where sigma^2 <= 0, which only a trial point with gamma < 0
    reaches, a point's rows of G and dG/dx are NaN and it keeps the rule
    passed in.  Each point's G and both factors of its Jacobian are Python
    floats; only their products are formed as arrays, in one stacked
    product.
    """
    moments = _moments(points, x)
    sums, c, m1, m2, _, sigma_sq, _ = moments
    rules = list(rules)
    deltas = [form[0][0] for form in sums]
    live = [k for k in (range(len(rules)) if active is None else active) if sigma_sq[k] > 0.0]
    if not live:
        return (np.full((len(rules), 4), math.nan), np.full((len(rules), 4, 4), math.nan),
                moments, rules)
    sigma = [math.sqrt(sigma_sq[k]) for k in live]
    if loss.gaussian_closure is None:
        g, dg_dy = _integrate(points, loss, rules, live, deltas, m1, m2, sigma)
    else:
        g, dg_dy = zip(*(loss.gaussian_closure(points.mixture[k], m1[k], m2[k], sig, deltas[k])
                         for k, sig in zip(live, sigma)))
    gamma = x[:, 1].tolist()
    dy_dx = []
    for k, sig in zip(live, sigma):
        # m1 = (R c)_mu and m2 = alpha (R c)_v - m1 for c = (eta1 - eta2, alpha eta2).
        alpha, ck = points.alpha[k], c[k]
        (_, r_mm, r_mv, r_vv), (t2, a, b, d), (t3, a3, b3, d3) = sums[k]
        q_m, q_v = _gram_times(a, b, d, ck)
        dm1 = [r_mm, alpha * r_mv - r_mm]  # d m1 / d(eta1, eta2)
        dmv = [r_mv, alpha * r_vv - r_mv]  # d (R c)_v / d(eta1, eta2)
        dy_dx.append([
            [-q_m, 0.0, dm1[0], dm1[1]],
            [q_m - alpha * q_v, 0.0, alpha * dmv[0] - dm1[0], alpha * dmv[1] - dm1[1]],
            [-(_gram_form(a3, b3, d3, ck) + gamma[k] * t3) / sig, 0.5 * t2 / sig,
             q_m / sig, (alpha * q_v - q_m) / sig],
            [-t2, 0.0, 0.0, 0.0],
        ])
    g, jac = np.array(g), np.array(dg_dy) @ np.array(dy_dx)
    if len(live) < len(rules):
        g, jac = _scatter(live, len(rules), g), _scatter(live, len(rules), jac)
    return g, jac, moments, rules


def _integrate(points, loss, rules, live, deltas, m1, m2, sigma):
    """(G, dG/dy) of the ``live`` points, y = (m1, m2, sigma, delta), each a
    list of Python floats per point, integrated on margin rules.  Each
    point's rule in ``rules`` is the one passed in while it ``covers`` the
    margins at y, else one built there, which replaces it.

    With f = -L'(u) and J = 1 + delta L''(u) at the nodes u of the rule
    (both components in one), the rows of G are

        tau   = sum_c pi_c E_c[-f'] = sum_c pi_c sum(w L''),
        gamma = sum_c pi_c sum(w J f^2),    eta_c = pi_c sum(w J f),

    each evaluated about its value at a node (see below).  The rule holds
    the nodes fixed, so dG/dy differentiates only the weight w = phi(z) /
    sigma, z = (u - delta f - M) / sigma, and J: dw/dM = w z / sigma,
    dw/dsigma = w (z^2 - 1) / sigma, dw/ddelta = w z f / sigma and
    dJ/ddelta = L''.  That is the derivative of G on a fixed rule, the
    map a solve evaluates while it reuses one.

    The nodes of all points go through numpy together, padded to the
    longest rule (``_stack_nodes``): the weighing, the integrands, and
    their products against the weight columns, one matrix product per
    point and component, as each point's own.
    """
    for k, sig in zip(live, sigma):
        if rules[k] is None or not rules[k].covers(deltas[k], (m1[k], m2[k]), sig):
            rules[k] = anchor_rule(loss, deltas[k], (m1[k], m2[k]), sig)
    used = [rules[k] for k in live]
    stack, stacked, integrands, cols, rows, offsets, _ = points.workspace(
        len(live), max(rule.nodes.shape[-1] for rule in used))
    u, d1, ell2, wt = _stack_nodes(used, stack, stacked)
    if len(live) == 1:
        # One point's delta and sigma as floats: the same values, which
        # numpy broadcasts faster than (1, 1, 1) arrays.
        (k,) = live
        delta, spread, means = deltas[k], sigma[0], np.array([[m1[k]], [m2[k]]])
    else:
        delta = np.array([[[deltas[k]]] for k in live])
        spread = np.array(sigma)[:, None, None]
        means = np.array([[[m1[k]], [m2[k]]] for k in live])
    jf, jf2, jf3, ell2_row, ell2f, ell2f2, jf_diff, jf2_diff, slope_diff, w, wz, wz2 = rows
    z, _ = _weigh(u, d1, wt, delta, means, spread, out=w)
    f = -d1
    stretch = 1.0 + delta * ell2
    slope = ell2 / stretch
    # G takes each expectation as g0 + sum(w J (g - g0)), g0 the integrand
    # at the row's node nearest its mean: w J integrates the density, of
    # mass 1, and the differences carry far less rounding as the nodes move
    # with M and sigma.
    near = np.abs(z).argmin(axis=-1, keepdims=True)
    near += offsets
    f0, s0 = f.take(near), slope.take(near)
    # e[k][c][i][j]: class weight times integrand i = J f, J f^2, J f^3,
    # L'', L'' f, L'' f^2, then J (f - f0), J (f^2 - f0^2), J (-f' - s0),
    # of component c of live point k against column j = w, w z / sigma and
    # w z^2 / sigma; the names below start with e for the clean component
    # and p for the poisoned one.
    np.multiply(stretch, f, out=jf)
    np.multiply(jf, f, out=jf2)
    np.multiply(jf2, f, out=jf3)
    ell2_row[...] = ell2
    np.multiply(ell2, f, out=ell2f)
    np.multiply(ell2f, f, out=ell2f2)
    np.multiply(stretch, f - f0, out=jf_diff)
    np.multiply(stretch, f * f - f0 * f0, out=jf2_diff)
    np.multiply(stretch, slope - s0, out=slope_diff)
    np.multiply(w, z / spread, out=wz)
    np.multiply(wz, z, out=wz2)
    e = (integrands.transpose(1, 2, 0, 3) @ cols.transpose(1, 2, 3, 0)
         * points.class_weights[_rows(live, len(rules))])
    g, dg_dy = [], []
    for k, ek, fk, sk, sig in zip(live, e.tolist(), f0.tolist(), s0.tolist(), sigma):
        (ef, ef2, ef3, el2, el2f, el2f2, e_f, e_f2, e_s), (
            pf, pf2, pf3, pl2, pl2f, pl2f2, p_f, p_f2, p_s) = ek
        ((f1,), (f2,)), ((s1,), (s2,)) = fk, sk
        w1, w2 = points.mixture[k]
        g.append([w1 * s1 + w2 * s2 + e_s[0] + p_s[0],
                  w1 * f1 * f1 + w2 * f2 * f2 + e_f2[0] + p_f2[0],
                  w1 * f1 + e_f[0], w2 * f2 + p_f[0]])
        # Columns d/dm1, d/dm2, d/dsigma, d/ddelta; dw/dsigma = w (z^2 - 1) /
        # sigma is the third column less the first over sigma.
        dg_dy.append([
            [el2[1], pl2[1], el2[2] + pl2[2] - (el2[0] + pl2[0]) / sig, el2f[1] + pl2f[1]],
            [ef2[1], pf2[1], ef2[2] + pf2[2] - (ef2[0] + pf2[0]) / sig,
             ef3[1] + pf3[1] + el2f2[0] + pl2f2[0]],
            [ef[1], 0.0, ef[2] - ef[0] / sig, ef2[1] + el2f[0]],
            [0.0, pf[1], pf[2] - pf[0] / sig, pf2[1] + pl2f[0]],
        ])
    return g, dg_dy


def _scatter(rows, size, values):
    """An array of ``size`` rows, NaN but for ``values`` at ``rows``."""
    out = np.full((size,) + values.shape[1:], math.nan)
    out[rows] = values
    return out


def _linear_solve(a, b):
    """x with a x = b for each of a stack of 4 x 4 systems; a row of x is
    NaN where its system is singular."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.full_like(b, math.nan)
        return np.concatenate([_linear_solve(a[k:k + 1], b[k:k + 1]) for k in range(len(a))])


def _newton_solve(specs, loss, starts, tol, max_evals):
    """Per point of ``specs``, (residual, x, evaluations, moments) of one
    damped Newton solve of G(x) = x from its row of ``starts``.

    Each evaluation forms G and its Jacobian J at one point and counts
    once, whether it is a Newton step or a backtracking trial.  A loss
    without a closed form weighs G on the rule of the evaluation before
    while that rule ``covers`` the point, so the prox is solved only where
    a rule is built, and J is the derivative of the map that the next step
    evaluates as long as its trial stays covered.  A step
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
    evaluations.  The residual, x and the ``_moments`` entry
    (``_member``) at x are those of the last accepted point; the moments
    are None if the start was not accepted, its residual being inf.

    The solves run in lockstep.  Each round evaluates the pending point of
    every unfinished solve (its start, a step or a halved step) in one
    ``_closure_map`` call, and solves the Newton equations of every solve
    that steps next in one stacked ``np.linalg.solve``; each solve then
    decides alone, on its own values.  So a solve makes the same
    evaluations and returns the same values, bit for bit, in any batch.
    """
    size = len(specs)
    points = _Points(specs)
    x = np.array(starts, dtype=float)  # each solve's last accepted point
    trial = x.copy()  # each solve's pending point
    step, logs = np.empty((size, 4)), np.empty((size, 4), dtype=bool)
    sup, evals, halving = [math.inf] * size, [0] * size, [-1] * size  # -1: the start
    moments, rules = [None] * size, [None] * size
    pending = list(range(size))
    # A point that overflows fails the residual test.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        while pending:
            at = trial.tolist()
            active = [i for i in pending if all(map(math.isfinite, at[i]))
                      and at[i][0] >= 0.0 and at[i][1] > 0.0]
            found = {}
            if active:
                # Every point's moments are formed, the others' at a stand-in.
                probe = trial
                if len(active) < size:
                    probe = np.tile(_STAND_IN, (size, 1))
                    probe[active] = trial[active]
                g, jac, formed, rules = _closure_map(probe, points, loss, rules, active)
                residual = np.maximum.reduce(np.abs(g - probe), axis=1).tolist()
                # A finite sum says every entry is finite; else look.
                if not math.isfinite(np.add.reduce(jac, axis=None)):
                    finite = np.isfinite(jac).reshape(size, 16).all(axis=1).tolist()
                    residual = [r if ok else math.inf for r, ok in zip(residual, finite)]
                found = {i: residual[i] for i in active if math.isfinite(residual[i])}
            accepted, stepping, waiting = [], [], []
            for i in pending:
                evals[i] += 1
                r = found.get(i, math.inf)
                if halving[i] < 0 or r < sup[i]:
                    # The start, or a trial that lowers the residual.
                    accepted.append(i)
                    sup[i] = r
                    if i in found:
                        moments[i] = formed, i
                        if evals[i] < max_evals:
                            stepping.append(i)
                elif not (sup[i] <= tol or evals[i] == max_evals or halving[i] == _MAX_HALVINGS):
                    halving[i] += 1
                    waiting.append(i)
            if accepted:
                x[_rows(accepted, size)] = trial[_rows(accepted, size)]
            if stepping:
                into = _rows(stepping, size)
                xs, gs = x[into], g[into]
                # With u_i = log x_i, row i reads log G_i - u_i = 0, whose
                # gradient in u_j is J_ij x_j / G_i - delta_ij.
                lg = loss.log_coords & (xs > _TINY) & (gs > _TINY)
                a = jac[into] / np.where(lg, gs, 1.0)[:, :, None] * np.where(lg, xs, 1.0)[:, None, :]
                a -= _IDENTITY
                st = _linear_solve(a, np.where(lg, np.log(xs / gs), xs - gs))
                finite = [True] * len(stepping)
                if not math.isfinite(np.add.reduce(st, axis=None)):
                    finite = np.isfinite(st).all(axis=1).tolist()
                floor = [False] * len(stepping)
                if any(sup[i] <= tol for i in stepping):
                    moved = np.where(lg, xs * np.expm1(st), st)
                    floor = (np.abs(moved) <= _FLOOR_RTOL * np.abs(xs)).all(axis=1).tolist()
                step[into], logs[into] = st, lg
                for i, ok, still in zip(stepping, finite, floor):
                    if ok and not (sup[i] <= tol and still):
                        halving[i] = 0
                        waiting.append(i)
            pending = sorted(waiting)
            if pending:
                into = _rows(pending, size)
                # t step, with t = 1 (exactly the step) unless some step is halved.
                ts = step[into]
                if any(halving[i] for i in pending):
                    ts = np.array([0.5 ** halving[i] for i in pending])[:, None] * ts
                base = x[into]
                trial[into] = np.where(logs[into], base * np.exp(ts), base + ts)
    return [(sup[i], x[i], evals[i], None if moments[i] is None else _member(*moments[i]))
            for i in range(size)]


def _rows(index, size):
    """A selector of the rows ``index``, increasing, of an array of ``size``
    rows: a slice, and so a view, where they are all of them."""
    return slice(None) if len(index) == size else np.array(index, dtype=int)


def _root(state):
    """(alpha, x) of a solved state: the form in which a start enters."""
    return state.alpha, np.array([state.tau, state.gamma, state.eta1, state.eta2])


def _state(spec, loss, tol, residual, x, evals, moments):
    """The state of a ``_newton_solve`` solve at ``spec`` from its (residual, x,
    evaluations, moments), the moments formed at x where they are None."""
    if moments is None:
        moments = _member(_moments(_Points([spec]), x[None]), 0)
    mom, _, m1, m2, h_v, sigma_sq, zeta = moments
    tau, gamma, eta1, eta2 = x.tolist()
    return FixedPointState(
        loss_name=loss.name, alpha=spec.alpha, tau=tau, gamma=gamma, delta=mom.tr_cr,
        eta1=eta1, eta2=eta2, m1=m1, m2=m2, h_v=h_v, sigma_sq=sigma_sq, zeta=zeta,
        residual=residual, iters=evals, converged=residual <= tol,
        eta2_clamped=loss.saturates and m2 > ETA2_CLAMP_MEAN, moments=mom)


def _point_solves(spec, start):
    """The solves of the point ``spec``, as a plan for ``_drive``: it yields
    each solve as (point, start), start None for the cold start, and is sent
    its state.  While the state at ``spec`` does not certify, it falls back
    in turn: from ``start``, cold (if it had a start), cold a decade lower at
    a time (0 once alpha <= 1) until one certifies or alpha is 0 and back up
    from there, then lam walked down from 10^_LAM_WALK_DECADES times its
    value, a quarter decade per step.  It returns its last state, ``iters``
    summed over its solves."""
    states = [(yield spec, start)]
    if not states[-1].converged and start is not None:
        states.append((yield spec, None))
    ladder = [spec]
    while not states[-1].converged and ladder[-1].alpha > 0:
        alpha = ladder[-1].alpha
        ladder.append(spec.with_alpha(alpha / 10.0 if alpha > 1.0 else 0.0))
        states.append((yield ladder[-1], None))
    for point in ladder[-2::-1]:
        states.append((yield point, states[-1]))
    if not states[-1].converged:
        start = None
        for k in range(4 * _LAM_WALK_DECADES, -1, -1):
            start = yield replace(spec, lam=spec.lam * 10.0 ** (k / 4)) if k else spec, start
            states.append(start)
    return replace(states[-1], iters=sum(state.iters for state in states))


def _sweep_solves(base, alphas):
    """The plan of ``base``'s warm-started sweep along ``alphas``: each
    point's ``_point_solves`` from its state at the alpha before (cold at
    the first), up to its first state that does not converge."""
    states = []
    for alpha in alphas:
        states.append((yield from _point_solves(base.with_alpha(alpha),
                                                states[-1] if states else None)))
        if not states[-1].converged:
            break
    return states


def _drive(plans, loss, config):
    """What each plan of ``plans`` returns, the plans run together: each
    round sends the pending solve of every unfinished plan, in plan order,
    through one ``_newton_solve``.  A solve from a root at alpha0 enters
    with eta2 scaled by max(1, alpha0) / max(1, alpha), which keeps alpha *
    eta2 past alpha = 1; the cold start (1, 1, w1 f0, w2 f0) has alpha0 = 0."""
    cfg = config or SolverConfig()
    if isinstance(loss, str):
        loss = loss_by_name(loss)
    f0 = loss.score(0.0)
    pending, results = {}, [None] * len(plans)

    def advance(k, state):
        try:
            pending[k] = plans[k].send(state)
        except StopIteration as done:
            results[k] = done.value

    for k in range(len(plans)):
        advance(k, None)
    while pending:
        due, pending = pending, {}
        points, starts = [], []
        for point, start in due.values():
            w1, w2 = point.class_weights()
            alpha0, x0 = _root(start) if start else (0.0, np.array([1.0, 1.0, w1 * f0, w2 * f0]))
            points.append(point)
            starts.append(x0 * np.array([1.0, 1.0, 1.0, max(1.0, alpha0) / max(1.0, point.alpha)]))
        found = _newton_solve(points, loss, starts, cfg.tol, cfg.max_iter)
        for k, point, solved in zip(due, points, found):
            advance(k, _state(point, loss, cfg.tol, *solved))
    return results


def solve_self_consistent(
    spec: cov.ProblemSpec, loss, config: SolverConfig | None = None,
    start: FixedPointState | None = None,
) -> FixedPointState:
    """Root of G(x) - x on x = (tau, gamma, eta1, eta2), certified to tol:
    ``solve_lockstep`` at the one point ``spec``."""
    return solve_lockstep([spec], loss, config, [start])[0]


def solve_lockstep(specs, loss, config: SolverConfig | None = None,
                   starts=None) -> list[FixedPointState]:
    """The root of G(x) - x at each point of ``specs``, points of one
    dimension, certified to tol, as each would be solved alone.

    ``loss`` is a loss model or its registry name, and ``starts`` holds,
    per point, a state solved at another point (typically the previous
    one of its sweep) or None.  Each point runs the one flat plan of
    ``_point_solves``: from its start (cold where it is None), cold, down
    the alpha ladder and back up, then the lam walk, until a solve of at
    most ``max_iter`` evaluations certifies.  The state is the last
    accepted x of the last solve, with the moments that evaluation
    formed, and ``iters`` counts the evaluations of all of them.  The
    plans of all points run in lockstep (``_drive``), fallbacks included,
    so each state is the one its point reaches in a batch of one.
    """
    starts = [None] * len(specs) if starts is None else list(starts)
    if len(starts) != len(specs):
        raise ValueError(f"{len(specs)} specs but {len(starts)} starts")
    return _drive([_point_solves(spec, start) for spec, start in zip(specs, starts)],
                  loss, config)


def solve_sweep(bases, alphas, loss, config: SolverConfig | None = None
                ) -> list[list[FixedPointState]]:
    """Per spec of ``bases``, points of one dimension, its states along
    ``alphas``: each point started from its base's state at the alpha
    before (cold at the first), the sweeps of all bases run in lockstep
    (``_drive``).  A base's list ends at its first state that does not
    converge."""
    return _drive([_sweep_solves(base, alphas) for base in bases], loss, config)


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
