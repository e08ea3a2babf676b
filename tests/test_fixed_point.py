"""Self-consistent solver: squared-loss closed form as the oracle,
plus structural invariants that hold for any convex loss."""

import dataclasses
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisonlab import covariance as cov
from poisonlab import fixed_point as fp
from poisonlab import population
from poisonlab import theory_squared as th
from poisonlab.losses import LogisticLoss, SquaredLoss, loss_by_name

# Logistic benchmark: iso, p=100, n=200, lam=0.5, phi=0.2, alpha=1.
# Values agree across tol in {1e-12, 5e-14} and nodes in {100, 200} to
# 13 digits.
LOGISTIC_H_MU = 0.29356017236599025
LOGISTIC_H_V = 0.13245108653833571
LOGISTIC_SIGMA_SQ = 0.2716646569031328

TIGHT = fp.SolverConfig(tol=1e-12)
# Nodes per segment of the closure map's rule.
NODES = len(fp._LEGENDRE[0])

# Logistic h_v on iso_spec(100, 200, alpha, 0.2, 0.5) at large alpha, from
# a damped fixed-point iteration run to tol = 1e-13 (a path-independent
# reference: it reached the root along a different path).
LOGISTIC_LARGE_ALPHA_H_V = {
    1e3: 0.010832242604035343,
    1e5: 0.00019456950583154244,
    1e6: 2.3858197270585407e-05,
}

# (h_mu, h_v) of the same problem at alphas where the true eta2 (1.5e-10
# and 1.5e-11) is at or below the default absolute tolerance, from an
# independent MINPACK hybrid Powell solve that agrees with its tol = 1e-13
# solve to the last bit.
LOGISTIC_SUB_TOL_ETA2 = {
    3e5: (0.4230442460264753, 7.183971616483784e-05),
    1e6: (0.4230442461386458, 2.3858197270252384e-05),
}


def iso_spec(p, n, alpha, phi, lam):
    return cov.ProblemSpec(
        cov=cov.IsotropicCovariance(p),
        mu=cov.basis_vector(p, 0),
        v=cov.basis_vector(p, 1),
        alpha=alpha,
        phi=phi,
        lam=lam,
        n=n,
    )


def eigen_spec(p, n, alpha, phi, lam, s_mu_sq=2.0, s_v_sq=0.5, norm_mu=1.0):
    model = cov.EigenPairCovariance(p, s_mu_sq=s_mu_sq, s_v_sq=s_v_sq)
    return cov.ProblemSpec(
        cov=model,
        mu=norm_mu * cov.basis_vector(p, 0),
        v=cov.basis_vector(p, 1),
        alpha=alpha,
        phi=phi,
        lam=lam,
        n=n,
    )


def spectrum_spec(p, n, alpha, phi, lam, seed=0):
    rng = np.random.default_rng(seed)
    mu = rng.standard_normal(p)
    v = rng.standard_normal(p)
    return cov.ProblemSpec(
        cov=cov.SpectrumCovariance(rng.uniform(0.25, 4.0, p)),
        mu=mu / np.linalg.norm(mu),
        v=v / np.linalg.norm(v),
        alpha=alpha,
        phi=phi,
        lam=lam,
        n=n,
    )


def generated_problems(seed, count):
    """The first ``count`` problems of a seeded family, at alpha = 0: p in
    [5, 200), n in [5, 400), eigenvalues log-uniform in [e^-2, e^2], a
    generic mu (norm 0.3 to 3) and unit v for even k and mu, v on e0, e1
    for odd k, phi in [0.01, 0.45) and lam log-uniform in [0.01, 3.2]."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        p = int(rng.integers(5, 200))
        n = int(rng.integers(5, 400))
        ev = np.exp(rng.uniform(-2.0, 2.0, p))
        if k % 2 == 0:
            g = rng.standard_normal(p)
            mu = rng.uniform(0.3, 3.0) * g / np.linalg.norm(g)
            v = rng.standard_normal(p)
            v /= np.linalg.norm(v)
        else:
            mu, v = rng.uniform(0.3, 3.0) * cov.basis_vector(p, 0), cov.basis_vector(p, 1)
        phi = rng.uniform(0.01, 0.45)
        lam = math.exp(rng.uniform(math.log(0.01), math.log(3.2)))
        yield cov.ProblemSpec(cov=cov.SpectrumCovariance(ev), mu=mu, v=v, alpha=0.0,
                              phi=phi, lam=lam, n=n)


def generated_problem(seed, k):
    return list(generated_problems(seed, k + 1))[k]


def solve(spec, loss, config=TIGHT):
    state = fp.solve_self_consistent(spec, loss, config)
    assert state.converged
    return state


def point_moments(spec, x):
    """``fp._moments`` at the one point ``spec``: (mom, c, m1, m2, h_v,
    sigma_sq, zeta) at x = (tau, gamma, eta1, eta2)."""
    return fp._member(fp._moments(fp._Points([spec]), np.array([x], dtype=float)), 0)


def closure_map(x, spec, loss, rule=None):
    """(G, J, rule) of ``fp._closure_map`` at the one point ``spec``."""
    g, jac, _, (used,) = fp._closure_map(np.array([x], dtype=float), fp._Points([spec]), loss,
                                         [rule])
    return g[0], jac[0], used


def newton_solve(spec, loss, start, tol, max_evals):
    """``fp._newton_solve`` of the one point ``spec``."""
    return fp._newton_solve([spec], loss, [start], tol, max_evals)[0]


def proxy_expected_norm_sq(state, spec):
    """E ||theta||^2 of the proxy, mbar' R^2 mbar + gamma tr[R^2 C] / n,
    summed over the eigenvalues of C."""
    ev = spec.cov.eigenvalues()
    r2 = 1.0 / (spec.lam + state.tau * ev) ** 2
    c = cov.mean_combination(state.eta1, state.eta2, spec.alpha)
    mbar = c[0] * spec.cov.to_eigenbasis(spec.mu) + c[1] * spec.cov.to_eigenbasis(spec.v)
    return float(r2 @ mbar**2) + state.gamma * float(r2 @ ev) / spec.n


class TestSquaredEquivalence:
    """With the squared loss the iteration must land on the closed form."""

    CASES = [
        iso_spec(40, 200, 0.0, 0.05, 0.1),
        iso_spec(100, 200, 1.0, 0.2, 0.5),
        iso_spec(110, 100, 7.5, 0.2, 1.0),
        eigen_spec(60, 120, 4.0, 0.1, 0.5),
        eigen_spec(90, 80, 0.5, 0.3, 0.2, s_mu_sq=0.7, s_v_sq=1.8, norm_mu=1.4),
    ]

    def test_matches_closed_form(self):
        for spec in self.CASES:
            state = solve(spec, "squared")
            scal = th.solve_tau(spec.cov, spec.lam, spec.n)
            h_mu, h_v = th.projections_exact(spec, scal)
            pred = fp.theory_predictions(state, alpha_test=1.0)
            assert state.tau == pytest.approx(scal.tau, rel=1e-10)
            assert pred.h_mu == pytest.approx(h_mu, rel=1e-10, abs=1e-13)
            assert pred.h_v == pytest.approx(h_v, rel=1e-10, abs=1e-13)

    @pytest.mark.parametrize("make", [iso_spec, eigen_spec, spectrum_spec])
    @pytest.mark.parametrize("phi", [0.05, 0.2])
    @pytest.mark.parametrize("lam", [0.1, 0.5])
    def test_matches_closed_form_over_alpha(self, make, phi, lam):
        """The default solver against the oracle up to alpha = 1e6, where
        the poisoned-component feedback grows like alpha^2; spectrum_spec
        is the generic geometry (mu and v off the eigenvectors)."""
        base = make(100, 200, 0.0, phi, lam)
        scal = th.solve_tau(base.cov, base.lam, base.n)
        for alpha in (0.0, 1.0, 10.0, 40.0, 100.0, 300.0, 1e3, 1e4, 1e5, 1e6):
            spec = base.with_alpha(alpha)
            state = solve(spec, "squared", fp.SolverConfig())
            h_mu, h_v = th.projections_exact(spec, scal)
            pred = fp.theory_predictions(state, alpha_test=1.0)
            assert pred.h_mu == pytest.approx(h_mu, rel=1e-8), alpha
            assert pred.h_v == pytest.approx(h_v, rel=1e-8, abs=1e-15), alpha

    def test_large_alpha_cost_does_not_depend_on_the_draw(self):
        """A cold solve at alpha = 1e3 on random p = 1000 spectra (mu and v
        unit eigendirections, the rest log-uniform in [0.25, 4]) takes at
        most 20 closure-map evaluations whatever the draw (12 or 13 on
        these); a hybrid Powell solve with an unbounded first step took
        from 27 to 4896 on these draws."""
        p = 1000
        for seed in range(8):
            rng = np.random.default_rng(seed)
            bulk = np.exp(rng.uniform(np.log(0.25), np.log(4.0), p - 2))
            ev = np.concatenate([[1.0, 1.0], bulk])
            spec = cov.ProblemSpec(
                cov=cov.SpectrumCovariance(ev), mu=cov.basis_vector(p, 0),
                v=cov.basis_vector(p, 1), alpha=1e3, phi=0.2, lam=0.5, n=2 * p,
            )
            state = solve(spec, "squared", fp.SolverConfig())
            assert state.iters <= 20, seed

    def test_loss_object_and_name_agree(self):
        spec = self.CASES[1]
        by_name = solve(spec, "squared")
        by_obj = solve(spec, SquaredLoss())
        assert by_name == by_obj
        assert by_name.loss_name == "squared"


class TestWholeAlphaRange:
    """Generated problems (``generated_problems``) certify up to alpha = 1e6
    in any geometry: a start keeps its trigger coefficient alpha * eta2."""

    DECADES = (0.0, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6)

    def test_generic_squared_points_certify_cold_at_1e6(self):
        for k, base in enumerate(generated_problems(2026, 150)):
            if k % 2:
                continue
            spec = base.with_alpha(1e6)
            state = fp.solve_self_consistent(spec, "squared")
            assert state.converged, k
            h_mu, h_v = th.projections_exact(spec, th.solve_tau(spec.cov, spec.lam, spec.n))
            pred = fp.theory_predictions(state, alpha_test=1.0)
            assert pred.h_mu == pytest.approx(h_mu, rel=1e-8), k
            assert pred.h_v == pytest.approx(h_v, rel=1e-8), k

    @pytest.mark.parametrize("k", [12, 66, 116])
    def test_logistic_warm_sweep_certifies_every_decade(self, k):
        base = generated_problem(10, k)
        state = None
        for alpha in self.DECADES:
            state = fp.solve_self_consistent(base.with_alpha(alpha), "logistic", None, state)
            assert state.converged, alpha


class TestTinyTrigger:
    """A trigger of 1e-8 to 5e-8 on the README geometry is a well-posed
    point: its predictions come back at the default tolerance, and for the
    squared loss they are the closed forms."""

    SPEC = cov.ProblemSpec(
        cov=cov.IsotropicCovariance(100), mu=1.5 * cov.basis_vector(100, 0),
        v=cov.basis_vector(100, 1), alpha=0.0, phi=0.2, lam=0.5, n=200,
    )

    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    @pytest.mark.parametrize("alpha", [1e-8, 2e-8, 5e-8])
    def test_predictions_at_a_tiny_trigger(self, loss, alpha):
        spec = self.SPEC.with_alpha(alpha)
        state = solve(spec, loss, fp.SolverConfig())
        pred = fp.theory_predictions(state, alpha_test=0.5)
        assert 0.0 < pred.h_v < 1e-6
        if loss == "squared":
            h_mu, h_v = th.projections_exact(spec, th.solve_tau(spec.cov, spec.lam, spec.n))
            assert pred.h_mu == pytest.approx(h_mu, rel=1e-8)
            assert pred.h_v == pytest.approx(h_v, rel=1e-8)


class TestStructuralInvariants:
    SPECS = [
        (iso_spec(100, 200, 1.0, 0.2, 0.5), "logistic"),
        (iso_spec(100, 200, 1.0, 0.2, 0.5), "squared"),
        (eigen_spec(80, 160, 5.0, 0.1, 0.1), "logistic"),
        (iso_spec(210, 200, 12.0, 0.05, 1.0), "logistic"),
    ]

    def test_scalar_ranges(self):
        for spec, loss in self.SPECS:
            state = solve(spec, loss)
            assert 0.0 < state.tau <= 1.0
            assert state.gamma > 0.0
            assert state.eta1 > 0.0
            assert state.eta2 >= 0.0
            assert state.delta > 0.0
            assert state.sigma_sq > 0.0
            assert state.residual <= TIGHT.tol

    def test_margin_projection_identities(self):
        # m1 is the mean alignment itself; m2 folds the trigger response:
        # m2 = alpha * h_v - m1.  Both must survive the recomputation of
        # the projections from the mean combination.
        for spec, loss in self.SPECS:
            state = solve(spec, loss)
            pred = fp.theory_predictions(state, alpha_test=0.5)
            assert pred.h_mu == pytest.approx(state.m1, rel=1e-9, abs=1e-12)
            assert pred.h_v == pytest.approx(
                (state.m1 + state.m2) / spec.alpha, rel=1e-9
            )

    def test_variance_dominates_noise_floor(self):
        for spec, loss in self.SPECS:
            state = solve(spec, loss)
            pred = fp.theory_predictions(state, alpha_test=0.5)
            assert pred.zeta > 0.0
            assert pred.sigma_sq >= pred.zeta

    def test_proxy_norm_within_objective_bound(self):
        # theta = 0 is feasible, so lam/2 ||theta||^2 <= L(0) at the
        # optimum; the proxy second moment must respect the same bound.
        for spec, loss in self.SPECS:
            state = solve(spec, loss)
            at_zero = math.log(2.0) if loss == "logistic" else 0.5
            assert proxy_expected_norm_sq(state, spec) <= 2 * at_zero / spec.lam

    def test_predictions_are_probabilities(self):
        spec, loss = self.SPECS[0]
        state = solve(spec, loss)
        for alpha_test in (0.0, 0.5, 3.0):
            pred = fp.theory_predictions(state, alpha_test)
            assert 0.0 < pred.clean_acc < 1.0
            assert 0.0 < pred.asr < 1.0
            assert pred.alpha_test == alpha_test


class TestLogisticBehavior:
    def test_frozen_benchmark(self):
        spec = iso_spec(100, 200, 1.0, 0.2, 0.5)
        state = solve(spec, "logistic")
        pred = fp.theory_predictions(state, alpha_test=1.0)
        assert pred.h_mu == pytest.approx(LOGISTIC_H_MU, rel=1e-10)
        assert pred.h_v == pytest.approx(LOGISTIC_H_V, rel=1e-10)
        assert pred.sigma_sq == pytest.approx(LOGISTIC_SIGMA_SQ, rel=1e-10)

    def test_clean_problem_has_no_trigger_alignment(self):
        spec = iso_spec(60, 120, 3.0, 0.0, 0.5)
        state = solve(spec, "logistic")
        assert state.eta2 == 0.0
        pred = fp.theory_predictions(state, alpha_test=1.0)
        assert pred.h_v == pytest.approx(0.0, abs=1e-15)

    def test_zero_magnitude_trigger_is_invisible(self):
        spec = iso_spec(60, 120, 0.0, 0.2, 0.5)
        state = solve(spec, LogisticLoss())
        assert cov.mean_combination(state.eta1, state.eta2, spec.alpha)[1] == 0.0
        assert abs(fp.theory_predictions(state, alpha_test=1.0).h_v) <= 1e-15
        # Label flipping alone still hurts the mean channel.
        clean = solve(iso_spec(60, 120, 0.0, 0.0, 0.5), "logistic")
        assert state.m1 < clean.m1

    def test_node_count_independence(self, monkeypatch):
        """The root on a rule of twice the nodes per segment moves m1 and m2
        by < 1e-9."""
        spec = iso_spec(100, 200, 1.0, 0.2, 0.5)
        a = solve(spec, "logistic")
        monkeypatch.setattr(fp, "_LEGENDRE", np.polynomial.legendre.leggauss(2 * NODES))
        residual, x, _, _ = newton_solve(spec, LogisticLoss(), fp._root(a)[1],
                                         TIGHT.tol, TIGHT.max_iter)
        assert residual <= TIGHT.tol
        _, _, m1, m2, _, _, _ = point_moments(spec, x)
        assert a.m1 == pytest.approx(m1, rel=1e-9)
        assert a.m2 == pytest.approx(m2, rel=1e-9)

    def test_small_lam_point_is_resolved(self, monkeypatch):
        """lam = 1e-4, the paper's CIFAR-like regime, where delta = 321 and
        sigma = 28 at alpha = 0: the 100-node Gauss-Hermite rule certified
        h_mu = 7.1144 there.  h_mu is pinned to 1e-8, and twice the nodes
        per segment move it at alpha 0 and 1 by less than 1e-10."""
        specs = {alpha: iso_spec(100, 200, alpha, 0.2, 1e-4) for alpha in (0.0, 1.0)}
        h_mu = {alpha: solve(spec, "logistic").m1 for alpha, spec in specs.items()}
        assert h_mu[0.0] == pytest.approx(7.56680036, rel=1e-8)
        monkeypatch.setattr(fp, "_LEGENDRE", np.polynomial.legendre.leggauss(2 * NODES))
        for alpha, spec in specs.items():
            assert solve(spec, "logistic").m1 == pytest.approx(h_mu[alpha], rel=1e-10), alpha

    def test_large_trigger_converges(self):
        spec = iso_spec(100, 200, 50.0, 0.1, 0.5)
        state = solve(spec, "logistic")
        pred = fp.theory_predictions(state, alpha_test=0.5)
        assert pred.h_v > 0.0
        assert pred.h_mu > 0.0

    def test_extreme_trigger_clamps_poisoned_component(self):
        """At alpha = 1e6 trial points of the solve put the poisoned
        margin mean past ETA2_CLAMP_MEAN, yet the solved m2 is about 23 and
        eta2 is below absolute tolerance; the solve must converge and
        ``eta2_clamped`` must describe the returned state."""
        spec = iso_spec(100, 200, 1e6, 0.2, 0.5)
        state = fp.solve_self_consistent(spec, "logistic", fp.SolverConfig())
        assert state.converged
        assert state.eta2_clamped == (state.m2 > fp.ETA2_CLAMP_MEAN)
        assert 0.0 <= state.eta2 <= fp.SolverConfig().tol
        assert math.isfinite(state.sigma_sq)
        # The clean channel is still resolved to full accuracy.
        assert state.m1 > 0.0 and math.isfinite(state.m1)
        # Below ETA2_CLAMP_MEAN the poisoned channel reaches the same
        # fixed point as a solve along another path.
        for alpha, h_v in LOGISTIC_LARGE_ALPHA_H_V.items():
            spec = iso_spec(100, 200, alpha, 0.2, 0.5)
            state = solve(spec, "logistic", fp.SolverConfig())
            pred = fp.theory_predictions(state, alpha_test=1.0)
            assert pred.h_v == pytest.approx(h_v, rel=1e-6), alpha

    def test_sub_tolerance_eta2_is_resolved(self):
        """A certificate at tol = 1e-10 admits an eta2 error as large as eta2
        itself here; the solve must still pin h_mu and h_v."""
        config = fp.SolverConfig()
        for alpha, (h_mu, h_v) in LOGISTIC_SUB_TOL_ETA2.items():
            spec = iso_spec(100, 200, alpha, 0.2, 0.5)
            state = fp.solve_self_consistent(spec, "logistic", config)
            assert state.converged
            assert 0.0 < state.eta2 < 2.0 * config.tol
            pred = fp.theory_predictions(state, alpha_test=1.0)
            assert pred.h_mu == pytest.approx(h_mu, rel=1e-8), alpha
            assert pred.h_v == pytest.approx(h_v, rel=1e-8), alpha

    def test_clamp_flag_describes_returned_state(self):
        """The solve at alpha = 1e3 passes trial points past
        ETA2_CLAMP_MEAN, but its solved m2 is about 10, so the flag must
        stay down."""
        spec = iso_spec(100, 200, 1e3, 0.2, 0.5)
        state = fp.solve_self_consistent(spec, "logistic", fp.SolverConfig())
        assert state.converged
        assert state.m2 < fp.ETA2_CLAMP_MEAN
        assert state.eta2_clamped is False

    def test_solved_m2_past_the_flag_mean(self):
        """A generic geometry whose warm logistic sweep returns m2 of about
        3085 at alpha = 1e4: the point certifies, the flag is up, and h_mu
        and h_v hold to 1e-12."""
        p = 40
        rng = np.random.default_rng(1)
        ev = np.exp(rng.uniform(-1.0, 1.0, p))
        mu = rng.standard_normal(p) / math.sqrt(p)
        v = mu / np.linalg.norm(mu) + 0.5 * rng.standard_normal(p) / math.sqrt(p)
        base = cov.ProblemSpec(cov=cov.SpectrumCovariance(ev), mu=mu, v=v / np.linalg.norm(v),
                               alpha=0.0, phi=0.2, lam=0.5, n=80)
        state = None
        for alpha in (1.0, 10.0, 100.0, 1e3, 1e4):
            state = fp.solve_self_consistent(base.with_alpha(alpha), "logistic", None, state)
            assert state.converged, alpha
        assert state.m2 > 4 * fp.ETA2_CLAMP_MEAN
        assert state.eta2_clamped is True
        pred = fp.theory_predictions(state, alpha_test=1.0)
        assert pred.h_mu == pytest.approx(0.24348141052451455, rel=1e-12)
        assert pred.h_v == pytest.approx(0.3084947065635055, rel=1e-12)


class TestContinuation:
    """A solve started from a neighbouring root lands on the cold root."""

    GRID = (0.0, 0.1, 1.0, 5.0, 30.0, 200.0, 1e3)

    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    def test_warm_sweep_matches_cold_points_for_fewer_evaluations(self, loss):
        base = spectrum_spec(200, 400, 0.0, 0.2, 0.5)
        start = None
        warm_iters = cold_iters = 0
        for alpha in self.GRID:
            spec = base.with_alpha(alpha)
            cold = solve(spec, loss)
            warm = fp.solve_self_consistent(spec, loss, TIGHT, start)
            assert warm.converged
            start = warm
            for name in ("tau", "gamma", "eta1", "eta2", "sigma_sq"):
                assert getattr(warm, name) == pytest.approx(
                    getattr(cold, name), rel=1e-9, abs=1e-15
                ), (alpha, name)
            warm_iters += warm.iters
            cold_iters += cold.iters
        assert warm_iters < cold_iters

    def test_warm_eigen_grid_points_cost_no_more_than_cold(self):
        """The doubling logistic grid of the benchmark's eigen_sweep: every
        warm point takes no more closure-map evaluations than a cold solve
        of the same point, and each table fewer in all."""
        alphas = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
        for s_v_sq in (0.25, 0.5, 1.0, 2.0, 4.0):
            base = eigen_spec(1000, 2000, 0.0, 0.2, 0.5, s_mu_sq=1.0, s_v_sq=s_v_sq)
            config = fp.SolverConfig()
            start = fp.solve_self_consistent(base.with_alpha(alphas[0]), "logistic")
            warm_total = cold_total = 0
            for alpha in alphas[1:]:
                spec = base.with_alpha(alpha)
                warm = fp.solve_self_consistent(spec, "logistic", config, start)
                cold = fp.solve_self_consistent(spec, "logistic", config)
                assert warm.converged and cold.converged
                assert warm.iters <= cold.iters, (s_v_sq, alpha)
                warm_total += warm.iters
                cold_total += cold.iters
                start = warm
            assert warm_total < cold_total, s_v_sq

    def test_evaluation_counts_ignore_last_bit_changes(self):
        """A one-ulp change of lam moves the roots by rounding only, and
        must leave every point's evaluation count as it is."""
        counts = []
        for lam in (0.5, math.nextafter(0.5, 1.0), math.nextafter(0.5, 0.0)):
            base = eigen_spec(1000, 2000, 0.0, 0.2, lam, s_mu_sq=1.0, s_v_sq=2.0)
            state, iters = None, []
            for alpha in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0):
                state = fp.solve_self_consistent(base.with_alpha(alpha), "logistic", None, state)
                iters.append(state.iters)
            counts.append(iters)
        assert counts[1] == counts[0] and counts[2] == counts[0]

    def test_far_off_start_certifies_through_the_fallback(self, monkeypatch):
        spec = iso_spec(100, 200, 1e3, 0.2, 0.5)
        far = replace(solve(spec, "squared"), tau=0.7, gamma=1.0, eta1=0.4, eta2=10.0)
        residual, _, _, _ = newton_solve(spec, SquaredLoss(), fp._root(far)[1],
                                         TIGHT.tol, TIGHT.max_iter)
        assert residual > TIGHT.tol
        attempts = []
        lockstep = fp._newton_solve

        def counting_solve(points, *args):
            attempts.extend(point.alpha for point in points)
            return lockstep(points, *args)

        monkeypatch.setattr(fp, "_newton_solve", counting_solve)
        state = fp.solve_self_consistent(spec, "squared", TIGHT, far)
        assert state.converged
        assert len(attempts) > 1
        h_mu, h_v = th.projections_exact(spec, th.solve_tau(spec.cov, spec.lam, spec.n))
        pred = fp.theory_predictions(state, alpha_test=1.0)
        assert pred.h_mu == pytest.approx(h_mu, rel=1e-8)
        assert pred.h_v == pytest.approx(h_v, rel=1e-8)

    def test_cold_stall_certifies_through_the_alpha_walk(self, monkeypatch):
        """The cold logistic solve of this generated problem (p = 7, n = 158)
        stalls at alpha = 1e6, 1e5 and 1e4 and certifies at 1e3; each decade
        above is continued from the root below it, at lam throughout, onto
        the h_v of a tol = 1e-12 warm sweep."""
        base = generated_problem(8, 130)
        spec = base.with_alpha(1e6)
        solves = []
        lockstep = fp._newton_solve

        def recording_solve(points, *args):
            found = lockstep(points, *args)
            solves.extend((point.alpha, point.lam, residual, evals)
                          for point, (residual, _, evals, _) in zip(points, found))
            return found

        monkeypatch.setattr(fp, "_newton_solve", recording_solve)
        state = fp.solve_self_consistent(spec, "logistic")
        monkeypatch.undo()
        assert state.converged
        tol = fp.SolverConfig().tol
        assert [a for a, _, _, _ in solves] == [1e6, 1e5, 1e4, 1e3, 1e4, 1e5, 1e6]
        assert all(r > tol for _, _, r, _ in solves[:3])
        assert all(r <= tol for _, _, r, _ in solves[3:])
        assert all(lam == spec.lam for _, lam, _, _ in solves)
        # iters counts the evaluations of every solve, those below alpha too.
        assert state.iters == sum(evals for _, _, _, evals in solves)
        warm = None
        for alpha in (0.0, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6):
            warm = fp.solve_self_consistent(base.with_alpha(alpha), "logistic", TIGHT, warm)
            assert warm.converged, alpha
        h_v = fp.theory_predictions(state, alpha_test=1.0).h_v
        want = fp.theory_predictions(warm, alpha_test=1.0).h_v
        assert h_v == pytest.approx(want, rel=1e-8)

    def test_strong_mean_certifies_through_the_ridge_walk(self, monkeypatch):
        """|mu| = 4 puts the logistic margins deep in the flat tails of f at
        the cold start, and at alpha = 0 there is no alpha walk; the walk
        down in lam certifies the point, at the h_mu of a hybrid Powell
        solve of it."""
        spec = cov.ProblemSpec(
            cov=cov.IsotropicCovariance(100), mu=4.0 * cov.basis_vector(100, 0),
            v=cov.basis_vector(100, 1), alpha=0.0, phi=0.2, lam=0.05, n=200,
        )
        lams = []
        lockstep = fp._newton_solve

        def recording_solve(points, *args):
            lams.extend(point.lam for point in points)
            return lockstep(points, *args)

        monkeypatch.setattr(fp, "_newton_solve", recording_solve)
        state = fp.solve_self_consistent(spec, "logistic")
        assert state.converged
        assert lams[0] == lams[-1] == spec.lam
        assert lams[1] == pytest.approx(10.0**fp._LAM_WALK_DECADES * spec.lam)
        pred = fp.theory_predictions(state, alpha_test=1.0)
        assert pred.h_mu == pytest.approx(1.7429522054512352, rel=1e-9)

    def test_warm_sweep_past_the_clamp(self, monkeypatch):
        """Trial points of this sweep put the poisoned margin mean past
        ETA2_CLAMP_MEAN; every point certifies, its flag describes the
        returned state, h_v matches the path-independent references, and
        every rule that an evaluation builds integrates both components."""
        rows = []
        anchor_rule = fp.anchor_rule

        def recording_rule(loss, delta, means, sigma):
            rows.append(len(means))
            return anchor_rule(loss, delta, means, sigma)

        monkeypatch.setattr(fp, "anchor_rule", recording_rule)
        state = None
        config = fp.SolverConfig()
        for alpha, h_v in LOGISTIC_LARGE_ALPHA_H_V.items():
            spec = iso_spec(100, 200, alpha, 0.2, 0.5)
            state = fp.solve_self_consistent(spec, "logistic", config, state)
            assert state.converged
            assert state.eta2_clamped == (state.m2 > fp.ETA2_CLAMP_MEAN)
            pred = fp.theory_predictions(state, alpha_test=1.0)
            assert pred.h_v == pytest.approx(h_v, rel=1e-6), alpha
        assert set(rows) == {2}

    def test_a_point_that_certifies_nowhere_walks_lam_at_itself_only(self, monkeypatch):
        """With max_iter = 1 no solve of this squared point at alpha = 1e6
        certifies.  The alpha ladder makes two one-evaluation solves, cold
        and from below, at each of 1e6, 1e5, ..., 1 and one at 0; the lam
        walk adds its 13 rungs at 1e6 alone: 28 solves in all."""
        spec = iso_spec(30, 60, 1e6, 0.2, 0.5)
        solves = []
        lockstep = fp._newton_solve

        def recording_solve(points, *args):
            solves.extend((point.alpha, point.lam) for point in points)
            return lockstep(points, *args)

        monkeypatch.setattr(fp, "_newton_solve", recording_solve)
        state = fp.solve_self_consistent(spec, "squared", fp.SolverConfig(max_iter=1))
        assert not state.converged
        assert state.iters == len(solves) == 28
        walked = [alpha for alpha, lam in solves if lam != spec.lam]
        assert walked == [spec.alpha] * (4 * fp._LAM_WALK_DECADES)

    @settings(max_examples=50, deadline=None)
    @given(
        kappa=st.floats(0.1, 2.0),
        lam=st.floats(0.05, 2.0),
        phi=st.floats(0.0, 0.5, exclude_max=True),
        log_alpha=st.floats(-2.0, 3.0),
        previous=st.sampled_from([None, 0.0, 1.0, 100.0]),
    )
    def test_squared_certified_states_satisfy_tau_identity(
        self, kappa, lam, phi, log_alpha, previous
    ):
        # For the squared loss f' = -1 / (1 + delta), so tau (1 + delta) = 1.
        base = spectrum_spec(60, round(60 / kappa), 0.0, phi, lam, seed=3)
        config = fp.SolverConfig()
        start = None
        if previous is not None:
            start = solve(base.with_alpha(previous), "squared", config)
        state = fp.solve_self_consistent(base.with_alpha(10.0**log_alpha), "squared",
                                         config, start)
        assert state.converged
        assert abs(state.tau * (1.0 + state.delta) - 1.0) <= 10 * config.tol


class TestReportedState:
    """A state reports the values of the evaluation that certified it:
    m1, m2, h_v, sigma_sq, zeta, delta and the moments equal ``_moments``
    recomputed at its (tau, gamma, eta1, eta2), bit for bit, on every path
    to a certificate."""

    @staticmethod
    def assert_reported_from_its_root(state, spec):
        assert state.converged
        mom, _, m1, m2, h_v, sigma_sq, zeta = point_moments(
            spec, [state.tau, state.gamma, state.eta1, state.eta2]
        )
        reported = (state.m1, state.m2, state.h_v, state.sigma_sq, state.zeta, state.delta)
        assert reported == (m1, m2, h_v, sigma_sq, zeta, mom.tr_cr)
        for got, want in zip(state.moments, mom):
            assert np.array_equal(got, want)

    @staticmethod
    def recorded_points(monkeypatch):
        points = []
        lockstep = fp._newton_solve

        def recording_solve(specs, *args):
            points.extend(specs)
            return lockstep(specs, *args)

        monkeypatch.setattr(fp, "_newton_solve", recording_solve)
        return points

    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    def test_warm_sweep(self, loss):
        base = spectrum_spec(200, 400, 0.0, 0.2, 0.5)
        state = None
        for alpha in TestContinuation.GRID:
            spec = base.with_alpha(alpha)
            state = fp.solve_self_consistent(spec, loss, None, state)
            self.assert_reported_from_its_root(state, spec)

    def test_cold_solve_continued_from_below(self, monkeypatch):
        """A generic geometry (p = 5, n = 315) whose cold logistic solve at
        1e6 certifies only from the root below it."""
        spec = generated_problem(10, 12).with_alpha(1e6)
        points = self.recorded_points(monkeypatch)
        state = fp.solve_self_consistent(spec, "logistic")
        assert min(point.alpha for point in points) < spec.alpha
        self.assert_reported_from_its_root(state, spec)

    def test_strong_mean_through_the_lam_walk(self, monkeypatch):
        spec = cov.ProblemSpec(
            cov=cov.IsotropicCovariance(100), mu=4.0 * cov.basis_vector(100, 0),
            v=cov.basis_vector(100, 1), alpha=0.0, phi=0.2, lam=0.05, n=200,
        )
        points = self.recorded_points(monkeypatch)
        state = fp.solve_self_consistent(spec, "logistic")
        assert max(point.lam for point in points) > spec.lam
        self.assert_reported_from_its_root(state, spec)

    def test_population_point(self):
        spec = population.PopulationParams(
            norm_mu=1.0, s_mu_sq=1.0, s_v_sq=0.5, lam=0.1, phi=0.2, alpha=5.0,
        ).spec
        assert spec.n == math.inf
        state = fp.solve_self_consistent(spec, "logistic", fp.SolverConfig(population.GRAD_TOL))
        assert state.zeta == 0.0
        self.assert_reported_from_its_root(state, spec)


def state_bits(state):
    """Every field of a state, floats as hex and the moments as bytes, so
    that equal bits compare equal and nothing else does."""
    fields = [getattr(state, f.name) for f in dataclasses.fields(state) if f.name != "moments"]
    return ([v.hex() if isinstance(v, float) else v for v in fields],
            [np.asarray(form).tobytes() for form in state.moments])


class TestLockstep:
    """A point solved in a lockstep batch (``solve_lockstep``) ends where
    its lone solve ends: every field of its state, ``iters`` included,
    bit for bit, whatever else shares its batch."""

    @staticmethod
    def padded_rounds(monkeypatch):
        """A list that fills with each round whose rules differ in width,
        whose nodes ``_stack_nodes`` pads."""
        padded, stack_nodes = [], fp._stack_nodes

        def recording(rules, stack, stacked):
            widths = {rule.nodes.shape[-1] for rule in rules}
            if len(widths) > 1:
                padded.append(widths)
            return stack_nodes(rules, stack, stacked)

        monkeypatch.setattr(fp, "_stack_nodes", recording)
        return padded

    SWEEP_ALPHAS = (0.5, 2.0, 8.0, 1e3)

    @staticmethod
    def sweep_bases():
        return [eigen_spec(40, 80, 0.0, 0.2, 0.5, s_mu_sq=1.0, s_v_sq=s)
                for s in (0.25, 1.0, 4.0)]

    @staticmethod
    def lone_chain(base, alphas, loss):
        """The states of ``base`` along ``alphas``, each solved alone from
        the state at the alpha before."""
        states = []
        for alpha in alphas:
            states.append(fp.solve_self_consistent(base.with_alpha(alpha), loss, None,
                                                   states[-1] if states else None))
        return states

    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    def test_eigen_sweep_members_match_their_lone_solves(self, monkeypatch, loss):
        """An eigen_sweep's tables at p = 40 by ``solve_sweep``: alpha by
        alpha, each point started from its table's root at the alpha
        before."""
        padded = self.padded_rounds(monkeypatch)
        bases = self.sweep_bases()
        sweeps = fp.solve_sweep(bases, self.SWEEP_ALPHAS, loss)
        assert all(state.converged for states in sweeps for state in states)
        for base, states in zip(bases, sweeps):
            lone = self.lone_chain(base, self.SWEEP_ALPHAS, loss)
            assert [state_bits(s) for s in states] == [state_bits(s) for s in lone]
        if loss == "logistic":
            assert padded

    def test_a_sweep_ends_only_its_failed_base(self, monkeypatch):
        """The middle base's point at alpha = 2 is marked unconverged: its
        list ends at that state, and the other bases run the whole grid,
        each as its lone chain."""
        bases = self.sweep_bases()
        solve = fp.solve_lockstep

        def failing_solve(specs, loss, config, starts):
            return [replace(state, converged=not (spec.cov is bases[1].cov and spec.alpha == 2.0))
                    for spec, state in zip(specs, solve(specs, loss, config, starts))]

        monkeypatch.setattr(fp, "solve_lockstep", failing_solve)
        sweeps = fp.solve_sweep(bases, self.SWEEP_ALPHAS, "logistic")
        monkeypatch.undo()
        assert [len(states) for states in sweeps] == [4, 2, 4]
        assert not sweeps[1][-1].converged and sweeps[1][-1].alpha == 2.0
        for k in (0, 2):
            lone = self.lone_chain(bases[k], self.SWEEP_ALPHAS, "logistic")
            assert [state_bits(s) for s in sweeps[k]] == [state_bits(s) for s in lone]

    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    def test_population_batch_matches_its_lone_solves(self, loss):
        """The population mode's cold batch: the benign point and the grid."""
        params = population.PopulationParams(norm_mu=1.0, s_mu_sq=1.0, s_v_sq=0.5, lam=0.5,
                                             phi=0.2, alpha=0.0, loss=loss)
        specs = [population.benign_params(params).spec] + [
            params.with_alpha(alpha).spec for alpha in (0.0, 0.1, 1.0, 10.0, 100.0, 1e3)]
        config = fp.SolverConfig(tol=population.GRAD_TOL)
        batch = fp.solve_lockstep(specs, loss, config)
        lone = [fp.solve_self_consistent(spec, loss, config) for spec in specs]
        assert all(state.converged for state in batch)
        assert [state_bits(s) for s in batch] == [state_bits(s) for s in lone]

    def test_a_singular_newton_system_fails_only_its_own_row(self):
        """The stacked solve of a round's Newton systems: a singular system
        gives its solve a NaN step, which stops that solve alone."""
        a = np.stack([np.eye(4), np.zeros((4, 4)), 2.0 * np.eye(4)])
        b = np.arange(12.0).reshape(3, 4)
        step = fp._linear_solve(a, b)
        assert np.array_equal(step[0], b[0]) and np.array_equal(step[2], 0.5 * b[2])
        assert np.isnan(step[1]).all()

    @pytest.mark.parametrize("fallback, others", [
        # A cold solve that stalls at 1e6, 1e5 and 1e4: the alpha ladder.
        (generated_problem(8, 130).with_alpha(1e6),
         [generated_problem(8, 130).with_alpha(alpha) for alpha in (0.0, 1.0, 10.0)]),
        # A strong mean that certifies only along the lam walk.
        (cov.ProblemSpec(cov=cov.IsotropicCovariance(100), mu=4.0 * cov.basis_vector(100, 0),
                         v=cov.basis_vector(100, 1), alpha=0.0, phi=0.2, lam=0.05, n=200),
         [iso_spec(100, 200, alpha, 0.2, 0.05) for alpha in (0.0, 1.0, 10.0)]),
    ])
    def test_a_fallback_member_leaves_the_batch(self, monkeypatch, fallback, others):
        """The member that does not certify from its start runs the rest
        of its fallback as a batch of one, after the lockstep solve; it
        and every other member end as their lone solves do."""
        specs = [others[0], fallback, *others[1:]]
        batches = []
        lockstep = fp._newton_solve

        def recording_solve(points, *args):
            batches.append(list(points))
            return lockstep(points, *args)

        monkeypatch.setattr(fp, "_newton_solve", recording_solve)
        batch = fp.solve_lockstep(specs, "logistic")
        monkeypatch.undo()
        assert batches[0] == specs
        assert len(batches) > 1 and all(len(points) == 1 for points in batches[1:])
        # The later solves are the fallback's: its ladder or its lam walk.
        assert all(point.mu is fallback.mu for (point,) in batches[1:])
        lone = [fp.solve_self_consistent(spec, "logistic") for spec in specs]
        assert all(state.converged for state in batch)
        assert [state_bits(s) for s in batch] == [state_bits(s) for s in lone]


class TestRuleReuse:
    """A solve weighs G on the rule of its previous evaluation while that
    rule ``covers`` the new margins, and builds a rule only otherwise."""

    @staticmethod
    def recorded(monkeypatch):
        """Lists that fill with each closure-map evaluation's (x, spec, rule
        passed in, rule used), one per active point of a lockstep round,
        and with each rule built."""
        evaluations, built = [], []
        closure_map, anchor_rule = fp._closure_map, fp.anchor_rule

        def recording_map(x, points, loss, rules, active=None):
            found = closure_map(x, points, loss, rules, active)
            for k in range(len(x)) if active is None else active:
                evaluations.append((x[k].copy(), points.specs[k], rules[k], found[3][k]))
            return found

        def recording_rule(*args):
            built.append(args)
            return anchor_rule(*args)

        monkeypatch.setattr(fp, "_closure_map", recording_map)
        monkeypatch.setattr(fp, "anchor_rule", recording_rule)
        return evaluations, built

    def test_warm_readme_sweep_builds_fewer_rules_than_evaluations(self, monkeypatch):
        # The README's theory example: isotropic p = 100, n = 200.
        evaluations, built = self.recorded(monkeypatch)
        state = None
        for alpha in (0.0, 0.5, 1.0, 2.0, 4.0):
            state = fp.solve_self_consistent(iso_spec(100, 200, alpha, 0.2, 0.5), "logistic",
                                             None, state)
            assert state.converged
        assert 0 < len(built) < len(evaluations)

    @pytest.mark.parametrize("loss, alphas", [
        ("squared", TestContinuation.GRID),
        ("logistic", TestContinuation.GRID),
        ("logistic", tuple(LOGISTIC_LARGE_ALPHA_H_V)),
    ])
    def test_certified_states_come_from_covering_rules(self, monkeypatch, loss, alphas):
        """The evaluation that certified each point of a warm sweep used a
        rule whose breaks are the loss's at its delta and whose every edge
        e has |e + delta L'(e) - (M + k sigma)| <= _EDGE_SLACK sigma."""
        model = loss_by_name(loss)
        evaluations, _ = self.recorded(monkeypatch)
        state = None
        for alpha in alphas:
            spec = iso_spec(100, 200, alpha, 0.2, 0.5)
            state = fp.solve_self_consistent(spec, model, None, state)
            assert state.converged
            root = fp._root(state)[1]
            rule = [used for x, point, _, used in evaluations
                    if point is spec and np.array_equal(x, root)][-1]
            assert rule.breaks == model.breaks(state.delta)
            sigma = math.sqrt(state.sigma_sq)
            margins = np.array([[state.m1], [state.m2]]) + sigma * np.array(fp._EDGE_Z)
            edges = np.array(rule.edges)
            drift = edges + state.delta * model.deriv(edges) - margins
            assert np.abs(drift).max() <= fp._EDGE_SLACK * sigma, alpha

    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    def test_an_edge_past_the_slack_forces_a_rebuild(self, loss):
        """A rule anchored with the clean mean moved by just under the slack
        is reused at a root, and one moved by just over it is rebuilt."""
        model = loss_by_name(loss)
        spec = iso_spec(100, 200, 1.0, 0.2, 0.5)
        x = fp._root(solve(spec, loss))[1]
        mom, _, m1, m2, _, sigma_sq, _ = point_moments(spec, x)
        sigma = math.sqrt(sigma_sq)
        for shift, kept in ((0.99, True), (-0.99, True), (1.01, False), (-1.01, False)):
            rule = fp.anchor_rule(model, mom.tr_cr, (m1 + shift * fp._EDGE_SLACK * sigma, m2),
                                  sigma)
            used = closure_map(x, spec, model, rule)[2]
            assert (used is rule) == kept, shift

    def test_a_changed_logistic_break_set_forces_a_rebuild(self):
        """Past delta = e^10 the logistic breaks take +-log delta: a rule from
        below is not reused above, nor one from above at another delta, while
        every edge moves by far less than the slack."""
        loss, means, sigma = LogisticLoss(), (0.0, 5.0), 200.0
        below = fp.anchor_rule(loss, 22000.0, means, sigma)
        assert below.covers(22020.0, means, sigma)
        assert not below.covers(22100.0, means, sigma)
        above = fp.anchor_rule(loss, 1e5, means, sigma)
        assert above.covers(1e5, means, sigma)
        assert not above.covers(1e5 * (1.0 + 1e-9), means, sigma)


class TestWorstTriggerDirection:
    """The minimum eigenvector of C is the worst trigger when mu is an
    eigendirection (eps = mu' R v = 0 for every other eigenvector v), but
    not for a generic mu: here the 5th-smallest eigenvector, whose
    overlap |u' mu| is 0.105 against 0.013, gives the higher attack
    success."""

    @staticmethod
    def spec(k, alpha):
        p = 200
        a = np.random.default_rng(3).standard_normal((p, 2 * p))
        c = a @ a.T / (2 * p) + 0.05 * np.eye(p)
        mu = 1.5 * np.random.default_rng(11).standard_normal(p) / math.sqrt(p)
        return cov.ProblemSpec(cov=cov.DenseCovariance(c), mu=mu, v=np.linalg.eigh(c)[1][:, k],
                               alpha=alpha, phi=0.2, lam=0.5, n=400)

    @pytest.mark.parametrize("alpha, asr_min, asr_fifth", [(1.0, 0.4140, 0.4213),
                                                           (4.0, 0.9597, 0.9661)])
    def test_minimum_eigenvector_is_not_the_worst_for_a_generic_mean(
        self, alpha, asr_min, asr_fifth
    ):
        asr = []
        for k in (0, 4):
            spec = self.spec(k, alpha)
            asr.append(fp.theory_predictions(solve(spec, "squared"), alpha).asr)
        assert asr == pytest.approx([asr_min, asr_fifth], abs=1e-4)
        assert asr[1] > asr[0]


    def test_minimum_eigenvector_is_the_worst_for_an_eigen_mean(self):
        """Claim (iii) at alpha = alpha_test, squared loss: with mu = c e_j,
        the trigger e_k of the smallest eigenvalue among k != j gives
        the highest attack success up to 1e-5.  Seeded cases, each solve
        checked against the closed form.  (With the training alpha and
        alpha_test drawn apart the claim fails in about 40% of cases.)"""
        rng = np.random.default_rng(1)
        for _ in range(200):
            p = int(rng.integers(3, 13))
            ev = np.exp(rng.uniform(-2.0, 2.0, p))
            j = int(rng.integers(p))
            mu = rng.uniform(0.5, 2.0) * cov.basis_vector(p, j)
            n = int(rng.integers(p, 4 * p + 1))
            phi = rng.uniform(0.05, 0.45)
            lam = math.exp(rng.uniform(math.log(0.05), math.log(2.0)))
            alpha = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
            model = cov.SpectrumCovariance(ev)
            asr = {}
            for k in range(p):
                if k == j:
                    continue
                spec = cov.ProblemSpec(cov=model, mu=mu, v=cov.basis_vector(p, k),
                                       alpha=alpha, phi=phi, lam=lam, n=n)
                pred = fp.theory_predictions(solve(spec, "squared", fp.SolverConfig()), alpha)
                _, h_v = th.projections_exact(spec, th.solve_tau(model, lam, n))
                assert pred.h_v == pytest.approx(h_v, abs=1e-8)
                asr[k] = pred.asr
            weakest = min(asr, key=lambda k: ev[k])
            assert asr[weakest] >= max(asr.values()) - 1e-5


class TestJacobian:
    @staticmethod
    def jacobian_gaps(x, spec, model):
        """G at x, the analytic Jacobian, each row's largest gap to central
        differences of G on the rule built at x, and each difference row's
        largest entry."""
        g, jac, rule = closure_map(x, spec, model)
        fd = np.empty((4, 4))
        with pytest.MonkeyPatch.context() as patch:
            # Past the clamp a step in eta2 moves m2 by more than the slack.
            patch.setattr(fp.AnchoredRule, "covers", lambda *args: True)
            for j in range(4):
                e = np.zeros(4)
                e[j] = 1e-5 * abs(x[j])
                hi = closure_map(x + e, spec, model, rule)[0]
                lo = closure_map(x - e, spec, model, rule)[0]
                fd[:, j] = (hi - lo) / (2.0 * e[j])
        return g, jac, np.abs(jac - fd).max(axis=1), np.abs(fd).max(axis=1)

    @settings(max_examples=50, deadline=None)
    @given(
        loss=st.sampled_from(["squared", "logistic"]),
        lam=st.floats(0.1, 2.0),
        phi=st.floats(0.05, 0.45),
        log_alpha=st.floats(-1.0, 2.0),
        shift=st.lists(st.floats(-0.05, 0.05), min_size=4, max_size=4),
    )
    def test_matches_central_differences(self, loss, lam, phi, log_alpha, shift):
        """The analytic Jacobian of G, tau row included, against central
        differences of G at states within 5% of a root, each row to 1e-7 of
        its largest entry."""
        spec = spectrum_spec(40, 80, 10.0**log_alpha, phi, lam, seed=5)
        model = loss_by_name(loss)
        root = fp._root(solve(spec, loss, fp.SolverConfig()))[1]
        _, _, gap, scale = self.jacobian_gaps(root * (1.0 + np.array(shift)), spec, model)
        assert np.all(gap <= 1e-7 * scale), gap / scale

    @pytest.mark.parametrize("root_alpha, alpha", [(1e3, 1e4), (1e4, 1e6)])
    def test_matches_central_differences_past_the_clamp(self, root_alpha, alpha):
        """A sweep's warm start from the root at the previous alpha puts the
        poisoned mean m2 past ETA2_CLAMP_MEAN, where the poisoned score
        underflows at every node and the eta2 row is 0; the Jacobian there
        still matches central differences."""
        spec = iso_spec(100, 200, root_alpha, 0.2, 0.5)
        x = fp._root(solve(spec, "logistic", fp.SolverConfig()))[1]
        spec = spec.with_alpha(alpha)
        m2 = point_moments(spec, x)[3]
        assert m2 > 1.5 * fp.ETA2_CLAMP_MEAN
        g, jac, gap, scale = self.jacobian_gaps(x, spec, loss_by_name("logistic"))
        assert g[3] == 0.0 and np.all(jac[3] == 0.0)
        assert np.all(gap <= 1e-7 * scale), (gap, scale)

    def test_matches_central_differences_at_a_wide_cold_start(self):
        """The logistic cold start at alpha = 1e3 puts sigma at about 67,
        where the score changes regime within a small fraction of sigma;
        the Stein-lemma tau row of the Gauss-Hermite map was 4.7e-6 there
        against differences of 4.9e-5.  Each row matches central
        differences to 1e-4 of its largest entry."""
        spec = iso_spec(100, 200, 1e3, 0.2, 0.5)
        x = np.array([1.0, 1.0, 0.4, 0.1])
        assert 60.0 < math.sqrt(point_moments(spec, x)[5]) < 70.0
        _, _, gap, scale = self.jacobian_gaps(x, spec, loss_by_name("logistic"))
        assert np.all(gap <= 1e-4 * scale), gap / scale


class TestConfigValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            fp.SolverConfig(tol=0.0)
        with pytest.raises(ValueError):
            fp.SolverConfig(tol=2.0)
        with pytest.raises(ValueError):
            fp.SolverConfig(max_iter=0)

    def test_unknown_loss_name_rejected(self):
        spec = iso_spec(20, 40, 1.0, 0.1, 0.5)
        with pytest.raises(ValueError):
            fp.solve_self_consistent(spec, "hinge")
