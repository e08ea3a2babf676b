"""Population (infinite-sample) minimizer in the two-coefficient plane.

The library solves the population problem as the fixed point at
n = inf; these tests check it against oracles that do not go through
that closure.  For the squared loss the population risk is an explicit
quadratic in (a, b), so a 2x2 linear solve is an exact oracle.  For the
logistic loss the minimizer is pinned by a Monte-Carlo-validated frozen
value and by finite differences of ``population_risk``, the regularized
risk integrated here with numpy's Gauss-Hermite rule.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisonlab import population as pop
from poisonlab.losses import loss_by_name

# Logistic benchmark geometry: ||mu|| = 1, s_mu^2 = s_v^2 = 1, lam = 0.1,
# phi = 0.2.  Minimizer at alpha = 1 cross-checked against a 4M-sample
# Monte Carlo argmin of the sampled risk (agreement to ~3e-5, the MC
# resolution) and against finite differences of the quadrature objective.
BENCH = dict(norm_mu=1.0, s_mu_sq=1.0, s_v_sq=1.0, lam=0.1, phi=0.2)
A_BENIGN_FROZEN = 1.00094506456144
A_AT_ONE_FROZEN = 0.5895820076863062
B_AT_ONE_FROZEN = 0.3525089025928585


def bench_params(alpha, **overrides):
    kw = dict(BENCH, alpha=alpha, loss="logistic")
    kw.update(overrides)
    return pop.PopulationParams(**kw)


def squared_oracle(params: pop.PopulationParams) -> tuple[float, float]:
    """Stationarity system of the quadratic risk, solved directly."""
    r = params.norm_mu**2
    phi, al, lam = params.phi, params.alpha, params.lam
    lhs = np.array(
        [
            [r + params.s_mu_sq + lam, -phi * al],
            [-phi * al * r, phi * al**2 + params.s_v_sq + lam],
        ]
    )
    rhs = np.array([1.0 - 2.0 * phi, phi * al])
    a, b = np.linalg.solve(lhs, rhs)
    return float(a), float(b)


def population_risk(a, b, params):
    """Regularized population risk at theta = a mu + b v: each class's
    margin is Gaussian with mean a ||mu||^2 (clean) or
    -a ||mu||^2 + b alpha (poisoned) and variance
    a^2 s_mu^2 ||mu||^2 + b^2 s_v^2."""
    loss = loss_by_name(params.loss)
    xi, w = np.polynomial.hermite_e.hermegauss(100)
    w = w / math.sqrt(2.0 * math.pi)
    r = params.norm_mu**2
    sigma = math.sqrt(a * a * params.s_mu_sq * r + b * b * params.s_v_sq)
    clean = float(w @ loss.value(a * r + sigma * xi))
    poisoned = float(w @ loss.value(-a * r + b * params.alpha + sigma * xi))
    return ((1.0 - params.phi) * clean + params.phi * poisoned
            + 0.5 * params.lam * (a * a * r + b * b))


def fd_gradient(params, a, b, h=1e-6):
    f = population_risk
    da = (f(a + h, b, params) - f(a - h, b, params)) / (2 * h)
    db = (f(a, b + h, params) - f(a, b - h, params)) / (2 * h)
    return da, db


class TestSquaredOracle:
    CASES = [
        dict(norm_mu=1.0, s_mu_sq=1.0, s_v_sq=1.0, lam=0.1, phi=0.2, alpha=1.0),
        dict(norm_mu=1.5**0.5, s_mu_sq=0.7, s_v_sq=2.0, lam=0.5, phi=0.1, alpha=4.0),
        dict(norm_mu=1.0, s_mu_sq=2.0, s_v_sq=0.5, lam=0.3, phi=0.35, alpha=0.0),
        dict(norm_mu=0.8, s_mu_sq=1.2, s_v_sq=0.9, lam=1.0, phi=0.05, alpha=12.0),
    ]

    def test_fixed_point_matches_linear_solve(self):
        for case in self.CASES:
            params = pop.PopulationParams(loss="squared", **case)
            got = pop.minimize_population_eigen(params)
            a, b = squared_oracle(params)
            assert got.converged
            assert got.a == pytest.approx(a, rel=1e-12, abs=1e-14)
            assert got.b == pytest.approx(b, rel=1e-12, abs=1e-14)

    def test_benign_closed_form(self):
        # (1 - phi) / ((1 - phi)(r + s_mu^2) + lam), from the weighted
        # clean risk alone.
        for case in self.CASES:
            params = pop.PopulationParams(loss="squared", **case)
            r = params.norm_mu**2
            w = 1.0 - params.phi
            expect = w / (w * (r + params.s_mu_sq) + params.lam)
            assert pop.benign_minimizer_eigen(params) == pytest.approx(
                expect, abs=1e-10
            )


class TestLogisticMinimizer:
    def test_frozen_benchmark(self):
        got = pop.minimize_population_eigen(bench_params(1.0))
        assert got.converged
        assert got.a == pytest.approx(A_AT_ONE_FROZEN, rel=1e-10)
        assert got.b == pytest.approx(B_AT_ONE_FROZEN, rel=1e-10)
        assert got.grad_norm <= pop.GRAD_TOL

    def test_reported_point_is_stationary(self):
        # Independent check through the objective only: central FD of
        # the quadrature risk vanishes at the reported minimizer.
        for alpha in (0.0, 1.0, 10.0):
            params = bench_params(alpha)
            got = pop.minimize_population_eigen(params)
            da, db = fd_gradient(params, got.a, got.b)
            assert abs(da) <= 5e-6
            assert abs(db) <= 5e-6

    def test_reported_point_beats_neighbors(self):
        params = bench_params(1.0)
        got = pop.minimize_population_eigen(params)
        best = population_risk(got.a, got.b, params)
        for da, db in ((0.01, 0.0), (-0.01, 0.0), (0.0, 0.01), (0.0, -0.01)):
            assert best < population_risk(got.a + da, got.b + db, params)

    def test_label_flips_shrink_mean_coefficient(self):
        params = bench_params(0.0)
        got = pop.minimize_population_eigen(params)
        a_ben = pop.benign_minimizer_eigen(params)
        assert a_ben == pytest.approx(A_BENIGN_FROZEN, rel=1e-10)
        assert got.a < a_ben
        assert got.b == pytest.approx(0.0, abs=1e-9)

    def test_trigger_channel_engaged_then_released(self):
        """A moderate trigger recruits a positive b; an extreme one is so
        easy to fit that b decays back toward zero (log alpha / alpha)."""
        at_one = pop.minimize_population_eigen(bench_params(1.0))
        assert at_one.b > 0.1
        extreme = pop.minimize_population_eigen(bench_params(30000.0))
        assert abs(extreme.b) <= 1e-3

    def test_distance_to_benign_decreases(self):
        a_ben = pop.benign_minimizer_eigen(bench_params(0.0))
        dists = []
        for alpha in (5.0, 10.0, 20.0, 50.0, 100.0):
            got = pop.minimize_population_eigen(bench_params(alpha))
            assert got.converged
            dists.append(math.hypot(got.a - a_ben, got.b))
        assert all(x > y for x, y in zip(dists, dists[1:]))

    def test_phi_zero_recovers_benign(self):
        params = bench_params(3.0, phi=0.0)
        got = pop.minimize_population_eigen(params)
        assert got.b == pytest.approx(0.0, abs=1e-10)
        assert got.a == pytest.approx(pop.benign_minimizer_eigen(params), abs=1e-8)


class TestOneStepGradient:
    def test_positive_and_trigger_independent(self):
        vals = [pop.one_step_gradient(bench_params(alpha)) for alpha in (0, 1, 5, 20)]
        assert all(v > 0 for v in vals)
        assert max(vals) == min(vals)

    def test_vanishes_without_poison(self):
        assert pop.one_step_gradient(bench_params(2.0, phi=0.0)) == 0.0

    def test_given_benign_point_is_the_solved_one(self):
        params = bench_params(0.0)
        a_ben = pop.benign_minimizer_eigen(params)
        assert pop.one_step_gradient(params, a_ben) == pop.one_step_gradient(params)

    def test_scales_linearly_in_phi(self):
        # At b = 0 only the poisoned-class weight multiplies the
        # expectation, so the statistic is exactly linear in phi once
        # the benign point is held fixed.  Here a_ben itself moves with
        # phi, so require monotonicity instead.
        lo = pop.one_step_gradient(bench_params(1.0, phi=0.05))
        hi = pop.one_step_gradient(bench_params(1.0, phi=0.3))
        assert 0 < lo < hi


def admissible_params(loss):
    """Random PopulationParams, with phi = 0 and alpha = 0 drawn often."""
    return st.builds(
        pop.PopulationParams,
        norm_mu=st.floats(0.3, 3.0),
        s_mu_sq=st.floats(0.1, 4.0),
        s_v_sq=st.floats(0.1, 4.0),
        lam=st.floats(0.01, 2.0),
        phi=st.one_of(st.just(0.0), st.floats(0.0, 0.45)),
        alpha=st.one_of(st.just(0.0), st.floats(0.0, 100.0)),
        loss=st.just(loss),
    )


class TestProperties:
    def test_iteration_count_pinned(self):
        # Closure-map evaluations of the cold fixed-point solve.
        assert pop.minimize_population_eigen(bench_params(1.0)).iters == 6

    @pytest.mark.parametrize("alpha", [0.0, 0.1, 1.0, 25.0, 1000.0])
    def test_tightened_tolerance_is_met(self, alpha, monkeypatch):
        # The benchmark's reference recorder tightens the population
        # solve by patching GRAD_TOL to 1e-13; the solve reads it per call.
        monkeypatch.setattr(pop, "GRAD_TOL", 1e-13)
        got = pop.minimize_population_eigen(
            pop.PopulationParams(norm_mu=1.0, s_mu_sq=1.0, s_v_sq=1.0, lam=0.5, phi=0.2,
                                 alpha=alpha, loss="logistic"))
        assert got.converged
        assert got.grad_norm <= 1e-13

    def test_tolerance_is_read_per_call(self, monkeypatch):
        # Each call hands the GRAD_TOL of that moment to ``solve_lockstep``.
        # The solve's outcome cannot show it: a solve at its rounding floor
        # may land on a residual of exactly 0, which certifies at any tol.
        tols, lockstep = [], pop.solve_lockstep

        def recording_lockstep(specs, loss, config=None, starts=None):
            tols.append(config.tol)
            return lockstep(specs, loss, config, starts)

        monkeypatch.setattr(pop, "solve_lockstep", recording_lockstep)
        for tol in (1e-13, 1e-300):
            monkeypatch.setattr(pop, "GRAD_TOL", tol)
            pop.minimize_population_eigen(bench_params(1.0))
        assert tols == [1e-13, 1e-300]

    @settings(max_examples=50, deadline=None)
    @given(params=st.one_of(admissible_params("logistic"), admissible_params("squared")))
    def test_random_params_converge(self, params):
        got = pop.minimize_population_eigen(params)
        assert got.converged
        assert got.grad_norm <= pop.GRAD_TOL
        # Without a trigger or without poison eta2 alpha, and so b, is 0
        # at every iterate.
        if params.alpha == 0.0 or params.phi == 0.0:
            assert got.b == 0.0

    @settings(max_examples=50, deadline=None)
    @given(params=admissible_params("squared"))
    def test_squared_benign_matches_closed_form(self, params):
        r = params.norm_mu**2
        w = 1.0 - params.phi
        expect = w / (w * (r + params.s_mu_sq) + params.lam)
        assert pop.benign_minimizer_eigen(params) == pytest.approx(expect, abs=1e-10)


class TestSpec:
    """``PopulationParams.spec`` is the problem every population solve reads."""

    def test_is_the_problem_at_n_inf(self):
        spec = bench_params(3.0, norm_mu=1.5, s_mu_sq=0.7, s_v_sq=2.0).spec
        assert spec.n == math.inf and spec.kappa == 0.0
        assert spec.mu.tolist() == [1.5, 0.0]
        assert spec.v.tolist() == [0.0, 1.0]
        assert spec.cov.eigenvalues().tolist() == [0.7, 2.0]
        assert (spec.alpha, spec.phi, spec.lam) == (3.0, BENCH["phi"], BENCH["lam"])

    def test_with_alpha_rebuilds_it(self):
        params = bench_params(1.0)
        spec = params.with_alpha(7.0).spec
        assert spec.alpha == 7.0 and params.spec.alpha == 1.0
        assert (spec.phi, spec.lam) == (params.phi, params.lam)

    def test_benign_solve_reads_the_rebuilt_problem(self, monkeypatch):
        seen = []
        solve = pop.minimize_population_eigen
        monkeypatch.setattr(pop, "minimize_population_eigen",
                            lambda params: seen.append(params.spec) or solve(params))
        pop.benign_minimizer_eigen(bench_params(1.0))
        (spec,) = seen
        assert (spec.alpha, spec.phi, spec.lam) == (0.0, 0.0, BENCH["lam"] / (1.0 - BENCH["phi"]))


class TestValidation:
    def test_rejects_bad_parameters(self):
        good = dict(BENCH, alpha=1.0)
        with pytest.raises(ValueError):
            pop.PopulationParams(**{**good, "norm_mu": 0.0})
        with pytest.raises(ValueError):
            pop.PopulationParams(**{**good, "s_v_sq": -1.0})
        with pytest.raises(ValueError):
            pop.PopulationParams(**{**good, "lam": 0.0})
        with pytest.raises(ValueError):
            pop.PopulationParams(**{**good, "phi": 0.5})
        with pytest.raises(ValueError):
            pop.PopulationParams(**{**good, "alpha": -1.0})
        with pytest.raises(ValueError):
            pop.PopulationParams(**{**good, "loss": "hinge"})

    def test_spectrum_errors_come_from_the_covariance_model(self):
        good = dict(BENCH, alpha=1.0)
        for key in ("s_mu_sq", "s_v_sq"):
            with pytest.raises(ValueError, match="eigenvalues must be positive and finite"):
                pop.PopulationParams(**{**good, key: 0.0})

    def test_an_empty_batch_solves_nothing(self):
        assert pop.minimize_population([]) == []

    def test_with_alpha_preserves_rest(self):
        params = bench_params(1.0)
        moved = params.with_alpha(7.0)
        assert moved.alpha == 7.0
        assert moved.lam == params.lam and moved.phi == params.phi
