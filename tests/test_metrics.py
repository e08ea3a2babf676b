"""Gaussian metrics and the four-channel variance split."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisonlab import covariance as cov
from poisonlab import fixed_point as fp
from poisonlab import metrics

PHI_AT_ONE = 0.8413447460685429  # Phi(1), from math.erf


def erf_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def solved_state(spec, loss="logistic"):
    state = fp.solve_self_consistent(spec, loss, fp.SolverConfig(tol=1e-12))
    assert state.converged
    return state


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


def dense_spec(seed=7, p=24, alpha=2.0, phi=0.15, lam=0.4, n=60):
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.standard_normal((p, p)))[0]
    mat = (basis * rng.uniform(0.3, 2.5, size=p)) @ basis.T
    mu = rng.standard_normal(p)
    v = rng.standard_normal(p)
    v /= np.linalg.norm(v)
    return cov.ProblemSpec(
        cov=cov.DenseCovariance(0.5 * (mat + mat.T)),
        mu=mu, v=v, alpha=alpha, phi=phi, lam=lam, n=n,
    )


class TestCdfMetrics:
    def test_cdf_matches_erf_oracle(self):
        # At unit variance the clean accuracy is the standard normal CDF.
        for x in (-3.0, -0.5, 0.0, 1.0, 2.7):
            assert metrics.clean_accuracy(x, 1.0) == pytest.approx(erf_cdf(x), abs=1e-15)
        assert metrics.clean_accuracy(1.0, 1.0) == pytest.approx(PHI_AT_ONE, abs=1e-16)

    def test_clean_accuracy(self):
        assert metrics.clean_accuracy(0.0, 1.0) == 0.5
        assert metrics.clean_accuracy(2.0, 4.0) == pytest.approx(PHI_AT_ONE)
        assert metrics.clean_accuracy(-1.0, 1.0) == pytest.approx(1 - PHI_AT_ONE)

    def test_attack_success(self):
        # Trigger pull exactly cancels the clean pull: coin flip.
        assert metrics.attack_success(0.3, 0.6, 0.5, 1.0) == 0.5
        assert metrics.attack_success(0.0, 1.0, 2.0, 4.0) == pytest.approx(PHI_AT_ONE)
        # Stronger test-time trigger always helps the attacker.
        weak = metrics.attack_success(0.4, 0.2, 0.5, 0.9)
        strong = metrics.attack_success(0.4, 0.2, 5.0, 0.9)
        assert strong > weak

    def test_match_scipy_ndtr_forms(self):
        # Phi by math.erfc against scipy's ndtr, out to margins of 37 sigma.
        from scipy.special import ndtr

        rng = np.random.default_rng(3)
        for z in np.concatenate([np.linspace(-37.0, 37.0, 1001), rng.normal(0.0, 3.0, 200)]):
            var = float(rng.uniform(0.1, 4.0))
            h_v, alpha_test = rng.uniform(0.0, 2.0), rng.uniform(0.0, 5.0)
            h = float(z) * math.sqrt(var)
            want = ndtr(h / math.sqrt(var))
            assert metrics.clean_accuracy(h, var) == pytest.approx(want, rel=1e-12, abs=0.0)
            h_mu = alpha_test * h_v - h
            want = ndtr((alpha_test * h_v - h_mu) / math.sqrt(var))
            got = metrics.attack_success(h_mu, h_v, alpha_test, var)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_degenerate_arguments_rejected(self):
        with pytest.raises(ValueError):
            metrics.clean_accuracy(1.0, 0.0)
        with pytest.raises(ValueError):
            metrics.attack_success(1.0, 1.0, 1.0, -1.0)
        with pytest.raises(ValueError):
            metrics.attack_success(1.0, 1.0, -0.5, 1.0)


class TestVarianceDecomposition:
    SPECS = [
        (iso_spec(100, 200, 1.0, 0.2, 0.5), "logistic"),
        (iso_spec(100, 200, 1.0, 0.2, 0.5), "squared"),
        (iso_spec(80, 160, 6.0, 0.05, 0.1), "logistic"),
        (dense_spec(), "logistic"),
        (dense_spec(seed=11, alpha=0.0), "squared"),
    ]

    def test_reconciles_with_solver_variance(self):
        for spec, loss in self.SPECS:
            state = solved_state(spec, loss)
            dec = metrics.variance_decomposition(state)
            assert dec.total == pytest.approx(
                state.sigma_sq, abs=1e-10 * max(1.0, state.sigma_sq)
            )

    @settings(max_examples=50, deadline=None)
    @given(
        p=st.integers(2, 40),
        n=st.integers(10, 100),
        seed=st.integers(0, 2**32 - 1),
        alpha=st.floats(0.0, 100.0),
        phi=st.floats(0.0, 0.5, exclude_max=True),
        lam=st.floats(0.05, 2.0),
    )
    def test_squared_channels_sum_to_sigma_sq(self, p, n, seed, alpha, phi, lam):
        # The bound the decompose subcommand enforces before it prints.
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(p)
        spec = cov.ProblemSpec(
            cov=cov.SpectrumCovariance(np.exp(rng.uniform(-2.0, 2.0, p))),
            mu=rng.standard_normal(p), v=v / np.linalg.norm(v),
            alpha=alpha, phi=phi, lam=lam, n=n,
        )
        state = fp.solve_self_consistent(spec, "squared")
        assert state.converged
        dec = metrics.variance_decomposition(state)
        assert abs(dec.total - state.sigma_sq) <= 1e-10 * max(1.0, state.sigma_sq)

    def test_channel_signs(self):
        for spec, loss in self.SPECS:
            state = solved_state(spec, loss)
            dec = metrics.variance_decomposition(state)
            assert dec.mean_term >= 0.0
            assert dec.trigger_term >= 0.0
            assert dec.noise_floor > 0.0

    def test_percentages_sum_to_hundred(self):
        spec, loss = self.SPECS[0]
        dec = metrics.variance_decomposition(solved_state(spec, loss))
        assert sum(dec.percentages()) == pytest.approx(100.0, abs=1e-8)

    def test_orthogonal_geometry_kills_cross_term(self):
        spec, loss = self.SPECS[0]
        dec = metrics.variance_decomposition(solved_state(spec, loss))
        assert dec.cross_term == pytest.approx(0.0, abs=1e-15)

    def test_rows_and_table_shape(self):
        spec, loss = self.SPECS[0]
        dec = metrics.variance_decomposition(solved_state(spec, loss))
        rows = dec.rows()
        assert [r[0] for r in rows] == ["mean", "cross", "trigger", "noise"]
        table = dec.table()
        lines = table.splitlines()
        assert len(lines) == 6  # header + 4 channels + total
        assert lines[-1].startswith("total")
        assert "100.0000%" in lines[-1]


class TestNoiseFloorAblation:
    def test_matches_manual_recomputation(self):
        spec = iso_spec(80, 160, 2.0, 0.1, 0.5)
        state = solved_state(spec)
        grid = [0.5, 2.0, 8.0]
        included, ablated = metrics.noise_floor_ablation(state, spec, grid)
        for i, a in enumerate(grid):
            st = solved_state(spec.with_alpha(a))
            dec = metrics.variance_decomposition(st)
            signal = dec.mean_term + dec.cross_term + dec.trigger_term
            want_inc = metrics.clean_accuracy(st.m1, signal + dec.noise_floor)
            want_abl = metrics.clean_accuracy(st.m1, signal)
            assert included[i] == pytest.approx(want_inc, abs=1e-9)
            assert ablated[i] == pytest.approx(want_abl, abs=1e-9)

    def test_warm_sweep_matches_cold_points(self):
        # Each point starts from the root of the one before it; the
        # curves must match per-point cold solves.
        spec = iso_spec(100, 200, 1.0, 0.2, 0.5)
        state = solved_state(spec)
        grid = np.arange(1.0, 21.0)
        config = fp.SolverConfig(tol=1e-12)
        included, ablated = metrics.noise_floor_ablation(state, spec, grid, config)
        for i, a in enumerate(grid):
            point = spec.with_alpha(a)
            pred = fp.theory_predictions(solved_state(point), alpha_test=0.0)
            assert included[i] == pytest.approx(pred.clean_acc, rel=1e-9)
            assert ablated[i] == pytest.approx(
                metrics.clean_accuracy(pred.h_mu, pred.sigma_sq - pred.zeta), rel=1e-9
            )

    def test_noise_floor_only_lowers_accuracy(self):
        # Removing variance at fixed positive mean can only help.
        spec = iso_spec(80, 160, 2.0, 0.1, 0.5)
        state = solved_state(spec)
        included, ablated = metrics.noise_floor_ablation(state, spec, [1.0, 4.0])
        assert np.all(ablated >= included)

    def test_unconverged_point_raises_naming_its_alpha(self):
        # One closure-map evaluation cannot certify a point; the accuracies
        # of such a state would be silent garbage.
        spec = cov.ProblemSpec(cov=cov.IsotropicCovariance(100), mu=1.5 * cov.basis_vector(100, 0),
                               v=cov.basis_vector(100, 1), alpha=0.0, phi=0.2, lam=0.5, n=200)
        state = solved_state(spec)
        with pytest.raises(ArithmeticError, match="did not converge: alpha 0$"):
            metrics.noise_floor_ablation(state, spec, [0.0, 1.0, 2.0], fp.SolverConfig(max_iter=1))
