"""Finite-sample pipeline: seeding, poisoning, solvers, evaluation.

The ridge path has an exact linear-algebra oracle; the logistic path is
certified through its own gradient recomputed here from first
principles.  The final class compares replicate averages against the
asymptotic predictions at 4 standard errors on a frozen seed.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cholesky
from scipy.linalg.blas import dtrmm
from scipy.special import expit

from poisonlab import covariance as cov
from poisonlab import fixed_point as fp
from poisonlab import simulate as sim


def iso_spec(p, n, alpha=1.0, phi=0.2, lam=0.5):
    return cov.ProblemSpec(
        cov=cov.IsotropicCovariance(p),
        mu=cov.basis_vector(p, 0),
        v=cov.basis_vector(p, 1),
        alpha=alpha,
        phi=phi,
        lam=lam,
        n=n,
    )


# The Monte Carlo test's own stream: a phase neither the data nor the
# poison stream uses.
PHASE_TEST = 2


def reference_draw(spec, n, rng):
    """Labels and features y mu' + noise by out-of-place expressions."""
    labels = rng.integers(0, 2, size=n).astype(float) * 2.0 - 1.0
    g = rng.standard_normal((n, spec.p))
    if isinstance(spec.cov, cov.DenseCovariance):
        chol = cholesky(spec.cov.matrix, lower=True, check_finite=False)
        noise = dtrmm(1.0, chol, g.T, lower=1, overwrite_b=1).T
    else:
        noise = g * np.sqrt(spec.cov.eigenvalues())
    return labels, labels[:, None] * spec.mu + noise


def reference_replicate(spec, base_seed, rep, alpha):
    """A replicate poisoned at alpha by out-of-place expressions.

    Returns the clean labels and features, the absorbed rows y x of the
    poisoned draw and its mask: round(phi n) negatives, picked on the
    poison stream, get x + alpha v and label +1.
    """
    labels, features = reference_draw(
        spec, spec.n, sim.stream_rng(base_seed, rep, sim.PHASE_DATA))
    mask = np.zeros(spec.n, dtype=bool)
    poisoned_labels, rows = labels.copy(), features.copy()
    count = round(spec.phi * spec.n)
    if count:
        negatives = np.flatnonzero(labels == -1.0)
        rng = sim.stream_rng(base_seed, rep, sim.PHASE_POISON)
        chosen = rng.choice(negatives, size=count, replace=False)
        rows[chosen] += alpha * spec.v
        poisoned_labels[chosen] = 1.0
        mask[chosen] = True
    return labels, features, poisoned_labels[:, None] * rows, mask


def evaluate_empirical(theta, spec, alpha_test, n_test, rng):
    """Monte Carlo (clean accuracy, attack success) on fresh test draws."""
    labels, features = reference_draw(spec, n_test, rng)
    acc = float(np.mean(labels * (features @ theta) > 0))
    triggered = -spec.mu + spec.cov.sample_noise(rng, n_test) + alpha_test * spec.v
    asr = float(np.mean(triggered @ theta > 0))
    return acc, asr


class TestStreams:
    def test_same_cell_reproduces(self):
        a = sim.stream_rng(7, 3, sim.PHASE_DATA).standard_normal(5)
        b = sim.stream_rng(7, 3, sim.PHASE_DATA).standard_normal(5)
        assert np.array_equal(a, b)

    def test_cells_are_independent_streams(self):
        base = sim.stream_rng(7, 3, sim.PHASE_DATA).standard_normal(5)
        for rep, phase in ((4, sim.PHASE_DATA), (3, sim.PHASE_POISON), (3, PHASE_TEST)):
            other = sim.stream_rng(7, rep, phase).standard_normal(5)
            assert not np.array_equal(base, other)


class TestSampling:
    def test_shapes_and_labels(self):
        spec = iso_spec(12, 40)
        z0, mask = sim.draw_replicate(spec, 0, 0)
        assert z0.shape == (40, 12)
        assert mask.shape == (40,) and mask.dtype == bool
        labels, features, _, _ = reference_replicate(spec, 0, 0, 0.0)
        assert set(np.unique(labels)) == {-1.0, 1.0}
        # Every row is y x for a label y = +/-1.
        signs = np.where(np.all(z0 == features, axis=1), 1.0, -1.0)
        assert np.array_equal(z0, signs[:, None] * features)

    def test_absorbed_mean_matches_clean_mean(self):
        # z = y x = mu + y * noise, and y * noise is again centered.
        spec = iso_spec(6, 200_000, phi=0.0)
        z0, _ = sim.draw_replicate(spec, 5, 0)
        assert np.allclose(z0.mean(axis=0), spec.mu, atol=0.012)

    def test_absorb_oracle(self):
        # At phi = 0 nothing is poisoned, and every row is y x.
        spec = iso_spec(3, 10, phi=0.0)
        labels, features, _, _ = reference_replicate(spec, 0, 0, 0.0)
        z0, mask = sim.draw_replicate(spec, 0, 0)
        assert not mask.any()
        assert np.any(labels == 1.0) and np.any(labels == -1.0)
        assert z0.tobytes() == (labels[:, None] * features).tobytes()


def covariance_model(kind, p):
    rng = np.random.default_rng(p)
    if kind == "isotropic":
        return cov.IsotropicCovariance(p, 1.5)
    if kind == "spectrum":
        return cov.SpectrumCovariance(np.exp(rng.uniform(-2.0, 2.0, p)))
    a = rng.standard_normal((p, p))
    return cov.DenseCovariance(a @ a.T / p + 0.5 * np.eye(p))


class TestDrawInPlace:
    """``draw_replicate`` forms the draw in place, with the bits of the
    out-of-place expressions of ``reference_replicate``."""

    @pytest.mark.parametrize("kind", ["isotropic", "spectrum", "dense"])
    @pytest.mark.parametrize("phi", [0.0, 0.2])
    def test_draw_is_bit_identical_to_the_reference(self, kind, phi):
        p, n = 30, 50
        mu = np.random.default_rng(3).standard_normal(p)
        mu[::4] = 0.0
        spec = cov.ProblemSpec(cov=covariance_model(kind, p), mu=mu, v=unit_vector(p, 4),
                               alpha=0.0, phi=phi, lam=0.5, n=n)
        z0, mask = sim.draw_replicate(spec, 8, 1)
        _, _, want, want_mask = reference_replicate(spec, 8, 1, 0.0)
        assert z0.tobytes() == want.tobytes()
        assert np.array_equal(mask, want_mask)

    @pytest.mark.parametrize("kind", ["isotropic", "spectrum", "dense"])
    def test_draw_allocates_one_feature_matrix(self, kind):
        p, n = 600, 300
        spec = cov.ProblemSpec(cov=covariance_model(kind, p), mu=cov.basis_vector(p, 0),
                               v=cov.basis_vector(p, 1), alpha=0.0, phi=0.2, lam=0.5, n=n)
        tracemalloc.start()
        try:
            sim.draw_replicate(spec, 0, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * n * p * 8


class TestPoison:
    def test_exact_bookkeeping(self):
        spec = iso_spec(3, 10, phi=0.3)
        labels, features, _, _ = reference_replicate(spec, 1, 0, 0.0)
        z0, mask = sim.draw_replicate(spec, 1, 0)
        assert mask.sum() == 3  # round(0.3 * 10)
        assert np.all(labels[mask] == -1.0)  # drawn from negatives
        # Poisoned rows carry label +1, so they are not negated.
        assert np.array_equal(z0[mask], features[mask])
        assert np.array_equal(z0[~mask], labels[~mask, None] * features[~mask])

    def test_phi_zero_is_noop_copy(self):
        # At phi = 0 no row is poisoned, so a trigger moves no row, and
        # retrigger still hands back a copy rather than the drawn rows.
        z0, mask = sim.draw_replicate(iso_spec(3, 10, phi=0.0), 0, 0)
        assert not mask.any()
        out = sim.retrigger(z0, mask, np.ones(3), 5.0)
        assert np.array_equal(out, z0)
        assert out is not z0

    def test_count_uses_bankers_rounding(self):
        # round(2.5) -> 2 and round(4.5) -> 4; seed 0 draws 6 negatives.
        for n, phi, count in [(10, 0.25, 2), (12, 0.375, 4)]:
            _, mask = sim.draw_replicate(iso_spec(3, n, phi=phi), 0, 0)
            assert mask.sum() == count

    def test_insufficient_negatives(self):
        # phi n = 1.8 rounds to 2 poisoned samples, and the draw has one negative.
        spec = iso_spec(6, 4, phi=0.45)
        with pytest.raises(ValueError,
                           match="cannot poison 2 samples: only 1 negatives available"):
            sim.draw_replicate(spec, 0, 0)


def unit_vector(p, seed):
    v = np.random.default_rng(seed).standard_normal(p)
    return v / np.linalg.norm(v)


class TestDrawOnce:
    """A replicate drawn at alpha = 0 and retriggered is the replicate
    drawn at alpha: no random stream sees the trigger strength."""

    ALPHAS = (0.0, 0.7, 2.3, 16.0, 1e3, 1e5)

    @pytest.mark.parametrize("phi", [0.0, 0.2])
    def test_retriggered_rows_are_bit_identical(self, phi):
        spec = cov.ProblemSpec(
            cov=cov.IsotropicCovariance(25), mu=cov.basis_vector(25, 0),
            v=unit_vector(25, 4), alpha=0.0, phi=phi, lam=0.5, n=50,
        )
        z0, mask = sim.draw_replicate(spec, 13, 2)
        assert mask.sum() == round(phi * spec.n)
        for alpha in self.ALPHAS:
            _, _, want, want_mask = reference_replicate(spec, 13, 2, alpha)
            assert np.array_equal(mask, want_mask)
            got = sim.retrigger(z0, mask, spec.v, alpha)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    def test_single_alpha_replicate_is_the_grid_entry(self, loss):
        spec = iso_spec(40, 60, alpha=0.0)
        grid = [0.0, 2.3, 16.0]
        results = sim.run_replicates(spec, loss, 1, 99, 0.5, grid)
        assert len(results) == len(grid)
        for alpha, res in zip(grid, results):
            assert sim.run_replicates(spec, loss, 1, 99, 0.5, [alpha])[0] == res


class TestRidgePath:
    """``ridge_path`` against ``ridge_fit`` on the explicit rows Z(alpha)."""

    ALPHAS = [0.0, 2.3, 16.0, 1e3, 1e6]

    @staticmethod
    def problem(n, p, seed):
        # Seeds picked so that a fit at alpha = 1e6 still leaves a residual
        # above RIDGE_RESIDUAL_TOL after two refinement steps (2.3e-9 for
        # (30, 40), 1.0e-9 for (120, 50)) while ``ridge_fit`` certifies it
        # on its absolute bound, and alpha = 1e3 takes one step.
        rng = np.random.default_rng(seed)
        z0 = rng.standard_normal((n, p)) + 0.3
        mask = np.zeros(n, dtype=bool)
        mask[rng.choice(n, n // 5, replace=False)] = True
        return z0, mask, cov.basis_vector(p, 1)

    @pytest.mark.parametrize("n, p, seed", [(30, 40, 1), (120, 50, 5)])
    def test_matches_explicit_fits_and_falls_back_at_large_alpha(self, n, p, seed, monkeypatch):
        z0, mask, v = self.problem(n, p, seed)
        lam = 0.5
        fallback = []
        fit = sim.ridge_fit

        def spy(z, lam):
            fallback.append(z)
            return fit(z, lam)

        monkeypatch.setattr(sim, "ridge_fit", spy)
        path = sim.ridge_path(z0, mask, v, lam, self.ALPHAS)
        assert len(fallback) == 1
        assert np.array_equal(fallback[0], sim.retrigger(z0, mask, v, self.ALPHAS[-1]))
        # The three kinds of fit: certified at the first residual, after a
        # refinement step, and refitted directly.
        assert [f.iters for f in path] == [1, 1, 1, 2, sim.RIDGE_FALLBACK_ITERS]
        for alpha, got in zip(self.ALPHAS, path):
            z = sim.retrigger(z0, mask, v, alpha)
            want = fit(z, lam).theta
            assert np.abs(got.theta - want).max() <= 1e-10 * np.abs(want).max()
            assert got.converged
            assert got.grad_norm <= sim.RIDGE_RESIDUAL_TOL
            resid = z.T @ (z @ got.theta) / n + lam * got.theta - z.mean(axis=0)
            assert np.abs(resid).max() <= sim.RIDGE_RESIDUAL_TOL

    def test_kernel_shape_certifies_at_large_alpha(self, monkeypatch):
        # p > n at alpha = 1e5: the fit certifies on the path, after its
        # refinement steps, with no direct refit.
        def no_fallback(z, lam):
            raise AssertionError("alpha = 1e5 certifies on the path")

        n, p, lam, alpha = 40, 60, 0.5, 1e5
        z0, mask, v = self.problem(n, p, 1)
        want = sim.ridge_fit(sim.retrigger(z0, mask, v, alpha), lam).theta
        monkeypatch.setattr(sim, "ridge_fit", no_fallback)
        [got] = sim.ridge_path(z0, mask, v, lam, [alpha])
        assert got.converged and got.iters < sim.RIDGE_FALLBACK_ITERS
        assert np.abs(got.theta - want).max() <= 1e-10 * np.abs(want).max()

    def test_one_factorization_per_squared_replicate(self, monkeypatch):
        # The factored Gram is the smaller one: the n x n kernel when p > n.
        calls = []
        factor = sim._cholesky

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return factor(a, *args, **kwargs)

        monkeypatch.setattr(sim, "_cholesky", counting)
        grid = [float(a) for a in np.linspace(0.0, 16.0, 8)]
        for p, n in [(60, 30), (30, 60)]:
            calls.clear()
            results = sim.run_replicates(iso_spec(p, n, alpha=0.0), "squared", 0, 5, 0.5, grid)
            assert len(results) == 8 and all(r.converged for r in results)
            assert calls == [(min(n, p), min(n, p))]

    @pytest.mark.parametrize("n, p", [(30, 40), (60, 30)])
    def test_first_residual_certifies_without_a_solve(self, n, p, monkeypatch):
        # One three-column solve per replicate, W = G0^-1 [mean0, a, v].  An
        # alpha certified at its first residual costs that residual alone:
        # one dsymv on G0 (p <= n) or two dgemv on Z0 (p > n), no _cho_solve.
        calls = []

        def counting(name):
            kernel = getattr(sim, name)

            def wrapped(*args, **kwargs):
                calls.append(name)
                return kernel(*args, **kwargs)
            return wrapped

        for name in ("_cholesky", "_cho_solve", "dgemm", "dgemv", "dsymv"):
            monkeypatch.setattr(sim, name, counting(name))
        z0, mask, v = self.problem(n, p, 1)
        alphas = [0.0, 0.7, 2.3, 16.0]
        path = sim.ridge_path(z0, mask, v, 0.5, alphas)
        assert all(f.converged and f.iters == 1 for f in path)
        if p > n:
            once = ["_cholesky", "dgemm", "_cho_solve", "dgemm"]
            per_alpha = ["dgemv", "dgemv"]
        else:
            once, per_alpha = ["_cholesky", "_cho_solve"], ["dsymv"]
        assert calls == once + per_alpha * len(alphas)

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(2, 40),
        dp=st.sampled_from([-1, 1]),
        seed=st.integers(0, 2**32 - 1),
        log_lam=st.floats(math.log(0.01), math.log(2.0)),
        alphas=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=4),
    )
    def test_residuals_bound_the_distance_to_the_direct_fit(self, n, dp, seed, log_lam, alphas):
        # G(alpha) >= lam I, so ||theta_path - theta_direct||_2 <= (||r_path||_2
        # + ||r_direct||_2) / lam for the exact residuals; each residual
        # evaluated here carries a rounding allowance RIDGE_BACKWARD_TOL
        # (||G|| ||theta|| + ||b||).
        p, lam = n + dp, math.exp(log_lam)
        rng = np.random.default_rng(seed)
        z0 = rng.standard_normal((n, p)) + 0.3
        mask = rng.random(n) < rng.random()
        v = cov.basis_vector(p, int(rng.integers(p)))
        for alpha, got in zip(alphas, sim.ridge_path(z0, mask, v, lam, alphas)):
            z = sim.retrigger(z0, mask, v, alpha)
            gram, b = z.T @ z / n + lam * np.eye(p), z.mean(axis=0)
            want = sim.ridge_fit(z, lam).theta
            bound = 0.0
            for theta in (got.theta, want):
                bound += np.linalg.norm(gram @ theta - b) + sim.RIDGE_BACKWARD_TOL * (
                    np.linalg.norm(gram, 2) * np.linalg.norm(theta) + np.linalg.norm(b))
            assert got.converged
            assert np.linalg.norm(got.theta - want) <= bound / lam

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(2, 40),
        dp=st.sampled_from([-1, 0, 1]),
        seed=st.integers(0, 2**32 - 1),
        alphas=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=4),
    )
    def test_matches_explicit_fits_across_the_shape_switch(self, n, dp, seed, alphas):
        # p = n - 1 and p = n factor the p x p Gram, p = n + 1 the n x n kernel.
        p = n + dp
        rng = np.random.default_rng(seed)
        z0 = rng.standard_normal((n, p)) + 0.3
        mask = rng.random(n) < rng.random()
        v = cov.basis_vector(p, int(rng.integers(p)))
        for alpha, got in zip(alphas, sim.ridge_path(z0, mask, v, 0.5, alphas)):
            want = sim.ridge_fit(sim.retrigger(z0, mask, v, alpha), 0.5).theta
            assert np.abs(got.theta - want).max() <= 1e-10 * np.abs(want).max()
            assert got.converged and got.grad_norm <= sim.RIDGE_RESIDUAL_TOL

    def test_rejects_nonpositive_lam(self):
        z0, mask, v = self.problem(10, 4, 0)
        with pytest.raises(ValueError):
            sim.ridge_path(z0, mask, v, 0.0, [1.0])


class TestRidgeFit:
    def test_single_sample_oracle(self):
        z = np.array([[1.0, 0.0]])
        fit = sim.ridge_fit(z, lam=1.0)
        assert np.allclose(fit.theta, [0.5, 0.0], atol=1e-14)
        assert fit.converged

    def test_matches_direct_solve(self):
        rng = np.random.default_rng(42)
        z = rng.standard_normal((30, 8))
        lam = 0.3
        fit = sim.ridge_fit(z, lam)
        want = np.linalg.solve(z.T @ z / 30 + lam * np.eye(8), z.mean(axis=0))
        assert np.allclose(fit.theta, want, atol=1e-12)

    def test_norm_bound_holds(self):
        rng = np.random.default_rng(3)
        for lam in (0.01, 0.5, 2.0):
            z = rng.standard_normal((50, 20)) * 3.0
            fit = sim.ridge_fit(z, lam)
            assert fit.theta @ fit.theta <= 2 * 0.5 / lam * (1 + 1e-9)

    def test_rejects_nonpositive_lam(self):
        with pytest.raises(ValueError):
            sim.ridge_fit(np.ones((2, 2)), 0.0)

    def test_nan_row_never_certifies(self):
        # dpotrf need not flag a NaN: the fit either raises or fails its
        # certificate on the NaN it passes on.
        z = np.random.default_rng(3).standard_normal((20, 4))
        z[7] = np.nan
        try:
            fit = sim.ridge_fit(z, 0.5)
        except np.linalg.LinAlgError:
            return
        assert not fit.converged


class TestLogisticFit:
    def test_gradient_certificate(self):
        rng = np.random.default_rng(9)
        z = rng.standard_normal((60, 15)) + 0.3
        fit = sim.logistic_fit(z, lam=0.2)
        assert fit.converged
        # Recompute the gradient here, independently of the solver loop.
        grad = -(z.T @ expit(-(z @ fit.theta))) / 60 + 0.2 * fit.theta
        assert np.abs(grad).max() <= sim.LOGISTIC_GRAD_TOL
        assert fit.grad_norm == pytest.approx(np.abs(grad).max(), abs=1e-15)

    def test_minimum_beats_perturbations(self):
        rng = np.random.default_rng(19)
        z = rng.standard_normal((40, 6))
        lam = 0.5
        fit = sim.logistic_fit(z, lam)

        def obj(t):
            return float(np.mean(np.logaddexp(0.0, -(z @ t)))) + 0.5 * lam * float(t @ t)

        best = obj(fit.theta)
        for _ in range(10):
            assert best <= obj(fit.theta + 0.01 * rng.standard_normal(6))

    def test_norm_bound_holds(self):
        rng = np.random.default_rng(23)
        z = rng.standard_normal((80, 10)) * 2.0 + 1.0
        lam = 0.05
        fit = sim.logistic_fit(z, lam)
        assert fit.theta @ fit.theta <= 2 * math.log(2.0) / lam * (1 + 1e-9)

    def test_iteration_cap_reported(self):
        rng = np.random.default_rng(31)
        z = rng.standard_normal((20, 4))
        fit = sim.logistic_fit(z, lam=0.5, max_iter=1)
        assert not fit.converged
        assert fit.iters == 1

    def test_inf_row_never_certifies(self):
        # The margin 0 * inf is NaN at theta = 0, and a non-finite gradient
        # stops the fit before any Hessian is formed.
        z = np.random.default_rng(3).standard_normal((20, 4))
        z[7, 2] = np.inf
        with np.errstate(invalid="ignore"):
            fit = sim.logistic_fit(z, 0.5)
        assert not fit.converged and fit.iters == 1

    def test_one_factorization_per_newton_step(self, monkeypatch):
        # A Newton step factors at most one Hessian and the certifying
        # iteration none; on this problem 3 factors serve all 25 steps
        # (the factor at theta = 0, at step 2, and once the gradient
        # stopped halving).
        calls = []
        factor = sim._cholesky

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return factor(a, *args, **kwargs)

        monkeypatch.setattr(sim, "_cholesky", counting)
        rng = np.random.default_rng(23)
        z = rng.standard_normal((80, 10)) * 2.0 + 1.0
        fit = sim.logistic_fit(z, 0.05)
        assert fit.converged and fit.iters == 26
        assert calls == [(10, 10)] * 3

    # Gradient evaluations and Armijo trials with the kept factors, by seed.
    LAZY_COUNTS = {41: (24, 23), 0: (42, 45)}

    @pytest.mark.parametrize("seed, make_z, lam, newton_iters, newton_trials", [
        # Full steps throughout.
        (41, lambda rng: rng.standard_normal((400, 200)) + 0.2 * rng.standard_normal(200),
         0.05, 8, 7),
        # Rows of very different scales: trials are rejected (8 with a
        # fresh factor at every step, 4 with kept factors).
        (0, lambda rng: rng.standard_normal((30, 20)) * 10.0 ** rng.uniform(-1, 3, (30, 1)),
         1e-3, 22, 29),
    ])
    def test_margins_formed_once_per_trial(self, monkeypatch, seed, make_z, lam,
                                           newton_iters, newton_trials):
        # The margins at theta = 0 and at each Armijo trial are formed
        # once; the accepted trial's serve the next gradient.  Each
        # objective evaluation, at theta = 0 and at each trial, reads the
        # loss once.  The parameters pin the counts with a fresh factor
        # at every step (LOGISTIC_REUSE_RATIO = 0), LAZY_COUNTS those
        # with kept factors.
        margins, values = [], []
        dgemv, value = sim.dgemv, sim.LogisticLoss.value

        def counting_dgemv(alpha, a, x, trans=0):
            if trans:
                margins.append(x.size)
            return dgemv(alpha, a, x, trans=trans)

        def counting_value(loss, m):
            values.append(m.size)
            return value(loss, m)

        monkeypatch.setattr(sim, "dgemv", counting_dgemv)
        monkeypatch.setattr(sim.LogisticLoss, "value", counting_value)
        z = make_z(np.random.default_rng(seed))
        for ratio, (iters, trials) in [(sim.LOGISTIC_REUSE_RATIO, self.LAZY_COUNTS[seed]),
                                       (0.0, (newton_iters, newton_trials))]:
            monkeypatch.setattr(sim, "LOGISTIC_REUSE_RATIO", ratio)
            margins.clear()
            values.clear()
            fit = sim.logistic_fit(z, lam)
            assert fit.converged and fit.iters == iters
            assert len(values) == 1 + trials
            assert len(margins) == 1 + trials

    def test_iteration_count_pinned(self):
        # Newton steps and Armijo backtracking are pinned by the count of
        # gradient evaluations on two seeded problems.
        rng = np.random.default_rng(9)
        assert sim.logistic_fit(rng.standard_normal((60, 15)) + 0.3, 0.2).iters == 11
        rng = np.random.default_rng(23)
        assert sim.logistic_fit(rng.standard_normal((80, 10)) * 2.0 + 1.0, 0.05).iters == 26

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(1, 40),
        p=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        lam=st.floats(0.01, 10.0),
        scale=st.floats(0.1, 5.0),
        shift=st.floats(-2.0, 2.0),
    )
    def test_random_problems_certify(self, n, p, seed, lam, scale, shift):
        z = np.random.default_rng(seed).standard_normal((n, p)) * scale + shift
        fit = sim.logistic_fit(z, lam)
        assert fit.converged
        grad = -(z.T @ expit(-(z @ fit.theta))) / n + lam * fit.theta
        assert np.abs(grad).max() <= sim.LOGISTIC_GRAD_TOL
        assert 0.5 * lam * float(fit.theta @ fit.theta) <= math.log(2.0) * (1 + 1e-9)


class TestBlasKernels:
    """Gram, Hessian and residual products run in scipy's BLAS, the runtime
    that factors them; numpy's matmul is the reference."""

    @pytest.mark.parametrize("n, p", [(30, 8), (20, 45)])
    def test_normal_matrix_upper_triangle(self, n, p):
        z = np.random.default_rng(p).standard_normal((n, p)) + 0.3
        gram, rhs = sim._ridge_system(z, 0.5)
        want = z.T @ z / n + 0.5 * np.eye(p)
        assert np.abs(np.triu(gram - want)).max() <= 1e-14 * np.abs(want).max()
        assert np.array_equal(rhs, z.mean(axis=0))

    @pytest.mark.parametrize("n, p", [(80, 10), (30, 60)])
    def test_logistic_matches_numpy_built_hessian(self, n, p, monkeypatch):
        z = np.random.default_rng(p).standard_normal((n, p)) + 0.3
        got = sim.logistic_fit(z, 0.1)
        monkeypatch.setattr(sim, "dsyrk", lambda alpha, a: alpha * (a @ a.T))
        want = sim.logistic_fit(z, 0.1)
        assert got.converged and want.converged
        assert np.abs(got.theta - want.theta).max() <= 1e-12 * np.abs(want.theta).max()

    def test_logistic_matches_numpy_matvecs(self, monkeypatch):
        # The fit as formed with numpy's @ and numpy's LAPACK throughout.
        rng = np.random.default_rng(41)
        n, p, lam = 400, 200, 0.05
        z = rng.standard_normal((n, p)) + 0.2 * rng.standard_normal(p)
        got = sim.logistic_fit(z, lam)

        def cho_solve(factor, b):
            return np.linalg.solve(factor.T, np.linalg.solve(factor, b))

        monkeypatch.setattr(sim, "dgemv", lambda alpha, a, x, trans=0:
                            alpha * ((a.T if trans else a) @ x))
        monkeypatch.setattr(sim, "dsyrk", lambda alpha, a: alpha * (a @ a.T))
        monkeypatch.setattr(sim, "_cholesky", np.linalg.cholesky)
        monkeypatch.setattr(sim, "_cho_solve", cho_solve)
        want = sim.logistic_fit(z, lam)
        assert got.converged and want.converged
        assert np.abs(got.theta - want.theta).max() <= 1e-10 * np.abs(want.theta).max()

    @staticmethod
    def record_kernels(monkeypatch, rhs_norms=None):
        """Record each syrk, Cholesky factor and solve in call order; with
        ``rhs_norms``, append each solve's right-hand side sup-norm there."""
        events = []
        syrk, factor, solve = sim.dsyrk, sim._cholesky, sim._cho_solve

        def counting_syrk(alpha, a, *args, **kwargs):
            events.append(("syrk", a.shape, kwargs.get("trans", 0)))
            return syrk(alpha, a, *args, **kwargs)

        def counting_factor(a, *args, **kwargs):
            events.append(("factor", a.shape))
            return factor(a, *args, **kwargs)

        def counting_solve(c, b):
            events.append(("solve", c.shape, b.shape))
            if rhs_norms is not None:
                rhs_norms.append(float(np.abs(b).max()))
            return solve(c, b)

        monkeypatch.setattr(sim, "dsyrk", counting_syrk)
        monkeypatch.setattr(sim, "_cholesky", counting_factor)
        monkeypatch.setattr(sim, "_cho_solve", counting_solve)
        return events

    def test_one_syrk_per_factorization(self, monkeypatch):
        events = self.record_kernels(monkeypatch)
        rng = np.random.default_rng(23)
        fit = sim.logistic_fit(rng.standard_normal((80, 10)) * 2.0 + 1.0, 0.05)
        assert fit.converged and fit.iters == 26
        hessian = [("syrk", (10, 80), 0), ("factor", (10, 10))]
        solve = [("solve", (10, 10), (10,))]
        # Factors at steps 1, 2 and 4; every other step solves with the last.
        assert events == (hessian + solve) * 2 + solve + hessian + solve * 22
        events.clear()
        assert sim.ridge_fit(rng.standard_normal((30, 8)), 0.3).converged
        assert events == [("syrk", (8, 30), 0), ("factor", (8, 8)), ("solve", (8, 8), (8,))]
        # A ridge path syrks Z0' into the smaller Gram: Z0'Z0 (trans 0) when
        # p <= n, the kernel Z0Z0' (trans 1) when p > n.
        for p, n, trans in [(60, 30, 1), (30, 60, 0)]:
            events.clear()
            results = sim.run_replicates(iso_spec(p, n, alpha=0.0), "squared", 0, 5, 0.5,
                                         [0.0, 2.3, 16.0])
            assert all(r.converged for r in results)
            k = min(n, p)
            assert events == [("syrk", (p, n), trans), ("factor", (k, k)),
                              ("solve", (k, k), (k, 3))]

    @pytest.mark.parametrize("seed, make_z, lam, refactored, reused", [
        (23, lambda rng: rng.standard_normal((80, 10)) * 2.0 + 1.0, 0.05, 1, 22),
        (0, lambda rng: rng.standard_normal((30, 20)) * 10.0 ** rng.uniform(-1, 3, (30, 1)),
         1e-3, 16, 23),
    ])
    def test_factor_kept_while_the_gradient_halves(self, monkeypatch, seed, make_z, lam,
                                                   refactored, reused):
        # Step k solves with -grad at iteration k, so the solves' right-hand
        # sides give every gradient sup-norm but the certifying one.  Steps 1
        # and 2 factor their Hessians, and a later step factors its own only
        # when its gradient sup-norm exceeds half the previous one.
        norms = []
        events = self.record_kernels(monkeypatch, norms)
        z = make_z(np.random.default_rng(seed))
        fit = sim.logistic_fit(z, lam)
        assert fit.converged and len(norms) == fit.iters - 1
        n, p = z.shape
        hessian = [("syrk", (p, n), 0), ("factor", (p, p))]
        solve = [("solve", (p, p), (p,))]
        fresh = [k < 2 or norms[k] > 0.5 * norms[k - 1] for k in range(len(norms))]
        assert events == [e for f in fresh for e in (hessian if f else []) + solve]
        assert (sum(fresh[2:]), fresh.count(False)) == (refactored, reused)


class TestFirstNewtonStep:
    """At theta = 0 the logistic gradient is -mean(z)/2 and the Hessian
    (Z'Z/n + 4 lam I)/4, so the first Newton step is twice the ridge fit at
    4 lam, which ``run_replicates`` takes from one ``ridge_path``."""

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(2, 40),
        dp=st.sampled_from([-1, 1]),
        seed=st.integers(0, 2**32 - 1),
        log_lam=st.floats(math.log(0.01), math.log(2.0)),
        alphas=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=4),
    )
    def test_twice_the_ridge_path_is_the_newton_step(self, n, dp, seed, log_lam, alphas):
        # 2 theta solves H0 s = -g0 to a normwise backward error of 1e-12.
        # A forward comparison with np.linalg.solve cannot hold to 1e-12:
        # up to alpha = 1e3 the two differ by up to 3e-11 relative, and
        # np.linalg.solve and ``ridge_fit`` by up to 9e-12.
        p, lam = n + dp, math.exp(log_lam)
        rng = np.random.default_rng(seed)
        z0 = rng.standard_normal((n, p)) + 0.3
        mask = rng.random(n) < rng.random()
        v = cov.basis_vector(p, int(rng.integers(p)))
        for alpha, fit in zip(alphas, sim.ridge_path(z0, mask, v, 4 * lam, alphas)):
            z = sim.retrigger(z0, mask, v, alpha)
            grad = -z.mean(axis=0) / 2
            hess = z.T @ z / (4 * n) + lam * np.eye(p)
            step = 2 * fit.theta
            scale = np.abs(hess).sum(axis=1).max() * np.abs(step).max() + np.abs(grad).max()
            assert fit.converged
            assert np.abs(hess @ step + grad).max() <= 1e-12 * scale

    # (seed, rows, lam, gradient evaluations with a fresh factor at every
    # step) of five fits; LAZY_ITERS gives their evaluations with kept factors.
    PROBLEMS = [
        (9, lambda rng: rng.standard_normal((60, 15)) + 0.3, 0.2, 5),
        (23, lambda rng: rng.standard_normal((80, 10)) * 2.0 + 1.0, 0.05, 8),
        (41, lambda rng: rng.standard_normal((400, 200)) + 0.2 * rng.standard_normal(200),
         0.05, 8),
        (0, lambda rng: rng.standard_normal((30, 20)) * 10.0 ** rng.uniform(-1, 3, (30, 1)),
         1e-3, 22),
        (7, lambda rng: rng.standard_normal((20, 45)) + 0.3, 0.1, 6),
    ]
    LAZY_ITERS = {9: 11, 23: 26, 41: 24, 0: 42, 7: 10}

    @pytest.mark.parametrize("seed, make_z, lam, iters", PROBLEMS)
    def test_given_step_keeps_the_cold_fit(self, seed, make_z, lam, iters, monkeypatch):
        # With kept factors and with a fresh factor at every step
        # (LOGISTIC_REUSE_RATIO = 0), the factor at theta = 0 serves no
        # later step, so the given step leaves the cold iterates.
        z = make_z(np.random.default_rng(seed))
        first_step = 2 * sim.ridge_fit(z, 4 * lam).theta
        for ratio, want in [(sim.LOGISTIC_REUSE_RATIO, self.LAZY_ITERS[seed]), (0.0, iters)]:
            monkeypatch.setattr(sim, "LOGISTIC_REUSE_RATIO", ratio)
            cold = sim.logistic_fit(z, lam)
            given_step = sim.logistic_fit(z, lam, first_step=first_step)
            assert cold.converged and given_step.converged
            assert cold.iters == given_step.iters == want
            gap = np.abs(given_step.theta - cold.theta).max()
            assert gap <= 1e-13 * (np.linalg.norm(cold.theta) + 1)

    @pytest.mark.parametrize("seed, make_z, lam, iters", PROBLEMS)
    def test_fit_within_strong_convexity_bound_of_a_tight_fit(self, seed, make_z, lam, iters):
        # The objective is lam-strongly convex, so any two points obey
        # |theta - theta'|_2 <= |grad(theta) - grad(theta')|_2 / lam; the
        # gradients are recomputed here, not taken from the solver, and
        # their certificates put the fit within sqrt(p) (tol + 1e-12) / lam
        # of the minimizer.
        z = make_z(np.random.default_rng(seed))
        fit = sim.logistic_fit(z, lam)
        tight = sim.logistic_fit(z, lam, tol=1e-12)
        assert fit.converged and tight.converged

        def grad_norm(theta):
            grad = -(z.T @ expit(-(z @ theta))) / z.shape[0] + lam * theta
            return np.linalg.norm(grad)

        gap = np.linalg.norm(fit.theta - tight.theta)
        bound = (grad_norm(fit.theta) + grad_norm(tight.theta)) / lam
        assert gap <= bound <= math.sqrt(z.shape[1]) * (sim.LOGISTIC_GRAD_TOL + 1e-12) / lam

    # Gradient evaluations of the fits at alpha 0, 2.3 and 16, and the steps
    # that each Hessian factor serves.
    RUNS = {(30, 60): ([24, 10, 22], [22, 4, 4, 2, 2, 16]),
            (60, 30): ([11, 11, 20], [3, 6, 3, 6, 2, 2, 14])}

    @pytest.mark.parametrize("p, n", [(30, 60), (60, 30)])
    def test_one_factorization_per_replicate_and_later_newton_step(self, p, n, monkeypatch):
        # One syrk, factor and three-column solve of the ridge path's Gram
        # (the n x n kernel when p > n) give every alpha's first step.  Each
        # fit then factors its Hessian at step 2 and wherever its gradient
        # stopped halving; RUNS gives the steps each factor serves, in order.
        events = TestBlasKernels.record_kernels(monkeypatch)
        results = sim.run_replicates(iso_spec(p, n, alpha=0.0, lam=0.05), "logistic", 0, 5, 0.5,
                                     [0.0, 2.3, 16.0])
        iters, runs = self.RUNS[p, n]
        assert all(r.converged for r in results)
        assert [r.solver_iters for r in results] == iters
        k = min(n, p)
        hessian = [("syrk", (p, n), 0), ("factor", (p, p))]
        solve = [("solve", (p, p), (p,))]
        assert events == ([("syrk", (p, n), int(p > n)), ("factor", (k, k)),
                           ("solve", (k, k), (k, 3))]
                          + [e for run in runs for e in hessian + solve * run])

    @pytest.mark.parametrize("p, n", [(40, 60), (60, 40)])
    def test_replicate_keeps_the_cold_fits(self, p, n):
        spec = iso_spec(p, n, alpha=0.0, lam=0.05)
        grid = [0.0, 2.3, 16.0]
        z0, mask = sim.draw_replicate(spec, 99, 1)
        for alpha, got in zip(grid, sim.run_replicates(spec, "logistic", 1, 99, 0.5, grid)):
            cold = sim.logistic_fit(sim.retrigger(z0, mask, spec.v, alpha), spec.lam)
            tol = 1e-13 * (np.linalg.norm(cold.theta) + 1)
            assert got.converged and got.solver_iters == cold.iters
            assert abs(got.theta_mu - float(cold.theta @ spec.mu)) <= tol
            assert abs(got.theta_v - float(cold.theta @ spec.v)) <= tol

    def test_uncertified_ridge_fit_leaves_its_alpha_cold(self, monkeypatch):
        spec = iso_spec(40, 60, alpha=0.0)
        grid = [0.0, 2.3, 16.0]
        path = sim.ridge_path

        def failing_middle(*args):
            return [replace(f, converged=False) if i == 1 else f
                    for i, f in enumerate(path(*args))]

        monkeypatch.setattr(sim, "ridge_path", failing_middle)
        got = sim.run_replicates(spec, "logistic", 1, 99, 0.5, grid)[1]
        z0, mask = sim.draw_replicate(spec, 99, 1)
        cold = sim.logistic_fit(sim.retrigger(z0, mask, spec.v, grid[1]), spec.lam)
        assert got.solver_iters == cold.iters
        assert got.theta_mu == float(cold.theta @ spec.mu)
        assert got.theta_v == float(cold.theta @ spec.v)


class TestEvaluation:
    def test_analytic_oracle(self):
        spec = iso_spec(5, 10, alpha=2.0)
        theta = spec.mu.copy()  # theta' mu = 1, theta' v = 0, var = 1
        acc, asr = sim.evaluate_analytic(theta, spec, alpha_test=3.0)
        phi1 = 0.5 * (1 + math.erf(1 / math.sqrt(2)))
        assert acc == pytest.approx(phi1, abs=1e-15)
        assert asr == pytest.approx(1 - phi1, abs=1e-15)

    def test_empirical_agrees_with_analytic(self):
        spec = iso_spec(20, 50)
        rng = np.random.default_rng(77)
        theta = rng.standard_normal(20)
        acc, asr = sim.evaluate_analytic(theta, spec, alpha_test=0.8)
        n_test = 400_000
        acc_mc, asr_mc = evaluate_empirical(
            theta, spec, 0.8, n_test, sim.stream_rng(2, 0, PHASE_TEST)
        )
        # 4-sigma binomial windows.
        for exact, mc in ((acc, acc_mc), (asr, asr_mc)):
            se = math.sqrt(exact * (1 - exact) / n_test)
            assert abs(mc - exact) <= 4 * se


class TestReplicates:
    SPEC = iso_spec(150, 300, alpha=1.0, phi=0.2, lam=0.5)
    SEED = 3021

    def test_run_replicates_is_the_one_entry_point(self):
        # A replicate at one alpha is the grid [alpha].
        assert not hasattr(sim, "run_replicate")

    def test_deterministic(self):
        a = sim.run_replicates(self.SPEC, "squared", 2, self.SEED, 0.5, [self.SPEC.alpha])[0]
        b = sim.run_replicates(self.SPEC, "squared", 2, self.SEED, 0.5, [self.SPEC.alpha])[0]
        assert a == b
        c = sim.run_replicates(self.SPEC, "squared", 3, self.SEED, 0.5, [self.SPEC.alpha])[0]
        assert c.theta_mu != a.theta_mu

    def test_logistic_replicates_match_asymptotics(self):
        """Eight fits at p=150, n=300 land within 4 SE of the
        self-consistent predictions for every tracked functional."""
        state = fp.solve_self_consistent(
            self.SPEC, "logistic", fp.SolverConfig(tol=1e-12)
        )
        pred = fp.theory_predictions(state, 0.5)
        # E ||theta||^2 of the proxy, mbar' R^2 mbar + gamma tr[R^2 C] / n,
        # with R = I / (lam + tau) on C = I and orthonormal mu, v.
        c = cov.mean_combination(state.eta1, state.eta2, self.SPEC.alpha)
        norm_sq = (c @ c + state.gamma * self.SPEC.kappa) / (self.SPEC.lam + state.tau) ** 2
        reps = [
            sim.run_replicates(self.SPEC, "logistic", r, self.SEED, 0.5, [self.SPEC.alpha])[0]
            for r in range(8)
        ]
        assert all(r.converged for r in reps)
        checks = [
            (np.array([r.theta_mu for r in reps]), pred.h_mu),
            (np.array([r.theta_v for r in reps]), pred.h_v),
            (np.array([r.theta_var for r in reps]), pred.sigma_sq),
            (np.array([r.theta_norm_sq for r in reps]), norm_sq),
        ]
        for emp, theory in checks:
            se = emp.std(ddof=1) / math.sqrt(emp.size)
            assert abs(emp.mean() - theory) <= 4 * se

    def test_small_lam_logistic_replicates_match_theory(self):
        """Exact ERM, which uses no quadrature, is the oracle of the logistic
        fixed point at lam = 1e-4: twelve replicates at (p, n) = (400, 800)
        put every theory h_mu, h_v, clean accuracy and ASR, at alpha = 0 and
        1, within 3 SE of the replicate mean."""
        spec = iso_spec(400, 800, alpha=0.0, phi=0.2, lam=1e-4)
        alphas, alpha_test = [0.0, 1.0], 1.0
        reps = [sim.run_replicates(spec, "logistic", r, 11, alpha_test, alphas)
                for r in range(12)]
        for k, alpha in enumerate(alphas):
            state = fp.solve_self_consistent(spec.with_alpha(alpha), "logistic")
            pred = fp.theory_predictions(state, alpha_test)
            fits = [results[k] for results in reps]
            assert state.converged and all(f.converged for f in fits)
            for name, theory in [("theta_mu", pred.h_mu), ("theta_v", pred.h_v),
                                 ("clean_acc", pred.clean_acc), ("asr", pred.asr)]:
                emp = np.array([getattr(f, name) for f in fits])
                se = emp.std(ddof=1) / math.sqrt(emp.size)
                assert abs(emp.mean() - theory) <= 3 * se, (alpha, name)
