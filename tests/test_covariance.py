"""Covariance models, the resolvent-moment evaluator, and problem validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poisonlab as pl
from poisonlab import covariance as cov


def random_spd(rng, p):
    a = rng.standard_normal((p, p))
    return a @ a.T / p + 0.5 * np.eye(p)


def dense_oracle(c, lam, tau, a, b, n):
    """The six resolvent moments by explicit matrix algebra on [a, b]."""
    r = np.linalg.inv(lam * np.eye(c.shape[0]) + tau * c)
    u = np.stack([a, b], axis=1)
    rcr = r @ c @ r
    grams = (u.T @ r @ u, u.T @ rcr @ u, u.T @ rcr @ c @ r @ u)
    traces = (np.trace(c @ r) / n, np.trace(c @ c @ r @ r) / n, np.trace(c @ rcr @ c @ r) / n)
    return grams, traces


class TestModels:
    def test_isotropic_eigenvalues(self):
        model = pl.IsotropicCovariance(5, scale=2.5)
        assert np.all(model.eigenvalues() == 2.5)
        assert model.dim == 5

    def test_eigen_pair_layout(self):
        model = pl.EigenPairCovariance(6, s_mu_sq=2.0, s_v_sq=0.5, s_rest_sq=1.5)
        ev = model.eigenvalues()
        assert ev[0] == 2.0 and ev[1] == 0.5
        assert np.all(ev[2:] == 1.5)

    def test_spectrum_copies_input(self):
        ev = np.array([1.0, 2.0, 3.0])
        model = pl.SpectrumCovariance(ev)
        ev[0] = 99.0
        assert model.eigenvalues()[0] == 1.0

    def test_dense_matches_matrix(self):
        rng = np.random.default_rng(0)
        c = random_spd(rng, 8)
        model = pl.DenseCovariance(c)
        w = np.sort(model.eigenvalues())
        w_ref = np.sort(np.linalg.eigvalsh(c))
        assert np.allclose(w, w_ref, rtol=0, atol=1e-12)

    def test_dense_rejects_asymmetric(self):
        c = np.eye(4)
        c[0, 1] = 1e-6
        with pytest.raises(ValueError, match="symmetric"):
            pl.DenseCovariance(c)

    def test_dense_rejects_indefinite(self):
        c = np.diag([1.0, -0.5, 2.0])
        with pytest.raises(ValueError, match="positive definite"):
            pl.DenseCovariance(c)

    def test_invalid_scales_rejected(self):
        with pytest.raises(ValueError):
            pl.IsotropicCovariance(4, scale=0.0)
        with pytest.raises(ValueError):
            pl.EigenPairCovariance(4, s_mu_sq=1.0, s_v_sq=-1.0)
        with pytest.raises(ValueError):
            pl.SpectrumCovariance(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            pl.EigenPairCovariance(1, s_mu_sq=1.0, s_v_sq=1.0)

    def test_from_csv_applies_jitter(self, tmp_path):
        # Rank-1 PSD matrix is singular; ingestion must regularize it.
        u = np.array([1.0, 2.0, 3.0])
        c = np.outer(u, u)
        path = tmp_path / "cov.csv"
        np.savetxt(path, c, delimiter=",")
        model = pl.DenseCovariance.from_csv(path)
        jitter = 1e-4 * np.trace(c) / 3
        assert np.allclose(model.matrix, c + jitter * np.eye(3), rtol=0, atol=1e-12)

    def test_from_csv_rejects_nonsquare(self, tmp_path):
        path = tmp_path / "cov.csv"
        np.savetxt(path, np.ones((2, 3)), delimiter=",")
        with pytest.raises(ValueError, match="square"):
            pl.DenseCovariance.from_csv(path)

    def test_sample_noise_covariance(self):
        rng = np.random.default_rng(3)
        model = pl.EigenPairCovariance(3, s_mu_sq=2.0, s_v_sq=0.5, s_rest_sq=1.0)
        x = model.sample_noise(rng, 200_000)
        emp = x.T @ x / x.shape[0]
        assert np.allclose(emp, np.diag([2.0, 0.5, 1.0]), atol=0.03)

    def test_named_models_sample_as_their_spectrum(self):
        cases = [
            (pl.IsotropicCovariance(7, scale=2.5), np.full(7, 2.5)),
            (pl.EigenPairCovariance(7, s_mu_sq=2.0, s_v_sq=0.5, s_rest_sq=1.5),
             np.array([2.0, 0.5, 1.5, 1.5, 1.5, 1.5, 1.5])),
        ]
        for model, ev in cases:
            got = model.sample_noise(np.random.default_rng(21), 50)
            want = pl.SpectrumCovariance(ev).sample_noise(np.random.default_rng(21), 50)
            np.testing.assert_array_equal(got, want)
        # A constant spectrum draws what a scalar scale multiply draws.
        iso = cases[0][0].sample_noise(np.random.default_rng(21), 50)
        scalar = np.random.default_rng(21).standard_normal((50, 7)) * np.sqrt(2.5)
        np.testing.assert_array_equal(iso, scalar)

    def test_dense_sample_noise_covariance(self):
        rng = np.random.default_rng(4)
        c = random_spd(rng, 4)
        x = pl.DenseCovariance(c).sample_noise(rng, 300_000)
        emp = x.T @ x / x.shape[0]
        assert np.allclose(emp, c, atol=0.03)


class TestDenseScipyRuntime:
    """DenseCovariance factors, samples and rotates in scipy's LAPACK and
    BLAS; numpy's expressions are the reference."""

    def test_factors_reconstruct_the_matrix(self):
        c = random_spd(np.random.default_rng(5), 60)
        model = pl.DenseCovariance(c)
        basis, chol = model._basis, model._chol
        scale = np.abs(c).max()
        assert np.abs((basis * model.eigenvalues()) @ basis.T - c).max() <= 1e-12 * scale
        assert np.abs(chol @ chol.T - c).max() <= 1e-12 * scale

    def test_sample_noise_is_the_draw_times_the_factor(self):
        model = pl.DenseCovariance(random_spd(np.random.default_rng(6), 50))
        got = model.sample_noise(np.random.default_rng(9), 70)
        want = np.random.default_rng(9).standard_normal((70, 50)) @ model._chol.T
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_to_eigenbasis_is_the_transposed_basis_product(self):
        rng = np.random.default_rng(8)
        model = pl.DenseCovariance(random_spd(rng, 40))
        vec = rng.standard_normal(40)
        want = model._basis.T @ vec
        assert np.abs(model.to_eigenbasis(vec) - want).max() <= 1e-13 * np.abs(want).max()


class TestFunctionals:
    # C = I at scale 1: R = 1/(lam + tau) * I, so every moment is an
    # explicit ratio.
    def test_isotropic_closed_forms(self):
        p, n, lam, tau = 40, 80, 0.5, 0.5
        model = pl.IsotropicCovariance(p)
        rng = np.random.default_rng(1)
        a = rng.standard_normal(p)
        b = rng.standard_normal(p)
        mom = pl.SpectralTable(model, n, a, b).moments(lam, tau)
        gram = np.array([[a @ a, a @ b], [a @ b, b @ b]])
        np.testing.assert_allclose(mom.r, gram, rtol=1e-14)
        np.testing.assert_allclose(mom.rcr, gram, rtol=1e-14)
        assert mom.tr_cr == pytest.approx(p / n, rel=1e-14)
        assert mom.tr_c2r2 == pytest.approx(p / n, rel=1e-14)
        assert pl.cov_quad(model, a, a) == pytest.approx(a @ a, rel=1e-14)

    def test_eigen_pair_gram_entry(self):
        model = pl.EigenPairCovariance(10, s_mu_sq=2.0, s_v_sq=0.5)
        mu = 1.5 * pl.basis_vector(10, 0)
        v = pl.basis_vector(10, 1)
        mom = pl.SpectralTable(model, 20, mu, v).moments(0.3, 0.7)
        assert mom.r[0, 0] == pytest.approx(1.5**2 / (0.3 + 0.7 * 2.0), rel=1e-15)
        assert mom.r[1, 1] == pytest.approx(1.0 / (0.3 + 0.7 * 0.5), rel=1e-15)
        assert mom.r[0, 1] == 0.0

    def test_dense_against_matrix_oracle(self):
        # mu and v are generic, not eigenvectors of C.
        rng = np.random.default_rng(7)
        for trial in range(5):
            p = int(rng.integers(3, 12))
            c = random_spd(rng, p)
            lam = float(rng.uniform(0.05, 2.0))
            tau = float(rng.uniform(0.0, 1.5))
            a = rng.standard_normal(p)
            b = rng.standard_normal(p)
            n = 2 * p
            mom = pl.SpectralTable(pl.DenseCovariance(c), n, a, b).moments(lam, tau)
            grams, traces = dense_oracle(c, lam, tau, a, b, n)
            for got, want in zip((mom.r, mom.rcr, mom.rcrcr), grams):
                for g, w in zip(got.ravel(), want.ravel()):
                    assert g == pytest.approx(w, rel=1e-10)
            for got, want in zip((mom.tr_cr, mom.tr_c2r2, mom.tr_c3r3), traces):
                assert got == pytest.approx(want, rel=1e-12)
            assert pl.cov_quad(pl.DenseCovariance(c), a, b) == pytest.approx(
                a @ c @ b, rel=1e-10
            )

    def test_structured_equals_dense_on_same_spectrum(self):
        # The same covariance expressed structurally and as an explicit
        # matrix must give identical moments.
        ev = np.array([2.0, 0.5, 1.0, 1.0, 1.0])
        rng = np.random.default_rng(11)
        a = rng.standard_normal(5)
        b = rng.standard_normal(5)
        structured = pl.SpectralTable(pl.SpectrumCovariance(ev), 10, a, b).moments(0.4, 0.9)
        dense = pl.SpectralTable(pl.DenseCovariance(np.diag(ev)), 10, a, b).moments(0.4, 0.9)
        for got, want in zip(structured, dense):
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_quadratic_form_properties(self):
        rng = np.random.default_rng(13)
        model = pl.DenseCovariance(random_spd(rng, 6))
        a = rng.standard_normal(6)
        b = rng.standard_normal(6)

        def gram_r(x, y):
            return pl.SpectralTable(model, 12, x, y).moments(0.2, 1.1).r

        mom = pl.SpectralTable(model, 12, a, b).moments(0.2, 1.1)
        # symmetry
        for g in (mom.r, mom.rcr, mom.rcrcr):
            assert g[0, 1] == g[1, 0]
        assert gram_r(b, a)[0, 1] == pytest.approx(mom.r[0, 1], rel=1e-12)
        # linearity in the first slot
        lhs = gram_r(2.0 * a + b, b)[0, 1]
        rhs = 2.0 * mom.r[0, 1] + mom.r[1, 1]
        assert lhs == pytest.approx(rhs, rel=1e-12)
        # positive definiteness of R, RCR and RCRCR on span{a, b}
        for g in (mom.r, mom.rcr, mom.rcrcr):
            assert np.all(np.linalg.eigvalsh(g) > 0)

    def test_trace_monotone_in_tau(self):
        model = pl.SpectrumCovariance(np.linspace(0.5, 3.0, 20))
        table = pl.SpectralTable(model, 40, np.zeros(20), np.zeros(20))
        vals = [table.moments(0.5, t).tr_cr for t in (0.0, 0.3, 0.8, 1.5)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_dimension_mismatch_rejected(self):
        models = [
            pl.IsotropicCovariance(4),
            pl.EigenPairCovariance(4, s_mu_sq=2.0, s_v_sq=0.5),
            pl.SpectrumCovariance(np.array([0.5, 1.0, 2.0, 3.0])),
            pl.DenseCovariance(random_spd(np.random.default_rng(2), 4)),
        ]
        good = np.ones(4)
        for model in models:
            for bad in (np.ones(3), np.ones((4, 1))):
                for a, b in ((bad, good), (good, bad)):
                    with pytest.raises(ValueError, match="incompatible with dim 4"):
                        pl.SpectralTable(model, 8, a, b)
                    with pytest.raises(ValueError, match="incompatible with dim 4"):
                        pl.cov_quad(model, a, b)

    def test_invalid_resolvent_arguments_rejected(self):
        table = pl.SpectralTable(pl.IsotropicCovariance(4), 8, np.ones(4), np.ones(4))
        for lam, tau in ((0.0, 0.5), (np.inf, 0.5), (np.nan, 0.5),
                         (0.5, -0.1), (0.5, np.inf), (0.5, np.nan)):
            with pytest.raises(ValueError):
                table.moments(lam, tau)

    @settings(max_examples=50, deadline=None)
    @given(
        p=st.integers(1, 20),
        seed=st.integers(0, 2**32 - 1),
        lam=st.floats(0.01, 10.0),
        tau=st.floats(0.0, 10.0),
    )
    def test_random_spd_matches_matrix_oracle(self, p, seed, lam, tau):
        rng = np.random.default_rng(seed)
        c = random_spd(rng, p)
        a = rng.standard_normal(p)
        b = rng.standard_normal(p)
        mom = pl.SpectralTable(pl.DenseCovariance(c), 2 * p, a, b).moments(lam, tau)
        grams, traces = dense_oracle(c, lam, tau, a, b, 2 * p)
        # tau and lam span three decades here, so a small cross entry is
        # held to the scale of its Gram matrix rather than to itself.
        for got, want in zip((mom.r, mom.rcr, mom.rcrcr), grams):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * np.abs(want).max())
        for got, want in zip((mom.tr_cr, mom.tr_c2r2, mom.tr_c3r3), traces):
            assert got == pytest.approx(want, rel=1e-11)


class TestProblemSpec:
    def make(self, **kw):
        p = kw.pop("p", 6)
        base = dict(
            cov=pl.IsotropicCovariance(p),
            mu=pl.basis_vector(p, 0),
            v=pl.basis_vector(p, 1),
            alpha=1.0,
            phi=0.1,
            lam=0.5,
            n=12,
        )
        base.update(kw)
        return pl.ProblemSpec(**base)

    def test_kappa_and_dims(self):
        spec = self.make()
        assert spec.p == 6
        assert spec.kappa == pytest.approx(0.5)

    def test_mixture_means(self):
        spec = self.make(alpha=3.0)
        m1, m2 = spec.mixture_means()
        assert np.allclose(m1, spec.mu)
        assert np.allclose(m2, 3.0 * spec.v - spec.mu)
        assert spec.class_weights() == (0.9, 0.1)

    def test_phi_zero_allowed_half_rejected(self):
        assert self.make(phi=0.0).phi == 0.0
        with pytest.raises(ValueError):
            self.make(phi=0.5)
        with pytest.raises(ValueError):
            self.make(phi=-0.01)

    def test_non_unit_trigger_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            self.make(v=2.0 * pl.basis_vector(6, 1))

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            self.make(alpha=-1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            self.make(mu=np.ones(5))

    def test_with_alpha(self):
        spec = self.make(alpha=1.0)
        spec2 = spec.with_alpha(4.0)
        assert spec2.alpha == 4.0 and spec.alpha == 1.0

    def test_with_alpha_shares_the_spectral_table(self):
        # The table depends on (cov, mu, v, n) only, so a derived spec
        # reads the same moments as one built from scratch at its alpha.
        rng = np.random.default_rng(7)
        mu, v = rng.standard_normal(6), rng.standard_normal(6)
        spec = self.make(cov=pl.DenseCovariance(random_spd(rng, 6)), mu=mu,
                         v=v / np.linalg.norm(v))
        derived = spec.with_alpha(30.0)
        assert derived.spectral is spec.spectral
        fresh = self.make(cov=spec.cov, mu=spec.mu, v=spec.v, alpha=30.0)
        assert fresh.spectral is not spec.spectral
        for tau in (0.0, 0.3, 7.0):
            got, want = derived.spectral.moments(0.5, tau), fresh.spectral.moments(0.5, tau)
            for name, a, b in zip(got._fields, got, want):
                assert np.array_equal(a, b), (name, tau)

    @pytest.mark.parametrize("alpha", [-1.0, np.inf, np.nan])
    def test_with_alpha_rejects_what_the_spec_rejects(self, alpha):
        message = "alpha must be nonnegative and finite"
        with pytest.raises(ValueError, match=message):
            self.make(alpha=alpha)
        with pytest.raises(ValueError, match=message):
            self.make().with_alpha(alpha)

    def test_basis_vector_bounds(self):
        with pytest.raises(ValueError):
            pl.basis_vector(3, 3)
