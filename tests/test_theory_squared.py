"""Closed-form squared-loss theory against independent oracles.

The projection formulas are rational expressions obtained by hand
elimination.  Here they are checked against a linear-system oracle that
never performs that elimination: the two mixture-mean alignments solve

    (I + tau * G * Pi) M = tau * G * Pi * 1

where G is the resolvent Gram matrix of the mixture means and
Pi = diag(1 - phi, phi).  The peak location is checked against a
bounded scalar minimizer, and the phi derivatives against central
finite differences.
"""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from poisonlab import covariance as cov
from poisonlab import theory_squared as th

RNG = np.random.default_rng(1618)

# Scalar roots for C = I: tau^2 + (lam + kappa - 1) tau - lam = 0.
TAU_HALF_HALF = math.sqrt(0.5)          # lam = 0.5, kappa = 0.5
TAU_ONE_ONE = (math.sqrt(5.0) - 1) / 2  # lam = 1,   kappa = 1

# Frozen instance: iso, lam=0.5, kappa=0.5, ||mu||=1, phi=0.2, alpha=1.
H_MU_FROZEN = 0.23117778293581906
H_V_FROZEN = 0.12911471922613746
ALPHA_STAR_FROZEN = 3.035859185688669


def iso_tau_oracle(lam: float, kappa: float, scale: float = 1.0) -> float:
    """Positive root of s*tau^2 + (lam + kappa*s - s)*tau - lam = 0."""
    b = lam + kappa * scale - scale
    return (-b + math.sqrt(b * b + 4.0 * scale * lam)) / (2.0 * scale)


def explicit_resolvent(model: cov.SpectrumCovariance, lam: float, tau: float) -> np.ndarray:
    """(lam I + tau C)^{-1} by matrix inversion; non-dense models are diagonal."""
    c = model.matrix if isinstance(model, cov.DenseCovariance) else np.diag(model.eigenvalues())
    return np.linalg.inv(lam * np.eye(model.dim) + tau * c)


def linear_system_oracle(spec: cov.ProblemSpec, tau: float) -> tuple[float, float]:
    """(h_mu, h_v) via the 2x2 alignment system, no hand elimination."""
    u = np.stack(spec.mixture_means(), axis=1)
    w1, w2 = spec.class_weights()
    r = explicit_resolvent(spec.cov, spec.lam, tau)
    gram = u.T @ r @ u
    pi = np.diag([w1, w2])
    lhs = np.eye(2) + tau * gram @ pi
    m_vec = np.linalg.solve(lhs, tau * gram @ pi @ np.ones(2))
    eta = tau * pi @ (1.0 - m_vec)
    mbar = u @ eta
    return float(spec.mu @ r @ mbar), float(spec.v @ r @ mbar)


def random_dense_spec(rng, p: int, alpha: float, phi: float, lam: float, n: int):
    basis = np.linalg.qr(rng.standard_normal((p, p)))[0]
    eigs = rng.uniform(0.2, 3.0, size=p)
    mat = (basis * eigs) @ basis.T
    model = cov.DenseCovariance(0.5 * (mat + mat.T))
    mu = rng.standard_normal(p)
    v = rng.standard_normal(p)
    v /= np.linalg.norm(v)
    return cov.ProblemSpec(cov=model, mu=mu, v=v, alpha=alpha, phi=phi, lam=lam, n=n)


def iso_spec(p: int, n: int, alpha: float, phi: float, lam: float) -> cov.ProblemSpec:
    return cov.ProblemSpec(
        cov=cov.IsotropicCovariance(p),
        mu=cov.basis_vector(p, 0),
        v=cov.basis_vector(p, 1),
        alpha=alpha,
        phi=phi,
        lam=lam,
        n=n,
    )


class TestSolveTau:
    def test_isotropic_matches_quadratic_root(self):
        for lam in (0.1, 0.5, 1.0, 3.0):
            for p, n in ((40, 200), (100, 200), (210, 200)):
                scal = th.solve_tau(cov.IsotropicCovariance(p), lam, n)
                assert scal.tau == pytest.approx(iso_tau_oracle(lam, p / n), rel=1e-12)

    def test_scaled_isotropic_matches_quadratic_root(self):
        for scale in (0.3, 2.5):
            scal = th.solve_tau(cov.IsotropicCovariance(60, scale=scale), 0.7, 120)
            assert scal.tau == pytest.approx(iso_tau_oracle(0.7, 0.5, scale), rel=1e-12)

    def test_frozen_roots(self):
        scal = th.solve_tau(cov.IsotropicCovariance(100), 0.5, 200)
        assert scal.tau == pytest.approx(TAU_HALF_HALF, abs=1e-14)
        scal = th.solve_tau(cov.IsotropicCovariance(200), 1.0, 200)
        assert scal.tau == pytest.approx(TAU_ONE_ONE, abs=1e-14)

    def test_residual_certificate_dense(self):
        spec = random_dense_spec(RNG, 25, 1.0, 0.1, 0.4, 80)
        scal = th.solve_tau(spec.cov, 0.4, 80)
        r = explicit_resolvent(spec.cov, 0.4, scal.tau)
        d = float(np.trace(spec.cov.matrix @ r)) / 80
        assert abs(scal.tau * (1.0 + d) - 1.0) <= th.TAU_RESIDUAL_TOL
        assert scal.delta == pytest.approx(d, rel=1e-12)

    def test_tau_decreases_with_overparametrization(self):
        # More directions per sample leave less weight on the data term.
        taus = [
            th.solve_tau(cov.IsotropicCovariance(p), 0.5, 100).tau
            for p in (10, 50, 100, 200, 400)
        ]
        assert all(a > b for a, b in zip(taus, taus[1:]))

    def test_low_dimension_limit(self):
        # kappa -> 0 kills the trace correction, so tau -> 1.
        scal = th.solve_tau(cov.IsotropicCovariance(2), 1.0, 10**9)
        assert scal.tau == pytest.approx(1.0, abs=1e-8)

    def test_invalid_arguments(self):
        model = cov.IsotropicCovariance(4)
        with pytest.raises(ValueError):
            th.solve_tau(model, 0.0, 10)
        with pytest.raises(ValueError):
            th.solve_tau(model, -1.0, 10)
        with pytest.raises(ValueError):
            th.solve_tau(model, 1.0, 0)


class TestProjections:
    def test_matches_linear_system_oracle(self):
        for trial in range(8):
            p = int(RNG.integers(8, 40))
            alpha = float(RNG.uniform(0.0, 8.0))
            phi = float(RNG.uniform(0.01, 0.45))
            lam = float(RNG.uniform(0.05, 2.0))
            n = int(RNG.integers(p, 4 * p))
            spec = random_dense_spec(RNG, p, alpha, phi, lam, n)
            scal = th.solve_tau(spec.cov, lam, n)
            got = th.projections_exact(spec, scal)
            want = linear_system_oracle(spec, scal.tau)
            assert got[0] == pytest.approx(want[0], rel=1e-10, abs=1e-12)
            assert got[1] == pytest.approx(want[1], rel=1e-10, abs=1e-12)

    def test_frozen_isotropic_values(self):
        spec = iso_spec(100, 200, alpha=1.0, phi=0.2, lam=0.5)
        scal = th.solve_tau(spec.cov, 0.5, 200)
        h_mu, h_v = th.projections_exact(spec, scal)
        assert h_mu == pytest.approx(H_MU_FROZEN, rel=1e-13)
        assert h_v == pytest.approx(H_V_FROZEN, rel=1e-13)

    def test_alpha_zero_orthogonal_geometry(self):
        """Without a planted trigger the poisoned class only flips labels:
        the trigger alignment vanishes and the mean alignment shrinks by
        the flipped mass (1 - 2 phi)."""
        spec = iso_spec(50, 100, alpha=0.0, phi=0.15, lam=0.8)
        scal = th.solve_tau(spec.cov, 0.8, 100)
        m = spec.spectral.moments(spec.lam, scal.tau).r[0, 0]
        h_mu, h_v = th.projections_exact(spec, scal)
        assert h_v == 0.0
        expect = scal.tau * (1.0 - 0.3) * m / (1.0 + scal.tau * m)
        assert h_mu == pytest.approx(expect, rel=1e-14)

    def test_phi_zero_reduces_to_clean_ridge(self):
        spec = random_dense_spec(RNG, 20, 3.0, 0.3, 0.6, 60)
        clean = cov.ProblemSpec(
            cov=spec.cov, mu=spec.mu, v=spec.v, alpha=3.0, phi=0.0, lam=0.6, n=60
        )
        scal = th.solve_tau(spec.cov, 0.6, 60)
        (m, eps), _ = clean.spectral.moments(clean.lam, scal.tau).r.tolist()
        h_mu, h_v = th.projections_exact(clean, scal)
        denom = 1.0 + scal.tau * m
        assert h_mu == pytest.approx(scal.tau * m / denom, rel=1e-14)
        assert h_v == pytest.approx(scal.tau * eps / denom, rel=1e-14)

    def test_eigen_shortcut_matches_exact(self):
        p, n, lam, phi, alpha = 80, 160, 0.5, 0.2, 2.5
        s_mu_sq, s_v_sq = 2.0, 0.5
        model = cov.EigenPairCovariance(p, s_mu_sq=s_mu_sq, s_v_sq=s_v_sq)
        spec = cov.ProblemSpec(
            cov=model,
            mu=1.3 * cov.basis_vector(p, 0),
            v=cov.basis_vector(p, 1),
            alpha=alpha,
            phi=phi,
            lam=lam,
            n=n,
        )
        scal = th.solve_tau(model, lam, n)
        want = th.projections_exact(spec, scal)
        # mu and v are eigendirections: m and q are single resolvent ratios, eps = 0.
        m = 1.3**2 / (lam + scal.tau * s_mu_sq)
        q = 1.0 / (lam + scal.tau * s_v_sq)
        got = th._projections_from_gram(m, 0.0, q, scal.tau, phi, alpha)
        assert got == pytest.approx(want, rel=1e-13)

    def test_isotropic_eigen_form_matches_exact(self):
        # Isotropic C is the eigen form with s_mu_sq = s_v_sq = scale.
        p, n, lam, phi, alpha, scale = 60, 120, 0.5, 0.1, 4.0, 1.4
        spec = cov.ProblemSpec(
            cov=cov.IsotropicCovariance(p, scale=scale),
            mu=math.sqrt(1.7) * cov.basis_vector(p, 0),
            v=cov.basis_vector(p, 1),
            alpha=alpha, phi=phi, lam=lam, n=n,
        )
        scal = th.solve_tau(spec.cov, lam, n)
        r = 1.0 / (lam + scal.tau * scale)
        got = th._projections_from_gram(1.7 * r, 0.0, r, scal.tau, phi, alpha)
        assert got == pytest.approx(th.projections_exact(spec, scal), rel=1e-13)

    def test_trigger_alignment_positive_on_grid(self):
        for lam in (0.1, 1.0):
            for kappa in (0.2, 1.1):
                tau = iso_tau_oracle(lam, kappa)
                r = 1.0 / (lam + tau)
                for alpha in (0.5, 2.0, 10.0):
                    _, h_v = th._projections_from_gram(r, 0.0, r, tau, 0.1, alpha)
                    assert h_v > 0.0


class TestAlphaStar:
    def test_matches_bounded_minimizer(self):
        """Golden-section argmax of the rational h_v(alpha) lands on the
        closed-form positive root on randomized dense instances."""
        for trial in range(10):
            p = int(RNG.integers(6, 30))
            phi = float(RNG.uniform(0.02, 0.45))
            lam = float(RNG.uniform(0.05, 2.0))
            n = int(RNG.integers(p, 3 * p))
            spec = random_dense_spec(RNG, p, 1.0, phi, lam, n)
            scal = th.solve_tau(spec.cov, lam, n)
            (m, eps), (_, q) = spec.spectral.moments(lam, scal.tau).r.tolist()
            star = th.alpha_star_exact(spec, scal)

            def neg_h_v(a):
                return -th._projections_from_gram(m, eps, q, scal.tau, phi, a)[1]

            hi = 10.0 * star.exact + 10.0
            res = minimize_scalar(
                neg_h_v, bounds=(0.0, hi), method="bounded",
                options={"xatol": 1e-10},
            )
            assert star.exact == pytest.approx(res.x, abs=1e-6)
            # The root is a genuine interior maximum.
            assert neg_h_v(star.exact) < min(neg_h_v(0.0), neg_h_v(hi))

    def test_frozen_isotropic_peak(self):
        tau = TAU_HALF_HALF
        r = 1.0 / (0.5 + tau)
        star = th._alpha_star_from_gram(r, 0.0, r, tau, phi=0.2).exact
        assert star == pytest.approx(ALPHA_STAR_FROZEN, rel=1e-13)

    def test_orthogonal_case_exact_equals_leading(self):
        spec = iso_spec(100, 200, alpha=1.0, phi=0.2, lam=0.5)
        scal = th.solve_tau(spec.cov, 0.5, 200)
        star = th.alpha_star_exact(spec, scal)
        assert star.exact == pytest.approx(star.leading, rel=1e-14)

    def test_gap_shrinks_with_cross_alignment(self):
        """As the mean-trigger resolvent overlap is dialed to zero the
        exact root collapses onto its leading-order form."""
        p, n, lam, phi = 60, 120, 0.5, 0.2
        model = cov.IsotropicCovariance(p)
        scal = th.solve_tau(model, lam, n)
        gaps = []
        for eps in (0.1, 0.01, 0.001):
            c = eps * (lam + scal.tau)  # mu' R v = c / (lam + tau)
            mu = math.sqrt(1.0 - c * c) * cov.basis_vector(p, 0)
            mu = mu + c * cov.basis_vector(p, 1)
            spec = cov.ProblemSpec(
                cov=model, mu=mu, v=cov.basis_vector(p, 1),
                alpha=1.0, phi=phi, lam=lam, n=n,
            )
            star = th.alpha_star_exact(spec, scal)
            gaps.append(abs(star.exact - star.leading))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_phi_zero_rejected(self):
        spec = iso_spec(40, 80, alpha=1.0, phi=0.0, lam=0.5)
        scal = th.solve_tau(spec.cov, 0.5, 80)
        with pytest.raises(ValueError):
            th.alpha_star_exact(spec, scal)


class TestPhiSensitivity:
    @staticmethod
    def fd_oracle(norm_mu_sq, lam, tau, phi, alpha, h=1e-6):
        r = 1.0 / (lam + tau)
        lo = th._projections_from_gram(norm_mu_sq * r, 0.0, r, tau, phi - h, alpha)
        hi = th._projections_from_gram(norm_mu_sq * r, 0.0, r, tau, phi + h, alpha)
        return (hi[1] - lo[1]) / (2 * h), (hi[0] - lo[0]) / (2 * h)

    def test_matches_central_differences(self):
        for lam in (0.1, 0.5, 1.0):
            for kappa in (0.2, 0.5, 1.1):
                tau = iso_tau_oracle(lam, kappa)
                m = 1.0 / (lam + tau)
                for phi in (0.05, 0.2, 0.35):
                    for alpha in (0.1, 1.0, 5.0, 20.0):
                        got = th.phi_sensitivity(m, m, tau, phi, alpha)
                        want = self.fd_oracle(1.0, lam, tau, phi, alpha)
                        assert got[0] == pytest.approx(want[0], rel=2e-6, abs=1e-9)
                        assert got[1] == pytest.approx(want[1], rel=2e-6, abs=1e-9)

    def test_mean_alignment_always_erodes(self):
        for lam in (0.1, 0.5, 1.0):
            for kappa in (0.2, 0.5, 1.1):
                tau = iso_tau_oracle(lam, kappa)
                m = 1.0 / (lam + tau)
                for phi in (0.01, 0.2, 0.45):
                    for alpha in (0.0, 0.5, 3.0, 50.0):
                        _, dh_mu = th.phi_sensitivity(m, m, tau, phi, alpha)
                        assert dh_mu < 0.0

    def test_trigger_derivative_changes_sign(self):
        # Small alpha: extra poison adds trigger signal.  Large alpha:
        # the poisoned mass saturates the denominator and dilutes it.
        tau = TAU_HALF_HALF
        m = 1.0 / (0.5 + tau)
        low, _ = th.phi_sensitivity(m, m, tau, 0.2, 0.1)
        high, _ = th.phi_sensitivity(m, m, tau, 0.2, 20.0)
        assert low > 0.0
        assert high < 0.0
