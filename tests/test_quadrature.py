"""The closure map's quadrature rule: composite Gauss-Legendre over the
prox output u (``fixed_point.margin_rule``)."""

import math

import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.optimize import brentq
from scipy.special import expit

from poisonlab import fixed_point as fp
from poisonlab.losses import LogisticLoss, SquaredLoss

# E[xi^k] for xi ~ N(0,1): odd moments vanish, even are double factorials.
STANDARD_MOMENTS = {0: 1.0, 1: 0.0, 2: 1.0, 3: 0.0, 4: 3.0, 5: 0.0, 6: 15.0, 7: 0.0, 8: 105.0}


def abs_moment(j):
    """E|xi|^j for xi ~ N(0, 1)."""
    return 2.0 ** (j / 2) * math.gamma((j + 1) / 2) / math.sqrt(math.pi)


def normal_moment(mean, sigma, k):
    """E[(mean + sigma xi)^k] by the binomial expansion."""
    return sum(math.comb(k, j) * mean ** (k - j) * sigma**j * STANDARD_MOMENTS[j]
               for j in range(k + 1))


def moment_scale(mean, sigma, k):
    """E[(|mean| + sigma |xi|)^k], the size of the terms of E[x^k]."""
    return sum(math.comb(k, j) * abs(mean) ** (k - j) * sigma**j * abs_moment(j)
               for j in range(k + 1))


def rule_expect(g, loss, delta, mean, sigma):
    """E[g(x)], x ~ N(mean, sigma^2), on the rule: the weights times the
    Jacobian 1 + delta L''(u) against g at x(u) = u + delta L'(u)."""
    u, d1, _, w = fp.margin_rule(loss, delta, (mean,), sigma)
    return float(w[0] @ ((1.0 + delta * loss.second_deriv(u[0])) * g(u[0] + delta * d1[0])))


def test_nodes_normalized():
    cases = [(loss, delta, mean, sigma) for loss in (SquaredLoss(), LogisticLoss())
             for delta in (0.0, 0.75, 321.0)
             for mean, sigma in ((0.0, 1.0), (5.0, 0.6), (-40.0, 67.0))]
    for loss, delta, mean, sigma in cases:
        assert rule_expect(np.ones_like, loss, delta, mean, sigma) == pytest.approx(
            1.0, abs=1e-13), (loss.name, delta, mean, sigma)
        assert rule_expect(lambda x: x, loss, delta, mean, sigma) == pytest.approx(
            mean, abs=1e-13 * (abs(mean) + sigma)), (loss.name, delta, mean, sigma)


def test_standard_moments_exact():
    for k, expected in STANDARD_MOMENTS.items():
        val = rule_expect(lambda x, k=k: x**k, LogisticLoss(), 1.0, 0.0, 1.0)
        assert val == pytest.approx(expected, abs=1e-12), k


@pytest.mark.parametrize("loss", [SquaredLoss(), LogisticLoss()], ids=lambda l: l.name)
@pytest.mark.parametrize("delta", [0.0, 0.75, 321.0])
@pytest.mark.parametrize("mean, sigma", [(0.0, 1.0), (5.0, 0.6), (-40.0, 67.0)])
def test_moments_through_the_prox(loss, delta, mean, sigma):
    """E[x^k] for k <= 8 to 1e-12 of E[(|M| + sigma |xi|)^k] through the
    prox.  A rule with one segment across the bulk of +-12 sigma misses
    E[x^8] = 105 of the squared loss by 1.2e-3 at (0, 1)."""
    for k in range(9):
        got = rule_expect(lambda x, k=k: x**k, loss, delta, mean, sigma)
        want = normal_moment(mean, sigma, k)
        assert abs(got - want) <= 1e-12 * moment_scale(mean, sigma, k), k


def test_shifted_scaled_second_moment():
    # E[(M + sigma xi)^2] = M^2 + sigma^2
    val = rule_expect(lambda x: x**2, SquaredLoss(), 0.7, 1.7, 2.3)
    assert val == pytest.approx(1.7**2 + 2.3**2, rel=1e-13)


def test_polynomial_exactness_random_coefficients():
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal(7)
    mean, sigma = 0.4, 1.2
    expected = sum(c * normal_moment(mean, sigma, k) for k, c in enumerate(coeffs))
    val = rule_expect(lambda t: sum(c * t**k for k, c in enumerate(coeffs)),
                      LogisticLoss(), 2.5, mean, sigma)
    assert val == pytest.approx(expected, rel=1e-12)


def score_expect(delta, mean, sigma):
    """E[f(x)] of the logistic score f(x) = -L'(prox(delta, x)) on the rule."""
    loss = LogisticLoss()
    u, d1, _, w = fp.margin_rule(loss, delta, (mean,), sigma)
    return float(w[0] @ (-(1.0 + delta * loss.second_deriv(u[0])) * d1[0]))


def test_node_count_stability_on_smooth_integrand(monkeypatch):
    # The rule integrates functions of u; twice the nodes per segment must
    # agree far below solver tolerance.
    cases = [(delta, mean, sigma) for delta in (0.0, 0.75, 321.0, 2.4e5)
             for mean, sigma in ((0.0, 1.0), (2.0, 0.5), (-3.0, 2.0), (7.6, 27.7))]
    score = [score_expect(*case) for case in cases]
    monkeypatch.setattr(fp, "_LEGENDRE", np.polynomial.legendre.leggauss(2 * len(fp._LEGENDRE[0])))
    for case, want in zip(cases, score):
        assert score_expect(*case) == pytest.approx(want, abs=1e-14), case


@pytest.mark.parametrize("delta", [1, 2, 3, 5, 10, 50, 100, 150, 250, 370])
def test_rule_matches_scipy(delta):
    """E[f], E[f^2] and E[f'] of the logistic score f(x) = -L'(prox(delta, x))
    on the rule against scipy's adaptive quadrature over x, with a brentq
    prox at every x."""
    loss, mean, sigma = LogisticLoss(), 1.5, 8.0

    def integrands(x):
        u = brentq(lambda t: t - delta * expit(-t) - x, x - 1.0, x + delta + 1.0,
                   xtol=1e-300, rtol=1e-15)
        f, ell2 = expit(-u), expit(u) * expit(-u)
        density = math.exp(-0.5 * ((x - mean) / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
        return density * np.array([f, f * f, -ell2 / (1.0 + delta * ell2)])

    want = quad_vec(integrands, mean - 12.0 * sigma, mean + 12.0 * sigma,
                    epsabs=1e-14, epsrel=1e-13)[0]
    u, d1, _, w = fp.margin_rule(loss, float(delta), (mean,), sigma)
    f, ell2 = -d1[0], loss.second_deriv(u[0])
    jac = 1.0 + delta * ell2
    got = [w[0] @ (jac * f), w[0] @ (jac * f * f), -(w[0] @ ell2)]
    assert np.abs(np.array(got) - want).max() <= 1e-12


def test_invalid_arguments():
    with pytest.raises(ValueError):
        fp.margin_rule(LogisticLoss(), -1.0, (0.0,), 1.0)


def test_gaussian_cdf_integrand():
    # E[exp(s x)] of a normal has the closed form exp(s M + s^2 sigma^2 / 2).
    val = rule_expect(lambda t: np.exp(0.7 * t), LogisticLoss(), 0.75, 0.0, 1.0)
    assert val == pytest.approx(math.exp(0.7**2 / 2), rel=1e-12)
