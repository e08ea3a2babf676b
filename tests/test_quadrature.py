"""Gauss-Hermite quadrature against the standard normal."""

import math

import numpy as np
import pytest

from poisonlab import standard_normal_nodes

# E[xi^k] for xi ~ N(0,1): odd moments vanish, even are double factorials.
STANDARD_MOMENTS = {0: 1.0, 1: 0.0, 2: 1.0, 3: 0.0, 4: 3.0, 5: 0.0, 6: 15.0, 7: 0.0, 8: 105.0}


def normal_expect(g, mean, sigma, nodes):
    """E[g(mean + sigma * xi)] on the rule, as its callers form it."""
    x, w = standard_normal_nodes(nodes)
    return float(w @ g(mean + sigma * x))


def test_nodes_normalized():
    x, w = standard_normal_nodes(100)
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    assert abs(float(w @ x)) < 1e-13


def test_standard_moments_exact():
    for k, expected in STANDARD_MOMENTS.items():
        val = normal_expect(lambda t, k=k: t**k, 0.0, 1.0, nodes=100)
        assert val == pytest.approx(expected, abs=1e-12), k


def test_shifted_scaled_second_moment():
    # E[(M + sigma xi)^2] = M^2 + sigma^2
    val = normal_expect(lambda t: t**2, 1.7, 2.3, nodes=50)
    assert val == pytest.approx(1.7**2 + 2.3**2, rel=1e-13)


def test_polynomial_exactness_random_coefficients():
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal(7)
    mean, sigma = 0.4, 1.2
    # closed form via binomial expansion against standard moments
    expected = 0.0
    for k, c in enumerate(coeffs):
        for j in range(k + 1):
            expected += (
                c
                * math.comb(k, j)
                * mean ** (k - j)
                * sigma**j
                * STANDARD_MOMENTS[j]
            )
    val = normal_expect(lambda t: sum(c * t**k for k, c in enumerate(coeffs)), mean, sigma, nodes=40)
    assert val == pytest.approx(expected, rel=1e-12)


def test_single_node_returns_mean_value():
    assert normal_expect(lambda t: t + 1.0, 2.0, 1.0, nodes=1) == pytest.approx(3.0, abs=1e-14)


def test_node_count_stability_on_smooth_integrand():
    # Logistic-type integrands are analytic; 100 vs 200 nodes must agree
    # far below solver tolerance.
    from scipy.special import expit

    for mean, sigma in [(0.0, 1.0), (2.0, 0.5), (-3.0, 2.0)]:
        a = normal_expect(lambda t: expit(-t), mean, sigma, nodes=100)
        b = normal_expect(lambda t: expit(-t), mean, sigma, nodes=200)
        assert a == pytest.approx(b, abs=1e-12)


@pytest.mark.parametrize("count", [1, 2, 3, 5, 10, 50, 100, 150, 250, 370])
def test_rule_matches_scipy(count):
    # The Newton-refined rule against scipy's probabilists' Hermite rule,
    # normalized to the standard normal density.
    from scipy.special import roots_hermitenorm

    x_ref, w_ref = roots_hermitenorm(count)
    x, w = standard_normal_nodes(count)
    assert np.abs(x - x_ref).max() <= 5e-14
    assert np.abs(w - w_ref / math.sqrt(2.0 * math.pi)).max() <= 1e-15


def test_invalid_arguments():
    with pytest.raises(ValueError):
        standard_normal_nodes(0)


def test_gaussian_cdf_integrand():
    # E[1{xi <= c}] is not smooth, but E[Phi-like smooth sigmoids] of a
    # normal have closed forms: E[exp(s xi)] = exp(s^2 / 2).
    val = normal_expect(lambda t: np.exp(0.7 * t), 0.0, 1.0, nodes=100)
    assert val == pytest.approx(math.exp(0.7**2 / 2), rel=1e-12)
