"""Gauss-Hermite quadrature against the standard normal weight.

Nodes come from scipy's probabilists' rule (weight exp(-x^2 / 2)),
normalized once, so ``sum(w * g(x))`` approximates E[g(xi)] for
xi ~ N(0, 1).  All scalar expectations in the self-consistent solver
and the population limit route through here, which keeps node counts
and caching in one place.
"""

from functools import lru_cache

import numpy as np
from scipy.special import roots_hermitenorm


@lru_cache(maxsize=32)
def _nodes(count: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = roots_hermitenorm(count)
    return x, w / np.sqrt(2.0 * np.pi)


def standard_normal_nodes(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for E[g(xi)], xi ~ N(0, 1); exact for
    polynomials of degree < 2 * count."""
    if count < 1:
        raise ValueError("node count must be positive")
    x, w = _nodes(int(count))
    return x.copy(), w.copy()


def gh_expect(g, mean: float, sigma: float, nodes: int = 100) -> float:
    """E[g(mean + sigma * xi)] for xi ~ N(0, 1).

    ``sigma = 0`` degenerates to g(mean) exactly.  ``g`` must accept an
    ndarray and evaluate elementwise.
    """
    if not np.isfinite(mean):
        raise ValueError("mean must be finite")
    if not (np.isfinite(sigma) and sigma >= 0):
        raise ValueError("sigma must be nonnegative and finite")
    if sigma == 0.0:
        return float(g(np.asarray([mean]))[0])
    x, w = _nodes(int(nodes))
    return float(w @ g(mean + sigma * x))
