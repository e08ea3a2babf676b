"""Gauss-Hermite quadrature against the standard normal weight.

Nodes come from scipy's probabilists' rule (weight exp(-x^2 / 2)),
normalized once, so ``w @ g(x)`` approximates E[g(xi)] for
xi ~ N(0, 1), and ``w @ g(mean + sigma * x)`` approximates
E[g(mean + sigma * xi)].  All scalar expectations in the
self-consistent solver and the population limit use these nodes, which
keeps node generation and caching in one place.
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
