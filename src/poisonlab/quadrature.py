"""Gauss-Hermite quadrature against the standard normal weight.

The nodes are the zeros of the orthonormal probabilists' Hermite
polynomial h_n, found by Newton's method on the three-term recurrence

    h_0 = 1,  h_1 = x,  h_{k+1} = (x h_k - sqrt(k) h_{k-1}) / sqrt(k + 1),

from Tricomi's asymptotic zeros, and the weights are the Christoffel
numbers 1 / (n h_{n-1}(x)^2), so ``w @ g(x)`` approximates E[g(xi)] for
xi ~ N(0, 1), and ``w @ g(mean + sigma * x)`` approximates
E[g(mean + sigma * xi)].  No eigensolver runs: numpy's would wake its
own BLAS thread pool (see the ``simulate`` docstring).  All scalar
expectations in the self-consistent solver and the population limit use
these nodes, which keeps node generation and caching in one place.
"""

import math
from functools import lru_cache

import numpy as np

_NEWTON_PASSES = 100


def _hermite(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(h_n(x), h_{n-1}(x)) by the orthonormal recurrence."""
    prev, cur = np.zeros_like(x), np.ones_like(x)
    for k in range(n):
        prev, cur = cur, (x * cur - math.sqrt(k) * prev) / math.sqrt(k + 1)
    return cur, prev


@lru_cache(maxsize=32)
def _nodes(count: int) -> tuple[np.ndarray, np.ndarray]:
    # Tricomi: the k-th largest zero of the physicists' H_n is about
    # sqrt(nu) cos(t / 2), nu = 2n + 1, where t - sin(t) = (4k - 1) pi / nu;
    # He_n's zeros are sqrt(2) times H_n's.  The positive zeros are
    # refined and mirrored, and an odd count adds the zero at 0.
    nu = 2 * count + 1
    rhs = (4.0 * np.arange(count // 2, 0, -1) - 1.0) * math.pi / nu
    # Newton from cbrt(6 rhs), below the root since t - sin(t) <= t^3 / 6,
    # reaches rounding in five passes for every rhs in (0, pi).
    t = np.cbrt(6.0 * rhs)
    for _ in range(6):
        t -= (t - np.sin(t) - rhs) / (1.0 - np.cos(t))
    x = math.sqrt(2.0 * nu) * np.cos(0.5 * t)
    for _ in range(_NEWTON_PASSES):
        h_n, h_prev = _hermite(count, x)
        step = h_n / (math.sqrt(count) * h_prev)  # h_n' = sqrt(n) h_{n-1}
        x -= step
        if np.all(np.abs(step) <= 1e-15 * np.maximum(1.0, x)):
            break
    else:
        raise ArithmeticError(f"Gauss-Hermite nodes did not converge at count {count}")
    x = np.concatenate([-x[::-1], [0.0] * (count % 2), x])
    # Squaring 1 / h_{n-1} rather than h_{n-1} lets the outermost
    # weights of a large rule underflow instead of overflowing.
    w = (1.0 / _hermite(count, x)[1]) ** 2 / count
    return x, w


def standard_normal_nodes(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for E[g(xi)], xi ~ N(0, 1); exact for
    polynomials of degree < 2 * count."""
    if count < 1:
        raise ValueError("node count must be positive")
    x, w = _nodes(int(count))
    return x.copy(), w.copy()
