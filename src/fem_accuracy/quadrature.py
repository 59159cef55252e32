"""Gauss rules on the reference n-simplex, for any n.

Nodes are barycentric and the weights sum to the reference measure 1/n!,
so integrating on an element is a weighted sum times mes(K) / mes(ref).
The rule is Stroud's conical product: in collapsed coordinates
x_{d+1} = u_d (1 - u_0) ... (1 - u_{d-1}) the Jacobian factor
(1 - u_d)^(n-1-d) is the weight of a Gauss-Jacobi(n-1-d, 0) factor on
[0, 1], so g points per factor are exact to total degree 2g - 1.  The
factors come from the tridiagonal Jacobi matrix (Golub and Welsch, Math.
Comp. 23, 1969).  Rules are cached, with read-only arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np


@dataclass(frozen=True)
class QuadratureRule:
    """Barycentric nodes (npts, n+1), weights (npts,) summing to 1/n!, and
    the total polynomial degree integrated exactly."""

    n: int
    points: np.ndarray
    weights: np.ndarray
    exactness_degree: int

    @property
    def size(self):
        return len(self.weights)


def _recurrence(x, diag, off):
    """p_g, p_g' and sum_{k<g} p_k^2 at x, orthonormal up to one factor; off is padded by 0 and 1."""
    prev, cur = np.zeros_like(x), np.ones_like(x)
    dprev, dcur = np.zeros_like(x), np.zeros_like(x)
    squares = np.zeros_like(x)
    for k in range(len(diag)):
        squares += cur**2
        nxt = ((x - diag[k]) * cur - off[k] * prev) / off[k + 1]
        dprev, dcur = dcur, (cur + (x - diag[k]) * dcur - off[k] * dprev) / off[k + 1]
        prev, cur = cur, nxt
    return cur, dcur, squares


def _gauss_jacobi_01(g, a):
    """g-point Gauss rule on [0, 1] for the weight (1 - u)^a, nodes ascending.

    Eigenvalues of the Jacobi matrix on [-1, 1], one Newton step on the
    recurrence, and Christoffel weights 1 / sum_k p_k^2 scaled to the exact
    mass 1 / (a + 1).  The Legendre factor (a = 0) is made symmetric, so
    element matrices keep the reflection symmetry of the interval.
    """
    s = 2.0 * np.arange(g) + a
    diag = -(a * a) / (s * (s + 2.0)) if a else np.zeros(g)
    off = (s[1:] ** 2 - a * a) / (2.0 * s[1:] * np.sqrt(s[1:] ** 2 - 1.0))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    off = np.concatenate([[0.0], off, [1.0]])
    p, dp, _ = _recurrence(x, diag, off)
    x = x - p / dp
    w = 1.0 / _recurrence(x, diag, off)[2]
    if a == 0:
        x, w = (x - x[::-1]) / 2.0, (w + w[::-1]) / 2.0
    return (x + 1.0) / 2.0, w / ((a + 1.0) * w.sum())


@cache
def _conical_rule(n, g):
    factors = [_gauss_jacobi_01(g, n - 1 - d) for d in range(n)]
    u = [c.ravel() for c in np.meshgrid(*[f[0] for f in factors], indexing="ij")]
    weights = np.prod(np.meshgrid(*[f[1] for f in factors], indexing="ij"), axis=0).ravel()
    points = np.ones((g**n, n + 1))
    for d in range(n):
        points[:, d + 1] = u[d] * points[:, 0]
        points[:, 0] *= 1.0 - u[d]
    points.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(n=n, points=points, weights=weights, exactness_degree=2 * g - 1)


def simplex_rule(n, degree):
    """Conical product Gauss rule on the reference n-simplex, exact to >= degree.

    Degrees served by the same number of points share one rule object.
    """
    if n < 1 or degree < 0:
        raise ValueError(f"need n >= 1 and degree >= 0, got n = {n}, degree = {degree}")
    return _conical_rule(int(n), max(1, -(-(int(degree) + 1) // 2)))


def interval_rule(degree):
    """Gauss-Legendre rule on the unit interval, exact to >= degree."""
    return simplex_rule(1, degree)
