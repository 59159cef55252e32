"""Quadrature rules on the reference interval and reference triangle.

Rules are stored in barycentric coordinates with weights summing to the
reference measure, so integrating on a physical element is a weighted sum
of integrand values times mes(K) / mes(ref).  The interval rule is
Gauss-Legendre; the triangle rule collapses a Legendre x Jacobi tensor
product through the square-to-triangle map (x, y) = (u, v(1-u)), whose
Jacobian 1-u is absorbed exactly by the Jacobi weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes in barycentric coordinates plus matching weights.

    Attributes
    ----------
    n : int
        Simplex dimension.
    points : ndarray, shape (npts, n+1)
    weights : ndarray, shape (npts,)
        Sum to the reference simplex measure (1 for n=1, 1/2 for n=2).
    exactness_degree : int
        Total polynomial degree integrated exactly.
    """

    n: int
    points: np.ndarray
    weights: np.ndarray
    exactness_degree: int

    @property
    def size(self):
        return len(self.weights)

    def integrate_reference(self, values):
        """Weighted sum of integrand values on the reference simplex."""
        return float(self.weights @ np.asarray(values, dtype=np.float64))


def _gauss_01(npts):
    from scipy.special import roots_legendre

    x, w = roots_legendre(npts)
    return (x + 1.0) / 2.0, w / 2.0


def interval_rule(degree):
    """Gauss-Legendre rule on the unit interval, exact to >= degree."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    g = max(1, -(-(degree + 1) // 2))
    t, w = _gauss_01(g)
    pts = np.column_stack([1.0 - t, t])
    return QuadratureRule(n=1, points=pts, weights=w, exactness_degree=2 * g - 1)


def triangle_rule(degree):
    """Collapsed tensor rule on the reference triangle, exact to >= degree."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    from scipy.special import roots_jacobi

    g = max(1, -(-(degree + 1) // 2))
    xj, wj = roots_jacobi(g, 1.0, 0.0)
    u = (xj + 1.0) / 2.0
    wu = wj / 4.0
    v, wv = _gauss_01(g)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    x = uu.ravel()
    y = (vv * (1.0 - uu)).ravel()
    w = np.outer(wu, wv).ravel()
    pts = np.column_stack([1.0 - x - y, x, y])
    return QuadratureRule(n=2, points=pts, weights=w, exactness_degree=2 * g - 1)


def simplex_rule(n, degree):
    """Rule on the reference n-simplex; only n = 1 and n = 2 are provided."""
    if n == 1:
        return interval_rule(degree)
    if n == 2:
        return triangle_rule(degree)
    raise NotImplementedError(f"no quadrature rule for n = {n}")
