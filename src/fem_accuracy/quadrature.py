"""Gauss rules on the reference n-simplex, for any n.

Nodes are barycentric and the weights sum to the reference measure 1/n!,
so integrating on an element is a weighted sum times mes(K) / mes(ref).
The rule is Stroud's conical product: in collapsed coordinates
x_{d+1} = u_d (1 - u_0) ... (1 - u_{d-1}) the Jacobian factor
(1 - u_d)^(n-1-d) is the weight of a Gauss-Jacobi(n-1-d, 0) factor on
[0, 1], so g points per factor are exact to total degree 2g - 1.  The factors
come from Newton's method on the three-term recurrence in Python floats, with
no numpy; the cached rules built from them hold read-only arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
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
    """p_g, p_g' and sum_{k<g} p_k^2 at the float x, orthonormal up to one factor; off is padded by 0 and 1."""
    prev, cur, dprev, dcur, squares = 0.0, 1.0, 0.0, 0.0, 0.0
    for d, o, o_next in zip(diag, off, off[1:]):
        squares += cur * cur
        t = x - d
        dprev, dcur = dcur, (cur + t * dcur - o * dprev) / o_next
        prev, cur = cur, (t * cur - o * prev) / o_next
    return cur, dcur, squares


@cache
def _gauss_jacobi_01(g, a):
    """g-point Gauss rule on [0, 1] for the weight (1 - u)^a: ascending nodes and weights, as tuples.

    Newton on p_g, the Jacobi(a, 0) polynomial on [-1, 1], runs until a step is at most 1e-10,
    then takes one more (at rounding level, by quadratic convergence).  Legendre (a = 0) starts
    at Tricomi's asymptotic zeros for x >= 0 and is mirrored, so element matrices keep the
    reflection symmetry of the interval.  For a > 0, where such guesses fail from a = 5 on, the
    zeros come left to right, each by Newton on p_g over the zeros found so far, started from
    its left (half the last gap past the last zero, -1 first), so it converges monotonically.
    Christoffel weights 1 / sum_k p_k^2 at the nodes are scaled to the exact mass 1 / (a + 1).
    """
    s = [2.0 * k + a for k in range(g)]
    diag = [-(a * a) / (sk * (sk + 2.0)) if a else 0.0 for sk in s]
    off = [0.0] + [(sk * sk - a * a) / (2.0 * sk * math.sqrt(sk * sk - 1.0)) for sk in s[1:]] + [1.0]
    x, w = [], []
    for i in range((g + 1) // 2 if a == 0 else g, 0, -1):  # x ascending
        if a == 0:
            theta = (i - 0.25) * math.pi / (g + 0.5)
            xi = math.cos(theta) * (1.0 - (g - 1) / (8 * g**3) - (39 - 28 / math.sin(theta) ** 2) / (384 * g**4))
        else:
            xi = x[-1] + (x[-1] - (x[-2] if len(x) > 1 else -1.0)) / 2 if x else -1.0
        for _ in range(50):
            p, dp, _ = _recurrence(xi, diag, off)
            step = p / (dp - p * sum(1.0 / (xi - r) for r in x)) if a else p / dp
            xi -= step
            if abs(step) <= 1e-10:
                break
        else:
            raise RuntimeError(f"Newton did not converge on the {g}-point Gauss-Jacobi({a}, 0) rule")
        p, dp, squares = _recurrence(xi, diag, off)
        if xi - p / dp != xi:  # the weight is taken at the node returned
            xi -= p / dp
            squares = _recurrence(xi, diag, off)[2]
        x.append(xi)
        w.append(1.0 / squares)
    if a == 0:  # an odd rule's middle node, within 1e-30 of 0, maps to 1/2 exactly
        x, w = [-v for v in reversed(x[g % 2 :])] + x, w[g % 2 :][::-1] + w
    if not all(lo < hi for lo, hi in zip([-1.0, *x], [*x, 1.0])):
        raise RuntimeError(f"the {g}-point Gauss-Jacobi({a}, 0) nodes are not increasing inside (-1, 1)")
    total = (a + 1.0) * math.fsum(w)
    return tuple((v + 1.0) / 2.0 for v in x), tuple(v / total for v in w)


def legendre_factor(g):
    """The cached g-point Gauss-Legendre factor on [0, 1]: nodes and weights as tuples of floats."""
    return _gauss_jacobi_01(int(g), 0)


@cache
def _conical_rule(n, g):
    import numpy as np

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
