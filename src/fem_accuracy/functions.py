"""Analytic test functions with derivatives of every order.

The norm engine needs partial derivatives of the exact solution at
arbitrary points; the classes here supply them in closed form.  An
AnalyticFunction is itself a field of the norm engine: its deriv_block
evaluates d^alpha at a block's physical rule points.
"""

from __future__ import annotations

import math

import numpy as np


class AnalyticFunction:
    """Scalar function on R^n with closed-form partial derivatives.

    Subclasses implement deriv_values(alpha, x) for an (npts, n) point
    array, read through _points(x); __call__ evaluates the function itself.
    """

    n = 1

    def deriv_values(self, alpha, x):
        raise NotImplementedError

    def deriv_block(self, mesh, lo, hi, alpha, rule, phys):
        """d^alpha at the block's physical points phys (hi - lo, npts, n), shape (hi - lo, npts)."""
        return self.deriv_values(alpha, phys.reshape(-1, phys.shape[-1])).reshape(phys.shape[:2])

    def _points(self, x):
        """x as (npts, n); a 1-D x is npts points when n = 1 and one point otherwise."""
        x = np.asarray(x, dtype=np.float64)
        x = x.reshape(-1, 1) if x.ndim == 1 and self.n == 1 else np.atleast_2d(x)
        if x.ndim != 2 or x.shape[1] != self.n:
            raise ValueError(f"expected points of dimension {self.n}, got shape {x.shape}")
        return x

    def __call__(self, x):
        return self.deriv_values((0,) * self.n, x)


class SinPiProduct(AnalyticFunction):
    """Product of sin(pi x_i) over the coordinates.

    Any derivative is again a product of shifted sines:
    d^r/dt^r sin(pi t) = pi^r sin(pi t + r pi/2).
    """

    def __init__(self, n=1):
        self.n = n

    def deriv_values(self, alpha, x):
        x = self._points(x)
        out = np.sin(np.pi * x[:, 0] + alpha[0] * np.pi / 2.0)
        for i, r in enumerate(alpha[1:], start=1):
            out *= np.sin(np.pi * x[:, i] + r * np.pi / 2.0)
        order = sum(alpha)
        return out * np.pi**order if order else out


class Polynomial1D(AnalyticFunction):
    """Univariate polynomial sum(c_j x^j) with exact derivatives."""

    n = 1

    def __init__(self, coefficients):
        self.coefficients = [float(c) for c in coefficients]

    def deriv_values(self, alpha, x):
        (r,) = alpha
        x = self._points(x)[:, 0]
        out = np.zeros_like(x)
        for j, c in enumerate(self.coefficients):
            if j >= r and c != 0.0:
                out += c * math.perm(j, r) * x ** (j - r)
        return out
