"""Independent reference computations used by the tests.

These deliberately avoid the package's own quadrature and evaluation
paths: monomial integrals over a simplex come from the closed-form
factorial formula, and polynomial evaluation is done in exact rational
arithmetic, so each test compares two genuinely different routes.
"""

import math
from fractions import Fraction

import numpy as np


def monomial_integral(exps, n, measure=None):
    """Exact integral of prod lambda_i^{e_i} over an n-simplex.

    Equals mes(K) * n! * prod(e_i!) / (sum(e_i) + n)!.  measure defaults
    to the reference simplex measure 1/n!.
    """
    if measure is None:
        measure = Fraction(1, math.factorial(n))
    num = Fraction(math.factorial(n))
    for e in exps:
        num *= math.factorial(e)
    return measure * num / math.factorial(sum(exps) + n)


def polynomial_integral(poly, n, measure=None):
    """Exact integral of a BarycentricPolynomial with rational coefficients."""
    total = Fraction(0)
    for e, c in poly.terms.items():
        total += Fraction(c) * monomial_integral(e, n, measure)
    return total


def rational_eval(poly, lam):
    """Exact evaluation at a rational barycentric point."""
    total = Fraction(0)
    for e, c in poly.terms.items():
        term = Fraction(c)
        for x, p in zip(lam, e):
            term *= Fraction(x) ** p
        total += term
    return total


def loglog_slope(hs, errors):
    """Least-squares slope of log(error) against log(h)."""
    return float(np.polyfit(np.log(np.asarray(hs, float)), np.log(np.asarray(errors, float)), 1)[0])


def interval_geometry(x0, x1):
    """Geometry of the interval [x0, x1] from its exact signed length, rounded once.

    Returns (measure, diameter, barycentric gradients, inscribed diameter)
    like a per-simplex loop: the first, second and last are |L|, and the
    gradients of lambda_0, lambda_1 are -1/L and 1/L, each rounded once.
    """
    length = Fraction(float(Fraction(x1) - Fraction(x0)))
    size = float(abs(length))
    return size, size, np.array([[float(-1 / length)], [float(1 / length)]]), size
