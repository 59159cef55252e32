"""Sobolev seminorms by element-wise quadrature.

A field supplies derivative values on blocks of elements; the engine walks
the mesh in blocks of at most BLOCK_POINTS rule points, applies a rule to
every element of a block at once (a piecewise polynomial field by one matrix
product per row of its basis's shared table), and keeps the per-element
p-th powers (`element_powers`), which exact (fsum) summation adds up, so
neither the element order nor a split of the elements into meshes changes a
sum; fem1d measures all meshes of a convergence study in one pass.  For
integrands that are not polynomial (absolute values with noninteger p,
analytic error terms) a second rule of higher degree gives a Richardson
style quadrature error estimate that is reported, never silently dropped.
The caller names the rule degree: `seminorm` and `seminorm_with_estimate`
require it, and `interpolation_error` uses 2k + 6.  A domain is a
SimplexMesh; a Simplex is one, with a single element.
"""

from __future__ import annotations

import math

import numpy as np

from .basis import chain_rule_weights, multi_indices
from .constants import AdmissibilityError, SobolevIndex  # noqa: F401  (importable from norms too)
from .geometry import SimplexMesh
from .quadrature import simplex_rule

# Extra rule degree used for the Richardson quadrature error estimate.
ESTIMATE_DEGREE_STEP = 4

# Rule points evaluated together; bounds the size of the per-block point and
# value arrays, so memory does not grow with the mesh.
BLOCK_POINTS = 16_384


def element_blocks(count, points):
    """Ranges [lo, hi) covering `count` elements (or points) of `points` values each."""
    size = max(1, BLOCK_POINTS // points)
    return [(lo, min(lo + size, count)) for lo in range(0, count, size)]


def derivative_multi_indices(n, l):
    """Spatial multi-indices of total order l in n variables, ascending lex order."""
    return multi_indices(n - 1, l)[::-1]


class AnalyticField:
    """Field backed by an AnalyticFunction; derivatives in closed form."""

    def __init__(self, fn):
        self.fn = fn

    def deriv_block(self, mesh, lo, hi, alpha, rule, phys):
        """d^alpha at the block's physical points phys (hi - lo, npts, n), shape (hi - lo, npts)."""
        return self.fn.deriv_values(alpha, phys.reshape(-1, phys.shape[-1])).reshape(phys.shape[:2])


class PiecewisePolynomialField:
    """The shape functions of a PkBasis combined per element by an (E, N) coefficient array.

    Element e holds sum_i coefficients[e, i] * basis.polynomials[i].  A block
    contracts the basis's shared table at the rule (PkBasis.table) with its
    elements' coefficients and the chain-rule weights of their gradients.
    """

    def __init__(self, basis, coefficients):
        self.basis = basis
        self.coefficients = np.asarray(coefficients, dtype=np.float64)
        if self.coefficients.ndim != 2 or self.coefficients.shape[1] != basis.size:
            raise ValueError(f"expected (E, {basis.size}) coefficients, got {self.coefficients.shape}")

    def deriv_block(self, mesh, lo, hi, alpha, rule, phys):
        """d^alpha on elements [lo, hi) at the points of the quadrature rule, (hi - lo, npts)."""
        table = self.basis.table(rule, sum(alpha))
        weights = chain_rule_weights(mesh.element_gradients[lo:hi], alpha)
        coefficients = self.coefficients[lo:hi]
        # One (B, N) @ (N, npts) product per table row s, weighted by
        # weights[:, s] and summed over s left to right.
        return sum(weights[:, s, None] * (coefficients @ row) for s, row in enumerate(table))


class DifferenceField:
    """Pointwise difference of two fields (error fields)."""

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def deriv_block(self, mesh, lo, hi, alpha, rule, phys):
        args = (mesh, lo, hi, alpha, rule, phys)
        return self.left.deriv_block(*args) - self.right.deriv_block(*args)


def _as_mesh(domain):
    if not isinstance(domain, SimplexMesh):
        raise TypeError("domain must be a Simplex or SimplexMesh")
    return domain


def element_powers(field, mesh, l, p, degree):
    """Integrals of |d^alpha field|^p per direction alpha (|alpha| = l) and element, shape (directions, E).

    math.fsum of any subset of these entries is correctly rounded, so it does
    not depend on their order or on how the elements are split into meshes.
    """
    rule = simplex_rule(mesh.n, degree)
    alphas = derivative_multi_indices(mesh.n, l)
    scales = mesh.element_measures / float(rule.weights.sum())
    out = np.empty((len(alphas), len(mesh)))
    for lo, hi in element_blocks(len(mesh), rule.size):
        if mesh.n == 1:
            # One (B, 2) @ (2, npts) product, several times faster than the
            # broadcast below; in 2D the broadcast is faster, as a GEMM
            # result would need a contiguous copy.
            phys = (mesh.element_vertices[lo:hi, :, 0] @ rule.points.T)[:, :, None]
        else:
            phys = rule.points @ mesh.element_vertices[lo:hi]
        for i, alpha in enumerate(alphas):
            vals = field.deriv_block(mesh, lo, hi, alpha, rule, phys)
            out[i, lo:hi] = scales[lo:hi] * (np.abs(vals) ** p @ rule.weights)
    return out


def _seminorm_power(field, mesh, l, p, degree):
    """Sum over elements of sum_{|alpha|=l} integral |d^alpha field|^p."""
    return math.fsum(element_powers(field, mesh, l, p, degree).ravel().tolist())


def seminorm(field_or_fn, domain, l, p, degree):
    """Order-l seminorm in L^p over a simplex or mesh.

    Parameters
    ----------
    field_or_fn : field object or AnalyticFunction
    domain : Simplex or SimplexMesh (a Simplex is a one-element mesh)
    l : int, derivative order (all |alpha| = l summed).
    p : float > 0.
    degree : int, the exactness degree of the quadrature rule.

    Returns
    -------
    float
    """
    field = _as_field(field_or_fn)
    mesh = _as_mesh(domain)
    return _seminorm_power(field, mesh, l, p, degree) ** (1.0 / p)


def seminorm_with_estimate(field_or_fn, domain, l, p, degree):
    """Seminorm with rule degree + ESTIMATE_DEGREE_STEP, and its distance to the one at degree."""
    field = _as_field(field_or_fn)
    mesh = _as_mesh(domain)
    coarse = _seminorm_power(field, mesh, l, p, degree) ** (1.0 / p)
    fine = _seminorm_power(field, mesh, l, p, degree + ESTIMATE_DEGREE_STEP) ** (1.0 / p)
    return fine, abs(fine - coarse)


def _as_field(obj):
    if hasattr(obj, "deriv_block"):
        return obj
    if hasattr(obj, "deriv_values"):
        return AnalyticField(obj)
    raise TypeError("expected a field or an AnalyticFunction")


def interpolant_field(fn, mesh, basis):
    """PiecewisePolynomialField of the element-wise Lagrange interpolant of fn.

    The nodes of all elements are mapped at once and fn is sampled in one call.
    """
    nodes = basis.node_array @ mesh.element_vertices
    values = np.asarray(fn(nodes.reshape(-1, mesh.n)), dtype=np.float64).reshape(len(mesh), basis.size)
    return PiecewisePolynomialField(basis, values)


def interpolation_error(fn, mesh, basis, l, p, with_estimate=False):
    """Seminorm of fn minus its element-wise interpolant.

    The rule degree is 2k + 6 with the Richardson step on top when
    with_estimate is set, matching the treatment of noninteger p.
    """
    err = DifferenceField(AnalyticField(fn), interpolant_field(fn, mesh, basis))
    degree = 2 * basis.k + 6
    if with_estimate:
        return seminorm_with_estimate(err, mesh, l, p, degree)
    return seminorm(err, mesh, l, p, degree)
