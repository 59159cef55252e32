"""Sobolev seminorms by element-wise quadrature.

A field supplies derivative values on blocks of elements; the engine walks
the mesh in blocks of at most BLOCK_POINTS rule points, applies a rule to
every element of a block at once (a piecewise polynomial field by one matrix
product per row of its basis's shared table), and keeps the per-element
p-th powers (`element_powers`).  `group_seminorms` alone turns them into
seminorms: it adds each group's powers by exact (fsum) summation, so
neither the element order nor a split of the elements into meshes changes a
sum, takes the 1/p-th roots, and refuses (ValueError naming p) what floats
cannot hold; `sobolev_norm` forms a W^{m,p} norm from the seminorms under the
same refusal.  `seminorm` measures one group; fem1d measures all meshes of a
convergence study as groups of one pass.  For integrands that are not
polynomial (absolute values with noninteger p, analytic error terms) a
second rule of higher degree gives a Richardson style quadrature error
estimate (`estimated_seminorms`) that is reported, never silently dropped.
The caller names the rule degree: `seminorm` and `seminorm_with_estimate`
require it, and `interpolation_error` uses 2k + 6.  A field is anything
with deriv_block (an AnalyticFunction is one), and a domain is a
SimplexMesh (a single simplex is the one-element mesh).
"""

from __future__ import annotations

import math

import numpy as np

from .basis import multi_indices
from .kernels import chain_rule_weights, table
from .quadrature import simplex_rule

# Extra rule degree used for the Richardson quadrature error estimate.
ESTIMATE_DEGREE_STEP = 4

# Rule points evaluated together; bounds the size of the per-block point and
# value arrays, so memory does not grow with the mesh.
BLOCK_POINTS = 16_384

# Underflow moves a sum of p-th powers at least this large by at most 2^-105
# relative for each rounding in the underflow range that fed it.
UNDERFLOW_SAFE_SUM = np.finfo(float).tiny / np.finfo(float).eps

# Smallest p measured.  A sum of p-th powers carries a relative rounding
# error of a few eps = 2^-52, and its 1/p-th root multiplies that by 1/p:
# (s (1 + d))^(1/p) = s^(1/p) (1 + d/p + ...).  Below 2^-20 the root's
# relative error can pass 2^-32 (about 2e-10), so most printed digits would
# be noise; at p = 1e-300 a sum that rounds to 1 prints 1.
MIN_P = 2.0**-20


def element_blocks(count, points):
    """Ranges [lo, hi) covering `count` elements (or points) of `points` values each."""
    size = max(1, BLOCK_POINTS // points)
    return [(lo, min(lo + size, count)) for lo in range(0, count, size)]


def derivative_multi_indices(n, l):
    """Spatial multi-indices of total order l in n variables, ascending lex order."""
    return multi_indices(n - 1, l)[::-1]


class PiecewisePolynomialField:
    """The shape functions of a PkBasis combined per element by an (E, N) coefficient array.

    Element e holds sum_i coefficients[e, i] * basis.polynomials[i].  A block
    contracts the basis's shared table at the rule (kernels.table) with its
    elements' coefficients and the chain-rule weights of their gradients.
    """

    def __init__(self, basis, coefficients):
        self.basis = basis
        self.coefficients = np.asarray(coefficients, dtype=np.float64)
        if self.coefficients.ndim != 2 or self.coefficients.shape[1] != basis.size:
            raise ValueError(f"expected (E, {basis.size}) coefficients, got {self.coefficients.shape}")

    def deriv_block(self, mesh, lo, hi, alpha, rule, phys):
        """d^alpha on elements [lo, hi) at the points of the quadrature rule, (hi - lo, npts)."""
        rows = table(self.basis, rule, sum(alpha))
        weights = chain_rule_weights(mesh.element_gradients[lo:hi], alpha)
        coefficients = self.coefficients[lo:hi]
        # One (B, N) @ (N, npts) product per table row s, weighted by
        # weights[:, s] and summed over s left to right.
        return sum(weights[:, s, None] * (coefficients @ row) for s, row in enumerate(rows))


class DifferenceField:
    """Pointwise difference of two fields (error fields)."""

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def deriv_block(self, mesh, lo, hi, alpha, rule, phys):
        args = (mesh, lo, hi, alpha, rule, phys)
        return self.left.deriv_block(*args) - self.right.deriv_block(*args)


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


def group_seminorms(field, mesh, l, p, degree, offsets):
    """Order-l seminorm in L^p of field over each group of elements offsets[j]:offsets[j + 1] of mesh.

    A group's element_powers are summed by math.fsum, and its seminorm is
    the sum's 1/p-th root.  ValueError naming p where floats cannot hold the
    seminorms: p below MIN_P, any overflow, underflow when a sum is below
    UNDERFLOW_SAFE_SUM (a zero sum without underflow is exact), and a root of
    a positive sum that overflows or falls below the normal floats.
    """
    if p < MIN_P:
        raise _unmeasurable(p, "below p = 2^-20 their 1/p-th roots magnify rounding by over 2^20")
    underflows = []
    try:
        with np.errstate(over="raise", under="call", call=lambda *_: underflows.append(True)):
            powers = element_powers(field, mesh, l, p, degree)
        sums = [math.fsum(powers[:, lo:hi].ravel().tolist()) for lo, hi in zip(offsets[:-1], offsets[1:])]
    except (FloatingPointError, OverflowError):
        sums = None
    if sums is None or (underflows and min(sums) < UNDERFLOW_SAFE_SUM):
        raise _unmeasurable(p, "their p-th powers over- or underflow")
    return [_root(s, p, "their 1/p-th roots over- or underflow") for s in sums]


def sobolev_norm(seminorms, p):
    """The W^{m,p} norm (sum_l seminorms[l]^p)^(1/p) of a field from its group_seminorms of
    orders l = 0..m, summed by math.fsum; ValueError naming p where floats cannot hold it."""
    try:
        total = math.fsum(s**p for s in seminorms)
    except OverflowError:
        total = math.inf
    return _root(total, p, "their total or its 1/p-th root over- or underflows")


def _root(total, p, reason):
    """total^(1/p); ValueError with `reason` where a positive total's root over- or underflows."""
    try:
        root = total ** (1.0 / p)
    except OverflowError:
        root = math.inf
    if total > 0 and not np.finfo(float).tiny <= root < math.inf:
        raise _unmeasurable(p, reason)
    return root


def _unmeasurable(p, reason):
    return ValueError(f"the W^{{m,p}} seminorms cannot be measured in floats at p = {p:g}: {reason}")


def seminorm(field, mesh, l, p, degree):
    """Order-l seminorm in L^p (p > 0, all |alpha| = l summed) of a field over a SimplexMesh,
    by a rule of exactness `degree`; ValueError as in group_seminorms."""
    return group_seminorms(field, mesh, l, p, degree, [0, len(mesh)])[0]


def estimated_seminorms(field, mesh, l, p, degree, offsets):
    """(value, |value - coarse|) per group: group_seminorms at degree + ESTIMATE_DEGREE_STEP and at degree."""
    coarse, fine = (group_seminorms(field, mesh, l, p, d, offsets) for d in (degree, degree + ESTIMATE_DEGREE_STEP))
    return [(f, abs(f - c)) for c, f in zip(coarse, fine)]


def seminorm_with_estimate(field, mesh, l, p, degree):
    """`seminorm` with its quadrature error estimate: the one group of estimated_seminorms."""
    return estimated_seminorms(field, mesh, l, p, degree, [0, len(mesh)])[0]


def interpolant_field(fn, mesh, basis):
    """PiecewisePolynomialField of the element-wise Lagrange interpolant of fn.

    The nodes of all elements are mapped at once and fn is sampled in one call.
    """
    nodes = np.array(basis.nodes, dtype=np.float64) @ mesh.element_vertices
    values = np.asarray(fn(nodes.reshape(-1, mesh.n)), dtype=np.float64).reshape(len(mesh), basis.size)
    return PiecewisePolynomialField(basis, values)


def interpolation_error(fn, mesh, basis, l, p, with_estimate=False):
    """Seminorm of fn minus its element-wise interpolant.

    The rule degree is 2k + 6 with the Richardson step on top when
    with_estimate is set, matching the treatment of noninteger p.
    """
    err = DifferenceField(fn, interpolant_field(fn, mesh, basis))
    degree = 2 * basis.k + 6
    if with_estimate:
        return seminorm_with_estimate(err, mesh, l, p, degree)
    return seminorm(err, mesh, l, p, degree)
