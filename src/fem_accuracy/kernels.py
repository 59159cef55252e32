"""The package's one float layer: polynomial lists evaluated at float points.

A list of polynomials in nvars variables is one exponent array of its
distinct monomials prod_v x_v ** exps[t, v] and one coefficient matrix C with
a column per polynomial (`coefficient_matrix`; `derivative_matrices` gives
one per exact barycentric derivative of an order).  Its values at a point
set are V @ C, V being the (npts, nterms) table of the monomials' values:
`eval_terms`, the one float evaluation routine.  `tabulate` makes one
`eval_terms` call per derivative, `table` keeps a basis's table read-only per
cached quadrature rule and order, shared by every element and field of the
basis, and `chain_rule_weights` turns a table into physical derivatives on a
whole block of elements, given the block's barycentric gradients as one
array.  The term maps themselves are exact, in `basis`.
"""

import itertools

import numpy as np

from .basis import multi_indices
from .quadrature import simplex_rule


def eval_terms(points, exps, coeffs):
    """Values V @ coeffs of a polynomial list at many points.

    points : (npts, nvars) float64
    exps   : (nterms, nvars) int64, the monomials of the whole list
    coeffs : (nterms, npolys) float64, or (nterms,) for one polynomial
    returns (npts, npolys) float64, or (npts,)
    """
    pts = np.asarray(points, dtype=np.float64)
    nterms, nvars = exps.shape
    if pts.shape[1] != nvars:
        raise ValueError(f"points have {pts.shape[1]} coordinates, expected {nvars}")
    # powers[v, :, e] = x_v ** e; V gathers one column of it per variable.
    powers = pts.T[:, :, None] ** np.arange(exps.max(initial=0) + 1)
    monomials = np.ones((len(pts), nterms))
    for v in range(nvars):
        monomials *= powers[v][:, exps[:, v]]
    return monomials @ coeffs


def coefficient_matrix(polynomials):
    """A polynomial list as the (exps, coeffs) pair of eval_terms.

    exps, (nterms, nvars) int64, holds the distinct exponent tuples of the
    list in order of first appearance; coeffs, (nterms, len(polynomials)),
    holds polynomial j's coefficients, as floats, in column j.
    """
    rows = {}
    for p in polynomials:
        for e in p.terms:
            rows.setdefault(e, len(rows))
    exps = np.array(list(rows), dtype=np.int64).reshape(-1, polynomials[0].nvars)
    coeffs = np.zeros((len(rows), len(polynomials)))
    for j, p in enumerate(polynomials):
        for e, c in p.terms.items():
            coeffs[rows[e], j] = float(c)
    return exps, coeffs


def derivative_matrices(polynomials, order):
    """The coefficient_matrix of each exact barycentric derivative of total order `order` of a
    list, keyed by orders (orders[v] derivatives in variable v); past the degree it has no terms."""
    return {
        orders: coefficient_matrix([p.lambda_derivative(orders) for p in polynomials])
        for orders in multi_indices(polynomials[0].nvars - 1, order)
    }


def tabulate(polynomials, points, order):
    """Barycentric derivatives of order `order` of each polynomial at the points.

    Returns an array of shape ((nvars)^order, N, npts): row s holds
    d/dlambda_{q_1} ... d/dlambda_{q_order} of every polynomial, where q is
    the s-th sequence of itertools.product(range(nvars), repeat=order).
    Derivatives are taken exactly; only the evaluation is in floats.  Orders
    beyond the degree give zeros.
    """
    nvars = polynomials[0].nvars
    rows = {orders: eval_terms(points, *matrix).T for orders, matrix in derivative_matrices(polynomials, order).items()}
    sequences = itertools.product(range(nvars), repeat=order)
    return np.array([rows[tuple(map(seq.count, range(nvars)))] for seq in sequences])


def table(basis, rule, order):
    """tabulate(basis.polynomials, rule.points, order), read-only.  For a cached
    rule of simplex_rule it is built once and kept in basis.tables, under (n,
    exactness degree, order); any other rule is tabulated on every call."""
    key = (rule.n, rule.exactness_degree, order)
    shared = rule is simplex_rule(rule.n, rule.exactness_degree)
    values = basis.tables.get(key) if shared else None
    if values is None:
        values = tabulate(basis.polynomials, rule.points, order)
        values.setflags(write=False)
        if shared:
            basis.tables[key] = values
    return values


def chain_rule_weights(gradients, alpha):
    """Weights turning a barycentric derivative table into d^alpha in x.

    gradients is an array of barycentric gradients G of shape (..., n+1, n),
    for instance one row per element of a block.  With the directions
    (j_1, ..., j_l) of alpha, sequence q of `tabulate` has the weight
    prod_s G[q_s, j_s]; this is d/dx_j = sum_q G[q, j] d/dlambda_q applied
    once per unit of alpha[j].  Returns shape (..., (n+1)^l).
    """
    grads = np.asarray(gradients)
    lead = grads.shape[:-2]
    if len(alpha) != grads.shape[-1]:
        raise ValueError(f"alpha must have {grads.shape[-1]} entries")
    weights = np.ones(lead + (1,))
    for j, times in enumerate(alpha):
        for _ in range(times):
            weights = (weights[..., :, None] * grads[..., None, :, j]).reshape(lead + (-1,))
    return weights
