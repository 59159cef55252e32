"""The package's one float layer: shape-function tables at float points.

Each shape function of a PkBasis is the product phi_i = prod_v a_{i_v}(lambda_v)
of univariate node factors (`basis`), so its barycentric derivative with
orders[v] derivatives in variable v is prod_v a_{i_v}^{(orders[v])}(lambda_v),
exactly.  `factor_tables` evaluates every a_i^{(r)} at the points by the
recurrence over the linear factors, and `derivative_rows`, the one generator
of table rows, multiplies them into the values of one derivative at a time:
`tabulate` stacks its rows, one per multi-index, and `bounds` scans them.
Only basis.n, basis.k and basis.indices are read; the exact term maps stay in
`basis`.  `table` keeps a basis's table read-only per cached quadrature rule
and order, shared by every element and field of the basis, and
`chain_rule_weights` turns a table into physical derivatives on a whole block
of elements, given the block's barycentric gradients as one array.  A table
of order l has C(n+l, n) rows, one per barycentric derivative.
"""

import numpy as np

from .basis import multi_indices
from .quadrature import simplex_rule


def factor_tables(k, t, order):
    """a_i^{(r)}(t) for r <= order and i <= k, shape (order + 1, k + 1) + t.shape.

    a_0 = 1 and a_c(t) = a_{c-1}(t) (k t - c + 1) / c, so by Leibniz's rule
    factor c sends a^{(r)} to a^{(r)} (k t - c + 1) / c + r a^{(r-1)} k / c.
    Derivatives past a factor's degree are zeros.
    """
    values = np.zeros((order + 1, k + 1) + t.shape)
    values[0, 0] = 1.0
    for c in range(1, k + 1):
        values[:, c] = values[:, c - 1] * ((k * t - (c - 1)) / c)
        for r in range(1, order + 1):
            values[r, c] += (r * k / c) * values[r - 1, c - 1]
    return values


def derivative_rows(basis, points, order):
    """Yield (orders, rows) for each barycentric derivative of total order `order`.

    points is (npts, n+1); rows, (N, npts), holds d^orders phi_i of shape
    function i at the points, the product of its factor values taken
    variable 0 first.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != basis.n + 1:
        raise ValueError(f"points must have shape (npts, {basis.n + 1}), got {pts.shape}")
    factors = factor_tables(basis.k, pts.T, order)
    indices = np.array(basis.indices)
    for orders in multi_indices(basis.n, order):
        rows = factors[orders[0], indices[:, 0], 0]
        for v in range(1, basis.n + 1):
            rows = rows * factors[orders[v], indices[:, v], v]
        yield orders, rows


def tabulate(basis, points, order):
    """Barycentric derivatives of order `order` of each shape function at the points.

    Returns an array of shape (C(n+order, n), N, npts): row s holds d^beta of
    every shape function, beta the s-th multi-index of multi_indices(n, order),
    in barycentric orders.  Orders beyond the degree give zeros.
    """
    return np.array([rows for _, rows in derivative_rows(basis, points, order)])


def table(basis, rule, order):
    """tabulate(basis, rule.points, order), read-only.  For a cached rule of
    simplex_rule it is built once and kept in basis.tables, under (n,
    exactness degree, order); any other rule is tabulated on every call."""
    key = (rule.n, rule.exactness_degree, order)
    shared = rule is simplex_rule(rule.n, rule.exactness_degree)
    values = basis.tables.get(key) if shared else None
    if values is None:
        values = tabulate(basis, rule.points, order)
        values.setflags(write=False)
        if shared:
            basis.tables[key] = values
    return values


def chain_rule_weights(gradients, alpha):
    """Weights turning a barycentric derivative table into d^alpha in x.

    gradients is an array of barycentric gradients G of shape (..., n+1, n),
    for instance one row per element of a block.  d/dx_j = sum_q G[q, j]
    d/dlambda_q, so d^alpha = prod_j (sum_q G[q, j] d/dlambda_q)^alpha_j, and
    row beta of `tabulate` has the weight of t^beta in prod_j (sum_q G[q, j] t_q)^alpha_j,
    multiplied out one factor at a time.  Returns shape (..., C(n+l, n)), l = |alpha|.
    """
    grads = np.asarray(gradients)
    n = grads.shape[-1]
    if len(alpha) != n:
        raise ValueError(f"alpha must have {n} entries")
    weights = {(0,) * (n + 1): np.ones(grads.shape[:-2])}
    for j in [j for j, times in enumerate(alpha) for _ in range(times)]:
        grown = {}
        for beta, weight in weights.items():
            for q in range(n + 1):
                term, key = weight * grads[..., q, j], beta[:q] + (beta[q] + 1,) + beta[q + 1 :]
                grown[key] = grown[key] + term if key in grown else term
        weights = grown
    return np.stack([weights[beta] for beta in multi_indices(n, sum(alpha))], axis=-1)
