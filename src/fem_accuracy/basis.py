"""Lagrange shape functions of degree k on an n-simplex.

The basis is indexed by multi-indices (i_1, ..., i_{n+1}) with |i| = k; the
node of index i has barycentric coordinates (i_1/k, ..., i_{n+1}/k).  Each
shape function is the product phi_i = prod_v a_{i_v}(lambda_v) of univariate
node factors built from the node spacing 1/k, kept as an immutable term map
with exact rational coefficients: its terms are the products of one term per
factor, and derivatives in the barycentric variables take one pass over the
terms.  There are no arithmetic operators on polynomials.  Construction,
differentiation and evaluation at rational points are exact; floating point
enters only when evaluating at float points.  Float work goes through one
route: `coefficient_matrix` turns a polynomial list into one float
coefficient matrix over its distinct monomials, `tabulate` evaluates the
exact barycentric derivatives of a list at float points with one
`kernels.eval_terms` call per derivative order, `PkBasis.table` keeps the
table of a basis read-only per quadrature rule and order, so every element
and field of the basis shares it, and `chain_rule_weights` turns a table into
physical derivatives on a whole block of elements at once, given the (float)
barycentric gradients of the block as one array.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

import numpy as np

from . import kernels
from .quadrature import simplex_rule

# Refuse bases whose size would be absurd to materialize.
MAX_BASIS_SIZE = 200_000


def multi_indices(n, k):
    """All (n+1)-tuples of nonnegative integers summing to k, descending lex order."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for v in range(remaining, -1, -1):
            rec(prefix + (v,), remaining - v, slots - 1)

    rec((), k, n + 1)
    return out


class BarycentricPolynomial:
    """Polynomial in the barycentric variables as a term map.

    terms maps an exponent tuple (one entry per variable) to a nonzero
    coefficient: Fraction for the exact shape functions, though any number
    type works.  Instances are treated as immutable and support only what the
    basis needs: derivatives, evaluation and the reduced form.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms):
        self.nvars = nvars
        clean = {}
        for exps, c in terms.items():
            if len(exps) != nvars:
                raise ValueError(f"exponent tuple {exps} has wrong length for {nvars} variables")
            if c == 0:
                continue
            clean[tuple(int(e) for e in exps)] = c
        self.terms = clean

    def lambda_derivative(self, orders):
        """Iterated derivative; orders[v] counts derivatives in variable v, one entry
        per variable.  c * lambda^e gives c * prod_v e_v!/(e_v - orders[v])! or 0."""
        terms = {}
        for e, c in self.terms.items():
            if all(p >= o for p, o in zip(e, orders, strict=True)):
                terms[tuple(p - o for p, o in zip(e, orders))] = c * math.prod(map(math.perm, e, orders))
        return BarycentricPolynomial(self.nvars, terms)

    def evaluate(self, lam):
        """Evaluate at one barycentric point; exact for Fraction inputs."""
        total = 0
        for e, c in self.terms.items():
            term = c
            for x, p in zip(lam, e):
                if p:
                    term = term * x**p
            total = total + term
        return total

    def reduced(self):
        """Canonical form with the last variable eliminated.

        Substitutes lambda_last = 1 - sum(others) and expands exactly; two
        polynomials agree on the barycentric plane iff their reduced term
        maps are equal.  Exponent tuples in the result have nvars-1 slots.
        """
        nfree = self.nvars - 1
        out = {}
        for e, c in self.terms.items():
            last = e[-1]
            base = e[:-1]
            # (1 - sum lam_i)^last expanded over compositions alpha.
            for alpha in itertools.product(range(last + 1), repeat=nfree):
                s = sum(alpha)
                if s > last:
                    continue
                coef = c * Fraction(math.factorial(last), math.prod(map(math.factorial, alpha)) * math.factorial(last - s)) * (-1) ** s
                key = tuple(b + a for b, a in zip(base, alpha))
                tot = out.get(key, 0) + coef
                if tot == 0:
                    out.pop(key, None)
                else:
                    out[key] = tot
        return out

    def __repr__(self):
        return f"BarycentricPolynomial(nvars={self.nvars}, nterms={len(self.terms)})"


def auxiliary_factor(i, k):
    """Univariate node factor: product of (k*t - c + 1)/c for c = 1..i.

    The empty product (i = 0) is the constant one.  Coefficients are exact
    Fractions; the result is a BarycentricPolynomial in a single variable.
    """
    if i < 0 or k < 1:
        raise ValueError("need i >= 0 and k >= 1")
    coeffs = [Fraction(1)]
    for c in range(1, i + 1):
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for e, a in enumerate(coeffs):
            nxt[e + 1] += a * Fraction(k, c)
            nxt[e] += a * Fraction(1 - c, c)
        coeffs = nxt
    return BarycentricPolynomial(1, {(e,): a for e, a in enumerate(coeffs) if a != 0})


@dataclass(frozen=True)
class PkBasis:
    """Degree-k Lagrange basis on the n-simplex.

    Attributes
    ----------
    n, k : int
    indices : list of multi-index tuples, descending lex order.
    nodes : list of barycentric node coordinates as Fraction tuples.
    polynomials : list of BarycentricPolynomial with Fraction coefficients.
    tables : the read-only derivative tables of `table` at the cached rules.
    """

    n: int
    k: int
    indices: list = field(repr=False)
    nodes: list = field(repr=False)
    polynomials: list = field(repr=False)
    tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def size(self):
        return len(self.indices)

    @cached_property
    def node_array(self):
        """Barycentric node coordinates as floats, shape (N, n+1)."""
        lam = np.array(self.nodes, dtype=np.float64)
        lam.setflags(write=False)
        return lam

    def table(self, rule, order):
        """tabulate(polynomials, rule.points, order), read-only.  For a cached rule
        of simplex_rule it is built once and kept in `tables`, under (n,
        exactness degree, order); any other rule is tabulated on every call."""
        key = (rule.n, rule.exactness_degree, order)
        shared = rule is simplex_rule(rule.n, rule.exactness_degree)
        table = self.tables.get(key) if shared else None
        if table is None:
            table = tabulate(self.polynomials, rule.points, order)
            table.setflags(write=False)
            if shared:
                self.tables[key] = table
        return table

    def evaluation_matrix(self):
        """Exact values polynomials[i] at nodes[j]; identity iff unisolvent."""
        return [[p.evaluate(node) for node in self.nodes] for p in self.polynomials]

    def sum_polynomial(self):
        total = {}
        for p in self.polynomials:
            for e, c in p.terms.items():
                total[e] = total.get(e, 0) + c
        return BarycentricPolynomial(self.n + 1, total)


def build_basis(n, k):
    """Construct the PkBasis for degree k on the n-simplex.

    Raises
    ------
    ValueError
        For k < 1, n < 1, or a basis size beyond MAX_BASIS_SIZE.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    size = math.comb(n + k, n)
    if size > MAX_BASIS_SIZE:
        raise ValueError(f"basis of dimension {size} exceeds cap {MAX_BASIS_SIZE}")
    idx = multi_indices(n, k)
    nodes = [tuple(Fraction(i, k) for i in mi) for mi in idx]
    # One term per choice of a term from each factor, variable 0 outermost for coefficient_matrix's column order.
    factors = [list(auxiliary_factor(i, k).terms.items()) for i in range(k + 1)]
    polys = []
    for mi in idx:
        terms = {}
        for choice in itertools.product(*(factors[i] for i in mi)):
            terms[tuple(e for (e,), _ in choice)] = math.prod(c for _, c in choice)
        polys.append(BarycentricPolynomial(n + 1, terms))
    return PkBasis(n=n, k=k, indices=idx, nodes=nodes, polynomials=polys)


def tabulate(polynomials, points, order):
    """Barycentric derivatives of order `order` of each polynomial at the points.

    Returns an array of shape ((nvars)^order, N, npts): row s holds
    d/dlambda_{q_1} ... d/dlambda_{q_order} of every polynomial, where q is
    the s-th sequence of itertools.product(range(nvars), repeat=order).
    Derivatives are taken exactly; only the evaluation is in floats.  Orders
    beyond the degree give zeros.
    """
    nvars = polynomials[0].nvars
    rows = {}
    table = []
    for seq in itertools.product(range(nvars), repeat=order):
        orders = tuple(seq.count(v) for v in range(nvars))
        if orders not in rows:
            exps, coeffs = coefficient_matrix([p.lambda_derivative(orders) for p in polynomials])
            rows[orders] = kernels.eval_terms(points, exps, coeffs).T
        table.append(rows[orders])
    return np.array(table)


def coefficient_matrix(polynomials):
    """A polynomial list as the (exps, coeffs) pair of kernels.eval_terms.

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
