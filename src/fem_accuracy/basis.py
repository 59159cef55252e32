"""Lagrange shape functions of degree k on an n-simplex, in exact arithmetic.

The basis is indexed by multi-indices (i_1, ..., i_{n+1}) with |i| = k; the
node of index i has barycentric coordinates (i_1/k, ..., i_{n+1}/k).  Each
shape function is the product phi_i = prod_v a_{i_v}(lambda_v) of univariate
node factors built from the node spacing 1/k, kept as an immutable term map
with exact rational coefficients: its terms are the products of one term per
factor.  There are no arithmetic operators on polynomials.  Construction and
evaluation at rational points are exact, and the module uses the standard
library alone; floats enter in `kernels`, which tabulates the same products of
node factors and their derivatives at float points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

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
    basis needs: evaluation and the reduced form.
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
    tables : storage for the read-only derivative tables of `kernels.table`.
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
    # One term per choice of a term from each factor, variable 0 outermost.
    factors = [list(auxiliary_factor(i, k).terms.items()) for i in range(k + 1)]
    polys = []
    for mi in idx:
        terms = {}
        for choice in itertools.product(*(factors[i] for i in mi)):
            terms[tuple(e for (e,), _ in choice)] = math.prod(c for _, c in choice)
        polys.append(BarycentricPolynomial(n + 1, terms))
    return PkBasis(n=n, k=k, indices=idx, nodes=nodes, polynomials=polys)

