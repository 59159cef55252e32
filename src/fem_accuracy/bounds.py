"""Explicit bounds and constants for degree-k Lagrange elements.

Three layers, each checkable against direct computation:

* pointwise caps on the shape functions and their barycentric derivatives,
  k^{n+1} for values and k^{r(n+2)} for order-r derivatives, scanned over
  the rows of `kernels.derivative_rows`, in blocks of points holding at most
  BLOCK_POINTS values of node factors and shape functions;
* seminorm caps combining the pointwise caps with element geometry
  (measure, inscribed diameter rho, gradient constant);
* the k-explicit global constant script_C(k) multiplying
  h^{k+1-m} |u|_{k+1,p} in the error estimate, defined in `constants`
  (standard library only).

All checks return BoundCheck records that serialize to JSON.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .constants import SobolevIndex
from .geometry import reference_simplex
from .norms import PiecewisePolynomialField, element_blocks, seminorm

# Lattice refinement and random sample count for the pointwise scans.
DEFAULT_SUBDIVISIONS = 50
DEFAULT_SAMPLES = 10_000

# Most points of a scan, and of g^max(n, 2) for a seminorm-cap rule of g points a factor (each
# factor takes time quadratic in g).  At n = 5 a scan of 3.49 million points took 2.2 s, and a
# 2,000-point factor 0.75 s (Legendre) to 10 s (Jacobi, n >= 2), on a 2-core Xeon VM.
POINT_BUDGET = 4_000_000


@dataclass
class BoundCheck:
    """One measured-versus-bound comparison."""

    name: str
    params: dict
    measured: float
    bound: float
    passed: bool
    note: str = ""

    def to_record(self):
        rec = {
            "bound_name": self.name,
            "measured": self.measured,
            "bound": self.bound,
            "pass": self.passed,
        }
        rec.update(self.params)
        if self.note:
            rec["note"] = self.note
        return rec


def barycentric_lattice(n, subdivisions):
    """All barycentric points with coordinates j/subdivisions, as an array.

    Rows are the integer compositions of `subdivisions` into n+1 parts in
    lexicographic order, grown one coordinate at a time: a row with `rest`
    left to share repeats rest + 1 times, taking 0..rest as its next part.
    """
    rows, rest = np.zeros((1, 0), dtype=np.int64), np.array([subdivisions])
    for _ in range(n):
        counts = rest + 1
        part = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        rows = np.column_stack([np.repeat(rows, counts, axis=0), part])
        rest = np.repeat(rest, counts) - part
    return np.column_stack([rows, rest]) / subdivisions


def simplex_samples(n, count, seed=0):
    """Flat-Dirichlet barycentric points: the spacings of n sorted uniforms (Devroye 1986, ch. V),
    each the top 53 bits of a 64-bit word of random.Random(seed); all exact, so host-independent."""
    if seed < 0:  # random.Random would take |seed|
        raise ValueError("expected non-negative integer")
    words = np.frombuffer(random.Random(seed).randbytes(8 * n * count), dtype="<u8").reshape(count, n)
    pts = np.column_stack([(np.sort(words, axis=1) >> 11) * 2.0**-53, np.ones(count)])
    pts[:, 1:] -= pts[:, :-1].copy()  # cut j minus cut j - 1, and 1 minus the last cut
    return pts


def pointwise_cap(n, k, r):
    """The cap k^{n+1} for r = 0 and k^{r(n+2)} for r >= 1; ValueError where it leaves the floats."""
    try:
        return float(k) ** (r * (n + 2) if r else n + 1)
    except OverflowError:
        raise ValueError(f"the pointwise cap leaves the floats at n={n}, k={k}, r={r}") from None


def seminorm_cap_degree(k, l, p):
    """Degree of the rule that seminorm_bound_check measures with."""
    return max(1, math.ceil(p * max(k - l, 1))) + 2


def seminorm_cap(simplex, k, l, p):
    """(n(n+1) lam)^l l! mes^{1/p} pointwise_cap(n, k, l) / rho^l on the one element of `simplex`, lam its
    largest gradient entry and rho its inscribed diameter (each factor of l exactly 1 at l = 0); ValueError
    where it leaves the floats."""
    n = simplex.n
    lam = float(np.abs(simplex.element_gradients).max())
    mes = float(simplex.element_measures[0])
    rho = float(simplex.element_inscribed[0])
    try:
        cap = (n * (n + 1) * lam) ** l * math.factorial(l) * mes ** (1.0 / p) * pointwise_cap(n, k, l) / rho**l
    except (OverflowError, ValueError, ZeroDivisionError):  # a factor, pointwise_cap too, beyond the floats; rho^l = 0
        cap = math.inf
    if not math.isfinite(cap):
        raise ValueError(f"the seminorm cap leaves the floats at n={n}, k={k}, l={l}, p={p}")
    return cap


def check_arguments(n, k, r, l, p, samples):
    """`bounds`' refusals, in this order and before any work: a ValueError where a pointwise cap of order up to r
    leaves the floats, a pointwise scan or the seminorm cap's rule of g points a factor (simplex_rule's at
    seminorm_cap_degree; inf where p (k - l) leaves the floats) is over budget, or the reference simplex's
    seminorm cap leaves the floats."""
    for order in range(r + 1):
        pointwise_cap(n, k, order)
    points = math.comb(DEFAULT_SUBDIVISIONS + n, n) + samples
    if points > POINT_BUDGET:
        raise ValueError(f"a pointwise scan of {points} points is over the budget of {POINT_BUDGET}")
    g = (seminorm_cap_degree(k, l, p) + 2) // 2 if p * max(k - l, 1) < math.inf else math.inf
    if g ** max(n, 2) > POINT_BUDGET:
        raise ValueError(
            f"the seminorm cap's rule of {g:.6g} points a factor is over its budget of {POINT_BUDGET} for g^{max(n, 2)}"
        )
    seminorm_cap(reference_simplex(n), k, l, p)


def point_bound_check(basis, r, subdivisions=DEFAULT_SUBDIVISIONS, samples=DEFAULT_SAMPLES, seed=0):
    """Scan shape functions (order-r barycentric derivatives) against the cap.

    The scan covers a dense barycentric lattice plus `samples` random
    points against pointwise_cap(n, k, r).
    """
    n, k = basis.n, basis.k
    pts = np.vstack([barycentric_lattice(n, subdivisions), simplex_samples(n, samples, seed)])
    bound = pointwise_cap(n, k, r)
    # A block of points holds its factor tables and one derivative's rows: (r + 1)(k + 1)(n + 1) + N values a point.
    worst = 0.0
    for lo, hi in element_blocks(len(pts), (r + 1) * (k + 1) * (n + 1) + basis.size):
        for _, rows in kernels.derivative_rows(basis, pts[lo:hi], r):
            worst = max(worst, float(rows.max()), -float(rows.min()))
    return BoundCheck(
        name="pointwise-cap",
        params={"n": n, "k": k, "r": r, "points": int(pts.shape[0])},
        measured=worst,
        bound=bound,
        passed=bool(worst <= bound),
    )


def seminorm_bound_check(basis, simplex, l, p):
    """Compare max_i |p_i|_{l,p,K} against the geometric seminorm cap on the
    one element K of the SimplexMesh `simplex`.

    The cap is seminorm_cap's.  Combinations failing k + 1 > l + n/p are
    still computed but flagged with a warning.
    """
    n, k = basis.n, basis.k
    if simplex.n != n or len(simplex) != 1:
        raise ValueError("need a one-element mesh of the basis's dimension")
    idx = SobolevIndex(m=max(l, 1), p=p, n=n)
    admissible = idx.k_condition(k, l)
    if not admissible:
        warnings.warn(
            f"seminorm cap outside its hypothesis: k+1 > l + n/p fails for k={k}, l={l}, n={n}, p={p}",
            stacklevel=2,
        )
    bound = seminorm_cap(simplex, k, l, p)
    degree = seminorm_cap_degree(k, l, p)
    # Unit rows pick each shape function out of the basis's shared tables, exactly.
    measured = 0.0
    for unit in np.eye(basis.size):
        f = PiecewisePolynomialField(basis, unit[None])
        measured = max(measured, seminorm(f, simplex, l, p, degree=degree))
    return BoundCheck(
        name="seminorm-cap",
        params={"n": n, "k": k, "l": l, "p": p, "admissible": bool(admissible)},
        measured=measured,
        bound=bound,
        passed=bool(measured <= bound),
        note="" if admissible else "hypothesis k+1 > l + n/p not satisfied",
    )
