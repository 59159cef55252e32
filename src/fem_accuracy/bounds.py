"""Explicit bounds and constants for degree-k Lagrange elements.

Three layers, each checkable against direct computation:

* pointwise caps on the shape functions and their barycentric derivatives,
  k^{n+1} for values and k^{r(n+2)} for order-r derivatives, scanned with
  one coefficient matrix per derivative over blocks of points holding at
  most BLOCK_POINTS monomial values;
* seminorm caps combining the pointwise caps with element geometry
  (measure, inscribed diameter rho, gradient constant);
* the k-explicit global constant script_C(k) multiplying
  h^{k+1-m} |u|_{k+1,p} in the error estimate, assembled from the shape
  regularity sigma, the gradient cap, the geometric-sum factor xi, and a
  ratio of factorial terms.  Factorials are handled in log space so large
  k stays finite.

All checks return BoundCheck records that serialize to JSON.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .basis import coefficient_matrix, multi_indices
from .norms import PiecewisePolynomialField, SobolevIndex, element_blocks, seminorm

# Lattice refinement and random sample count for the pointwise scans.
DEFAULT_SUBDIVISIONS = 50
DEFAULT_SAMPLES = 10_000

# Largest |log| of a ratio taken exactly: its exp is a normal float.
LOG_FLOAT_RANGE = 700.0


@dataclass(frozen=True)
class ConstantBundle:
    """Inputs of the error constant for one (n, m, p, k) configuration.

    sigma is the mesh regularity bound (h_K / rho_K <= sigma), lam the
    largest barycentric gradient entry over the mesh, cea_ratio the
    quasi-optimality factor of the discrete problem (1 in the coercive
    symmetric case), h_cap an upper bound for the mesh sizes considered
    (the xi factor is evaluated there).
    """

    n: int
    m: int
    k: int
    p: float
    sigma: float = 1.0
    lam: float = 1.0
    cea_ratio: float = 1.0
    h_cap: float = 1.0

    def __post_init__(self):
        # Each check is written so that NaN fails it.
        if not 1.0 <= self.sigma < math.inf:
            raise ValueError("sigma is a shape bound, must be finite and >= 1")
        if not (0 < self.lam < math.inf and 1.0 <= self.cea_ratio < math.inf and 0 < self.h_cap < math.inf):
            raise ValueError("need finite lam > 0, cea_ratio >= 1, h_cap > 0")
        self.index.require(self.k)

    @property
    def index(self):
        return SobolevIndex(m=self.m, p=self.p, n=self.n)

    @property
    def lam_star(self):
        """max(1, lam^m): the gradient factor appearing in the constant."""
        return max(1.0, self.lam**self.m)


def xi(m, p, h):
    """Geometric-sum factor (sum_{j=0..m} h^{jp})^{1/p}.

    Written as the explicit sum, which equals the closed form
    ((1 - h^{p(m+1)}) / (1 - h^p))^{1/p} for h != 1 and is continuous
    through h = 1 where the closed form degenerates.
    """
    if h <= 0 or p <= 0 or m < 0:
        raise ValueError("need h > 0, p > 0, m >= 0")
    return math.fsum(h ** (j * p) for j in range(m + 1)) ** (1.0 / p)


def c1_constant(bundle):
    """1 + (n(n+1) sigma)^m lam* m! / n!"""
    n, m = bundle.n, bundle.m
    return 1.0 + (n * (n + 1) * bundle.sigma) ** m * bundle.lam_star * math.factorial(m) / math.factorial(n)


def c2_constant(n):
    """1 + 1/n!"""
    return 1.0 + 1.0 / math.factorial(n)


def log_k_factor(n, m, p, k):
    """log of (k+n)^n k^{m(n+2)} / ((k-m)! (k+1-m-n/p))."""
    margin = k + 1 - m - n / p
    if margin <= 0:
        raise ValueError(f"k + 1 - m - n/p must be positive, got {margin}")
    return (
        n * math.log(k + n)
        + m * (n + 2) * math.log(k)
        - math.lgamma(k - m + 1)
        - math.log(margin)
    )


def log_k_factor_ratio(n, m, p, k1, k2):
    """log of K(k1) / K(k2), K the k-factor of log_k_factor.

    The ratio is one exact rational, with p the exact value of its float, and
    is rounded once, by the integer division, before its log is taken.  Where
    it is beyond the float range, the difference of the two log_k_factor
    values stands instead.
    """
    log_ratio = log_k_factor(n, m, p, k1) - log_k_factor(n, m, p, k2)
    if abs(log_ratio) > LOG_FLOAT_RANGE:
        return log_ratio
    p_num, p_den = p.as_integer_ratio()

    def parts(k):
        # K(k) = num / den * p_num, and p_num cancels in the ratio.
        return (k + n) ** n * k ** (m * (n + 2)), math.factorial(k - m) * ((k + 1 - m) * p_num - n * p_den)

    (num1, den1), (num2, den2) = parts(k1), parts(k2)
    return math.log(num1 * den2 / (den1 * num2))


def log_script_c(bundle):
    """log of the global error constant script_C(k).

    A ValueError, not an OverflowError or an inf, where a float factor overflows.
    """
    try:
        c = max(c1_constant(bundle), c2_constant(bundle.n))
        log_xi = math.log(xi(bundle.m, bundle.p, bundle.h_cap))
    except OverflowError:
        c = math.inf
    if c == math.inf:
        raise ValueError("script_C cannot be formed in floats: its factor c1, c2 or xi overflows")
    return (
        math.log(bundle.cea_ratio)
        + math.log(c)
        + log_xi
        + log_k_factor(bundle.n, bundle.m, bundle.p, bundle.k)
    )


def exp_in_float_range(log_value, name):
    """exp(log_value); a ValueError naming `name`, not an OverflowError, beyond the float range."""
    try:
        return math.exp(log_value)
    except OverflowError:
        raise ValueError(f"{name} exp({log_value:.6g}) is beyond the float range") from None


def script_c(bundle):
    """Global constant multiplying h^{k+1-m} |u|_{k+1,p} in the estimate."""
    return exp_in_float_range(log_script_c(bundle), "script_C =")


def local_interp_bound(bundle, u_seminorm, h_element, l):
    """Right-hand side of the local interpolation estimate for order l.

    Order l = 0 carries the full h^{k+1} power with the c2 constant; orders
    1..m carry h^{k+1-l} with the c1 constant.  u_seminorm is
    |u|_{k+1,p,K}; h_element the element diameter.
    """
    if l < 0 or l > bundle.m:
        raise ValueError("need 0 <= l <= m")
    if u_seminorm < 0 or h_element <= 0:
        raise ValueError("need u_seminorm >= 0 and h_element > 0")
    if u_seminorm == 0:
        return 0.0
    front = c2_constant(bundle.n) if l == 0 else c1_constant(bundle)
    power = bundle.k + 1 - l
    log_rhs = (
        math.log(front)
        + log_k_factor(bundle.n, bundle.m, bundle.p, bundle.k)
        + math.log(u_seminorm)
        + power * math.log(h_element)
    )
    return math.exp(log_rhs)


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
    """Uniform random barycentric points (flat Dirichlet), reproducible."""
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.ones(n + 1), size=count)


def point_bound_check(basis, r, subdivisions=DEFAULT_SUBDIVISIONS, samples=DEFAULT_SAMPLES, seed=0):
    """Scan shape functions (order-r barycentric derivatives) against the cap.

    The scan covers a dense barycentric lattice plus `samples` random
    points.  The cap is k^{n+1} for r = 0 and k^{r(n+2)} for r >= 1.
    """
    n, k = basis.n, basis.k
    pts = barycentric_lattice(n, subdivisions)
    if samples > 0:
        pts = np.vstack([pts, simplex_samples(n, samples, seed)])

    bound = float(k) ** (r * (n + 2) if r else n + 1)
    # One coefficient matrix per derivative order, scanned in blocks of at most
    # BLOCK_POINTS monomial values; orders above k leave no terms to scan.
    worst = 0.0
    for orders in multi_indices(n, r):
        exps, coeffs = coefficient_matrix([p.lambda_derivative(orders) for p in basis.polynomials])
        if len(exps):
            for lo, hi in element_blocks(len(pts), len(exps)):
                worst = max(worst, float(np.abs(kernels.eval_terms(pts[lo:hi], exps, coeffs)).max()))
    return BoundCheck(
        name="pointwise-cap",
        params={"n": n, "k": k, "r": r, "points": int(pts.shape[0])},
        measured=worst,
        bound=bound,
        passed=bool(worst <= bound),
    )


def seminorm_bound_check(basis, simplex, l, p):
    """Compare max_i |p_i|_{l,p,K} against the geometric seminorm cap.

    For l = 0 the cap is mes(K)^{1/p} k^{n+1}; for l >= 1 it is
    (n(n+1) lam_K)^l l! mes(K)^{1/p} k^{l(n+2)} / rho^l.  Combinations
    failing k + 1 > l + n/p are still computed but flagged with a warning.
    """
    n, k = basis.n, basis.k
    if simplex.n != n:
        raise ValueError("simplex dimension does not match the basis")
    idx = SobolevIndex(m=max(l, 1), p=p, n=n)
    admissible = idx.k_condition(k, l)
    if not admissible:
        warnings.warn(
            f"seminorm cap outside its hypothesis: k+1 > l + n/p fails for k={k}, l={l}, n={n}, p={p}",
            stacklevel=2,
        )
    mes = simplex.measure
    if l == 0:
        bound = mes ** (1.0 / p) * float(k) ** (n + 1)
    else:
        lam = simplex.gradient_max
        rho = simplex.inscribed_diameter()
        bound = (
            (n * (n + 1) * lam) ** l
            * math.factorial(l)
            * mes ** (1.0 / p)
            * float(k) ** (l * (n + 2))
            / rho**l
        )
    degree = max(1, math.ceil(p * max(k - l, 1))) + 2
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
