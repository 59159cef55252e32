"""Comparing two element degrees through a probabilistic accuracy law.

Given the error-bound constants of two degrees k1 < k2 on the same mesh
family, their bound curves C h^{k+1-m} cross at a single critical mesh
size h_star.  Below h_star the higher degree wins; the two laws here turn
that crossing into a probability that degree k2 is at least as accurate
as degree k1 at a given h:

* the nonlinear law decays smoothly from 1 toward 0 with exponent
  k2 - k1 on each side of h_star;
* the step law is its sharp-interface limit, taking the value 1/2 exactly
  at h_star by convention.

As the degree gap q = k2 - k1 grows with k1 fixed, h_star(q) grows
without bound (factorially induced), and the nonlinear laws converge to
the step law in the weak-* sense; weak_star_test measures that pairing
against smooth bumps.  Everything factorial is done in log space so q up
to 10^4 stays finite.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

from .constants import SobolevIndex, exp_in_float_range, log_k_factor_ratio
from .quadrature import legendre_factor

# Absolute tolerance for the weak-* pairing integrals, and the Gauss-Legendre
# nodes per panel that meet it.
PAIRING_ABS_TOL = 1e-10
PAIRING_POINTS = 80


@dataclass(frozen=True)
class ElementPair:
    """Two competing degrees with their error-bound constants.

    c_k1 and c_k2 are the full constants multiplying h^{k+1-m}, i.e.
    script_C(k) times the matching solution seminorm.
    """

    k1: int
    k2: int
    c_k1: float
    c_k2: float

    def __post_init__(self):
        if not self.k1 < self.k2:
            raise ValueError("need k1 < k2")
        if not (0 < self.c_k1 < math.inf and 0 < self.c_k2 < math.inf):
            raise ValueError("c_k1 and c_k2 must be positive and finite")

    @property
    def exponent(self):
        return self.k2 - self.k1


def _root_from_log(log_pow, q):
    """exp(log_pow / q); a ValueError, not an OverflowError, beyond the float range."""
    return exp_in_float_range(log_pow / q, "critical mesh size")


def h_star(pair):
    """Critical mesh size (c_k1 / c_k2)^(1/(k2-k1)).

    The ratio is formed first so that common scalings of the two constants
    cancel; if the ratio itself over- or underflows the computation falls
    back to the difference of logs.
    """
    ratio = pair.c_k1 / pair.c_k2
    log_ratio = math.log(ratio) if 0.0 < ratio < math.inf else math.log(pair.c_k1) - math.log(pair.c_k2)
    return _root_from_log(log_ratio, pair.exponent)


def h_star_explicit(n, m, p, k1, k2, seminorm_ratio=1.0, cea_quotient=1.0):
    """Critical mesh size from the k-explicit constant formula.

    seminorm_ratio is |u|_{k1+1,p} / |u|_{k2+1,p}; cea_quotient the ratio
    of the two quasi-optimality factors.  Equals h_star applied to
    script_C-built constants because every k-independent factor cancels.
    """
    if not k1 < k2:
        raise ValueError("need k1 < k2")
    if not (0 < seminorm_ratio < math.inf and 0 < cea_quotient < math.inf):
        raise ValueError("seminorm_ratio and cea_quotient must be positive and finite")
    idx = SobolevIndex(m=m, p=p, n=n)
    idx.require(k1)
    idx.require(k2)
    # The two ratios enter as two logs: their product can overflow.
    log_pow = log_k_factor_ratio(n, m, p, k1, k2) + math.log(seminorm_ratio) + math.log(cea_quotient)
    return _root_from_log(log_pow, k2 - k1)


class _Pointwise:
    """Called with a float h, gives a float; with a sequence of h, a list of floats."""

    def __call__(self, h):
        return self._value(float(h)) if isinstance(h, numbers.Real) else [self._value(float(x)) for x in h]


@dataclass(frozen=True)
class AccuracyLaw(_Pointwise):
    """Probability that the higher degree is at least as accurate at h.

    kind is "nonlinear" (smooth decay with the stated exponent) or "step"
    (sharp interface, 1/2 exactly at h_star).
    """

    h_star: float
    exponent: int
    kind: str = "nonlinear"

    def __post_init__(self):
        if not (math.isfinite(self.h_star) and self.h_star > 0) or self.exponent < 1:
            raise ValueError("need a finite h_star > 0 and exponent >= 1")
        if self.kind not in ("nonlinear", "step"):
            raise ValueError("kind must be 'nonlinear' or 'step'")

    @classmethod
    def from_pair(cls, pair):
        return cls(h_star=h_star(pair), exponent=pair.exponent)

    def _value(self, h):
        if not h >= 0.0:
            raise ValueError("mesh size must not be NaN" if math.isnan(h) else "mesh size must be nonnegative")
        if self.kind == "step":
            return 1.0 if h < self.h_star else 0.0 if h > self.h_star else 0.5
        # log/exp form so huge exponents underflow to 0 instead of overflowing;
        # at h = h_star both branches give exactly 1/2, and at h = 0 one.
        ratio = h / self.h_star
        decay = math.exp(-self.exponent * abs(math.log(ratio))) if ratio else 0.0
        return 1.0 - 0.5 * decay if h <= self.h_star else 0.5 * decay


class GeometricSeminormModel:
    """|u|_{r+1,p} / |u|_{r,p} = ratio at every r; covers exp(a x) (ratio a) and friends.

    The ratio is all an h_star uses: a factor common to all seminorms cancels.
    """

    def __init__(self, ratio):
        if not 0 < ratio < math.inf:  # NaN fails it too
            raise ValueError("ratio must be positive and finite")
        self.ratio = float(ratio)
        self.log_ratio = math.log(self.ratio)


class SinPiSeminormModel(GeometricSeminormModel):
    """Seminorms of u(x) = sin(pi x) on (0,1) in closed form.

    Every derivative is a shifted sine with the same L^p size, so consecutive
    seminorms have ratio exactly pi at every p.
    """

    def __init__(self, p=2.0):
        if not 0 < p < math.inf:  # NaN fails it too
            raise ValueError("p must be positive and finite")
        super().__init__(math.pi)
        self.p = p


def h_stars(k, qs, model, n=1, m=0, p=2.0):
    """h_star(q) of the pair (k, k+q) for each q in qs, each on its own.

    model supplies log(|u|_{r+1,p} / |u|_{r,p}), and both degrees share one
    quasi-optimality factor.  Log-space throughout, so q of order 10^4 is fine.
    """
    SobolevIndex(m=m, p=p, n=n).require(k)
    return [_root_from_log(log_k_factor_ratio(n, m, p, k, k + q) - q * model.log_ratio, q) for q in qs]


def h_star_sequence(k, q_max, model, n=1, m=0, p=2.0):
    """Critical mesh sizes h_star(q) of the pairs (k, k+q), q = 1..q_max, as a numpy array."""
    import numpy as np

    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    return np.array(h_stars(k, range(1, q_max + 1), model, n, m, p))


class Bump(_Pointwise):
    """Smooth bump exp(-1/(1-u^2)) rescaled to the support (a, b).

    The declared support is part of the object; pairings integrate over it
    and reject bare callables without one.
    """

    def __init__(self, a, b):
        if not (a < b and b - a < math.inf):
            raise ValueError("need a < b with a finite width b - a")
        self.a = float(a)
        self.b = float(b)

    def _value(self, h):
        u = ((h - self.a) - (self.b - h)) / (self.b - self.a)
        return math.exp(-1.0 / (1.0 - u * u)) if abs(u) < 1.0 else 0.0


def _panel_integral(f, lo, hi, split=None):
    """Integral over (lo, hi) of f, which maps a list of points to a list of values, by
    PAIRING_POINTS-point Gauss-Legendre panels split at split if it lies inside; twice
    as many nodes per panel check it, and a gap above PAIRING_ABS_TOL warns."""
    edges = [lo, split, hi] if split is not None and lo < split < hi else [lo, hi]
    panels = [(start, end - start) for start, end in zip(edges, edges[1:])]
    values = []
    for npts in (PAIRING_POINTS, 2 * PAIRING_POINTS):
        nodes, weights = legendre_factor(npts)
        fx = iter(f([start + width * x for start, width in panels for x in nodes]))
        values.append(math.fsum(width * w * next(fx) for _, width in panels for w in weights))
    gap = abs(values[1] - values[0])
    if gap > PAIRING_ABS_TOL:
        warnings.warn(f"Gauss rules on ({lo}, {hi}) differ by {gap:.2e}", RuntimeWarning, stacklevel=3)
    return values[0]


def weak_star_pairing(law, bump):
    """Integral of law(h) bump(h) dh over the bump support, h <= 0 excluded."""
    lo = max(bump.a, 0.0)
    if bump.b <= lo:
        return 0.0
    return _panel_integral(lambda hs: [p * b for p, b in zip(law(hs), bump(hs))], lo, bump.b, split=law.h_star)


def weak_star_test(k, q_list, bump, model, n=1, m=0, p=2.0):
    """Pairing error of the nonlinear laws against the step-law limit.

    For each q in q_list the nonlinear law of the pair (k, k+q) is paired
    with the bump; the target is the step-law pairing, which equals the
    bump integral over (0, infinity) once h_star(q) clears the support.
    Returns a list of records (q, h_star, pairing, target, error).
    """
    if not hasattr(bump, "a") or not hasattr(bump, "b"):
        raise TypeError("bump must declare its support (use Bump)")
    q_list = sorted(set(int(q) for q in q_list))
    if not q_list or q_list[0] < 1:
        raise ValueError("q_list must contain positive integers")
    hs = h_stars(k, q_list, model, n, m, p)
    # The step-law limit pairs to the full bump mass over (0, inf).
    target = _panel_integral(bump, max(bump.a, 0.0), bump.b)
    records = []
    for q, h_q in zip(q_list, hs):
        pairing = weak_star_pairing(AccuracyLaw(h_star=h_q, exponent=q), bump)
        records.append({"q": q, "h_star": h_q, "pairing": pairing, "target": target, "error": abs(pairing - target)})
    return records
