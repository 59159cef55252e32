"""The closed-form constant layer: Sobolev indices and the error constant.

A W^{m,p} index on an n-dimensional domain and its admissibility for degree
k (k + 1 > l + n/p for l = 0..m), and the k-explicit global constant
script_C(k) multiplying h^{k+1-m} |u|_{k+1,p} in the error estimate,
assembled from the shape regularity sigma, the gradient cap, the
geometric-sum factor xi, and a ratio of factorial terms.  The constant is
formed in log space, lgamma for the factorials and log-sum-exp for xi, so
no factor overflows and large k stays finite.

Standard library only: the `constant` subcommand and the critical-size
formulas need no numpy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

# Largest |log| of a ratio taken exactly: its exp is a normal float.
LOG_FLOAT_RANGE = 700.0


class AdmissibilityError(ValueError):
    """A Sobolev/degree combination that the error theory does not cover."""

    def __init__(self, message, inequality):
        super().__init__(message)
        self.inequality = inequality


@dataclass(frozen=True)
class SobolevIndex:
    """W^{m,p} index on an n-dimensional domain.

    p <= 1 is accepted for raw norm computation but flagged: the duality
    and coercivity arguments behind the error constants need p > 1.
    """

    m: int
    p: float
    n: int

    def __post_init__(self):
        if self.m < 0 or self.n < 1 or not self.p > 0:  # NaN fails p > 0
            raise ValueError("need m >= 0, n >= 1, p > 0")
        if self.p <= 1:
            warnings.warn(
                f"p = {self.p} is outside the variational framework (need p > 1)",
                stacklevel=3,  # past the generated __init__, to the code that builds the index
            )

    def seminorm_conditions(self, k):
        """Per-order flags: k + 1 > l + n/p for l = 0..m."""
        return {l: self.k_condition(k, l) for l in range(self.m + 1)}

    def k_condition(self, k, l):
        return k + 1 > l + self.n / self.p

    def admissible(self, k):
        """Full admissibility of degree k: the conditions imply m <= k, and m <= k - 1 if n/p >= 1."""
        return all(self.seminorm_conditions(k).values())

    def require(self, k):
        """Raise AdmissibilityError naming the first violated inequality."""
        for l, ok in self.seminorm_conditions(k).items():
            if not ok:
                raise AdmissibilityError(
                    f"k + 1 > l + n/p fails: k={k}, l={l}, n={self.n}, p={self.p}",
                    inequality="k+1 > l + n/p",
                )


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
        SobolevIndex(m=self.m, p=self.p, n=self.n).require(self.k)


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
    """log of the global error constant script_C(k) = cea_ratio max(c1, c2) xi K(k).

    max(c1, c2) is c1 = 1 + e^x, x = log((n(n+1) sigma)^m max(1, lam^m) m!/n!): the first
    three factors are at least 1, so c1 >= c2 = 1 + 1/n!.  xi = (sum_{j=0..m} h_cap^{jp})^{1/p}.
    """
    n, m, p = bundle.n, bundle.m, bundle.p
    x = m * math.log(n * (n + 1) * bundle.sigma) + max(0.0, m * math.log(bundle.lam)) + math.lgamma(m + 1)
    x -= math.lgamma(n + 1)
    log_c1 = max(x, 0.0) + math.log1p(math.exp(-abs(x)))  # log(1 + e^x), e^x not formed where it overflows
    terms = [j * p * math.log(bundle.h_cap) for j in range(m + 1)]
    top = max(terms)
    log_xi = (top + math.log(math.fsum(math.exp(t - top) for t in terms))) / p
    return math.log(bundle.cea_ratio) + log_c1 + log_xi + log_k_factor(n, m, p, bundle.k)


def exp_in_float_range(log_value, name):
    """exp(log_value); a ValueError naming `name`, not an OverflowError, beyond the float range."""
    try:
        return math.exp(log_value)
    except OverflowError:
        raise ValueError(f"{name} exp({log_value:.6g}) is beyond the float range") from None


def script_c(bundle):
    """Global constant multiplying h^{k+1-m} |u|_{k+1,p} in the estimate."""
    return exp_in_float_range(log_script_c(bundle), "script_C =")

