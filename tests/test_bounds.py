import decimal
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from fem_accuracy import constants, norms
from fem_accuracy.basis import build_basis
from fem_accuracy.bounds import BoundCheck, barycentric_lattice, point_bound_check, simplex_samples, seminorm_bound_check
from fem_accuracy.constants import (
    AdmissibilityError,
    ConstantBundle,
    SobolevIndex,
    log_k_factor,
    log_script_c,
    script_c,
)
from fem_accuracy.geometry import reference_simplex, uniform_mesh_1d

from oracles import (
    c1_constant,
    c2_constant,
    decimal_log_script_c,
    lambda_derivative,
    lattice_by_combinations,
    local_interp_bound,
    xi,
)


class TestXi:
    def test_known_values(self):
        assert xi(0, 2.0, 0.3) == pytest.approx(1.0, rel=1e-15)
        assert xi(1, 2.0, 0.5) == pytest.approx(math.sqrt(1.25), rel=1e-15)
        assert xi(2, 1.5, 2.0) == pytest.approx((1 + 2**1.5 + 4**1.5) ** (1 / 1.5), rel=1e-14)

    def test_matches_closed_form(self):
        # Dual route: the explicit sum against the geometric-series quotient.
        m, p, h = 3, 1.5, 0.7
        closed = ((1 - h ** (p * (m + 1))) / (1 - h**p)) ** (1 / p)
        assert xi(m, p, h) == pytest.approx(closed, rel=1e-13)

    def test_continuous_through_h_one(self):
        assert xi(2, 2.0, 1.0) == pytest.approx(math.sqrt(3.0), rel=1e-15)
        assert xi(2, 2.0, 1.0 + 1e-9) == pytest.approx(math.sqrt(3.0), rel=1e-8)

    def test_validation(self):
        with pytest.raises(ValueError):
            xi(1, 2.0, 0.0)
        with pytest.raises(ValueError):
            xi(1, 0.0, 0.5)
        with pytest.raises(ValueError):
            xi(-1, 2.0, 0.5)


class TestFrontConstants:
    def test_c2_values(self):
        assert c2_constant(1) == pytest.approx(2.0, rel=1e-15)
        assert c2_constant(2) == pytest.approx(1.5, rel=1e-15)
        assert c2_constant(3) == pytest.approx(1.0 + 1.0 / 6.0, rel=1e-15)

    def test_c1_simple_case(self):
        b = ConstantBundle(n=1, m=1, k=1, p=2.0)
        assert c1_constant(b) == pytest.approx(3.0, rel=1e-15)

    def test_c1_reduces_to_c2_shape_at_order_zero(self):
        # With m = 0 the derivative factor collapses and c1 equals c2.
        for n in (1, 2):
            b = ConstantBundle(n=n, m=0, k=2, p=2.0, sigma=3.0, lam=5.0)
            assert c1_constant(b) == pytest.approx(c2_constant(n), rel=1e-15)

    def test_c1_scales_with_sigma_and_lam(self):
        base = ConstantBundle(n=1, m=1, k=2, p=2.0, sigma=1.0, lam=1.0)
        big = ConstantBundle(n=1, m=1, k=2, p=2.0, sigma=2.0, lam=4.0)
        assert c1_constant(base) == pytest.approx(3.0, rel=1e-15)
        assert c1_constant(big) == pytest.approx(1.0 + 4.0 * 4.0, rel=1e-15)

    def test_c1_gradient_factor_is_lam_star(self):
        # lam* = max(1, lam^m): lam at m >= 1 once it passes 1, and 1 at m = 0.
        for lam, want in ((0.5, 3.0), (1.0, 3.0), (7.0, 15.0)):
            assert c1_constant(ConstantBundle(n=1, m=1, k=1, p=2.0, lam=lam)) == pytest.approx(want, rel=1e-15)
        assert c1_constant(ConstantBundle(n=1, m=0, k=1, p=2.0, lam=7.0)) == pytest.approx(2.0, rel=1e-15)


class TestConstantBundle:
    def test_validation(self):
        with pytest.raises(ValueError):
            ConstantBundle(n=1, m=0, k=1, p=2.0, sigma=0.5)
        with pytest.raises(ValueError):
            ConstantBundle(n=1, m=0, k=1, p=2.0, lam=0.0)
        with pytest.raises(ValueError):
            ConstantBundle(n=1, m=0, k=1, p=2.0, cea_ratio=0.9)
        with pytest.raises(ValueError):
            ConstantBundle(n=1, m=0, k=1, p=2.0, h_cap=0.0)

    @pytest.mark.parametrize(
        "name,value",
        [pytest.param(name, math.nan, id=name) for name in ("p", "sigma", "lam", "cea_ratio", "h_cap")]
        + [pytest.param(name, math.inf, id=f"{name}-inf") for name in ("sigma", "lam", "cea_ratio", "h_cap")],
    )
    def test_nan_rejected(self, name, value):
        # A plain ValueError at construction, not an inadmissibility verdict.
        with pytest.raises(ValueError) as exc:
            ConstantBundle(**{"n": 1, "m": 1, "k": 2, "p": 2.0, name: value})
        assert type(exc.value) is ValueError

    def test_inadmissible_configuration_rejected(self):
        with pytest.raises(AdmissibilityError):
            ConstantBundle(n=1, m=2, k=1, p=2.0)
        with pytest.raises(AdmissibilityError):
            ConstantBundle(n=2, m=1, k=1, p=2.0)


class TestScriptC:
    def test_default_configuration_frozen_value(self):
        # n=1, m=0, k=1, p=2, all geometry factors 1: the constant is 8/3.
        b = ConstantBundle(n=1, m=0, k=1, p=2.0)
        assert script_c(b) == pytest.approx(8.0 / 3.0, rel=1e-13)

    def test_degree_ratio_frozen_value(self):
        # n=1, m=1, p=2: consecutive-degree ratio at k=2 -> 3 is 27/20.
        lo = ConstantBundle(n=1, m=1, k=2, p=2.0)
        hi = ConstantBundle(n=1, m=1, k=3, p=2.0)
        assert script_c(hi) / script_c(lo) == pytest.approx(1.35, rel=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 12, 15])
    def test_log_route_matches_direct_product(self, k):
        # Dual route: log-space assembly against the plain float product.
        n, m, p = 1, 1, 2.0
        b = ConstantBundle(n=n, m=m, k=k, p=p, sigma=2.0, lam=1.5, cea_ratio=1.25, h_cap=0.8)
        direct = (
            b.cea_ratio
            * max(c1_constant(b), c2_constant(n))
            * xi(m, p, b.h_cap)
            * (k + n) ** n
            * float(k) ** (m * (n + 2))
            / (math.factorial(k - m) * (k + 1 - m - n / p))
        )
        assert script_c(b) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize(
        "n,m,p,sigma,lam,h_cap",
        [
            (1, 0, 2.0, 1.0, 1.0, 1.0),
            (1, 1, 2.0, 2.0, 1.5, 0.8),
            (2, 2, 3.0, 1.5, 0.5, 2.0),
            (3, 1, 1.5, 4.0, 3.0, 1e-3),
        ],
    )
    def test_log_space_factors_match_float_factors(self, n, m, p, sigma, lam, h_cap):
        # Dual route: the log-space factors against the logs of the oracle's float factors.
        b = ConstantBundle(n=n, m=m, k=m + 2, p=p, sigma=sigma, lam=lam, h_cap=h_cap)
        direct = (
            math.log(b.cea_ratio * max(c1_constant(b), c2_constant(n)) * xi(m, p, h_cap))
            + log_k_factor(n, m, p, b.k)
        )
        assert log_script_c(b) == pytest.approx(direct, abs=1e-14 * max(1.0, abs(direct)))

    def test_rise_then_decay_in_k(self):
        # The factorial denominator wins: the constant peaks at k=3 for
        # n=1, m=1, p=2 and then decreases monotonically.
        values = [script_c(ConstantBundle(n=1, m=1, k=k, p=2.0)) for k in range(2, 13)]
        peak = int(np.argmax(values)) + 2
        assert peak == 3
        tail = values[1:]
        assert all(a > b for a, b in zip(tail, tail[1:]))

    def test_large_k_stays_finite_in_log_space(self):
        b = ConstantBundle(n=1, m=1, k=2000, p=2.0)
        val = log_script_c(b)
        assert math.isfinite(val)
        assert val < -1000.0

    def test_k_factor_margin_validation(self):
        with pytest.raises(ValueError):
            log_k_factor(2, 1, 2.0, 1)


# Unit roundoff, and g of CPython's lgamma: for x > 2 it is the Lanczos form
# log(sum) - g + (x - 1/2)(log(x + g - 1/2) - 1), exact 0 at x = 1, 2.
UNIT = 2.0**-53
LANCZOS_G = 6.024680040776729583740234375


def script_c_log_error_bound(b):
    """A bound on |log_script_c(b) - log script_C|, from the float operations it makes.

    The log is a float sum of the terms below, each named by its size.  A log or log1p of a
    rounded argument x(1 + 2u) is off by at most 2u |log x| + 2u, and an integer multiple adds
    u: size |log x| + 1 per unit of multiplier, 4u each.  lgamma(x) is off by a few ulp of its
    Lanczos parts, whose sizes add to at most 2g + x log(x + g) (at most 2.4u of that over
    x = 3..5000, measured), 4u each.  log(margin), margin = k + 1 - m - n/p, carries the
    rounding of n/p and of the difference as a relative u (k + 1 + m + n/p) / margin.  The
    float sums (log-sum-exp, log c1's argument and the total) add at most 12u of the sum of the
    sizes (recursive summation of up to 12 terms), and the division by p in log xi, u.
    """
    n, m, k, p = b.n, b.m, b.k, b.p
    margin = k + 1 - m - n / p

    def lgamma_size(x):
        return 0.0 if x <= 2 else 2 * LANCZOS_G + x * math.log(x + LANCZOS_G)

    sizes = [
        abs(math.log(b.cea_ratio)) + 1,
        m * (abs(math.log(n * (n + 1) * b.sigma)) + 1) + m * (abs(math.log(b.lam)) + 1),
        lgamma_size(m + 1) + 2 * lgamma_size(n + 1) + 2 * (math.log(2.0) + 1),  # log c1 and log c2
        m * (abs(math.log(b.h_cap)) + 1) + math.log(m + 1) + 1,  # log xi
        n * (math.log(k + n) + 1) + m * (n + 2) * (math.log(k) + 1) + lgamma_size(k - m + 1),
        abs(math.log(margin)) + 1 + (k + 1 + m + n / p) / margin,
    ]
    return (4 + 12 + 1) * UNIT * math.fsum(sizes)


def script_c_bundles():
    grid = []
    for n, m, k, p, sigma, lam, h_cap in itertools.product(
        (1, 2, 3), (0, 1, 2), range(1, 13), (1.5, 2.0, 3.0, 4.0), (1.0, 2.5), (0.5, 1.0, 7.0, 2048.0), (0.25, 1.0, 3.0)
    ):
        if SobolevIndex(m=m, p=p, n=n).admissible(k):
            grid.append(ConstantBundle(n=n, m=m, k=k, p=p, sigma=sigma, lam=lam, h_cap=h_cap))
    # The factors that overflow floats: the `constant` cases of tests/test_cli.py, and m! beyond them.
    overflowing = [
        dict(n=200, m=1, k=300),
        dict(n=1, m=200, k=300),
        dict(n=1, m=170, k=171),
        dict(n=171, m=0, k=85),
        dict(n=1, m=1, k=2, h_cap=1e300),
        dict(n=1, m=2, k=3, sigma=1e200),
        dict(n=1, m=3, k=5, h_cap=1e200),
        dict(n=1, m=1, k=2, lam=1e308, sigma=1e10),
        dict(n=1, m=1, k=2000),
    ]
    return grid + [ConstantBundle(p=2.0, **kwargs) for kwargs in overflowing]


class TestScriptCDigits:
    def test_script_c_within_derived_bound_of_exact_value(self):
        # Digits audit: script_C against its 60-digit value.  Where script_C is a normal float,
        # e^delta - 1 for the log's error delta and the 1 ulp of exp bound its relative error;
        # beyond the float range, the log is checked against its derived bound.
        checked = 0
        for b in script_c_bundles():
            exact_log = decimal_log_script_c(b)
            log_bound = script_c_log_error_bound(b)
            log_value = log_script_c(b)
            assert abs(float(decimal.Decimal(log_value) - exact_log)) <= log_bound, b
            if abs(log_value) < constants.LOG_FLOAT_RANGE:
                with decimal.localcontext() as ctx:
                    ctx.prec = 60
                    exact = exact_log.exp()
                    rel = float(abs(decimal.Decimal(script_c(b)) - exact) / exact)
                assert rel <= math.expm1(log_bound) + 2 * UNIT * math.exp(log_bound), b
                checked += 1
        assert checked > 9000


class TestLocalInterpBound:
    def test_frozen_values(self):
        b = ConstantBundle(n=1, m=1, k=1, p=2.0)
        # k-factor is 2*1/(0!*(2-1-0.5)) = 4; fronts are c2=2 and c1=3.
        assert local_interp_bound(b, 1.0, 0.5, 0) == pytest.approx(2.0, rel=1e-13)
        assert local_interp_bound(b, 1.0, 0.5, 1) == pytest.approx(6.0, rel=1e-13)

    def test_linear_in_seminorm(self):
        b = ConstantBundle(n=1, m=1, k=2, p=2.0)
        one = local_interp_bound(b, 1.0, 0.25, 1)
        assert local_interp_bound(b, 3.0, 0.25, 1) == pytest.approx(3.0 * one, rel=1e-13)

    def test_h_power(self):
        b = ConstantBundle(n=1, m=1, k=2, p=2.0)
        coarse = local_interp_bound(b, 1.0, 0.5, 0)
        fine = local_interp_bound(b, 1.0, 0.25, 0)
        assert coarse / fine == pytest.approx(2.0 ** (b.k + 1), rel=1e-12)

    def test_zero_seminorm(self):
        b = ConstantBundle(n=1, m=0, k=1, p=2.0)
        assert local_interp_bound(b, 0.0, 0.5, 0) == 0.0

    def test_validation(self):
        b = ConstantBundle(n=1, m=0, k=1, p=2.0)
        with pytest.raises(ValueError):
            local_interp_bound(b, 1.0, 0.5, 1)
        with pytest.raises(ValueError):
            local_interp_bound(b, -1.0, 0.5, 0)
        with pytest.raises(ValueError):
            local_interp_bound(b, 1.0, 0.0, 0)


class TestBoundCheckRecord:
    def test_record(self):
        chk = BoundCheck(
            name="pointwise-cap",
            params={"n": 1, "k": 2},
            measured=1.0,
            bound=4.0,
            passed=True,
        )
        rec = chk.to_record()
        assert rec["bound_name"] == "pointwise-cap"
        assert rec["pass"] is True
        assert rec["n"] == 1 and rec["k"] == 2
        assert "note" not in rec

    def test_note_included_when_present(self):
        chk = BoundCheck(name="x", params={}, measured=0.0, bound=1.0, passed=True, note="outside hypothesis")
        assert chk.to_record()["note"] == "outside hypothesis"


class TestPointScans:
    def test_lattice_counts_and_geometry(self):
        line = barycentric_lattice(1, 4)
        assert line.shape == (5, 2)
        assert np.allclose(sorted(line[:, 1]), [0.0, 0.25, 0.5, 0.75, 1.0])
        tri = barycentric_lattice(2, 3)
        assert tri.shape == (math.comb(5, 2), 3)
        assert np.allclose(tri.sum(axis=1), 1.0, atol=1e-15)
        assert np.all(tri >= 0.0)

    @pytest.mark.parametrize("subdivisions", [1, 3, 10, 50])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_lattice_matches_combinations_bitwise(self, n, subdivisions):
        # Second route: stars and bars over itertools.combinations, row by row.
        got, want = barycentric_lattice(n, subdivisions), lattice_by_combinations(n, subdivisions)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_lattice_peak_memory(self):
        # 23,426 points of 4 coordinates take 0.71 MB; a list of lists took 3.58 MB.
        barycentric_lattice(3, 1)
        tracemalloc.start()
        try:
            barycentric_lattice(3, 50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20, f"lattice peak {peak / 2**20:.2f} MB"

    def test_samples_reproducible(self):
        a = simplex_samples(2, 100, seed=7)
        b = simplex_samples(2, 100, seed=7)
        c = simplex_samples(2, 100, seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert a.shape == (100, 3)
        assert np.allclose(a.sum(axis=1), 1.0, atol=1e-12)

    def test_negative_seed_refused(self):
        # random.Random(-1) would give seed 1's points.
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            simplex_samples(2, 10, seed=-1)
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            point_bound_check(build_basis(1, 1), 0, samples=0, seed=-1)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_points_on_the_simplex_follow_beta_law(self, n, seed):
        # Second route: each coordinate of a flat Dirichlet point in n + 1 parts is
        # Beta(1, n), with CDF 1 - (1 - t)^n.  The Kolmogorov-Smirnov distance of
        # 10,000 points stays below 1.63 / sqrt(10,000), the 1% critical value.
        count = 10_000
        pts = simplex_samples(n, count, seed)
        assert pts.shape == (count, n + 1) and np.all(pts >= 0.0)
        assert np.abs(pts.sum(axis=1) - 1.0).max() <= 4 * np.finfo(float).eps
        below, above = np.arange(count) / count, np.arange(1, count + 1) / count
        for column in pts.T:
            cdf = 1.0 - (1.0 - np.sort(column)) ** n
            distance = max((above - cdf).max(), (cdf - below).max())
            assert distance < 1.63 / math.sqrt(count), (n, seed, distance)

    def test_value_cap_quadratic_interval(self):
        basis = build_basis(1, 2)
        chk = point_bound_check(basis, 0)
        # Shape-function peak on the interval is at a node, value one.
        assert chk.measured == pytest.approx(1.0, abs=1e-9)
        assert chk.bound == pytest.approx(4.0, rel=1e-15)
        assert chk.passed

    def test_derivative_cap_quadratic_interval(self):
        basis = build_basis(1, 2)
        chk = point_bound_check(basis, 1)
        # Steepest first derivative is 4, from the interior bubble.
        assert chk.measured == pytest.approx(4.0, abs=1e-9)
        assert chk.bound == pytest.approx(8.0, rel=1e-15)
        assert chk.passed

    @pytest.mark.parametrize("n,k,r", [(1, 3, 0), (1, 3, 2), (2, 2, 0), (2, 2, 1)])
    def test_caps_hold_across_configurations(self, n, k, r):
        chk = point_bound_check(build_basis(n, k), r, subdivisions=20, samples=2000)
        assert chk.passed, chk.to_record()

    @pytest.mark.parametrize("n,k,r", [(1, 3, 0), (1, 3, 2), (1, 1, 2), (2, 3, 1), (2, 2, 2), (3, 2, 1)])
    def test_scan_matches_per_polynomial_loop(self, n, k, r, monkeypatch):
        # Dual route: each derivative of each shape function evaluated point by point
        # in Python floats, against the blocked scan of one coefficient matrix per set,
        # in one block and in blocks of a few points.
        basis = build_basis(n, k)
        pts = np.vstack([barycentric_lattice(n, 10), simplex_samples(n, 200)]).tolist()
        worst = 0.0
        for vars_ in itertools.combinations_with_replacement(range(n + 1), r):
            for poly in basis.polynomials:
                for v in vars_:
                    poly = lambda_derivative(poly, tuple(int(u == v) for u in range(n + 1)))
                worst = max([worst] + [abs(poly.evaluate(x)) for x in pts])
        chk = point_bound_check(basis, r, subdivisions=10, samples=200)
        assert chk.measured == pytest.approx(worst, rel=1e-13, abs=0)
        monkeypatch.setattr(norms, "BLOCK_POINTS", 64)
        chk = point_bound_check(basis, r, subdivisions=10, samples=200)
        assert chk.measured == pytest.approx(worst, rel=1e-13, abs=0)

    def test_scan_peak_memory(self):
        basis = build_basis(2, 4)
        # A first tiny scan loads what numpy imports lazily, so only the scan is measured.
        point_bound_check(basis, 2, subdivisions=1, samples=1)
        tracemalloc.start()
        try:
            point_bound_check(basis, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"scan peak {peak / 2**20:.2f} MB"

    def test_record_params(self):
        chk = point_bound_check(build_basis(1, 1), 0, subdivisions=10, samples=50)
        rec = chk.to_record()
        assert rec["points"] == 11 + 50
        assert rec["r"] == 0


class TestSeminormCap:
    def test_frozen_interval_value(self):
        # Max first-order seminorm of the quadratic basis is 4/sqrt(3),
        # against the geometric cap 16.
        basis = build_basis(1, 2)
        chk = seminorm_bound_check(basis, reference_simplex(1), 1, 2.0)
        assert chk.measured == pytest.approx(4.0 / math.sqrt(3.0), rel=1e-12)
        assert chk.bound == pytest.approx(16.0, rel=1e-14)
        assert chk.passed

    def test_order_zero_cap(self):
        basis = build_basis(1, 2)
        chk = seminorm_bound_check(basis, reference_simplex(1), 0, 2.0)
        assert chk.bound == pytest.approx(4.0, rel=1e-14)
        assert chk.passed

    @pytest.mark.parametrize("l,p", [(0, 1.5), (0, 3.0), (1, 2.0), (1, 3.0)])
    def test_triangle_caps_hold(self, l, p):
        basis = build_basis(2, 2)
        chk = seminorm_bound_check(basis, reference_simplex(2), l, p)
        assert chk.passed, chk.to_record()

    def test_inadmissible_combination_warns_but_computes(self):
        basis = build_basis(2, 1)
        with pytest.warns(UserWarning, match="outside its hypothesis"):
            chk = seminorm_bound_check(basis, reference_simplex(2), 1, 2.0)
        assert chk.params["admissible"] is False
        assert chk.note
        assert chk.measured > 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            seminorm_bound_check(build_basis(1, 2), reference_simplex(2), 0, 2.0)
        # The cap is for one element: a two-element mesh is refused, not read at its first.
        with pytest.raises(ValueError, match="one-element mesh"):
            seminorm_bound_check(build_basis(1, 2), uniform_mesh_1d(0.0, 1.0, 2), 0, 2.0)
