import itertools
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from fem_accuracy import quadrature
from fem_accuracy.quadrature import interval_rule, simplex_rule

from oracles import monomial_integral


def _monomial_values(rule, exponents):
    vals = np.ones(rule.size)
    for var, e in enumerate(exponents):
        if e:
            vals = vals * rule.points[:, var] ** e
    return vals


class TestIntervalRule:
    @pytest.mark.parametrize("degree", [0, 1, 2, 5, 9, 14])
    def test_weights_sum_to_measure(self, degree):
        rule = interval_rule(degree)
        assert math.fsum(rule.weights) == pytest.approx(1.0, rel=1e-14, abs=0)
        assert rule.exactness_degree >= degree

    @pytest.mark.parametrize("degree", [1, 3, 6, 10])
    def test_exact_on_monomials(self, degree):
        # Dual route: the weighted sum must match the factorial-ratio formula.
        rule = interval_rule(degree)
        for a0 in range(rule.exactness_degree + 1):
            for a1 in range(rule.exactness_degree + 1 - a0):
                got = rule.weights @ _monomial_values(rule, (a0, a1))
                want = float(monomial_integral((a0, a1), 1))
                assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_first_degree_beyond_exactness_fails(self):
        # A g-point Gauss rule must not integrate degree 2g exactly.
        rule = interval_rule(1)
        got = rule.weights @ _monomial_values(rule, (0, 2 * rule.size))
        want = float(monomial_integral((0, 2 * rule.size), 1))
        assert abs(got - want) > 1e-6

    def test_points_inside(self):
        rule = interval_rule(7)
        assert np.all(rule.points >= 0.0)
        assert np.all(rule.points <= 1.0)
        assert np.allclose(rule.points.sum(axis=1), 1.0, atol=1e-14)
        assert np.all(rule.weights > 0.0)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            interval_rule(-1)

    @pytest.mark.parametrize("g", [80, 160])
    def test_many_point_rule_exact_on_monomials(self, g):
        # The weak-* pairing panels: x^j on [0, 1] integrates to 1 / (j + 1).
        rule = interval_rule(2 * g - 1)
        assert rule.size == g
        x = rule.points[:, 1]
        worst = max(abs(math.fsum(rule.weights * x**j) * (j + 1) - 1.0) for j in range(2 * g))
        assert worst < 5e-14


class TestTriangleRule:
    @pytest.mark.parametrize("degree", [0, 2, 4, 8, 13])
    def test_weights_sum_to_measure(self, degree):
        rule = simplex_rule(2, degree)
        assert math.fsum(rule.weights) == pytest.approx(0.5, rel=1e-14, abs=0)
        assert rule.exactness_degree >= degree

    @pytest.mark.parametrize("degree", [2, 4, 7])
    def test_exact_on_monomials(self, degree):
        rule = simplex_rule(2, degree)
        d = rule.exactness_degree
        for a0 in range(d + 1):
            for a1 in range(d + 1 - a0):
                for a2 in range(d + 1 - a0 - a1):
                    got = rule.weights @ _monomial_values(rule, (a0, a1, a2))
                    want = float(monomial_integral((a0, a1, a2), 2))
                    assert got == pytest.approx(want, rel=1e-11, abs=1e-15), (a0, a1, a2)

    def test_known_product_integral(self):
        # Integral of x*y over the reference triangle is 1/24.
        rule = simplex_rule(2, 4)
        got = rule.weights @ _monomial_values(rule, (0, 1, 1))
        assert got == pytest.approx(1.0 / 24.0, rel=1e-13, abs=0)
        assert monomial_integral((0, 1, 1), 2) == Fraction(1, 24)

    def test_points_inside(self):
        rule = simplex_rule(2, 6)
        assert np.all(rule.points >= -1e-15)
        assert np.allclose(rule.points.sum(axis=1), 1.0, atol=1e-13)
        assert np.all(rule.weights > 0.0)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            simplex_rule(2, -2)


class TestDispatch:
    def test_dimensions(self):
        assert simplex_rule(1, 3).n == 1
        assert simplex_rule(2, 3).n == 2

    @pytest.mark.parametrize("n,degree", [(0, 2), (-1, 2), (1, -1), (3, -2)])
    def test_invalid_arguments_rejected(self, n, degree):
        with pytest.raises(ValueError):
            simplex_rule(n, degree)

    def test_nonpolynomial_convergence(self):
        # Increasing-degree rules must converge to the analytic value of a
        # transcendental integrand: integral of sin(pi*x) on (0, 1) = 2/pi.
        errs = []
        for degree in (1, 5, 15):
            rule = interval_rule(degree)
            vals = np.sin(np.pi * rule.points[:, 1])
            errs.append(abs(rule.weights @ vals - 2.0 / np.pi))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-12


def _monomials(n, degree):
    """Exponent tuples over the n+1 barycentric coordinates of total degree <= degree."""
    return [e for e in itertools.product(range(degree + 1), repeat=n + 1) if sum(e) <= degree]


class TestSimplexRule:
    @pytest.mark.parametrize(
        "n,degree", [(1, 0), (1, 9), (1, 20), (2, 1), (2, 6), (2, 11), (3, 0), (3, 4), (3, 7), (4, 2), (4, 5)]
    )
    def test_exact_on_every_monomial(self, n, degree):
        # Second route: the factorial-ratio formula of the oracle, in rationals.
        rule = simplex_rule(n, degree)
        assert rule.n == n and rule.exactness_degree >= degree
        assert rule.points.shape == (rule.size, n + 1)
        for exps in _monomials(n, rule.exactness_degree):
            got = rule.weights @ _monomial_values(rule, exps)
            assert got == pytest.approx(float(monomial_integral(exps, n)), rel=1e-12, abs=0), exps

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_points_inside_and_weights_positive(self, n):
        rule = simplex_rule(n, 9)
        assert np.all(rule.points >= 0.0)
        assert np.allclose(rule.points.sum(axis=1), 1.0, atol=1e-15)
        assert np.all(rule.weights > 0.0)
        assert math.fsum(rule.weights) == pytest.approx(1.0 / math.factorial(n), rel=1e-15, abs=0)

    @pytest.mark.parametrize("g", range(1, 21))
    def test_interval_rule_matches_scipy_legendre(self, g):
        from scipy.special import roots_legendre

        x, w = roots_legendre(g)
        rule = simplex_rule(1, 2 * g - 1)
        np.testing.assert_allclose(rule.points[:, 1], (x + 1.0) / 2.0, rtol=0, atol=1e-14)
        np.testing.assert_allclose(rule.points[:, 0], (1.0 - x) / 2.0, rtol=0, atol=1e-14)
        np.testing.assert_allclose(rule.weights, w / 2.0, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("g", range(1, 21))
    def test_triangle_rule_matches_scipy_collapsed_product(self, g):
        # The collapsed Legendre x Jacobi(1, 0) product built from scipy's roots.
        from scipy.special import roots_jacobi, roots_legendre

        xj, wj = roots_jacobi(g, 1.0, 0.0)
        xl, wl = roots_legendre(g)
        u, v = np.meshgrid((xj + 1.0) / 2.0, (xl + 1.0) / 2.0, indexing="ij")
        x, y = u.ravel(), (v * (1.0 - u)).ravel()
        rule = simplex_rule(2, 2 * g - 1)
        np.testing.assert_allclose(rule.points[:, 1:], np.column_stack([x, y]), rtol=0, atol=1e-14)
        np.testing.assert_allclose(rule.points[:, 0], 1.0 - x - y, rtol=0, atol=1e-14)
        np.testing.assert_allclose(rule.weights, np.outer(wj / 4.0, wl / 2.0).ravel(), rtol=1e-12, atol=0)

    def test_legendre_factor_symmetric(self):
        # Mirrored nodes and equal weights, as scipy's symmetrised roots give;
        # the nodes differ from their mirror images by one rounding at most.
        for degree in (3, 8, 15):
            rule = interval_rule(degree)
            np.testing.assert_array_equal(rule.weights, rule.weights[::-1])
            np.testing.assert_allclose(rule.points[:, 0], rule.points[::-1, 1], rtol=0, atol=2.0**-53)

    def test_cached_and_read_only(self):
        rule = simplex_rule(3, 5)
        assert simplex_rule(3, 5) is rule
        assert simplex_rule(3, 4) is rule  # same number of points per factor
        assert interval_rule(6) is simplex_rule(1, 6)
        with pytest.raises(ValueError):
            rule.points[0, 0] = 0.5
        with pytest.raises(ValueError):
            rule.weights[0] = 0.5


def golub_welsch_01(g, a):
    """The Gauss-Jacobi(a, 0) factor on [0, 1] by the route the package used before
    its Newton construction: eigenvalues of the Jacobi matrix (Golub and Welsch,
    Math. Comp. 23, 1969), one Newton step, then Christoffel weights, all in numpy."""
    s = 2.0 * np.arange(g) + a
    diag = -(a * a) / (s * (s + 2.0)) if a else np.zeros(g)
    off = (s[1:] ** 2 - a * a) / (2.0 * s[1:] * np.sqrt(s[1:] ** 2 - 1.0))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    off = np.concatenate([[0.0], off, [1.0]])

    def recurrence(x):
        prev, cur = np.zeros_like(x), np.ones_like(x)
        dprev, dcur, squares = np.zeros_like(x), np.zeros_like(x), np.zeros_like(x)
        for k in range(g):
            squares += cur**2
            nxt = ((x - diag[k]) * cur - off[k] * prev) / off[k + 1]
            dprev, dcur = dcur, (cur + (x - diag[k]) * dcur - off[k] * dprev) / off[k + 1]
            prev, cur = cur, nxt
        return cur, dcur, squares

    p, dp, _ = recurrence(x)
    x = x - p / dp
    w = 1.0 / recurrence(x)[2]
    if a == 0:
        x, w = (x - x[::-1]) / 2.0, (w + w[::-1]) / 2.0
    return (x + 1.0) / 2.0, w / ((a + 1.0) * w.sum())


FACTORS = [(g, a) for a in range(4) for g in range(1, 41)] + [(80, 0), (160, 0)]


class TestNewtonFactors:
    # Measured against golub_welsch_01 on these factors: nodes within 1.0 * 2^-53
    # on [0, 1], weights within 304 ulp (relative; the largest sit at the node
    # nearest u = 0, where a node half an ulp apart moves the weight that much).
    NODE_TOL = 2.0 * 2.0**-53
    WEIGHT_ULPS = 400

    @pytest.mark.parametrize("g,a", FACTORS)
    def test_matches_eigenvalue_route(self, g, a):
        x, w = quadrature._gauss_jacobi_01(g, a)
        rx, rw = golub_welsch_01(g, a)
        assert np.max(np.abs(np.array(x) - rx)) <= self.NODE_TOL
        assert np.max(np.abs(np.array(w) - rw) / rw) <= self.WEIGHT_ULPS * 2.0**-52

    @pytest.mark.parametrize("g,a", FACTORS)
    def test_increasing_interior_positive(self, g, a):
        x, w = quadrature._gauss_jacobi_01(g, a)
        assert type(x) is tuple and type(w) is tuple and len(x) == len(w) == g
        assert all(lo < hi for lo, hi in zip((0.0, *x), (*x, 1.0)))
        assert all(v > 0.0 for v in w)
        assert math.fsum(w) == pytest.approx(1.0 / (a + 1), rel=1e-15, abs=0)

    def test_legendre_factor_is_the_cached_rule_factor(self):
        nodes, weights = quadrature.legendre_factor(80)
        assert quadrature.legendre_factor(80) is quadrature._gauss_jacobi_01(80, 0)
        rule = interval_rule(159)
        assert rule.points[:, 1].tolist() == list(nodes) and rule.weights.tolist() == list(weights)

    def test_no_numpy_for_factors_and_no_linear_algebra_for_rules(self):
        # The factors load no numpy; the arrays of every rule are built with no numpy.linalg call.
        code = (
            "import sys\n"
            "from fem_accuracy import quadrature\n"
            "quadrature.legendre_factor(160)\n"
            "quadrature._gauss_jacobi_01(40, 3)\n"
            "print('numpy' in sys.modules)\n"
            "import numpy\n"
            "def refuse(*args, **kwargs):\n"
            "    raise AssertionError('numpy.linalg called')\n"
            "for name in dir(numpy.linalg):\n"
            "    if callable(getattr(numpy.linalg, name)) and not isinstance(getattr(numpy.linalg, name), type):\n"
            "        setattr(numpy.linalg, name, refuse)\n"
            "for n in (1, 2, 3, 4):\n"
            "    quadrature.simplex_rule(n, 11)\n"
            "print('ok')\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["False", "ok"]

    @pytest.mark.parametrize("a", [5, 8, 12, 20])
    @pytest.mark.parametrize("g", [1, 2, 5, 10, 20, 30])
    def test_high_jacobi_exponents(self, g, a):
        # The n-simplex rule needs a = n - 1; asymptotic starting zeros fail from
        # a = 5 on, the deflated sweep does not.  Moments of (1 - u)^a u^j are
        # the Beta function j! a! / (j + a + 1)!.
        x, w = quadrature._gauss_jacobi_01(g, a)
        rx, _ = golub_welsch_01(g, a)
        assert np.max(np.abs(np.array(x) - rx)) <= self.NODE_TOL
        for j in range(2 * g):
            want = math.factorial(j) * math.factorial(a) / math.factorial(j + a + 1)
            assert math.fsum(wi * xi**j for xi, wi in zip(x, w)) == pytest.approx(want, rel=1e-12, abs=0), j

    @pytest.mark.parametrize("n,degree", [(6, 5), (9, 3)])
    def test_high_dimensional_rules_exact_on_every_monomial(self, n, degree):
        # Factors with a = n - 1 up to 8; the eigenvalue route built these too.
        rule = simplex_rule(n, degree)
        assert np.all(rule.points >= 0.0) and np.all(rule.weights > 0.0)
        for exps in _monomials(n, rule.exactness_degree):
            got = rule.weights @ _monomial_values(rule, exps)
            assert got == pytest.approx(float(monomial_integral(exps, n)), rel=1e-12, abs=0), exps

    def test_nodes_that_fail_to_increase_are_refused(self, monkeypatch):
        # Newton from guesses that all start at one zero converges to it.
        monkeypatch.setattr(quadrature.math, "cos", lambda theta: 0.5)
        with pytest.raises(RuntimeError, match="not increasing"):
            quadrature._gauss_jacobi_01.__wrapped__(5, 0)

    def test_newton_that_does_not_converge_is_refused(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_recurrence", lambda x, diag, off: (1.0, 1.0, 1.0))
        with pytest.raises(RuntimeError, match="did not converge"):
            quadrature._gauss_jacobi_01.__wrapped__(3, 1)
