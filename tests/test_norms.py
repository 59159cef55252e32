import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from fem_accuracy import fem1d, kernels, norms
from fem_accuracy.basis import build_basis
from fem_accuracy.kernels import chain_rule_weights
from fem_accuracy.bounds import seminorm_bound_check
from fem_accuracy.constants import AdmissibilityError, SobolevIndex
from fem_accuracy.functions import Polynomial1D, SinPiProduct
from fem_accuracy.geometry import SimplexMesh, reference_simplex, structured_mesh_2d, uniform_mesh_1d
from fem_accuracy.quadrature import QuadratureRule, simplex_rule
from fem_accuracy.norms import (
    BLOCK_POINTS,
    DifferenceField,
    PiecewisePolynomialField,
    derivative_multi_indices,
    element_blocks,
    interpolation_error,
    seminorm,
    seminorm_with_estimate,
    sobolev_norm,
)

from oracles import Exp1D, lambda_derivative, one_element_mesh, rational_eval, simplex_mesh, sin_seminorm_by_quadrature, solution_values


class TestSobolevIndex:
    def test_validation(self):
        with pytest.raises(ValueError):
            SobolevIndex(-1, 2.0, 1)
        with pytest.raises(ValueError):
            SobolevIndex(0, 0.0, 1)
        with pytest.raises(ValueError):
            SobolevIndex(0, 2.0, 0)
        with pytest.raises(ValueError):
            SobolevIndex(1, math.nan, 1)

    def test_p_at_most_one_warns(self):
        with pytest.warns(UserWarning):
            SobolevIndex(0, 1.0, 1)
        with pytest.warns(UserWarning) as record:
            SobolevIndex(0, 0.5, 1)
        # Reported at the code that builds the index, not the generated __init__.
        assert record[0].filename == __file__

    @pytest.mark.parametrize(
        "m,p,n,k,expected",
        [
            (0, 2.0, 1, 1, True),
            (1, 2.0, 1, 1, True),
            (2, 2.0, 1, 1, False),
            (1, 2.0, 2, 1, False),
            (1, 2.0, 2, 2, True),
            (1, 1.5, 2, 2, True),
            (0, 1.5, 2, 1, True),
            (2, 3.0, 1, 2, True),
            (2, 3.0, 1, 1, False),
            (1, 2.0, 3, 2, True),
            (2, 2.0, 3, 2, False),
        ],
    )
    def test_admissibility_table(self, m, p, n, k, expected):
        assert SobolevIndex(m, p, n).admissible(k) is expected

    def test_require_names_order_inequality(self):
        with pytest.raises(AdmissibilityError) as exc:
            SobolevIndex(2, 2.0, 1).require(1)
        assert exc.value.inequality == "k+1 > l + n/p"
        assert "l=2" in str(exc.value)

    def test_require_passes_when_admissible(self):
        SobolevIndex(1, 2.0, 1).require(1)
        SobolevIndex(1, 2.0, 2).require(2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_admissible_iff_require_passes(self, n, p):
        for m in range(4):
            for k in range(1, 7):
                idx = SobolevIndex(m, p, n)
                try:
                    idx.require(k)
                    passed = True
                except AdmissibilityError:
                    passed = False
                assert idx.admissible(k) is passed, (m, k)

    def test_seminorm_conditions_per_order(self):
        # n/p = 1: order l is covered iff k > l.
        idx = SobolevIndex(2, 2.0, 2)
        assert idx.seminorm_conditions(2) == {0: True, 1: True, 2: False}


class TestDerivativeMultiIndices:
    @pytest.mark.parametrize("n,l", [(1, 0), (1, 3), (2, 2), (3, 2), (3, 3)])
    def test_count(self, n, l):
        out = derivative_multi_indices(n, l)
        assert len(out) == math.comb(n + l - 1, l)
        assert all(sum(a) == l for a in out)
        assert len(set(out)) == len(out)

    def test_explicit_second_order_2d(self):
        assert derivative_multi_indices(2, 2) == [(0, 2), (1, 1), (2, 0)]


class TestSeminormValues:
    def test_linear_l2_interval(self):
        # |x|_{0,2} on (0,1): integral of x^2 is 1/3.
        mesh = uniform_mesh_1d(0.0, 1.0, 4)
        got = seminorm(Polynomial1D([0.0, 1.0]), mesh, 0, 2.0, degree=16)
        assert got == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-13)

    def test_sine_h1_interval(self):
        # |sin(pi.)|_{1,2} on (0,1) = pi/sqrt(2).
        mesh = uniform_mesh_1d(0.0, 1.0, 8)
        got = seminorm(SinPiProduct(), mesh, 1, 2.0, degree=16)
        assert got == pytest.approx(math.pi / math.sqrt(2.0), rel=1e-12)

    @pytest.mark.parametrize("r,p", [(0, 1.5), (0, 2.0), (1, 2.0), (2, 3.0), (1, 1.5)])
    def test_sine_closed_form_all_orders(self, r, p):
        # Dual route: the package's element quadrature against scipy's
        # adaptive quadrature of |sin(pi t)|^p.
        # Noninteger p makes the integrand non-smooth where the derivative
        # vanishes, so the rate is algebraic; 1e-7 is attainable at this
        # degree for every combination.
        mesh = uniform_mesh_1d(0.0, 1.0, 16)
        got = seminorm(SinPiProduct(), mesh, r, p, degree=20)
        assert got == pytest.approx(sin_seminorm_by_quadrature(r, p), rel=1e-7)

    def test_constant_on_triangle_mesh(self):
        mesh = structured_mesh_2d(3)
        got = seminorm(ConstantOneField(), mesh, 0, 3.0, degree=6)
        assert got == pytest.approx(1.0, rel=1e-12)

    def test_single_simplex_domain(self):
        tri = reference_simplex(2)
        # The P1 shape functions sum to one, so all nodal values 2 give the constant 2.
        field = PiecewisePolynomialField(build_basis(2, 1), [[2.0, 2.0, 2.0]])
        assert seminorm(field, tri, 0, 2.0, degree=2) == pytest.approx(2.0 * math.sqrt(0.5), rel=1e-13)

    def test_piecewise_gradient(self):
        # Field equal to x on each element of a 1D mesh has |.|_{1,p} = 1:
        # its P1 coefficients are the element's vertex coordinates.
        mesh = uniform_mesh_1d(0.0, 1.0, 5)
        field = PiecewisePolynomialField(build_basis(1, 1), mesh.element_vertices[:, :, 0])
        assert seminorm(field, mesh, 1, 2.5, degree=8) == pytest.approx(1.0, rel=1e-12)

    def test_mesh_additivity(self):
        # The p-th power over the mesh is the sum of single-element powers.
        mesh = uniform_mesh_1d(0.0, 1.0, 3)
        fn = Exp1D(0.7)
        p = 2.0
        whole = seminorm(fn, mesh, 0, p, degree=24) ** p
        parts = math.fsum(seminorm(fn, s, 0, p, degree=24) ** p for s in mesh.simplices)
        assert whole == pytest.approx(parts, rel=1e-13)


def float_range_refusal(p):
    return pytest.raises(ValueError, match=re.escape(f"cannot be measured in floats at p = {p:g}:"))


class TestFloatRange:
    """Every seminorm route refuses what floats cannot hold, as the 1D error reports do."""

    @pytest.mark.parametrize("scale", [2.0**600, 2.0**-600], ids=["2^600", "2^-600"])
    def test_scaled_fields_raise(self, scale):
        # Squares of values near 2^600 overflow; near 2^-600 they underflow to a zero sum.
        mesh = structured_mesh_2d(2)
        basis = build_basis(2, 3)
        coefficients = np.random.default_rng(4).uniform(-1.0, 1.0, (len(mesh), basis.size))
        field = PiecewisePolynomialField(basis, scale * coefficients)
        assert seminorm(PiecewisePolynomialField(basis, coefficients), mesh, 1, 2.0, degree=6) > 0
        with float_range_refusal(2.0):
            seminorm(field, mesh, 1, 2.0, degree=6)
        with float_range_refusal(2.0):
            seminorm_with_estimate(field, mesh, 1, 2.0, 6)

    @pytest.mark.parametrize("scale", [2.0**600, 2.0**-600], ids=["2^600", "2^-600"])
    @pytest.mark.parametrize("with_estimate", [False, True])
    def test_scaled_interpolation_errors_raise(self, scale, with_estimate):
        # x^4 is not in P_3, so its interpolation error is scale times a nonzero field.
        mesh, basis = uniform_mesh_1d(0.0, 1.0, 4), build_basis(1, 3)
        assert interpolation_error(Polynomial1D([0.0, 0.0, 0.0, 0.0, 1.0]), mesh, basis, 0, 2.0) > 0
        with float_range_refusal(2.0):
            interpolation_error(Polynomial1D([0.0, 0.0, 0.0, 0.0, scale]), mesh, basis, 0, 2.0, with_estimate)

    @pytest.mark.parametrize("p", [1e-300, 1e-12, 2.0**-21])
    def test_p_near_zero_raises(self, p):
        # At p = 1e-300 the sum of p-th powers rounds to 1 or below and the root to 1.0 or 0.0.
        mesh = uniform_mesh_1d(0.0, 1.0, 3)
        with float_range_refusal(p):
            seminorm(SinPiProduct(1), mesh, 0, p, 8)
        with float_range_refusal(p):
            seminorm_with_estimate(SinPiProduct(1), mesh, 0, p, 8)

    def test_smallest_p_is_measured(self):
        assert 0 < seminorm(SinPiProduct(1), uniform_mesh_1d(0.0, 1.0, 3), 0, 2.0**-20, 8) < 1

    @pytest.mark.parametrize("value,length", [(1.0, 0.4), (1e6, 3.0)], ids=["underflow", "overflow"])
    def test_root_out_of_range_raises(self, value, length):
        # The p-th powers sum to 0.4 and about 3.04, but 0.4^1000 underflows (it
        # was returned as 0.0) and 3.04^1000 overflows.
        with pytest.raises(ValueError, match=re.escape("at p = 0.001: their 1/p-th roots over- or underflow")):
            seminorm(Polynomial1D([value]), uniform_mesh_1d(0.0, length, 4), 0, 1e-3, 4)


class ConstantOneField:
    """Constant-one field on any mesh, for measure checks."""

    def deriv_block(self, mesh, lo, hi, alpha, rule, phys):
        if sum(alpha) == 0:
            return np.ones((hi - lo, rule.size))
        return np.zeros((hi - lo, rule.size))


class TestSobolevNorm:
    # The W^{m,p} norm is the p-th root of the summed seminorm powers, as
    # fem1d.error_reports forms it.
    def test_is_the_root_of_the_summed_powers(self):
        values = [0.3, 1e-3, 2.5, 0.0]
        for p in (1.5, 2.0, 3.0):
            assert sobolev_norm(values, p) == math.fsum(v**p for v in values) ** (1.0 / p)
        assert sobolev_norm([0.0, 0.0], 2.0) == 0.0

    def test_total_out_of_range_raises(self):
        # Each power is about 2, but the root of their sum, about 6^1000, overflows;
        # at p = 2 the powers themselves overflow.
        with pytest.raises(ValueError, match=re.escape("at p = 0.001: their total or its 1/p-th root over-")):
            sobolev_norm([1e297, 1e297, 1e297], 1e-3)
        with float_range_refusal(2.0):
            sobolev_norm([1e300, 1e300], 2.0)

    def test_combines_orders(self):
        mesh = uniform_mesh_1d(0.0, 1.0, 4)
        fn = Polynomial1D([0.0, 1.0])
        got = math.fsum(seminorm(fn, mesh, l, 2.0, degree=16) ** 2.0 for l in (0, 1)) ** 0.5
        assert got == pytest.approx(math.sqrt(1.0 / 3.0 + 1.0), rel=1e-13)

    def test_m_zero_matches_seminorm(self):
        problem = fem1d.ModelProblem.sine()
        solution = fem1d.assemble_and_solve_all(problem, [uniform_mesh_1d(0.0, 1.0, 4)], 2)
        report = fem1d.error_reports(solution, problem, 0, 2.0)[0]
        degree = 2 * 2 + 6 + norms.ESTIMATE_DEGREE_STEP
        error = DifferenceField(problem.u, solution.field)
        direct = seminorm(error, solution.family.mesh, 0, 2.0, degree=degree)
        assert report["error"] == pytest.approx(direct, rel=1e-14)


class TestQuadratureEstimate:
    def test_estimate_near_zero_for_polynomials(self):
        mesh = uniform_mesh_1d(0.0, 1.0, 4)
        value, est = seminorm_with_estimate(Polynomial1D([0.0, 0.0, 1.0]), mesh, 0, 2.0, degree=16)
        assert value == pytest.approx(1.0 / math.sqrt(5.0), rel=1e-13)
        assert est < 1e-14

    def test_estimate_shrinks_with_degree(self):
        mesh = uniform_mesh_1d(0.0, 1.0, 2)
        fn = Exp1D(3.0)
        _, est_low = seminorm_with_estimate(fn, mesh, 0, 2.0, degree=2)
        _, est_high = seminorm_with_estimate(fn, mesh, 0, 2.0, degree=12)
        assert est_high < est_low
        assert est_high < 1e-10


class TestInterpolationError:
    def test_zero_for_reproduced_polynomial(self):
        mesh = uniform_mesh_1d(0.0, 1.0, 4)
        basis = build_basis(1, 2)
        err = interpolation_error(Polynomial1D([1.0, -2.0, 1.0]), mesh, basis, 0, 2.0)
        assert err < 1e-13

    @pytest.mark.parametrize("k,l", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_refinement_rate(self, k, l):
        # Halving h must shrink the error by about 2^(k+1-l).
        fn = SinPiProduct()
        basis = build_basis(1, k)
        coarse = interpolation_error(fn, uniform_mesh_1d(0.0, 1.0, 8), basis, l, 2.0)
        fine = interpolation_error(fn, uniform_mesh_1d(0.0, 1.0, 16), basis, l, 2.0)
        rate = math.log2(coarse / fine)
        assert rate == pytest.approx(k + 1 - l, abs=0.1)

    @pytest.mark.parametrize("k", [12, 16, 20])
    def test_high_degree_floor_is_below_truncation_scale(self, k):
        # On 8 cells the L2 truncation error of sin(pi x) is below 1e-14 for k >= 12, so
        # the measured error is the tables' rounding: 2.2e-15 to 1.4e-13 from products
        # of node factors, against 1.8e-11 to 4.0e-7 from expanded monomials.
        err = interpolation_error(SinPiProduct(), uniform_mesh_1d(0.0, 1.0, 8), build_basis(1, k), 0, 2.0)
        assert err < 1e-12

    def test_with_estimate_option(self):
        mesh = uniform_mesh_1d(0.0, 1.0, 8)
        basis = build_basis(1, 1)
        value, est = interpolation_error(SinPiProduct(), mesh, basis, 0, 2.0, with_estimate=True)
        plain = interpolation_error(SinPiProduct(), mesh, basis, 0, 2.0)
        assert est < 1e-8
        assert value == pytest.approx(plain, rel=1e-6)

    def test_difference_field_direct(self):
        mesh = uniform_mesh_1d(0.0, 1.0, 3)
        fn = SinPiProduct()
        zero = DifferenceField(fn, fn)
        assert seminorm(zero, mesh, 0, 2.0, degree=8) == 0.0


def _exact_triangle_gradients(vertices):
    """Barycentric gradients of a triangle with rational vertices, in Fractions."""
    (x0, y0), (x1, y1), (x2, y2) = vertices
    det = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    return [
        ((y1 - y2) / det, (x2 - x1) / det),
        ((y2 - y0) / det, (x0 - x2) / det),
        ((y0 - y1) / det, (x1 - x0) / det),
    ]


class TestTabulatedField:
    @pytest.mark.parametrize("l", [0, 1, 2])
    def test_derivatives_match_exact_chain_rule(self, l):
        # Dual route: table plus float chain rule against Fraction arithmetic.
        vertices = [(Fraction(0), Fraction(0)), (Fraction(3, 2), Fraction(1, 4)), (Fraction(1, 3), Fraction(5, 4))]
        simplex = one_element_mesh([[float(c) for c in v] for v in vertices])
        grads = _exact_triangle_gradients(vertices)
        assert np.allclose(simplex.element_gradients[0], np.array(grads, dtype=float), rtol=1e-14, atol=1e-14)

        basis = build_basis(2, 3)
        coeffs = [Fraction(j - 4, 4) for j in range(basis.size)]
        field = PiecewisePolynomialField(basis, [[float(c) for c in coeffs]])
        bary = np.array([[0.25, 0.5, 0.25], [0.125, 0.125, 0.75], [0.6, 0.3, 0.1]])
        points = QuadratureRule(n=2, points=bary, weights=np.full(3, 1.0 / 6.0), exactness_degree=0)
        for alpha in derivative_multi_indices(2, l):
            got = field.deriv_block(simplex_mesh([simplex]), 0, 1, alpha, points, (bary @ simplex.vertices)[None])[0]
            directions = [j for j, times in enumerate(alpha) for _ in range(times)]
            for lam, value in zip(bary, got):
                lam_exact = [Fraction(float(x)) for x in lam]
                exact = Fraction(0)
                for seq in itertools.product(range(3), repeat=l):
                    weight = math.prod((grads[q][j] for q, j in zip(seq, directions)), start=Fraction(1))
                    orders = [seq.count(v) for v in range(3)]
                    for c, poly in zip(coeffs, basis.polynomials):
                        exact += c * weight * rational_eval(lambda_derivative(poly, orders), lam_exact)
                assert abs(value - float(exact)) <= 1e-12 * max(1.0, abs(float(exact))), (alpha, lam)


class CountingSinPi(SinPiProduct):
    """sin(pi x) sin(pi y) that counts its deriv_values calls."""

    def __init__(self):
        super().__init__(2)
        self.calls = 0

    def deriv_values(self, alpha, x):
        self.calls += 1
        return super().deriv_values(alpha, x)


def jittered_mesh_2d(per_side, seed):
    """structured_mesh_2d with interior vertices moved, so every element differs."""
    mesh = structured_mesh_2d(per_side)
    verts = mesh.vertices.copy()
    interior = np.all((verts > 0.0) & (verts < 1.0), axis=1)
    verts[interior] += np.random.default_rng(seed).uniform(-0.2, 0.2, (interior.sum(), 2)) / per_side
    return simplex_mesh([one_element_mesh(verts[idx]) for idx in mesh.connectivity])


def blocks_at(mesh, degree):
    """The element blocks of a seminorm of the given rule degree on mesh."""
    return element_blocks(len(mesh), simplex_rule(mesh.n, degree).size)


def assert_spans_blocks(mesh, degree):
    """The mesh fills at least one block of the degree's rule and ends in a partial one."""
    blocks = blocks_at(mesh, degree)
    sizes = [hi - lo for lo, hi in blocks]
    assert len(blocks) >= 2 and 0 < sizes[-1] < sizes[0], sizes


class TestBlockedEvaluation:
    # 578 triangles: at rule degrees 10 and 14 (36 and 64 points) they fill
    # full blocks and end in a partial one.
    mesh = jittered_mesh_2d(17, seed=11)

    def test_mesh_spans_more_than_one_block(self):
        for degree in (10, 14):
            assert_spans_blocks(self.mesh, degree)
        assert math.fsum(self.mesh.element_measures) == pytest.approx(1.0, rel=1e-12)

    def test_mesh_seminorm_is_sum_of_simplex_seminorms(self):
        # Dual route: each element on its own as a one-simplex domain, so a
        # wrong offset into the coefficients, gradients, vertices or measures
        # of a later block shows.
        basis = build_basis(2, 3)
        coeffs = np.random.default_rng(5).uniform(-1.0, 1.0, (len(self.mesh), basis.size))
        whole = PiecewisePolynomialField(basis, coeffs)
        singles = [PiecewisePolynomialField(basis, coeffs[e : e + 1]) for e in range(len(self.mesh))]
        fn = SinPiProduct(2)
        for l in (0, 1, 2):
            for p in (2.0, 3.0):
                got = seminorm(whole, self.mesh, l, p, degree=10) ** p
                parts = math.fsum(seminorm(f, s, l, p, degree=10) ** p for f, s in zip(singles, self.mesh.simplices))
                assert got == pytest.approx(parts, rel=1e-13), (l, p)
                got = seminorm(fn, self.mesh, l, p, degree=10) ** p
                parts = math.fsum(seminorm(fn, s, l, p, degree=10) ** p for s in self.mesh.simplices)
                assert got == pytest.approx(parts, rel=1e-13), (l, p)

    def test_element_powers_sum_to_the_seminorm(self):
        # One column per element and one row per direction; their fsum is
        # exact, so it gives the seminorm's bits across the block boundaries.
        basis = build_basis(2, 3)
        coefficients = np.random.default_rng(6).uniform(-1.0, 1.0, (len(self.mesh), basis.size))
        field = PiecewisePolynomialField(basis, coefficients)
        simplices = self.mesh.simplices
        for f in (field, SinPiProduct(2)):
            for l in (0, 1):
                for p in (1.5, 2.0, 3.0):
                    powers = norms.element_powers(f, self.mesh, l, p, 10)
                    assert powers.shape == (len(derivative_multi_indices(2, l)), len(self.mesh))
                    assert math.fsum(powers.ravel().tolist()) ** (1.0 / p) == seminorm(f, self.mesh, l, p, degree=10)
            # Spot checks against one-element domains.
            for e in (0, 1, 300, len(self.mesh) - 1):
                single = PiecewisePolynomialField(basis, field.coefficients[e : e + 1]) if f is field else f
                want = seminorm(single, simplices[e], 1, 2.0, degree=10) ** 2.0
                assert norms.element_powers(f, self.mesh, 1, 2.0, 10)[:, e].sum() == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("l", [0, 1, 2])
    def test_analytic_calls_per_block_not_per_element(self, l):
        directions = len(derivative_multi_indices(2, l))
        fn = CountingSinPi()
        seminorm(fn, self.mesh, l, 2.0, degree=10)
        assert fn.calls <= len(blocks_at(self.mesh, 10)) * directions
        fn.calls = 0
        seminorm_with_estimate(fn, self.mesh, l, 2.0, degree=10)
        assert fn.calls <= (len(blocks_at(self.mesh, 10)) + len(blocks_at(self.mesh, 14))) * directions

    def test_interpolant_samples_once(self):
        # interpolation_error's default rule degree is 2k + 6 = 10.
        fn = CountingSinPi()
        interpolation_error(fn, self.mesh, build_basis(2, 2), 1, 2.0)
        assert fn.calls <= 1 + len(blocks_at(self.mesh, 10)) * len(derivative_multi_indices(2, 1))

    def test_blocks_cover_the_mesh_within_the_point_budget(self):
        for count, points in [(1, 1), (5, 20_000), (578, 36), (2048, 7), (2048, 9), (4608, 81)]:
            blocks = element_blocks(count, points)
            assert blocks[0][0] == 0 and blocks[-1][1] == count
            assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
            # Within the budget (one element at least), and no block but the
            # last could take one more element.
            assert all(hi - lo == 1 or (hi - lo) * points <= BLOCK_POINTS for lo, hi in blocks)
            assert all((hi - lo + 1) * points > BLOCK_POINTS for lo, hi in blocks[:-1])


def contraction_loop(field, mesh, alpha, rule):
    """Element by element, weights @ (coefficients @ table), and the same with
    absolute values: the magnitude that bounds the rounding error."""
    table = kernels.table(field.basis, rule, sum(alpha))
    weights = chain_rule_weights(mesh.element_gradients, alpha)
    values = np.array([w @ (c @ table) for w, c in zip(weights, field.coefficients)])
    magnitude = np.array([np.abs(w) @ (np.abs(c) @ np.abs(table)) for w, c in zip(weights, field.coefficients)])
    # Each of two routes summing N products, then S terms, is within
    # gamma_{N+S} * magnitude of the exact value (Higham, ASNA, 3.1).
    return values, (len(table) + field.basis.size) * np.finfo(float).eps * magnitude


def block_values(field, mesh, alpha, rule, blocks):
    return np.concatenate([field.deriv_block(mesh, lo, hi, alpha, rule, None) for lo, hi in blocks])


class TestRowContraction:
    # A graded 1D mesh and a jittered 2D one, so every element's weights differ.
    meshes = {
        1: SimplexMesh(vertices=(np.linspace(0.0, 1.0, 38) ** 2)[:, None], connectivity=[[e, e + 1] for e in range(37)]),
        2: jittered_mesh_2d(5, seed=2),
    }

    @staticmethod
    def field(mesh, k):
        basis = build_basis(mesh.n, k)
        return PiecewisePolynomialField(basis, np.random.default_rng(k).uniform(-1.0, 1.0, (len(mesh), basis.size)))

    @pytest.mark.parametrize("n,k", [(1, 1), (1, 3), (1, 6), (2, 1), (2, 3), (2, 5)])
    def test_matches_per_element_loop(self, n, k):
        mesh = self.meshes[n]
        field = self.field(mesh, k)
        for degree in (2 * k + 6, 2 * k + 10):
            rule = simplex_rule(n, degree)
            for l in (0, 1, 2):
                for alpha in derivative_multi_indices(n, l):
                    expected, tol = contraction_loop(field, mesh, alpha, rule)
                    for blocks in ([(0, len(mesh))], [(e, e + 1) for e in range(len(mesh))]):
                        got = block_values(field, mesh, alpha, rule, blocks)
                        assert np.all(np.abs(got - expected) <= tol), (degree, alpha, len(blocks))

    # The bases of the 1D Galerkin study and the 2D interpolation workload,
    # at their rule degrees 2k + 6 and 2k + 10.  (With OpenBLAS, larger bases,
    # from N = 16 coefficients on, can round a row differently by block size.)
    @pytest.mark.parametrize("n,k", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)])
    def test_block_split_is_bitwise(self, n, k):
        mesh = self.meshes[n]
        field = self.field(mesh, k)
        for degree in (2 * k + 6, 2 * k + 10):
            rule = simplex_rule(n, degree)
            for l in (0, 1, 2):
                for alpha in derivative_multi_indices(n, l):
                    whole = block_values(field, mesh, alpha, rule, [(0, len(mesh))])
                    for size in (2, 3, 4, 5, 8, 9):
                        blocks = element_blocks(len(mesh), size * rule.size)
                        if blocks[-1][1] - blocks[-1][0] == 1:
                            blocks = blocks[:-2] + [(blocks[-2][0], len(mesh))]
                        assert np.array_equal(block_values(field, mesh, alpha, rule, blocks), whole), (degree, alpha, size)

    def test_seminorm_does_not_depend_on_block_points(self, monkeypatch):
        mesh = uniform_mesh_1d(0.0, 1.0, 300)
        err = DifferenceField(SinPiProduct(), self.field(mesh, 3))
        rule = simplex_rule(1, 12)
        whole = [seminorm(err, mesh, l, 3.0, degree=12) for l in (0, 1, 2)]
        assert element_blocks(len(mesh), rule.size) == [(0, len(mesh))]
        monkeypatch.setattr(norms, "BLOCK_POINTS", 7 * rule.size)
        assert [seminorm(err, mesh, l, 3.0, degree=12) for l in (0, 1, 2)] == whole


class TestSharedTables:
    @staticmethod
    def count_tabulate(monkeypatch):
        """Every tabulate call as (basis, points, order)."""
        built = []
        tabulate = kernels.tabulate

        def counting(basis, points, order):
            built.append((id(basis), points.tobytes(), order))
            return tabulate(basis, points, order)

        monkeypatch.setattr(kernels, "tabulate", counting)
        return built

    def test_each_rule_table_built_once(self, monkeypatch):
        fem1d._interval_basis.cache_clear()
        fem1d._reference_system.cache_clear()
        built = self.count_tabulate(monkeypatch)
        fem1d.convergence_study(fem1d.ModelProblem.sine(), 3, 1, 2.0, (32, 64, 128, 256))
        # Assembly: orders 0 and 1 at degree 2k and order 0 at the load
        # degree 2k + 8; errors: orders 0 and 1 at degrees 2k + 6 and 2k + 10.
        assert len(built) == 7
        basis, mesh = build_basis(2, 2), structured_mesh_2d(6)
        for _ in range(2):
            interpolation_error(SinPiProduct(2), mesh, basis, 1, 2.0)
        assert len(built) == 8
        seminorm_bound_check(build_basis(2, 3), reference_simplex(2), 1, 2.0)
        assert len(built) == 9
        assert len(set(built)) == len(built)

    def test_tables_are_read_only(self):
        basis = build_basis(2, 2)
        rule = simplex_rule(2, 4)
        table = kernels.table(basis, rule, 1)
        assert kernels.table(basis, rule, 1) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0, 0] = 1.0
        sol = fem1d.assemble_and_solve_all(fem1d.ModelProblem.sine(), [uniform_mesh_1d(0.0, 1.0, 8)], 2)
        fem1d.error_reports(sol, fem1d.ModelProblem.sine(), 1, 2.0)
        tables = sol.field.basis.tables
        assert tables and not any(t.flags.writeable for t in tables.values())

    def test_only_cached_rules_are_kept(self):
        basis = build_basis(2, 2)
        rule = simplex_rule(2, 4)
        copy = QuadratureRule(2, rule.points.copy(), rule.weights, rule.exactness_degree)
        table = kernels.table(basis, copy, 0)
        assert not basis.tables and not table.flags.writeable
        assert np.array_equal(table, kernels.table(basis, rule, 0))
        assert list(basis.tables) == [(2, rule.exactness_degree, 0)]

    def test_point_evaluation_adds_no_table(self):
        # The oracle's point values of u_h go through no shape-function table.
        sol = fem1d.assemble_and_solve_all(fem1d.ModelProblem.sine(), [uniform_mesh_1d(0.0, 1.0, 16)], 3)
        fem1d.error_reports(sol, fem1d.ModelProblem.sine(), 0, 2.0)
        tables = sol.field.basis.tables
        before = dict(tables)
        values = solution_values(sol, np.random.default_rng(1).uniform(0.0, 1.0, 300))
        assert values.shape == (300,)
        assert tables.keys() == before.keys()
        assert all(tables[key] is table for key, table in before.items())
