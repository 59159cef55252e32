import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from fem_accuracy.basis import BarycentricPolynomial, auxiliary_factor, build_basis, multi_indices
from fem_accuracy.geometry import reference_simplex, structured_mesh_2d
from fem_accuracy.kernels import chain_rule_weights, factor_tables, tabulate
from fem_accuracy.norms import PiecewisePolynomialField, interpolant_field
from fem_accuracy.quadrature import simplex_rule

from oracles import barycentric, embedded, lambda_derivative, one_element_mesh, polynomial_product, rational_eval


class TestMultiIndices:
    @pytest.mark.parametrize("n,k", [(1, 1), (1, 4), (2, 3), (3, 2), (4, 5)])
    def test_count_matches_binomial(self, n, k):
        idx = multi_indices(n, k)
        assert len(idx) == math.comb(n + k, n)
        assert all(sum(mi) == k for mi in idx)
        assert len(set(idx)) == len(idx)

    def test_descending_lex_order(self):
        assert multi_indices(1, 2) == [(2, 0), (1, 1), (0, 2)]
        assert multi_indices(2, 2) == [
            (2, 0, 0),
            (1, 1, 0),
            (1, 0, 1),
            (0, 2, 0),
            (0, 1, 1),
            (0, 0, 2),
        ]


class TestAuxiliaryFactor:
    def test_empty_product_is_one(self):
        p = auxiliary_factor(0, 3)
        assert p.terms == {(0,): Fraction(1)}

    def test_degree_two_factor(self):
        # Product of (2t)/1 and (2t-1)/2 expands to 2t^2 - t.
        p = auxiliary_factor(2, 2)
        assert p.terms == {(2,): Fraction(2), (1,): Fraction(-1)}

    def test_degree_three_factor(self):
        # Product of 3t, (3t-1)/2, (3t-2)/3 expands to (9t^3 - 9t^2 + 2t)/2.
        p = auxiliary_factor(3, 3)
        assert p.terms == {
            (3,): Fraction(9, 2),
            (2,): Fraction(-9, 2),
            (1,): Fraction(1),
        }

    def test_nodal_values_univariate(self):
        # The factor for index i is one at t = i/k and zero at j/k for j < i.
        k = 4
        for i in range(k + 1):
            p = auxiliary_factor(i, k)
            assert p.evaluate((Fraction(i, k),)) == 1
            for j in range(i):
                assert p.evaluate((Fraction(j, k),)) == 0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            auxiliary_factor(-1, 2)
        with pytest.raises(ValueError):
            auxiliary_factor(1, 0)


class TestPolynomialAlgebra:
    def test_derivative(self):
        p = auxiliary_factor(2, 2)
        d = lambda_derivative(p, (1,))
        assert d.terms == {(1,): Fraction(4), (0,): Fraction(-1)}

    def test_lambda_derivative_mixed(self):
        p = BarycentricPolynomial(2, {(2, 1): Fraction(1)})
        assert lambda_derivative(p, (1, 1)).terms == {(1, 0): Fraction(2)}
        assert not lambda_derivative(p, (3, 0)).terms
        for orders in ((1,), (1, 0, 0)):
            with pytest.raises(ValueError):
                lambda_derivative(p, orders)

    def test_reduced_identity_on_plane(self):
        # lambda_0 + lambda_1 equals one on the barycentric line.
        assert BarycentricPolynomial(2, {(1, 0): Fraction(1), (0, 1): Fraction(1)}).reduced() == {(0,): Fraction(1)}
        # lambda_1^2 reduces to (1 - lambda_0)^2.
        assert BarycentricPolynomial(2, {(0, 2): Fraction(1)}).reduced() == {
            (0,): Fraction(1),
            (1,): Fraction(-2),
            (2,): Fraction(1),
        }

    def test_evaluate_exact_rational(self):
        p = auxiliary_factor(2, 3)
        t = Fraction(1, 7)
        # Product of 3t and (3t-1)/2 expands to (9t^2 - 3t)/2.
        by_hand = (Fraction(9, 2) * t**2) - (Fraction(3, 2) * t)
        assert p.evaluate((t,)) == by_hand
        assert rational_eval(p, (t,)) == by_hand
        assert isinstance(p.evaluate((t,)), Fraction)

    def test_tabulate_matches_exact(self):
        # The float node factor of kernels against the exact one of basis.
        p = auxiliary_factor(3, 4)
        ts = [Fraction(1, 3), Fraction(2, 5), Fraction(7, 8)]
        got = factor_tables(4, np.array([float(t) for t in ts]), 0)[0, 3]
        want = [float(p.evaluate((t,))) for t in ts]
        assert np.allclose(got, want, rtol=1e-13, atol=1e-15)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BarycentricPolynomial(2, {(1,): Fraction(1)})


class TestBasisConstruction:
    @pytest.mark.parametrize("n,k", [(1, 1), (1, 3), (2, 2), (2, 4), (3, 2)])
    def test_kronecker_property_exact(self, n, k):
        basis = build_basis(n, k)
        mat = basis.evaluation_matrix()
        for i in range(basis.size):
            for j in range(basis.size):
                assert mat[i][j] == (1 if i == j else 0)

    @pytest.mark.parametrize("n,k", [(1, 2), (2, 3), (3, 1)])
    def test_partition_of_unity_exact(self, n, k):
        basis = build_basis(n, k)
        assert basis.sum_polynomial().reduced() == {(0,) * n: Fraction(1)}

    def test_known_quadratic_interval_basis(self):
        basis = build_basis(1, 2)
        by_index = dict(zip(basis.indices, basis.polynomials))
        # Vertex function at lambda_0 = 1: 2*lambda_0^2 - lambda_0.
        assert by_index[(2, 0)].terms == {(2, 0): Fraction(2), (1, 0): Fraction(-1)}
        # Edge midpoint function: 4*lambda_0*lambda_1.
        assert by_index[(1, 1)].terms == {(1, 1): Fraction(4)}

    @pytest.mark.parametrize("n,k", [(n, k) for n in (1, 2, 3) for k in range(1, 7)])
    def test_shape_functions_are_products_of_embedded_factors(self, n, k):
        # Second route: the double-loop product of the embedded node factors,
        # constant one first, then variable 0 outermost.  Comparing item lists
        # pins the insertion order of the terms.
        basis = build_basis(n, k)
        for mi, poly in zip(basis.indices, basis.polynomials):
            want = BarycentricPolynomial(n + 1, {(0,) * (n + 1): Fraction(1)})
            for var, i in enumerate(mi):
                want = polynomial_product(want, embedded(auxiliary_factor(i, k), n + 1, var))
            assert list(poly.terms.items()) == list(want.terms.items()), mi

    @pytest.mark.parametrize("n,k", [(1, 2), (1, 5), (2, 2), (2, 4), (3, 2), (3, 3)])
    def test_one_pass_derivative_matches_unit_steps(self, n, k):
        basis = build_basis(n, k)
        for r in range(4):
            for orders in multi_indices(n, r):
                for poly in basis.polynomials:
                    want = poly
                    for v, times in enumerate(orders):
                        for _ in range(times):
                            want = lambda_derivative(want, tuple(int(u == v) for u in range(n + 1)))
                    got = lambda_derivative(poly, orders)
                    assert list(got.terms.items()) == list(want.terms.items()), orders
                    if r > k:
                        assert not got.terms

    def test_node_coordinates_interval(self):
        basis = build_basis(1, 2)
        pts = np.array(basis.nodes, dtype=float) @ one_element_mesh([[0.0], [1.0]]).vertices
        assert np.allclose(pts.ravel(), [0.0, 0.5, 1.0], atol=1e-15)

    def test_interpolant_samples_the_float_nodes(self):
        # On the reference triangle x = (lambda_1, lambda_2) exactly, so the sampled
        # points are the exact nodes rounded coordinate by coordinate.
        basis = build_basis(2, 3)
        sampled = []
        interpolant_field(lambda x: sampled.append(x.copy()) or x[:, 0], reference_simplex(2), basis)
        assert sampled[0].tolist() == [[float(x) for x in node[1:]] for node in basis.nodes]

    def test_size_cap_and_validation(self):
        with pytest.raises(ValueError):
            build_basis(0, 2)
        with pytest.raises(ValueError):
            build_basis(1, 0)
        with pytest.raises(ValueError):
            build_basis(1, 300_000)


def physical_derivative(basis, index, simplex, alpha, lam):
    """d^alpha of the shape function of multi-index `index` at one barycentric point:
    derivative table, then chain rule."""
    table = tabulate(basis, np.array([lam], dtype=float), sum(alpha))
    weights = chain_rule_weights(simplex.element_gradients[0], alpha)
    return np.tensordot(weights, table, axes=1)[basis.indices.index(index), 0]


class TestSpatialDerivative:
    def test_interval_first_derivative(self):
        # The P1 shape function of index (0, 1) is lambda_1.
        s = one_element_mesh([[0.0], [0.25]])
        assert physical_derivative(build_basis(1, 1), (0, 1), s, (1,), (0.3, 0.7)) == pytest.approx(4.0, rel=1e-13)

    def test_interval_second_derivative_of_quadratic(self):
        s = one_element_mesh([[0.0], [1.0]])
        # The bubble 4*x*(1-x) has constant second derivative -8.
        assert physical_derivative(build_basis(1, 2), (1, 1), s, (2,), (0.5, 0.5)) == pytest.approx(-8.0, rel=1e-13)

    def test_triangle_gradient_directions(self):
        s = reference_simplex(2)
        basis = build_basis(2, 1)
        lam = (1 / 3, 1 / 3, 1 / 3)
        assert physical_derivative(basis, (0, 1, 0), s, (1, 0), lam) == pytest.approx(1.0, abs=1e-14)
        assert physical_derivative(basis, (0, 1, 0), s, (0, 1), lam) == pytest.approx(0.0, abs=1e-14)

    def test_order_beyond_degree_is_zero(self):
        table = tabulate(build_basis(1, 1), np.array([[0.3, 0.7], [0.5, 0.5]]), 2)
        assert table.shape == (3, 2, 2)
        assert not table.any()

    def test_argument_validation(self):
        s = reference_simplex(2)
        with pytest.raises(ValueError):
            tabulate(build_basis(1, 1), barycentric(s, np.array([[0.2, 0.3]])), 1)
        with pytest.raises(ValueError):
            chain_rule_weights(s.element_gradients[0], (1,))

    @pytest.mark.parametrize("alpha", [(0, 0), (1, 0), (0, 1), (2, 1), (1, 2)])
    def test_block_weights_match_per_simplex(self, alpha):
        # One call on stacked gradients gives each simplex's own weights.
        mesh = structured_mesh_2d(2)
        block = chain_rule_weights(mesh.element_gradients, alpha)
        assert block.shape == (len(mesh), math.comb(2 + sum(alpha), 2))
        for row, simplex in zip(block, mesh.simplices):
            assert np.array_equal(row, chain_rule_weights(simplex.element_gradients[0], alpha))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tabulate_within_dot_product_bound(n):
    # Dual route: each float entry against the exact value at the same (float) point,
    # within nterms * eps * sum_t |c_t m_t(x)|, the bound of a dot product of the nterms
    # expanded terms.  The tables are products of node factors; where lambda >= 0 that
    # sum is the product of the factors with their terms in absolute value, which is
    # also the scale of the factor recurrence's rounding (test_kernels).
    eps = Fraction(np.finfo(np.float64).eps)
    for k in range(1, 6):
        basis = build_basis(n, k)
        points = simplex_rule(n, k).points
        lam = [tuple(Fraction(x) for x in row) for row in points.tolist()]
        monomials = {}
        for order in range(3):
            table = tabulate(basis, points, order)
            for s, orders in enumerate(multi_indices(n, order)):
                derivatives = [lambda_derivative(p, orders) for p in basis.polynomials]
                nterms = len({e for d in derivatives for e in d.terms})
                for i, d in enumerate(derivatives):
                    for j, x in enumerate(lam):
                        terms = []
                        for e, c in d.terms.items():
                            if (j, e) not in monomials:
                                monomials[j, e] = math.prod(xv**ev for xv, ev in zip(x, e))
                            terms.append(c * monomials[j, e])
                        error = abs(Fraction(float(table[s, i, j])) - sum(terms))
                        assert error <= nterms * eps * sum(map(abs, terms)), (n, k, orders, i, j)


def one_element_values(field, simplex, x):
    """Values at physical points x, (npts, n), of a field on the one-element mesh of simplex."""
    return field.coefficients[0] @ tabulate(field.basis, np.atleast_2d(barycentric(simplex, x)), 0)[0]


class TestInterpolation:
    def test_reproduces_polynomial_of_matching_degree(self):
        s = one_element_mesh([[0.0], [1.0]])
        basis = build_basis(1, 2)
        interp = interpolant_field(lambda pts: pts[:, 0] ** 2, s, basis)
        xs = np.linspace(0.0, 1.0, 11)
        assert np.max(np.abs(one_element_values(interp, s, xs[:, None]) - xs**2)) <= 1e-13

    def test_nodal_values_reproduced(self):
        s = one_element_mesh([[1.0], [2.0]])
        basis = build_basis(1, 3)
        values = np.array([3.0, -1.0, 0.5, 2.0])
        interp = PiecewisePolynomialField(basis, values[None])
        nodes = np.array(basis.nodes, dtype=float) @ s.vertices
        assert np.allclose(one_element_values(interp, s, nodes), values, rtol=0.0, atol=1e-12)

    def test_value_count_validation(self):
        basis = build_basis(1, 1)
        with pytest.raises(ValueError):
            PiecewisePolynomialField(basis, [[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError):
            PiecewisePolynomialField(basis, [1.0, 2.0])


@seed(20240818)
@settings(max_examples=30)
@given(
    st.integers(0, 9),
    st.fractions(min_value=0, max_value=1),
    st.fractions(min_value=0, max_value=1),
)
def test_float_eval_tracks_exact_eval(which, a, b):
    basis = build_basis(2, 2)
    p = basis.polynomials[which % basis.size]
    rest = 1 - a - b if a + b <= 1 else 0
    lam = (a, b, rest) if a + b <= 1 else (a / (a + b), b / (a + b), 0)
    exact = float(p.evaluate(tuple(Fraction(x) for x in lam)))
    pts = np.array([[float(x) for x in lam]])
    assert tabulate(basis, pts, 0)[0, which % basis.size, 0] == pytest.approx(exact, rel=1e-12, abs=1e-12)
