import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from fem_accuracy import kernels
from fem_accuracy.basis import build_basis, multi_indices
from fem_accuracy.quadrature import simplex_rule

from oracles import exact_derivative_values, factor_magnitudes, one_element_mesh


def _loop_factor_derivative(k, i, r, t):
    """a_i^{(r)}(t) as r! times the sum, over the r-subsets S of the factors c = 1..i, of
    prod_{c in S} k / c times prod_{c not in S} (k t - c + 1) / c: the reference."""
    total = 0.0
    for chosen in itertools.combinations(range(1, i + 1), r):
        term = 1.0
        for c in range(1, i + 1):
            term *= k / c if c in chosen else (k * t - c + 1) / c
        total += term
    return math.factorial(r) * total


class TestAgreement:
    @pytest.mark.parametrize("seedval", [0, 1, 2])
    def test_tabulate_matches_python_reference(self, seedval):
        # Dual route: the recurrence and the row products against a plain loop over the factors.
        rng = np.random.default_rng(seedval)
        n, k = 1 + seedval, 6 - seedval
        basis = build_basis(n, k)
        pts = rng.dirichlet(np.ones(n + 1), size=20)
        for order in range(3):
            table = kernels.tabulate(basis, pts, order)
            for s, orders in enumerate(multi_indices(n, order)):
                reference = [
                    [math.prod(_loop_factor_derivative(k, i, r, t) for i, r, t in zip(mi, orders, x)) for x in pts]
                    for mi in basis.indices
                ]
                assert np.allclose(table[s], reference, rtol=1e-12, atol=1e-12)

    def test_matches_exact_rational_evaluation(self):
        # Dual route: float kernels against Fraction arithmetic.
        basis = build_basis(2, 3)
        lam = (Fraction(1, 3), Fraction(1, 4), Fraction(5, 12))
        pts = np.array([[float(c) for c in lam]])
        got = kernels.tabulate(basis, pts, 0)[0, :, 0]
        for poly, value in zip(basis.polynomials, got):
            assert value == pytest.approx(float(poly.evaluate(lam)), rel=1e-13, abs=1e-13)


# Every n <= 3 and k <= 20 the package tabulates is a product of the same
# factor tables; these cases span the degrees at each n, k = 20 at n = 1 and 2.
ORACLE_CASES = [(1, k) for k in (1, 2, 3, 5, 8, 12, 16, 20)] + [(2, k) for k in (1, 2, 4, 8, 20)] + [(3, k) for k in (1, 2, 4, 10)]


@pytest.mark.parametrize("n,k", ORACLE_CASES)
def test_table_within_recurrence_bound(n, k):
    # Second route: each entry of the float table against its exact value at the
    # same float point, from the exact term maps of lambda_derivative.  Each
    # float step of the factor recurrence rounds (k t - c + 1) / c three times
    # and its product and sum once each, and a row multiplies n + 1 factors: at
    # most m = 5k + n roundings of u = eps/2 on any path, so the error is within
    # gamma_m = m u / (1 - m u) times the entry's magnitude, the same recurrence
    # with every term taken in absolute value (oracles.factor_magnitudes).
    # Measured: at most 2.8 eps times the magnitude.
    basis = build_basis(n, k)
    points = simplex_rule(n, 2 * k + 6).points  # the rule of interpolation errors and Galerkin error reports
    rng = np.random.default_rng(100 * n + k)
    functions = sorted(rng.choice(basis.size, min(basis.size, 8), replace=False).tolist())
    rows = sorted(rng.choice(len(points), min(len(points), 8), replace=False).tolist())
    m = 5 * k + n
    u = Fraction(np.finfo(np.float64).eps) / 2
    gamma = m * u / (1 - m * u)
    for order in range(3):
        magnitudes = [[factor_magnitudes(k, points[j, v], order) for v in range(n + 1)] for j in rows]
        for orders, values in kernels.derivative_rows(basis, points, order):
            exact = exact_derivative_values(basis, orders, functions, points[rows])
            for i, column in zip(functions, exact):
                for j, m_j, want in zip(rows, magnitudes, column):
                    magnitude = math.prod(m_j[v][r][basis.indices[i][v]] for v, r in enumerate(orders))
                    error = abs(Fraction(float(values[i, j])) - want)
                    assert error <= gamma * magnitude, (n, k, orders, i, j)


class TestInputHandling:
    def test_list_input_accepted(self):
        out = kernels.tabulate(build_basis(1, 1), [[0.25, 0.75], [0.5, 0.5]], 0)
        assert np.allclose(out[0], [[0.25, 0.5], [0.75, 0.5]])

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError):
            kernels.tabulate(build_basis(2, 1), np.zeros((4, 2)), 0)

    def test_empty_term_list(self):
        # Past the degree every derivative's term list is empty: exact zeros, at any point count.
        basis = build_basis(2, 2)
        out = kernels.tabulate(basis, np.full((5, 3), 1 / 3), 3)
        assert out.shape == (10, 6, 5)
        assert not out.any()
        assert kernels.tabulate(basis, np.zeros((0, 3)), 1).shape == (3, 6, 0)

    def test_zero_exponent_rows(self):
        # The k-th derivative in lambda_0 of the vertex function a_k(lambda_0) is its
        # constant leading term k^k/k! times k!; every other shape function has degree
        # below k in lambda_0, so its row is zero.
        basis = build_basis(1, 3)
        out = kernels.tabulate(basis, np.array([[0.1, 0.9], [0.4, 0.6]]), 3)
        assert np.array_equal(out[0], np.array([[27.0, 27.0]] + [[0.0, 0.0]] * 3))


class TestSize:
    @pytest.mark.parametrize("n,l", [(1, 14), (2, 5), (3, 3)])
    def test_one_row_and_weight_per_multi_index(self, n, l):
        # An order-l derivative in n+1 barycentric variables is one of C(n + l, n) multi-indices.
        # A row per ordered sequence of variables made (n + 1)^l: 16,384 rows and weights at
        # n = 1, l = 14, which `converge --k 15 --m 14` measures.
        table = kernels.tabulate(build_basis(n, l + 1), simplex_rule(n, 2).points, l)
        gradients = one_element_mesh(np.vstack([np.zeros(n), np.eye(n)])).element_gradients
        weights = kernels.chain_rule_weights(gradients, (l,) + (0,) * (n - 1))
        assert table.shape[0] == weights.shape[-1] == math.comb(n + l, n)

    @pytest.mark.parametrize("alpha", [(2, 0), (1, 1), (0, 2), (2, 1), (1, 2), (3, 1)])
    def test_weight_sums_the_products_of_its_sequences(self, alpha):
        # Second route: the weight of beta is the sum, over the ordered sequences q of
        # barycentric variables that take variable v beta_v times, of prod_s G[q_s, j_s], j the
        # directions of alpha, in exact arithmetic.  At most (n + 1)^l = 81 products of l = 4
        # factors are added, so the float weight is within 81 * 4 eps of the sum of magnitudes.
        gradients = one_element_mesh([[0.1, 0.2], [1.3, 0.25], [0.4, 0.9]]).element_gradients[0]
        directions = [j for j, times in enumerate(alpha) for _ in range(times)]
        weights = kernels.chain_rule_weights(gradients, alpha)
        exact, scale = {}, {}
        for seq in itertools.product(range(3), repeat=len(directions)):
            beta = tuple(seq.count(v) for v in range(3))
            term = math.prod(Fraction(gradients[q, j]) for q, j in zip(seq, directions))
            exact[beta], scale[beta] = exact.get(beta, 0) + term, scale.get(beta, 0) + abs(term)
        eps = Fraction(np.finfo(float).eps)
        for weight, beta in zip(weights, multi_indices(2, sum(alpha))):
            assert abs(Fraction(weight) - exact[beta]) <= 81 * 4 * eps * scale[beta], beta
