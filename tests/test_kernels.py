from fractions import Fraction

import numpy as np
import pytest

from fem_accuracy import kernels
from fem_accuracy.basis import build_basis


def _random_problem(seed, npts=200, nterms=12, nvars=3, max_exp=6):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.5, 1.5, size=(npts, nvars))
    exps = rng.integers(0, max_exp + 1, size=(nterms, nvars)).astype(np.int64)
    coeffs = rng.normal(size=nterms)
    return np.ascontiguousarray(pts), np.ascontiguousarray(exps), coeffs


def _loop_eval_terms(points, exps, coeffs):
    """Term-by-term loop with powers by repeated multiplication: the reference."""
    out = np.empty(len(points))
    for i, x in enumerate(points):
        acc = 0.0
        for e, c in zip(exps, coeffs):
            term = float(c)
            for xv, ev in zip(x, e):
                for _ in range(int(ev)):
                    term *= float(xv)
            acc += term
        out[i] = acc
    return out


class TestAgreement:
    @pytest.mark.parametrize("seedval", [0, 1, 2])
    def test_eval_terms_matches_python_reference(self, seedval):
        # Dual route: the vectorised kernel against the plain loop.
        pts, exps, coeffs = _random_problem(seedval)
        active = kernels.eval_terms(pts, exps, coeffs)
        reference = _loop_eval_terms(pts, exps, coeffs)
        assert np.allclose(active, reference, rtol=1e-12, atol=1e-12)

    def test_coefficient_columns_match_python_reference(self):
        # A polynomial list: one column of coefficients per polynomial, one shared exponent array.
        pts, exps, _ = _random_problem(5)
        coeffs = np.random.default_rng(6).normal(size=(len(exps), 4))
        active = kernels.eval_terms(pts, exps, coeffs)
        reference = np.column_stack([_loop_eval_terms(pts, exps, column) for column in coeffs.T])
        assert active.shape == (len(pts), 4)
        assert np.allclose(active, reference, rtol=1e-12, atol=1e-12)

    def test_matches_exact_rational_evaluation(self):
        # Dual route: float kernels against Fraction arithmetic.
        basis = build_basis(2, 3)
        lam = (Fraction(1, 3), Fraction(1, 4), Fraction(5, 12))
        pts = np.array([[float(c) for c in lam]])
        got = kernels.tabulate(basis.polynomials, pts, 0)[0, :, 0]
        for poly, value in zip(basis.polynomials, got):
            assert value == pytest.approx(float(poly.evaluate(lam)), rel=1e-13, abs=1e-13)


class TestInputHandling:
    def test_list_input_accepted(self):
        exps = np.array([[0, 1]], dtype=np.int64)
        coeffs = np.array([1.0])
        out = kernels.eval_terms([[0.25, 0.75], [0.5, 0.5]], exps, coeffs)
        assert np.allclose(out, [0.75, 0.5])

    def test_wrong_width_rejected(self):
        exps = np.array([[1, 0, 0]], dtype=np.int64)
        coeffs = np.array([1.0])
        with pytest.raises(ValueError):
            kernels.eval_terms(np.zeros((4, 2)), exps, coeffs)

    def test_empty_term_list(self):
        exps = np.zeros((0, 2), dtype=np.int64)
        coeffs = np.zeros(0)
        out = kernels.eval_terms(np.zeros((3, 2)), exps, coeffs)
        assert np.array_equal(out, np.zeros(3))
        out = kernels.eval_terms(np.zeros((3, 2)), exps, np.zeros((0, 4)))
        assert np.array_equal(out, np.zeros((3, 4)))

    def test_zero_exponent_rows(self):
        exps = np.array([[0, 0]], dtype=np.int64)
        coeffs = np.array([3.5])
        out = kernels.eval_terms(np.array([[0.1, 0.9], [0.4, 0.6]]), exps, coeffs)
        assert np.allclose(out, 3.5)
