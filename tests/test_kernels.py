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

    @pytest.mark.parametrize("seedval", [3, 4])
    def test_max_abs_matches_python_reference(self, seedval):
        pts, exps, coeffs = _random_problem(seedval)
        active = kernels.max_abs_eval(pts, exps, coeffs)
        reference = float(np.abs(_loop_eval_terms(pts, exps, coeffs)).max())
        assert active == pytest.approx(reference, rel=1e-12)
        assert active == pytest.approx(np.abs(kernels.eval_terms(pts, exps, coeffs)).max(), rel=1e-12)

    def test_matches_exact_rational_evaluation(self):
        # Dual route: float kernels against Fraction arithmetic.
        basis = build_basis(2, 3)
        lam = (Fraction(1, 3), Fraction(1, 4), Fraction(5, 12))
        pts = np.array([[float(c) for c in lam]])
        for poly in basis.polynomials:
            exact = float(poly.evaluate(lam))
            got = poly.eval_points(pts)[0]
            assert got == pytest.approx(exact, rel=1e-13, abs=1e-13)


class TestInputHandling:
    def test_one_dimensional_point_promoted(self):
        exps = np.array([[1, 0]], dtype=np.int64)
        coeffs = np.array([2.0])
        assert kernels.eval_terms(np.array([0.5, 0.5]), exps, coeffs)[0] == pytest.approx(1.0)

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
        assert kernels.max_abs_eval(np.zeros((3, 2)), exps, coeffs) == 0.0

    def test_zero_exponent_rows(self):
        exps = np.array([[0, 0]], dtype=np.int64)
        coeffs = np.array([3.5])
        out = kernels.eval_terms(np.array([[0.1, 0.9], [0.4, 0.6]]), exps, coeffs)
        assert np.allclose(out, 3.5)
