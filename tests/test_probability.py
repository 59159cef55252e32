import math
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from fem_accuracy import probability
from fem_accuracy.constants import AdmissibilityError, ConstantBundle, script_c
from fem_accuracy.probability import (
    PAIRING_ABS_TOL,
    AccuracyLaw,
    Bump,
    ElementPair,
    GeometricSeminormModel,
    SinPiSeminormModel,
    h_star,
    h_star_explicit,
    h_star_sequence,
    h_stars,
    weak_star_pairing,
    weak_star_test,
)

from oracles import PI_60, bump_mass, decimal_h_star, h_star_power, root_relative_error, ulps_from


class TestElementPair:
    def test_validation(self):
        with pytest.raises(ValueError):
            ElementPair(k1=2, k2=2, c_k1=1.0, c_k2=1.0)
        with pytest.raises(ValueError):
            ElementPair(k1=3, k2=2, c_k1=1.0, c_k2=1.0)
        with pytest.raises(ValueError):
            ElementPair(k1=1, k2=2, c_k1=0.0, c_k2=1.0)

    @pytest.mark.parametrize("c_k1,c_k2", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan)])
    def test_nonfinite_constants_rejected(self, c_k1, c_k2):
        # An infinite constant used to give h* = inf or 0.0 instead of an error.
        with pytest.raises(ValueError, match="c_k1 and c_k2 must be positive and finite"):
            ElementPair(k1=1, k2=2, c_k1=c_k1, c_k2=c_k2)

    def test_exponent(self):
        assert ElementPair(k1=1, k2=4, c_k1=1.0, c_k2=1.0).exponent == 3


class TestHStar:
    def test_frozen_values(self):
        assert h_star(ElementPair(1, 2, 20.0, 9.0)) == pytest.approx(20.0 / 9.0, rel=1e-14)
        assert h_star(ElementPair(1, 3, 4.0, 1.0)) == pytest.approx(2.0, rel=1e-14)

    def test_common_scaling_cancels_exactly(self):
        base = h_star(ElementPair(1, 2, 20.0, 9.0))
        for shift in (2.0**100, 2.0**-100):
            scaled = h_star(ElementPair(1, 2, 20.0 * shift, 9.0 * shift))
            assert scaled == base

    def test_log_fallback_when_ratio_overflows(self):
        # The plain ratio is inf in floats; the log route still gives 10.
        pair = ElementPair(k1=1, k2=601, c_k1=1e300, c_k2=1e-300)
        assert pair.c_k1 / pair.c_k2 == math.inf
        assert h_star(pair) == pytest.approx(10.0, rel=1e-12)

    def test_log_fallback_when_ratio_underflows(self):
        pair = ElementPair(k1=1, k2=601, c_k1=1e-300, c_k2=1e300)
        assert h_star(pair) == pytest.approx(0.1, rel=1e-12)

    def test_beyond_float_range_is_value_error(self):
        # Each of these critical sizes exceeds the largest float, about 1.8e308.
        with pytest.raises(ValueError, match="beyond the float range"):
            h_star(ElementPair(k1=1, k2=2, c_k1=1e308, c_k2=1e-308))
        with pytest.raises(ValueError, match="beyond the float range"):
            h_star_explicit(1, 0, 2.0, 1, 2, seminorm_ratio=1e308, cea_quotient=100.0)
        with pytest.raises(ValueError, match="beyond the float range"):
            h_star_sequence(1, 3, GeometricSeminormModel(1e-308))


class TestHStarExplicit:
    def test_frozen_linear_quadratic_value(self):
        # n=1, m=0, p=2: constants 4/3 and 3/5 give a crossing at 20/9.
        got = h_star_explicit(1, 0, 2.0, 1, 2)
        assert got == pytest.approx(20.0 / 9.0, rel=1e-13)

    def test_matches_constant_built_route(self):
        # Dual route: the closed formula equals h_star applied to the two
        # fully assembled constants, since shared factors cancel.
        kwargs = dict(n=1, m=1, p=2.0, sigma=2.0, lam=3.0, cea_ratio=1.5, h_cap=2.0)
        lo = script_c(ConstantBundle(k=2, **kwargs))
        hi = script_c(ConstantBundle(k=4, **kwargs))
        via_pair = h_star(ElementPair(2, 4, lo, hi))
        direct = h_star_explicit(1, 1, 2.0, 2, 4)
        assert direct == pytest.approx(via_pair, rel=1e-12)

    def test_seminorm_ratio_scaling(self):
        plain = h_star_explicit(1, 0, 2.0, 1, 3)
        scaled = h_star_explicit(1, 0, 2.0, 1, 3, seminorm_ratio=16.0)
        assert scaled == pytest.approx(plain * 16.0 ** (1 / 2), rel=1e-13)
        shifted = h_star_explicit(1, 0, 2.0, 1, 3, cea_quotient=4.0)
        assert shifted == pytest.approx(plain * 2.0, rel=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            h_star_explicit(1, 0, 2.0, 2, 2)
        with pytest.raises(ValueError):
            h_star_explicit(1, 0, 2.0, 1, 2, seminorm_ratio=0.0)
        for bad in ({"seminorm_ratio": math.nan}, {"cea_quotient": math.nan}):
            with pytest.raises(ValueError):
                h_star_explicit(1, 0, 2.0, 1, 2, **bad)
        with pytest.raises(AdmissibilityError):
            h_star_explicit(1, 2, 2.0, 1, 3)

    @pytest.mark.parametrize("name", ["seminorm_ratio", "cea_quotient"])
    def test_infinite_ratio_rejected(self, name):
        # Either ratio at inf used to give h* = inf instead of an error.
        with pytest.raises(ValueError, match="seminorm_ratio and cea_quotient must be positive and finite"):
            h_star_explicit(1, 0, 2.0, 1, 2, **{name: math.inf})


class TestAccuracyLaw:
    def test_half_exactly_at_crossing(self):
        for kind in ("nonlinear", "step"):
            law = AccuracyLaw(h_star=0.7303, exponent=3, kind=kind)
            assert law(0.7303) == 0.5
            assert law([0.7303]) == [0.5]

    @pytest.mark.parametrize("kind", ["nonlinear", "step"])
    def test_one_at_zero_mesh_size(self, kind):
        # math.log(0) raises where numpy's log gave -inf and then 1.0; so does
        # an h / h_star that underflows to 0.
        law = AccuracyLaw(h_star=2.0, exponent=4, kind=kind)
        assert law(0.0) == 1.0
        assert law([0.0, 5e-324]) == [1.0, 1.0]
        assert AccuracyLaw(h_star=1e300, exponent=1, kind=kind)(5e-324) == 1.0

    def test_frozen_nonlinear_values(self):
        law = AccuracyLaw(h_star=1.0, exponent=1)
        assert law(0.5) == pytest.approx(0.75, rel=1e-14)
        assert law(2.0) == pytest.approx(0.25, rel=1e-14)
        law3 = AccuracyLaw(h_star=1.0, exponent=3)
        assert law3(0.5) == pytest.approx(1.0 - 0.5 / 8.0, rel=1e-14)

    def test_limits(self):
        law = AccuracyLaw(h_star=2.0, exponent=4)
        assert law(0.0) == 1.0
        assert law(1e-12) == pytest.approx(1.0, abs=1e-15)
        assert law(1e12) == pytest.approx(0.0, abs=1e-15)

    def test_strictly_decreasing(self):
        law = AccuracyLaw(h_star=1.3, exponent=2)
        vals = law([0.01 + i * (5.99 / 999) for i in range(1000)])
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_step_kind(self):
        law = AccuracyLaw(h_star=1.5, exponent=2, kind="step")
        assert law([0.5, 1.5, 2.5]) == [1.0, 0.5, 0.0]
        assert [law(h) for h in (0.5, 1.5, 2.5)] == [1.0, 0.5, 0.0]

    def test_vector_and_scalar_forms(self):
        # A float gives a float, any sequence a list of the same floats.
        for kind in ("nonlinear", "step"):
            law = AccuracyLaw(h_star=1.0, exponent=2, kind=kind)
            assert type(law(0.5)) is float and type(law(np.float64(0.5))) is float
            h = [0.5, 1.0, 3.0]
            want = [law(x) for x in h]
            for seq in (h, tuple(h), np.array(h)):
                out = law(seq)
                assert type(out) is list and out == want
            assert law([]) == []

    def test_extreme_exponent_underflows_cleanly(self):
        law = AccuracyLaw(h_star=1.0, exponent=10_000)
        assert law(0.5) == 1.0
        assert law(2.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            AccuracyLaw(h_star=0.0, exponent=1)
        with pytest.raises(ValueError):
            AccuracyLaw(h_star=1.0, exponent=0)
        with pytest.raises(ValueError):
            AccuracyLaw(h_star=1.0, exponent=1, kind="smooth")
        with pytest.raises(ValueError):
            AccuracyLaw(h_star=1.0, exponent=1)(-0.5)
        for kind in ("nonlinear", "step"):
            with pytest.raises(ValueError, match="nonnegative"):
                AccuracyLaw(h_star=1.0, exponent=1, kind=kind)([0.5, -0.5])

    @pytest.mark.parametrize("kind", ["nonlinear", "step"])
    def test_nan_mesh_size_rejected(self, kind):
        law = AccuracyLaw(h_star=0.1, exponent=2, kind=kind)
        with pytest.raises(ValueError, match="NaN"):
            law([math.nan, 0.05])
        with pytest.raises(ValueError, match="NaN"):
            law([0.05, math.nan])
        with pytest.raises(ValueError, match="NaN"):
            law(math.nan)

    @pytest.mark.parametrize("kind", ["nonlinear", "step"])
    @pytest.mark.parametrize("h_star", [math.nan, math.inf])
    def test_nonfinite_h_star_rejected(self, kind, h_star):
        with pytest.raises(ValueError):
            AccuracyLaw(h_star=h_star, exponent=2, kind=kind)

    def test_from_pair(self):
        pair = ElementPair(1, 2, 20.0, 9.0)
        law = AccuracyLaw.from_pair(pair)
        assert law.h_star == pytest.approx(20.0 / 9.0, rel=1e-14)
        assert law.exponent == 1


@seed(20240819)
@settings(max_examples=50)
@given(
    st.integers(-60, 60),
    st.floats(0.01, 100.0),
    st.integers(1, 12),
)
def test_law_scale_invariance_power_of_two(j, t, e):
    # Rescaling h and h_star by the same power of two is bitwise exact.
    s = 2.0**j
    reference = AccuracyLaw(h_star=1.0, exponent=e)(t)
    scaled = AccuracyLaw(h_star=s, exponent=e)(t * s)
    assert scaled == reference


class TestSeminormModels:
    def test_geometric_model(self):
        # h*^q carries the seminorm ratio to the power -q, so h* scales by 1/ratio.
        m = GeometricSeminormModel(ratio=3.0)
        assert (m.ratio, m.log_ratio) == (3.0, math.log(3.0))
        unit = h_star_sequence(1, 20, GeometricSeminormModel(1.0))
        np.testing.assert_allclose(h_star_sequence(1, 20, m), unit / 3.0, rtol=1e-15, atol=0.0)
        with pytest.raises(ValueError):
            GeometricSeminormModel(ratio=0.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            SinPiSeminormModel(math.nan)
        with pytest.raises(ValueError):
            GeometricSeminormModel(ratio=math.nan)

    @pytest.mark.parametrize(
        "make",
        [lambda: SinPiSeminormModel(math.inf), lambda: GeometricSeminormModel(ratio=math.inf)],
        ids=["sinpi-p", "geometric-ratio"],
    )
    def test_infinite_parameter_rejected(self, make):
        # Each used to be accepted, and h_star_sequence then returned NaN.
        with pytest.raises(ValueError, match="must be positive and finite"):
            make()

    def test_sin_model_beyond_lgamma_range(self):
        # lgamma((p+1)/2) overflows here, and the model needs none of it.
        hs = h_star_sequence(1, 3, SinPiSeminormModel(1.7e308), p=1.7e308)
        assert np.all(np.isfinite(hs))
        assert list(hs) == list(h_star_sequence(1, 3, SinPiSeminormModel(5e305), p=5e305))

    def test_sin_model_is_geometric(self):
        # Consecutive seminorms of sin(pi x) have ratio pi at every p.
        for p in (1.5, 2.0, 3.0, 100.0):
            sin_based = h_star_sequence(1, 50, SinPiSeminormModel(p), p=p)
            assert sin_based.tobytes() == h_star_sequence(1, 50, GeometricSeminormModel(math.pi), p=p).tobytes()
        assert SinPiSeminormModel().p == 2.0


class TestHStarSequence:
    def test_first_entry_frozen(self):
        # Pair (1, 2) with the sine solution: crossing at (20/9)/pi.
        hs = h_star_sequence(1, 1, SinPiSeminormModel())
        assert hs[0] == pytest.approx((20.0 / 9.0) / math.pi, rel=1e-12)

    def test_monotone_increasing(self):
        hs = h_star_sequence(1, 200, SinPiSeminormModel())
        assert np.all(np.diff(hs) > 0.0)

    def test_linear_growth_rate(self):
        hs = h_star_sequence(1, 200, SinPiSeminormModel())
        target = 1.0 / (math.e * math.pi)
        rel_dev = abs(hs[199] / 200.0 - target) / target
        assert rel_dev < 0.05

    def test_large_q_stays_finite(self):
        hs = h_star_sequence(1, 10_000, SinPiSeminormModel())
        assert np.all(np.isfinite(hs))
        assert hs[-1] > hs[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            h_star_sequence(1, 0, SinPiSeminormModel())
        with pytest.raises(AdmissibilityError):
            h_star_sequence(1, 5, SinPiSeminormModel(), m=2)


# Every admissible (n, m, p, k1) with k1 < k2 <= ORACLE_K_MAX.
ORACLE_K_MAX = 24
ORACLE_CASES = [
    (n, m, p, k1)
    for n in (1, 2, 3)
    for m in (0, 1, 2)
    for p in (Fraction(3, 2), Fraction(2), Fraction(3))
    for k1 in range(1, ORACLE_K_MAX)
    if k1 + 1 > m + n / p
]


class TestHStarExactRational:
    # Second route: h*^(k2-k1) = K(k1)/K(k2) as a Fraction, with unit seminorm
    # and Cea ratios (GeometricSeminormModel(1.0) in the sequence).
    def test_explicit_matches_rational(self):
        worst = max(
            root_relative_error(h_star_explicit(n, m, float(p), k1, k2), h_star_power(n, m, p, k1, k2), k2 - k1)
            for n, m, p, k1 in ORACLE_CASES
            for k2 in range(k1 + 1, ORACLE_K_MAX + 1)
        )
        assert worst < 2e-15

    def test_sequence_matches_rational(self):
        worst = 0.0
        for n, m, p, k1 in ORACLE_CASES:
            hs = h_star_sequence(k1, ORACLE_K_MAX - k1, GeometricSeminormModel(1.0), n=n, m=m, p=float(p))
            for q, h in enumerate(hs.tolist(), start=1):
                worst = max(worst, root_relative_error(h, h_star_power(n, m, p, k1, k1 + q), q))
        assert worst < 2e-15


class TestHStarDigits:
    # The printed h* of `hstar-seq` against a 60-digit reference: the exact ratio
    # K(k)/K(k+q) of integers, its q-th root in Decimal, over pi to 60 digits.
    # Bound: h = exp(L/q), where L/q adds terms up to log((k+q)!)/q ~ log(k+q) in
    # size, each rounded once in floats (on the fallback past the float range, the
    # lgamma values and their difference).  About two roundings of that size give
    # L/q an absolute error near 2 eps log(k+q) <= 16 eps for k+q <= 2002, and exp
    # makes it a relative error of h, at most 2 ulp per eps: 32 ulp.
    MAX_ULPS = 32

    @pytest.mark.parametrize(
        "k,m,p,model,ratio,qmax",
        [
            pytest.param(1, 0, 2.0, SinPiSeminormModel(2.0), PI_60, 2000, id="default"),
            pytest.param(2, 1, 3.0, SinPiSeminormModel(3.0), PI_60, 200, id="k2-m1-p3"),
            pytest.param(1, 1, 3.0, GeometricSeminormModel(1.0), 1, 200, id="exp-m1-p3"),
        ],
    )
    def test_within_ulps_of_the_decimal_reference(self, k, m, p, model, ratio, qmax):
        qs = range(1, qmax + 1)
        hs = h_stars(k, qs, model, m=m, p=p)
        worst = max(ulps_from(h, decimal_h_star(k, q, ratio, m=m, p=p)) for q, h in zip(qs, hs))
        assert worst <= self.MAX_ULPS


class TestBump:
    def test_support(self):
        bump = Bump(0.5, 2.0)
        assert bump(np.array([0.4]))[0] == 0.0
        assert bump(np.array([2.1]))[0] == 0.0
        assert bump(np.array([1.25]))[0] == pytest.approx(math.exp(-1.0), rel=1e-14)
        assert bump(np.array([1.0]))[0] > 0.0

    def test_float_and_list_forms(self):
        bump = Bump(0.5, 2.0)
        assert type(bump(1.25)) is float and bump(1.25) == math.exp(-1.0)
        assert bump([0.4, 1.25, 2.1]) == [0.0, math.exp(-1.0), 0.0]
        assert bump((0.5, 2.0)) == [0.0, 0.0]

    def test_symmetry(self):
        bump = Bump(-1.0, 3.0)
        left = bump(np.array([0.0]))[0]
        right = bump(np.array([2.0]))[0]
        assert left == pytest.approx(right, rel=1e-14)

    def test_integral_dual_route(self):
        # The Gauss panel rule against a single 120-point Gauss rule.
        bump = Bump(-1.0, 1.0)
        nodes, weights = np.polynomial.legendre.leggauss(120)
        gauss = float(weights @ bump(nodes))
        assert bump_mass(bump) == pytest.approx(gauss, abs=1e-12)

    def test_integral_scales_with_width(self):
        narrow = bump_mass(Bump(0.0, 1.0))
        wide = bump_mass(Bump(0.0, 3.0))
        assert wide == pytest.approx(3.0 * narrow, rel=1e-9)

    def test_support_near_the_float_maximum(self):
        # u = (2h - a - b) / (b - a) overflowed for every h in the support, so
        # the bump read 0 there and `weakstar --bump-a 1e308 --bump-b 1.7e308`
        # printed target 0.0.  The panel rules' gap is absolute, so it warns at
        # a mass of 1.6e307.
        near = Bump(1e308, 1.7e308)
        with pytest.warns(RuntimeWarning, match="Gauss rules on"):
            (record,) = weak_star_test(1, [1], near, SinPiSeminormModel())
        (unit,) = weak_star_test(1, [1], Bump(0.0, 1.0), SinPiSeminormModel())
        assert record["target"] / (near.b - near.a) == pytest.approx(unit["target"], rel=1e-12)

    def test_validation(self):
        for a, b in [(1.0, 1.0), (1.0, math.inf), (-math.inf, 2.0), (math.nan, 2.0), (1.0, math.nan), (-1e308, 1e308)]:
            with pytest.raises(ValueError):
                Bump(a, b)


class TestWeakStarPairing:
    def test_step_law_beyond_support_gives_full_mass(self):
        bump = Bump(0.5, 2.0)
        law = AccuracyLaw(h_star=5.0, exponent=3, kind="step")
        assert weak_star_pairing(law, bump) == pytest.approx(bump_mass(bump), rel=1e-9)

    def test_step_law_below_support_gives_zero(self):
        bump = Bump(0.5, 2.0)
        law = AccuracyLaw(h_star=0.1, exponent=3, kind="step")
        assert weak_star_pairing(law, bump) == pytest.approx(0.0, abs=1e-12)

    def test_negative_axis_excluded(self):
        bump = Bump(-1.0, 1.0)
        law = AccuracyLaw(h_star=10.0, exponent=2)
        pairing = weak_star_pairing(law, bump)
        assert pairing < bump_mass(bump)
        assert pairing > 0.0

    def test_empty_effective_support(self):
        bump = Bump(-2.0, -1.0)
        law = AccuracyLaw(h_star=1.0, exponent=1)
        assert weak_star_pairing(law, bump) == 0.0

    def test_nonlinear_below_step_when_crossing_inside(self):
        bump = Bump(0.5, 2.0)
        law = AccuracyLaw(h_star=1.0, exponent=1)
        assert weak_star_pairing(law, bump) < bump_mass(bump)


class TestPairingAgainstAdaptiveQuadrature:
    """scipy.integrate.quad, split at h_star, as the second route for the Gauss panels."""

    @staticmethod
    def _quad(fn, lo, hi, points=None):
        from scipy.integrate import quad

        value, _ = quad(fn, lo, hi, points=points, epsabs=1e-13, epsrel=1e-13, limit=200)
        return value

    @pytest.mark.parametrize("q", [1, 20, 1000])
    @pytest.mark.parametrize("h_star", [1.01, 1.5, 1.99])
    @pytest.mark.parametrize("kind", ["nonlinear", "step"])
    def test_pairing_matches_quad(self, kind, h_star, q):
        bump = Bump(1.0, 2.0)
        law = AccuracyLaw(h_star=h_star, exponent=q, kind=kind)
        want = self._quad(lambda h: law(h) * bump(h), 1.0, 2.0, points=[h_star])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = weak_star_pairing(law, bump)
        assert abs(got - want) <= PAIRING_ABS_TOL

    @pytest.mark.parametrize("a,b", [(1.0, 2.0), (0.5, 2.0), (-1.0, 3.0)])
    def test_bump_mass_and_target_match_quad(self, a, b):
        bump = Bump(a, b)
        assert abs(bump_mass(bump) - self._quad(bump, a, b)) <= PAIRING_ABS_TOL
        target = weak_star_test(1, [1], bump, SinPiSeminormModel())[0]["target"]
        assert abs(target - self._quad(bump, max(a, 0.0), b)) <= PAIRING_ABS_TOL

    def test_unresolved_pairing_warns(self):
        # A decay layer of width 1e-4 at h_star, between the end spacings of
        # the 80- and 160-point rules: they disagree, and the pairing says so.
        law = AccuracyLaw(h_star=1.0, exponent=10**4)
        with pytest.warns(RuntimeWarning, match="differ by"):
            weak_star_pairing(law, Bump(0.0, 2.0))


class TestWeakStarTest:
    def test_requires_declared_support(self):
        with pytest.raises(TypeError):
            weak_star_test(1, [1, 2], lambda h: h, SinPiSeminormModel())

    def test_q_list_validation(self):
        bump = Bump(0.5, 2.0)
        with pytest.raises(ValueError):
            weak_star_test(1, [], bump, SinPiSeminormModel())
        with pytest.raises(ValueError):
            weak_star_test(1, [0, 3], bump, SinPiSeminormModel())

    def test_h_star_only_at_the_requested_q(self, monkeypatch):
        # One log_k_factor_ratio per distinct q, not a whole sequence up to
        # max(q), and each h* has the bytes of the sequence entry.
        hs = h_star_sequence(1, 20, SinPiSeminormModel())
        calls = []
        real = probability.log_k_factor_ratio
        monkeypatch.setattr(probability, "log_k_factor_ratio", lambda *args: calls.append(args) or real(*args))
        recs = weak_star_test(1, [20, 1, 5, 20, 10**6], Bump(1.0, 2.0), SinPiSeminormModel())
        assert len(calls) == 4
        assert [r["h_star"] for r in recs[:3]] == [hs[0], hs[4], hs[19]]
        assert recs[3]["q"] == 10**6 and math.isfinite(recs[3]["h_star"])

    def test_record_shape_and_dedup(self):
        bump = Bump(0.5, 2.0)
        recs = weak_star_test(1, [5, 1, 5], bump, SinPiSeminormModel())
        assert [r["q"] for r in recs] == [1, 5]
        for r in recs:
            assert set(r) == {"q", "h_star", "pairing", "target", "error"}
            assert r["error"] == pytest.approx(abs(r["pairing"] - r["target"]), abs=1e-15)

    def test_errors_vanish_once_crossing_clears_support(self):
        # Once h_star(q) is above the support, the nonlinear law is nearly
        # one on it, so the pairing error collapses with q.
        bump = Bump(0.5, 2.0)
        recs = weak_star_test(1, [1, 2, 5, 10, 20, 50, 100, 200], bump, SinPiSeminormModel())
        beyond = [r for r in recs if r["h_star"] > bump.b]
        assert len(beyond) >= 3
        errors = [r["error"] for r in beyond]
        assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))
        assert errors[-1] < 1e-6

    def test_dense_ladder_boundary_behavior(self):
        # Without a gap in q the pairing error decays only gradually just
        # past the crossing; these values pin the honest boundary.
        bump = Bump(0.5, 2.0)
        recs = weak_star_test(1, list(range(10, 26)), bump, SinPiSeminormModel())
        errors = {r["q"]: r["error"] for r in recs}
        hs = {r["q"]: r["h_star"] for r in recs}
        first_clear = min(q for q in hs if hs[q] > bump.b)
        assert first_clear == 11
        # Just past the crossing the error still exceeds 1e-3 ...
        assert errors[11] > 1e-3
        assert errors[12] > 1e-3
        # ... drops below it from q = 13 and decreases monotonically.
        assert errors[13] < 1e-3
        tail = [errors[q] for q in range(10, 26)]
        assert all(a > b for a, b in zip(tail, tail[1:]))

    def test_loads_no_numpy_polynomial(self):
        # The panels use the package's Gauss rule, not numpy's leggauss.
        code = (
            "import sys\n"
            "from fem_accuracy.cli import main\n"
            "main(['weakstar', '--q-list', '1,5,20'])\n"
            "print('numpy.polynomial' in sys.modules)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.splitlines()[-1] == "False"
