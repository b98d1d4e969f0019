import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklcms.coeffs import (
    MAX_DEGREE,
    R_VALUE,
    S_VALUE,
    DenominatorVanishes,
    DivisionByZero,
    ExponentOverflow,
    ParamPoly,
    ParamRatio,
    Rat,
    UnsupportedDenominator,
    const,
    k_power,
    symbol,
)

from conftest import PoleAtPoint, eval_at, random_param_ratio

K = symbol("k")
ONE = ParamRatio.one()


def is_unit(a: ParamRatio) -> bool:
    """True when a is a nonzero constant times a power of k."""
    try:
        a.inverse()
    except (UnsupportedDenominator, DivisionByZero):
        return False
    return True


class TestArith:
    def test_product_of_polynomials(self):
        assert (K * (K + ONE)).text() == "(k^2+k)/1"

    def test_common_denominator(self):
        assert (ONE / K + ONE).text() == "(k+1)/k"

    def test_division_by_zero_rational_function(self):
        with pytest.raises(DivisionByZero):
            K / ParamRatio.zero()

    def test_negative_symbol_power(self):
        assert symbol("k", -2).text() == "1/k^2"
        assert (symbol("k", -2) * symbol("k", 3)) == K

    def test_division_outside_the_ring_is_typed(self):
        with pytest.raises(UnsupportedDenominator):
            K / (K + ONE)
        with pytest.raises(UnsupportedDenominator):
            ONE / symbol("q")
        with pytest.raises(UnsupportedDenominator):
            symbol("p", -1)
        with pytest.raises(UnsupportedDenominator):
            ParamRatio(ParamPoly.const(1), ParamPoly.symbol("k") - ParamPoly.const(1))

    def test_division_by_units(self):
        half_k = K.scale(Rat(1, 2))
        assert (ONE / half_k).text() == "2/k"
        assert (K.scale(-3) / k_power(3)).text() == "-3/k^2"
        assert (ParamRatio.fraction(6, 5) / ParamRatio.const(-4)).text() == "(-3/10)/1"


class TestSubstitute:
    def test_b_constraint_value_of_s(self):
        q = symbol("q")
        assert S_VALUE == (q.scale(2) + ONE - K) / K.scale(2)

    def test_bc_constraint_value_of_r(self):
        assert K * R_VALUE == symbol("p")  # k r = p
        assert R_VALUE == symbol("p") / K

    def test_constraint_becomes_identity(self):
        assert K * (S_VALUE.scale(2) + ONE) == symbol("q").scale(2) + ONE  # k(2s+1) = 2q+1

    def test_denominator_vanishing_substitution(self):
        f = (K + ONE) / K.scale(3)
        with pytest.raises(DenominatorVanishes):
            f.substitute({"k": const(0)})
        assert f.substitute({"k": const(2)}) == ParamRatio.fraction(1, 2)

    def test_substituting_k_by_a_non_unit_is_typed(self):
        with pytest.raises(UnsupportedDenominator):
            (ONE / K).substitute({"k": symbol("q") + ONE})


class TestEval:
    def test_simple_value(self):
        assert eval_at((K + ONE) / K, {"k": 1}) == 2

    def test_zero_exponent(self):
        # k^(1-p(j)) with p(j)=1 is k^0 = 1 at any k
        assert eval_at(symbol("k", 0), {"k": Rat(17, 3)}) == 1

    def test_constraint_point(self):
        assert eval_at(S_VALUE, {"k": 1, "q": 1}) == 1

    def test_pole_detection(self):
        with pytest.raises(PoleAtPoint):
            eval_at(ONE / K, {"k": 0})
        assert eval_at((K + ONE) * K, {"k": 0}) == 0


class TestCanonicalForm:
    def test_different_expression_trees_compare_equal(self):
        a = (K + ONE) / (K * K)
        b = ParamRatio(ParamPoly.symbol("k", 2) + ParamPoly.symbol("k")) / K ** 3
        assert a == b
        assert hash(a) == hash(b)

    def test_denominator_sign_normalization(self):
        # -1/(-2k) and 1/(2k) must agree structurally
        a = ParamRatio(ParamPoly.const(-1), ParamPoly.symbol("k").scale(-2))
        b = ParamRatio(ParamPoly.const(1), ParamPoly.symbol("k").scale(2))
        assert a == b
        assert a.text() == "(1/2)/k"
        assert (a.den_int, a.den_k) == (2, 1)

    def test_content_and_k_cancel(self):
        # (2k^2 + 4k) / (6k^3) = (k + 2) / (3k^2)
        num = ParamPoly.symbol("k", 2).scale(2) + ParamPoly.symbol("k").scale(4)
        a = ParamRatio(num, ParamPoly.symbol("k", 3).scale(6))
        assert (a.den_int, a.den_k) == (3, 2)
        assert a.num == ParamPoly.symbol("k") + ParamPoly.const(2)

    def test_gcd_counterexample_is_refused(self):
        # With g = (k-272)(q-298)+1, the deleted multivariate gcd returned 1 for
        # gcd(g(k+q), g(k-q+5)), so these two equal ratios compared unequal.
        # The ring now refuses the non-monomial denominators outright.
        k, q, c = ParamPoly.symbol("k"), ParamPoly.symbol("q"), ParamPoly.const
        g = (k - c(272)) * (q - c(298)) + c(1)
        with pytest.raises(UnsupportedDenominator):
            ParamRatio(g * (k + q), g * (k - q + c(5)))
        with pytest.raises(UnsupportedDenominator):
            ParamRatio(k + q, k - q + c(5))

    def test_is_zero_agrees_with_sampling(self, rng):
        pts = [{"k": Rat(rng.randint(10 ** 6, 10 ** 9), rng.randint(1, 7)),
                "p": Rat(rng.randint(10 ** 6, 10 ** 9)),
                "q": Rat(rng.randint(10 ** 6, 10 ** 9))}
               for _ in range(20)]
        for _ in range(40):
            f = random_param_ratio(rng, symbols=(0, 1, 2))
            g = random_param_ratio(rng, symbols=(0, 1, 2))
            h = (f + g) * (f - g) - (f * f - g * g)  # identically zero
            assert h.is_zero()
            assert all(eval_at(h, p) == 0 for p in pts)
            w = f * g + ONE
            if not w.is_zero():
                assert any(eval_at(w, p) != 0 for p in pts)

    def test_canonical_invariants(self, rng):
        from math import gcd

        for _ in range(200):
            f = random_param_ratio(rng, symbols=(0, 1, 2)) * random_param_ratio(rng, symbols=(0, 2))
            f = f + random_param_ratio(rng, symbols=(0, 1))
            if f.is_zero():
                continue
            assert f.den_int > 0 and f.den_k >= 0
            assert gcd(f.den_int, *f.num.terms.values()) == 1
            if f.den_k:  # k does not divide the numerator
                assert not f.num.substitute({"k": const(0)}).is_zero()
            assert (f * K) / K == f


class TestPackedExponents:
    def test_product_overflow_raises(self):
        top = ParamPoly.symbol("k", MAX_DEGREE)
        with pytest.raises(ExponentOverflow):
            top * ParamPoly.symbol("k")
        with pytest.raises(ExponentOverflow):
            (top + ParamPoly.const(1)) * (ParamPoly.symbol("k") + ParamPoly.symbol("q"))

    def test_overflow_never_carries_into_the_next_symbol(self):
        half = MAX_DEGREE // 2 + 1
        a = ParamPoly.symbol("k", half)
        with pytest.raises(ExponentOverflow):
            a * a
        with pytest.raises(ExponentOverflow):
            symbol("p", half) * symbol("p", half)
        with pytest.raises(ExponentOverflow):
            symbol("q", half) ** 2
        # the largest exponent stays in its own field
        top = ParamPoly.symbol("k", MAX_DEGREE - half) * a
        assert top == ParamPoly.symbol("k", MAX_DEGREE)
        assert "p" not in top.text()

    def test_constructors_and_denominators_are_guarded(self):
        with pytest.raises(ExponentOverflow):
            ParamPoly.symbol("q", MAX_DEGREE + 1)
        with pytest.raises(ExponentOverflow):
            k_power(-(MAX_DEGREE + 1))
        with pytest.raises(ExponentOverflow):
            k_power(-MAX_DEGREE) * k_power(-1)
        with pytest.raises(ExponentOverflow):
            # the common denominator shifts a numerator up by k^MAX_DEGREE
            symbol("k", MAX_DEGREE) + k_power(-MAX_DEGREE) + symbol("k", 2)

    def test_product_cancels_k_before_multiplying(self):
        # (1 + k^400)/k^300 * k^300 never forms k^700
        a = (ONE + symbol("k", 400)) * k_power(-300)
        assert a * symbol("k", 300) == ONE + symbol("k", 400)
        assert symbol("k", 300) * a == ONE + symbol("k", 400)
        assert (a * symbol("k", 100)).den_k == 200


@st.composite
def ratio(draw):
    seed = draw(st.integers(min_value=0, max_value=10 ** 9))
    return random_param_ratio(random.Random(seed), symbols=(0, 2))


@st.composite
def unit(draw):
    c = draw(st.integers(min_value=-50, max_value=50).filter(bool))
    d = draw(st.integers(min_value=1, max_value=50))
    return ParamRatio.fraction(c, d) * k_power(draw(st.integers(min_value=-4, max_value=4)))


class TestFieldAxioms:
    """Ring axioms of the Laurent ring, and division by its units."""

    @settings(max_examples=40, deadline=None)
    @given(a=ratio(), b=ratio(), c=ratio())
    def test_associativity_and_distributivity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=40, deadline=None)
    @given(a=ratio(), u=unit())
    def test_inverses(self, a, u):
        assert a + (-a) == ParamRatio.zero()
        assert u * u.inverse() == ParamRatio.one()
        if is_unit(a):
            assert a * a.inverse() == ParamRatio.one()
        elif not a.is_zero():
            with pytest.raises(UnsupportedDenominator):
                a.inverse()

    @settings(max_examples=40, deadline=None)
    @given(a=ratio(), b=ratio(), u=unit())
    def test_subtraction_and_division_roundtrip(self, a, b, u):
        assert (a - b) + b == a
        assert (a / u) * u == a
        assert (a * b) / u == a * (b / u)


class TestSympyOracle:
    """The ring against sympy on random Laurent elements in k, p, q."""

    @pytest.fixture(autouse=True)
    def _oracle(self, sp):
        self.sp = sp

    def sym(self, a: ParamRatio):
        return self.sp.sympify(a.text())

    def same(self, a: ParamRatio, expr) -> bool:
        return self.sp.cancel(self.sym(a) - expr) == 0

    def test_operations(self, rng):
        for _ in range(40):
            a = random_param_ratio(rng, symbols=(0, 1, 2))
            b = random_param_ratio(rng, symbols=(0, 1, 2))
            u = ParamRatio.fraction(rng.randint(1, 9), rng.randint(1, 9)) * k_power(rng.randint(-2, 2))
            sa, sb, su = self.sym(a), self.sym(b), self.sym(u)
            assert self.same(a + b, sa + sb)
            assert self.same(a - b, sa - sb)
            assert self.same(a * b, sa * sb)
            assert self.same(a / u, sa / su)
            assert self.same(a ** 3, sa ** 3)
            assert self.same(a.scale(Rat(-7, 4)), sa * self.sp.Rational(-7, 4))
            assert (a == b) == (self.sp.cancel(sa - sb) == 0)

    def test_canonical_form_matches_sympy(self, rng):
        sp = self.sp
        gens = sp.symbols("k p q")
        for _ in range(40):
            a = random_param_ratio(rng, symbols=(0, 1, 2)) * random_param_ratio(rng, symbols=(0, 2))
            if a.is_zero():
                continue
            num, den = sp.fraction(sp.cancel(self.sym(a)))
            den = sp.Poly(den, *gens)
            # the reduced denominator is an integer times a power of k
            assert den.is_monomial and den.monoms()[0] == (a.den_k, 0, 0)
            d = den.coeffs()[0]
            assert abs(d / sp.gcd(sp.Poly(num, *gens).content(), d)) == a.den_int

    def test_substitution_and_evaluation(self, rng):
        p, q, k = self.sp.symbols("p q k")
        for _ in range(20):
            # p goes to the value of s, which holds q and k
            a = random_param_ratio(rng, symbols=(0, 1, 2))
            expr = self.sym(a).subs(p, (2 * q + 1 - k) / (2 * k))
            assert self.same(a.substitute({"p": S_VALUE}), expr)
            point = {"k": Rat(rng.randint(1, 99), rng.randint(1, 9)), "q": Rat(rng.randint(-9, 9)),
                     "p": Rat(rng.randint(-9, 9), 5)}
            value = self.sym(a).subs({self.sp.Symbol(n): self.sp.Rational(v.numerator, v.denominator)
                                      for n, v in point.items()})
            assert eval_at(a, point) == Rat(int(value.p), int(value.q))


def test_text_serialization_shape():
    two_k2_plus_2k = (K * K + K).scale(2)
    assert two_k2_plus_2k.text() == "(2*k^2+2*k)/1"
    assert (ParamRatio.fraction(1, 2) / K).text() == "(1/2)/k"
    assert S_VALUE.text() == "(q+(-1/2)*k+(1/2))/k"


def test_import_does_not_load_sympy():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = "import sys, dunklcms, dunklcms.cli; sys.exit('sympy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
