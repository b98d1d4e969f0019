import hashlib
import operator
import pickle
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklcms import finite_cms
from dunklcms.coeffs import (
    ONE,
    ExponentOverflow,
    ParamRatio,
    UnsupportedDenominator,
    _canonical,
    _poly,
    const,
    k_power,
    symbol,
)
from dunklcms.finite_cms import (
    MAX_X_EXPONENT,
    MIN_X_EXPONENT,
    Hom,
    MultiPoly,
    NotInvariant,
    ParityData,
    deformed_integral,
    deformed_partial_r,
    diagram_check,
    finite_dunkl,
    heckman_integral,
    is_invariant,
    _fac_diff,
    _fac_prod_minus_1,
    _fac_shift,
    _fac_sum,
    _degree_checked,
    _divided_differences,
    _finite_dunkl_power,
    standard_testset,
)
from dunklcms.powersums import Family, InexactDivision, LambdaElem, LambdaXElem
from dunklcms.weyl import RatFun

from conftest import count_ratio_operations

K = symbol("k")
P_ = symbol("p")
Q_ = symbol("q")


def V(n, i, p=1):
    return MultiPoly.var(n, i, p)


def C(n, c):
    return MultiPoly.const(n, c)


class TestMultiPoly:
    def test_division_exact(self):
        n = 2
        f = (V(n, 0) - V(n, 1)) * (V(n, 0) + V(n, 1)) * V(n, 0)
        q = f.exact_div(V(n, 0) - V(n, 1))
        assert q == (V(n, 0) + V(n, 1)) * V(n, 0)

    def test_division_laurent(self):
        n = 2
        f = V(n, 0, 1) - V(n, 1, -1)  # x - 1/y = (xy - 1)/y
        xy1 = V(n, 0) * V(n, 1) - C(n, 1)
        q = f.exact_div(xy1)
        assert q == V(n, 1, -1)

    def test_division_remainder_detected(self):
        n = 2
        with pytest.raises(InexactDivision):
            (V(n, 0) + C(n, 1)).exact_div(V(n, 0) - V(n, 1))

    @pytest.mark.parametrize("op", [
        operator.add, operator.sub, operator.mul, MultiPoly.div_or_none, operator.eq,
    ])
    def test_different_numbers_of_variables_raise(self, op):
        # the packed keys of 2 and 3 variables do not line up: x1 + x1 across
        # them read "x1 + 1" and their product "x1"
        f, g = V(2, 0), V(3, 0)
        for a, b in ((f, g), (g, f)):
            with pytest.raises(ValueError):
                op(a, b)
        assert op(f, V(2, 0)) is not None
        assert f != "x1"

    def test_unpickled_polynomials_share_the_layout(self):
        f = V(2, 0) + C(2, 1)
        g = pickle.loads(pickle.dumps(f))
        assert g._lay is f._lay
        assert g * f == f * f

    def test_actions_are_automorphisms(self, rng):
        n = 3
        f = V(n, 0, 2) * V(n, 1) + V(n, 2, 3).scale(const(-2))
        g = V(n, 1, 2) - V(n, 0)
        for act in ("act_swap", "act_signed_swap", "act_invert_swap"):
            lhs = getattr(f * g, act)(0, 1)
            rhs = getattr(f, act)(0, 1) * getattr(g, act)(0, 1)
            assert lhs == rhs
        for act in ("act_flip", "act_invert"):
            lhs = getattr(f * g, act)(1)
            rhs = getattr(f, act)(1) * getattr(g, act)(1)
            assert lhs == rhs


#: Every root factor shape of the operators, in both signs: x1 - x0 has the
#: grlex leading term -x0, and x_i^2 -+ 1 has orbits of two exponents.
ROOT_FACTORS = [
    ("x0 - x1", _fac_diff(3, 0, 1)),
    ("x1 - x0", _fac_diff(3, 1, 0)),
    ("x0 + x2", _fac_sum(3, 0, 2)),
    ("x2 + x0", _fac_sum(3, 2, 0)),
    ("x0 x1 - 1", _fac_prod_minus_1(3, 0, 1)),
    ("1 - x1 x2", -_fac_prod_minus_1(3, 1, 2)),
    ("x0 x2 + 1", _fac_prod_minus_1(3, 0, 2) + C(3, 2)),
    ("-x1 x2 - 1", -_fac_prod_minus_1(3, 1, 2) - C(3, 2)),
    ("x1 - 1", _fac_shift(3, 1, -1)),
    ("1 - x1", -_fac_shift(3, 1, -1)),
    ("x2 + 1", _fac_shift(3, 2, 1)),
    ("-x2 - 1", -_fac_shift(3, 2, 1)),
    ("x0^2 - 1", _fac_shift(3, 0, -1, 2)),
    ("1 - x2^2", -_fac_shift(3, 2, -1, 2)),
    ("x1^2 + 1", _fac_shift(3, 1, 1, 2)),
    ("-x0^2 - 1", -_fac_shift(3, 0, 1, 2)),
]


def random_laurent(rng: random.Random, nterms: int) -> MultiPoly:
    """A Laurent polynomial in x0, x1, x2 with coefficients c*k^j, as trig BC has."""
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(-2, 3) for _ in range(3))
        terms[e] = ParamRatio.fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 2])) \
            * k_power(rng.randint(-1, 2))
    return MultiPoly(3, terms)


class TestRootTest:
    """Division by a root factor at its root, against sympy and against its
    cost bound."""

    @staticmethod
    def divisible_by_sympy(sp, g: MultiPoly, f: MultiPoly) -> bool:
        xs = sp.symbols("x0 x1 x2")
        k = sp.Symbol("k")

        def expr(p, shift):
            return sp.Add(*[
                sp.sympify(c.text()) * sp.Mul(*[x ** (a - s) for x, a, s in zip(xs, e, shift)])
                for e, c in p.terms.items()
            ])

        # shift the Laurent dividend into the polynomial ring and clear the
        # powers of 1/k; neither changes divisibility by a factor free of
        # monomial factors and of k
        shift = [min([0] + [e[v] for e in g.terms]) for v in range(3)]
        dividend = sp.expand(expr(g, shift) * k ** 2)
        _, remainder = sp.reduced(dividend, [expr(f, (0, 0, 0))], *xs, k)
        return remainder == 0

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10 ** 9),
        factor=st.sampled_from(ROOT_FACTORS),
        nterms=st.integers(min_value=1, max_value=6),
        perturb=st.booleans(),
    )
    def test_agrees_with_sympy(self, sp, seed, factor, nterms, perturb):
        rng = random.Random(seed)
        _, f = factor
        g = f * random_laurent(rng, nterms)
        if perturb:
            e = tuple(rng.randint(-2, 3) for _ in range(3))
            g = g + MultiPoly(3, {e: ParamRatio.const(rng.choice([-2, -1, 1, 3]))})
        if g.is_zero():
            return
        divisible = self.divisible_by_sympy(sp, g, f)
        q = g.div_or_none(f)
        assert (q is None) == (not divisible)
        if q is not None:
            assert q * f == g

    @pytest.mark.parametrize("f", [
        V(3, 0) + V(3, 1) + C(3, 1),                  # three terms
        V(3, 0).scale(const(3)) + C(3, 1),            # coefficients 3 and 1
        V(3, 0).scale(const(2)) - V(3, 1),
        V(3, 0).scale(K) - V(3, 1),                   # k x0 and x1
        V(3, 0).scale(K.scale(2)) - V(3, 1),
        V(3, 0) + V(3, 1).scale(ParamRatio.fraction(1, 2) * K),
        V(3, 0).scale(P_) - V(3, 1).scale(P_),        # p is not a unit
        V(3, 0).scale(K + ONE),
        V(3, 0).scale(P_) + C(3, 1),
        V(3, 0).scale(K) + V(3, 0) - V(3, 1),
    ])
    def test_unsupported_divisors_raise(self, f):
        g = f * V(3, 2)
        with pytest.raises(UnsupportedDenominator):
            g.div_or_none(f)
        with pytest.raises(UnsupportedDenominator):
            RatFun(g, {f: 1})

    def test_binomial_over_a_unit_divides(self):
        # k^a (x^a +- x^b) over an int denominator divides as the binomial does
        h = V(3, 1) + C(3, ParamRatio.fraction(1, 2)) + V(3, 0).scale(k_power(-1) + P_)
        for u in BINOMIAL_UNITS[1:]:
            for d in (_fac_diff(3, 0, 1), _fac_shift(3, 2, 1, 2)):
                f = d.scale(u)
                assert (f * h).div_or_none(f) == h
                assert (f * h + C(3, 1)).div_or_none(f) is None
        # a unit c other than +-1/d leaves coefficients +-c, which RatFun
        # divides out of the factor first
        f = _fac_diff(3, 0, 1).scale(const(2))
        with pytest.raises(UnsupportedDenominator):
            (f * h).div_or_none(f)
        r = RatFun(f * h, {f: 1})
        assert r.num == h and not r.den

    def test_orbit_keys_stay_distinct_at_the_exponent_limits(self):
        # for x0 x2^2 - x3^2, orbits taken along x0 (d = 1) would give these
        # two terms of different orbits one key: the x2 and x3 fields differ
        # by -4097 and 4096, which carry into the x1 field and cancel there;
        # along x2 (d = 2) every field of an orbit key spans < 4096 values
        f = MultiPoly(4, {(1, 0, 2, 0): ONE, (0, 0, 0, 2): const(-1)})
        g = MultiPoly(4, {(1000, 0, 0, 20): ONE, (-1000, -1, 97, -76): const(-1)})
        assert g.div_or_none(f) is None
        assert (g * f).div_or_none(f) == g

    def test_repeated_factor_cancels_as_far_as_it_divides(self):
        f = _fac_prod_minus_1(3, 0, 1) + C(3, 2)  # x0 x1 + 1
        g = f * f * V(3, 2)
        miss = g + C(3, 1)
        assert g.div_or_none(f) == f * V(3, 2)
        assert miss.div_or_none(f) is None
        with pytest.raises(InexactDivision):
            miss.exact_div(f)
        r = RatFun(g, {f: 3})
        assert r.num == V(3, 2) and r.den == {f: 1}
        r = RatFun(miss, {f: 1})
        assert r.num == miss and r.den == {f: 1}

    def test_rejection_does_no_coefficient_arithmetic(self, monkeypatch):
        # all 120 monomials of degree <= 7 in three variables; the orbit sums
        # at x0 = x1 reject x0 - x1 on the int coefficients only, and no
        # quotient term is formed: every quotient passes _degree_checked
        n = 3
        terms = {}
        for a in range(8):
            for b in range(8 - a):
                for c in range(8 - a - b):
                    terms[(a, b, c)] = const(1 + a + 2 * b + 3 * c) * K
        g = MultiPoly(n, terms)
        f = _fac_diff(n, 0, 1)
        assert len(g.terms) >= 100
        calls = count_ratio_operations(monkeypatch)
        quotients = []
        degree_checked = finite_cms._degree_checked

        def counting(*args):
            quotients.append(args)
            return degree_checked(*args)

        monkeypatch.setattr(finite_cms, "_degree_checked", counting)
        assert g.div_or_none(f) is None
        assert calls == []
        assert quotients == []
        assert (g * f).div_or_none(f) == g and len(quotients) == 1


#: Coefficients of the random polynomials: 1/2, 1/k, p and q among them.
RANDOM_COEFFS = [
    ParamRatio.fraction(1, 2), k_power(-1), P_, Q_, const(-3), symbol("k", 2),
    Q_ * ParamRatio.fraction(-2, 3) + k_power(-1), P_ * k_power(-2) + ONE,
]
#: Units of the coefficient ring, c * k^a.
RANDOM_UNITS = [ONE, const(-1), ParamRatio.fraction(1, 2), k_power(-1), K.scale(3),
                k_power(-2) * ParamRatio.fraction(-2, 5)]
#: The units +-k^a / d, which a binomial divisor may carry.
BINOMIAL_UNITS = [ONE, const(-1), ParamRatio.fraction(1, 2), K, -K,
                  k_power(-2) * ParamRatio.fraction(-1, 5)]


def random_poly(rng: random.Random, nterms: int, low: int = -2, high: int = 3) -> MultiPoly:
    terms = {}
    for _ in range(nterms):
        terms[tuple(rng.randint(low, high) for _ in range(3))] = rng.choice(RANDOM_COEFFS)
    return MultiPoly(3, terms)


def random_divisor(rng: random.Random) -> MultiPoly:
    """x^a +- x^b, the shape of every root factor, with exponents in -1..2,
    times a unit that keeps its int coefficients +-1."""
    a, b = rng.sample([e for e in product(range(-1, 3), repeat=3)], 2)
    f = MultiPoly(3, {a: ONE, b: rng.choice([ONE, const(-1)])})
    return f.scale(rng.choice(BINOMIAL_UNITS))


class TestPackedMultiPoly:
    """The packed, fraction-free MultiPoly against sympy 1.14, at its exponent
    limits, and against its work bound."""

    @pytest.fixture(autouse=True)
    def _oracle(self, sp):
        self.sp = sp
        self.xs = sp.symbols("x0 x1 x2")

    def expr(self, f: MultiPoly):
        sp = self.sp
        return sp.Add(*[sp.sympify(c.text()) * sp.Mul(*[x ** a for x, a in zip(self.xs, e)])
                        for e, c in f.terms.items()])

    def same(self, f: MultiPoly, expr) -> bool:
        return self.sp.cancel(self.expr(f) - expr) == 0

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10 ** 9))
    def test_ring_operations_agree_with_sympy(self, seed):
        rng = random.Random(seed)
        f, g = random_poly(rng, rng.randint(1, 5)), random_poly(rng, rng.randint(1, 5))
        c = rng.choice(RANDOM_COEFFS + RANDOM_UNITS)
        F, G = self.expr(f), self.expr(g)
        assert self.same(f * g, F * G)
        assert self.same(f + g, F + G)
        assert self.same(f - g, F - G)
        assert self.same(-f, -F)
        assert self.same(f.scale(c), F * self.sp.sympify(c.text()))
        assert self.same(f ** 2, F ** 2)
        for i, x in enumerate(self.xs):
            assert self.same(f.diff(i), self.sp.diff(F, x))
        assert (f == g) == (self.sp.cancel(F - G) == 0)
        assert (f - f).is_zero() and f - g + g == f

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10 ** 9))
    def test_actions_agree_with_sympy(self, seed):
        f = random_poly(random.Random(seed), 5)
        F = self.expr(f)
        x0, x1, x2 = self.xs

        def image(subs):
            return F.subs(subs, simultaneous=True)

        assert self.same(f.act_swap(0, 2), image({x0: x2, x2: x0}))
        assert self.same(f.act_signed_swap(1, 2), image({x1: -x2, x2: -x1}))
        assert self.same(f.act_flip(1), image({x1: -x1}))
        assert self.same(f.act_invert(0), image({x0: 1 / x0}))
        assert self.same(f.act_invert_swap(0, 1), image({x0: 1 / x1, x1: 1 / x0}))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10 ** 9), perturb=st.booleans())
    def test_division_agrees_with_sympy(self, seed, perturb):
        sp = self.sp
        rng = random.Random(seed)
        f = random_divisor(rng)
        g = f * random_poly(rng, rng.randint(1, 4))
        if perturb:
            g = g + random_poly(rng, 1)
        if g.is_zero():
            return
        ratio = sp.cancel(self.expr(g) / self.expr(f))
        _, den = sp.fraction(ratio)
        divisible = sp.Poly(den, *self.xs, *sp.symbols("k p q")).is_monomial
        q = g.div_or_none(f)
        assert (q is None) == (not divisible)
        if q is None:
            with pytest.raises(InexactDivision):
                g.exact_div(f)
        else:
            assert self.same(q, ratio)
            assert g.exact_div(f) == q and q * f == g

    def test_substitute_and_text_agree_with_sympy(self, rng):
        sp = self.sp
        k, p, q = sp.symbols("k p q")
        names = {"x%d" % (i + 1): x for i, x in enumerate(self.xs)}
        for _ in range(20):
            f = random_poly(rng, rng.randint(1, 5))
            F = self.expr(f)
            assert sp.cancel(sp.sympify(f.text(), locals=names) - F) == 0
            assert self.same(f.substitute({"k": ParamRatio.fraction(3, 2)}), F.subs(k, sp.Rational(3, 2)))
            bound = f.substitute({"p": K + ONE, "q": ParamRatio.fraction(1, 2)})
            assert self.same(bound, F.subs({p: k + 1, q: sp.Rational(1, 2)}, simultaneous=True))

    def test_monomial_division_cancels_k_before_its_limit(self):
        # (x0 + k^400 x1)/k^300 over x0/k^300 is 1 + k^400 x1/x0, whose
        # exponents fit, though k^700 would not
        g = V(2, 0).scale(k_power(-300)) + V(2, 1).scale(symbol("k", 100))
        q = g.div_or_none(V(2, 0).scale(k_power(-300)))
        assert q == C(2, 1) + V(2, 1) * V(2, 0, -1).scale(symbol("k", 400))
        assert q.terms == {(0, 0): ONE, (-1, 1): symbol("k", 400)}

    def test_exponent_limits_are_exact(self):
        assert (V(2, 0, MAX_X_EXPONENT - 1) * V(2, 0)).terms == {(MAX_X_EXPONENT, 0): ONE}
        assert (V(2, 1, MIN_X_EXPONENT + 1) * V(2, 1, -1)).terms == {(0, MIN_X_EXPONENT): ONE}
        near = V(2, 0, 5) * V(2, 1, MAX_X_EXPONENT - 6) * V(2, 1)
        assert near.terms == {(5, MAX_X_EXPONENT - 5): ONE}
        low = V(2, 0, 3) * V(2, 1, MIN_X_EXPONENT + 4) * V(2, 1, -1)
        assert low.terms == {(3, MIN_X_EXPONENT + 3): ONE}

    @pytest.mark.parametrize("make", [
        lambda: V(2, 0, MAX_X_EXPONENT) * V(2, 0),
        lambda: V(2, 1, MAX_X_EXPONENT) * V(2, 1),
        lambda: V(2, 0, MIN_X_EXPONENT) * V(2, 0, -1),
        lambda: V(2, 1, MIN_X_EXPONENT) * V(2, 1, -1),
        lambda: (V(2, 0) + V(2, 1, MAX_X_EXPONENT)) * (V(2, 1) + C(2, 1)),
        lambda: V(3, 0, 600) * V(3, 1, 600),
        lambda: V(3, 0, -600) * V(3, 2, -600),
        lambda: V(2, 1, MIN_X_EXPONENT).diff(1),
        lambda: V(2, 0, MIN_X_EXPONENT).act_invert(0),
        lambda: V(2, 1, MIN_X_EXPONENT).act_invert_swap(0, 1),
        # degree 4000: past the reach of the degree field's guard bit
        lambda: MultiPoly(4, {(-1000, -1000, 1000, 1000): ONE}).act_invert_swap(0, 1),
        lambda: V(2, 1).mul_monomial((0, MAX_X_EXPONENT)),
        lambda: MultiPoly(2, {(MAX_X_EXPONENT + 1, 0): ONE}),
        lambda: V(2, 0).scale(symbol("k", 511)).scale(K),
        lambda: V(2, 0).scale(k_power(-300)) + V(2, 1).scale(symbol("k", 300)),
        lambda: V(2, 0, 2).div_or_none(V(2, 0, MIN_X_EXPONENT)),
        # x0^-1024 (x1 - 1) / (x0 (x1 - 1)) is x0^-1025
        lambda: (V(2, 0, MIN_X_EXPONENT) * _fac_shift(2, 1, -1)).div_or_none(V(2, 0) * _fac_shift(2, 1, -1)),
    ])
    def test_exponent_overflow_raises(self, make):
        # an overflow never aliases into the next field: it raises
        with pytest.raises(ExponentOverflow):
            make()

    def test_widest_layout_guards_its_top_field(self):
        # at 63 variables the total degree is the last field whose guard
        # coeffs tests
        n = 63
        assert (V(n, 0, 600) * V(n, 1, 423)).terms == {(600, 423) + (0,) * (n - 2): ONE}
        for make in (lambda: V(n, 0, 600) * V(n, 1, 600),
                     lambda: V(n, 0, -600) * V(n, n - 1, -600),
                     lambda: V(n, n - 1, MAX_X_EXPONENT) * V(n, n - 1)):
            with pytest.raises(ExponentOverflow):
                make()
        with pytest.raises(ValueError):
            MultiPoly.zero(n + 1)

    def test_product_and_division_do_no_per_term_coefficient_arithmetic(self, monkeypatch):
        # a product is one product in the coefficient ring, of the whole
        # polynomials, and a division by a structural factor makes none
        n = 3
        f = MultiPoly(n, {(2, 1, 0): K, (0, -1, 1): k_power(-1), (1, 0, 0): ParamRatio.fraction(1, 2),
                          (0, 0, 0): P_})
        g = MultiPoly(n, {(1, 1, 1): const(3), (0, 2, -1): Q_ * k_power(-2), (0, 0, 1): ONE})
        factors = [_fac_diff(n, 0, 1), _fac_diff(n, 2, 0), _fac_sum(n, 1, 2), _fac_prod_minus_1(n, 0, 2),
                   _fac_shift(n, 1, -1), _fac_shift(n, 2, 1), _fac_shift(n, 0, -1, 2), V(n, 1)]
        calls = count_ratio_operations(monkeypatch)
        h = f * g
        assert len(h.terms) == 11
        assert calls == ["__mul__"]
        for s in factors:
            hs = h * s
            del calls[:]
            assert hs.div_or_none(s) == h
            assert calls == []

    def test_structural_factors_are_built_once(self):
        for build, args in ((_fac_diff, (3, 0, 1)), (_fac_sum, (3, 1, 2)),
                            (_fac_prod_minus_1, (3, 0, 2)), (_fac_shift, (3, 1, -1, 2))):
            assert build(*args) is build(*args)
        assert _fac_shift(2, 0, 1).text() == "1/1 * x1 + 1/1"

    @pytest.mark.parametrize("n, products", [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3)])
    def test_power_makes_no_spare_products(self, monkeypatch, n, products):
        f = V(2, 0) + V(2, 1).scale(K) + C(2, 1)
        expected = f
        for _ in range(n - 1):
            expected = expected * f
        count = []
        original = MultiPoly.__mul__

        def counting(self, other):
            count.append(1)
            return original(self, other)

        monkeypatch.setattr(MultiPoly, "__mul__", counting)
        assert f ** n == expected
        assert len(count) == products



class TestFiniteDunkl:
    def test_rational_a_basic_value(self):
        assert finite_dunkl(Family.RAT_A, 2, 0, V(2, 0)) == C(2, ONE - K)

    def test_rational_a_diagram_value(self):
        # D applied to x1^2 at N=3 must match the reduction of the infinite
        # operator on x^2
        N = 3
        hom = Hom(Family.RAT_A, ParityData(N, 0), 0)
        from dunklcms.dunkl_infinity import InfDunkl

        lhs = hom.apply(InfDunkl(Family.RAT_A).apply(LambdaXElem.x(2)))
        rhs = finite_dunkl(Family.RAT_A, N, 0, V(N, 0, 2))
        assert lhs == rhs

    def test_trig_a_reflection_part_kills_symmetric(self):
        f = V(2, 0) + V(2, 1)
        out = finite_dunkl(Family.TRIG_A, 2, 0, f)
        assert out == V(2, 0)

    def test_rational_families_commute(self):
        # all monomials of total degree <= 5 in up to four variables, all pairs
        from itertools import combinations

        def monomials(nvars, deg):
            def rec(prefix, rem, pos):
                if pos == nvars - 1:
                    yield prefix + (rem,)
                    return
                for d in range(rem + 1):
                    yield from rec(prefix + (d,), rem - d, pos + 1)

            for t in range(deg + 1):
                yield from rec((), t, 0)

        for fam in (Family.RAT_A, Family.RAT_B):
            for N in (2, 3, 4):
                for exps in monomials(N, 5):
                    f = MultiPoly(N, {exps: ONE})
                    for i, j in combinations(range(N), 2):
                        ab = finite_dunkl(fam, N, i, finite_dunkl(fam, N, j, f))
                        ba = finite_dunkl(fam, N, j, finite_dunkl(fam, N, i, f))
                        assert ab == ba, (fam, N, exps, i, j)

    def test_trig_a_rank_one_commutator_vanishes(self):
        # at N=2 there is no third index, and the trig operators do commute
        for a in range(5):
            for b in range(4):
                f = MultiPoly(2, {(a, b): ONE})
                ab = finite_dunkl(Family.TRIG_A, 2, 0, finite_dunkl(Family.TRIG_A, 2, 1, f))
                ba = finite_dunkl(Family.TRIG_A, 2, 1, finite_dunkl(Family.TRIG_A, 2, 0, f))
                assert ab == ba

    def test_trig_a_noncommuting_at_three_variables(self):
        f = V(3, 2)  # x3
        ab = finite_dunkl(Family.TRIG_A, 3, 0, finite_dunkl(Family.TRIG_A, 3, 1, f))
        ba = finite_dunkl(Family.TRIG_A, 3, 1, finite_dunkl(Family.TRIG_A, 3, 0, f))
        assert ab != ba

    def test_index_outside_the_variables_raises(self):
        # i = -1 would read x_{N-1}'s fields, and mul_monomial a zero exponent
        f = V(3, 0, 2) + V(3, 1, -1)
        for family in Family:
            for i in (-1, 3):
                with pytest.raises(ValueError):
                    finite_dunkl(family, 3, i, f)
                with pytest.raises(ValueError):
                    _finite_dunkl_power(family, 3, i, f, 2)

    def test_trig_bc_noncommuting_at_two_variables(self):
        f = V(2, 0, -2) * V(2, 1, -2)
        ab = finite_dunkl(Family.TRIG_BC, 2, 0, finite_dunkl(Family.TRIG_BC, 2, 1, f))
        ba = finite_dunkl(Family.TRIG_BC, 2, 1, finite_dunkl(Family.TRIG_BC, 2, 0, f))
        assert ab != ba


def reflections(f: MultiPoly, i: int, j: int):
    """(kind, j, w f, d, numerator) for each reflection the divided
    differences know, in the variables i and j; numerator is the factor the
    trigonometric operators put over d, None where there is none."""
    n = f.nvars
    return [
        ("swap", j, f.act_swap(i, j), _fac_diff(n, i, j), _fac_sum(n, i, j)),
        ("signed_swap", j, f.act_signed_swap(i, j), _fac_sum(n, i, j), None),
        ("invert_swap", j, f.act_invert_swap(i, j), _fac_prod_minus_1(n, i, j),
         _fac_prod_minus_1(n, i, j) + C(n, 2)),
        ("invert", None, f.act_invert(i), _fac_shift(n, i, -1), _fac_shift(n, i, 1)),
        ("invert2", None, f.act_invert(i), _fac_shift(n, i, -1, 2), _fac_shift(n, i, 1, 2)),
        ("flip", None, f.act_flip(i), V(n, i), None),
    ]


def finite_dunkl_by_division(family: Family, N: int, i: int, f: MultiPoly) -> MultiPoly:
    """The finite Dunkl operators through the images w f and exact division,
    an independent route to ``finite_dunkl``."""
    half = ParamRatio.fraction(1, 2)
    out = f.diff(i)
    if family in (Family.TRIG_A, Family.TRIG_BC):
        out = out * V(N, i)
    for j in range(N):
        if j == i:
            continue
        swap = (f - f.act_swap(i, j)).exact_div(_fac_diff(N, i, j))
        if family is Family.RAT_A:
            out = out - swap.scale(K)
        elif family is Family.RAT_B:
            signed = (f - f.act_signed_swap(i, j)).exact_div(_fac_sum(N, i, j))
            out = out - (swap + signed).scale(K)
        else:
            out = out - (_fac_sum(N, i, j) * swap).scale(K * half)
        if family is Family.TRIG_BC:
            inv = (f - f.act_invert_swap(i, j)).exact_div(_fac_prod_minus_1(N, i, j))
            out = out - ((_fac_prod_minus_1(N, i, j) + C(N, 2)) * inv).scale(K * half)
    if family is Family.RAT_B:
        out = out - (f - f.act_flip(i)).exact_div(V(N, i)).scale(Q_)
    if family is Family.TRIG_BC:
        t = f - f.act_invert(i)
        out = out - (_fac_shift(N, i, 1) * t.exact_div(_fac_shift(N, i, -1))).scale(P_ * half)
        out = out - (_fac_shift(N, i, 1, 2) * t.exact_div(_fac_shift(N, i, -1, 2))).scale(Q_)
    return out


def divided_differences(f: MultiPoly, reflections, trig: bool = False) -> MultiPoly:
    """The accumulator's sum over ``reflections`` for f, checked and put in
    canonical form over f's denominator."""
    out = {}
    _divided_differences(f._lay, finite_cms._x_groups(f.ratio.num.terms), reflections, out, trig=trig)
    terms = _degree_checked(f._lay, {e: c for e, c in out.items() if c})
    return finite_cms._mp(f._lay, _canonical(_poly(terms), f.ratio.den_int, f.ratio.den_k))


class TestDividedDifferences:
    """The closed-form divided differences against exact division."""

    @pytest.mark.parametrize("seed", range(8))
    def test_each_reflection_matches_exact_division(self, seed):
        # Laurent exponents down to -3 and coefficients with 1/2, 1/k, p and q
        rng = random.Random(seed)
        for _ in range(6):
            f = random_poly(rng, rng.randint(1, 9), low=-3)
            i, j = rng.sample(range(3), 2)
            for kind, jj, wf, d, numerator in reflections(f, i, j):
                q = divided_differences(f, [(kind, i, jj)])
                assert q == (f - wf).exact_div(d), (kind, f)
                assert q * d == f - wf
                if numerator is not None:
                    assert divided_differences(f, [(kind, i, jj)], trig=True) == numerator * q

    @pytest.mark.parametrize("seed", range(4))
    def test_sum_over_reflections(self, seed):
        rng = random.Random(100 + seed)
        f = random_laurent(rng, 12)
        cases = reflections(f, 0, 2) + reflections(f, 0, 1)
        total = MultiPoly.zero(3)
        for kind, j, wf, d, _ in cases:
            total = total + (f - wf).exact_div(d)
        assert divided_differences(f, [(kind, 0, j) for kind, j, *_ in cases]) == total

    def test_symmetric_input_and_no_reflections_give_zero(self):
        f = V(3, 0) * V(3, 1) + V(3, 0) + V(3, 1)
        assert divided_differences(f, [("swap", 0, 1), ("swap", 1, 0)]).is_zero()
        assert divided_differences(f, []).is_zero()
        assert divided_differences(V(3, 2, 4), [("flip", 2, None)]).is_zero()

    def test_unknown_kind_and_signs_without_numerator_raise(self):
        f = random_laurent(random.Random(3), 5)
        for kind, j in (("rotate", 1), ("flip", None), ("signed_swap", 1)):
            with pytest.raises(ValueError):
                divided_differences(f, [(kind, 0, j)], trig=True)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("family", list(Family))
    def test_finite_dunkl_matches_division_route(self, family, seed):
        rng = random.Random(seed)
        f = random_poly(rng, 10, low=-2) if family is Family.TRIG_BC else random_poly(rng, 10, low=0)
        for i in range(3):
            assert finite_dunkl(family, 3, i, f) == finite_dunkl_by_division(family, 3, i, f)

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("family", list(Family))
    def test_power_matches_composed_division_route(self, family, seed):
        # Laurent inputs with 1/2, 1/k, p and q in their coefficients
        rng = random.Random(200 + seed)
        f = random_poly(rng, 6, low=-2)
        i = rng.randrange(3)
        g = f
        for r in range(1, 4):
            g = finite_dunkl_by_division(family, 3, i, g)
            assert _finite_dunkl_power(family, 3, i, f, r) == g

    @pytest.mark.parametrize("family", list(Family))
    def test_finite_dunkl_does_no_division(self, monkeypatch, family):
        # the reflection terms come from the closed form: no division, no
        # quotient at a root and no product of polynomials; a power makes
        # one canonical form, at its end
        f = random_poly(random.Random(7), 12, low=-2 if family is Family.TRIG_BC else 0)
        seen = []
        for name in ("div_or_none", "__mul__"):
            original = getattr(MultiPoly, name)

            def counting(self, other, name=name, original=original):
                seen.append(name)
                return original(self, other)
            monkeypatch.setattr(MultiPoly, name, counting)
        root_quotient = finite_cms._root_quotient
        monkeypatch.setattr(finite_cms, "_root_quotient", lambda *a: seen.append("root") or root_quotient(*a))
        canonical = finite_cms._canonical
        monkeypatch.setattr(finite_cms, "_canonical", lambda *a: seen.append("canonical") or canonical(*a))
        for i in range(3):
            assert not finite_dunkl(family, 3, i, f).is_zero()
            assert not _finite_dunkl_power(family, 3, i, f, 3).is_zero()
        assert seen == ["canonical"] * 6

    @pytest.mark.parametrize("family, i, fails_at", [
        (Family.RAT_A, 0, None), (Family.RAT_A, 1, 1), (Family.TRIG_A, 0, 3), (Family.TRIG_BC, 0, 2),
        (Family.TRIG_BC, 1, 1),
    ])
    def test_k_exponent_overflow_at_the_step_that_forms_it(self, family, i, fails_at):
        # the numerator k^511 x0^2 + x1 over k^2 stands at the k-exponent
        # limit; a step may add a power of k to a term, and shifting out the
        # common power of k while den_k > 0 takes it back where the step's
        # canonical form allows, so the power raises at the step where
        # composing single steps raises, and only there
        f = MultiPoly(2, {(2, 0): symbol("k", 509), (0, 1): k_power(-2)})
        g = f
        for r in range(1, 5):
            if r == fails_at:
                with pytest.raises(ExponentOverflow):
                    finite_dunkl_by_division(family, 2, i, g)
                with pytest.raises(ExponentOverflow):
                    _finite_dunkl_power(family, 2, i, f, r)
                return
            g = finite_dunkl_by_division(family, 2, i, g)
            assert _finite_dunkl_power(family, 2, i, f, r) == g
        assert fails_at is None

    def test_exponent_overflow_at_the_lowest_exponent(self):
        low = V(2, 1, MIN_X_EXPONENT)
        # (x1^-1024 - x0^-1024) / (x0 - x1) has terms of total degree -1025
        for kind in ("swap", "signed_swap"):
            with pytest.raises(ExponentOverflow):
                divided_differences(low, [(kind, 0, 1)])
        with pytest.raises(ExponentOverflow):  # x0^-1023 x1^-1 / x0 gives degree -1025
            divided_differences(V(2, 0, MIN_X_EXPONENT + 1) * V(2, 1, -1), [("flip", 0, None)])
        # m = x0^1000 x1^1000 x2^-1000 x3^-1000 has degree 0, and the series
        # m (x0 x1)^-s, s = 1..2000, ends at degree -4000; the reverse one at
        # +3998
        for f in (MultiPoly(4, {(1000, 1000, -1000, -1000): ONE}),
                  MultiPoly(4, {(-1000, -1000, 1000, 1000): ONE}),
                  # its series less that of x0^-999 x1^-999 x2^1000 x3^1000 is
                  # -m - x0^999 x1^999 x2^1000 x3^1000, of degree 3998, whose
                  # key the guard bits alone do not catch
                  MultiPoly(4, {(-1000, -1000, 1000, 1000): ONE, (-999, -999, 1000, 1000): const(-1)})):
            with pytest.raises(ExponentOverflow):
                divided_differences(f, [("invert_swap", 0, 1)])
        # but x0^-512 x1^-512 gives -(x0 x1)^t x0^-512 x1^-512, t = 0..1023,
        # from degree -1024 to 1022
        assert len(divided_differences(V(2, 0, -512) * V(2, 1, -512), [("invert_swap", 0, 1)]).terms) == 1024
        with pytest.raises(ExponentOverflow):  # x0^1024 from the numerator x0 + 1
            divided_differences(V(1, 0, MIN_X_EXPONENT), [("invert", 0, None)], trig=True)

    def test_quotient_in_range_when_the_image_is_not(self):
        # x0 -> 1/x0 sends x0^-1024 out of range, but the quotient
        # -(x0^-1024 + ... + x0^1023) of (f - w f) / (x0 - 1) lies inside it
        f = V(1, 0, MIN_X_EXPONENT)
        with pytest.raises(ExponentOverflow):
            f.act_invert(0)
        q = divided_differences(f, [("invert", 0, None)])
        assert q.terms == {(a,): const(-1) for a in range(MIN_X_EXPONENT, MAX_X_EXPONENT + 1)}


class TestHeckman:
    def test_rational_a_value(self):
        f = V(2, 0, 2) + V(2, 1, 2)
        assert heckman_integral(Family.RAT_A, 2, 2, f) == C(2, const(4) - K.scale(4))

    def test_annihilates_constants(self):
        assert heckman_integral(Family.RAT_A, 2, 2, C(2, 1)).is_zero()

    def test_trig_a_value(self):
        f = V(3, 0) + V(3, 1) + V(3, 2)
        expected = f.scale(ONE - K.scale(2))
        assert heckman_integral(Family.TRIG_A, 3, 2, f) == expected

    def test_rejects_noninvariant_input(self):
        with pytest.raises(NotInvariant):
            heckman_integral(Family.RAT_A, 2, 2, V(2, 0))
        with pytest.raises(NotInvariant):
            # symmetric but not flip-invariant, so invalid for the B family
            heckman_integral(Family.RAT_B, 2, 1, V(2, 0) + V(2, 1))

    def test_output_invariant(self):
        hom = Hom(Family.TRIG_BC, ParityData(2, 0))
        f = hom.apply(LambdaElem.p(2))
        out = heckman_integral(Family.TRIG_BC, 2, 1, f)
        assert is_invariant(Family.TRIG_BC, out)


class TestHoms:
    def test_plain_power_sum(self):
        h = Hom(Family.RAT_A, ParityData(3, 0))
        assert h.apply(LambdaElem.p(2)) == V(3, 0, 2) + V(3, 1, 2) + V(3, 2, 2)

    def test_deformed_with_x(self):
        h = Hom(Family.RAT_A, ParityData(1, 1), 0)
        val = h.apply(LambdaXElem.x(1) * LambdaXElem.p(1))
        expected = V(2, 0) * (V(2, 0) + V(2, 1).scale(symbol("k", -1)))
        assert val == expected

    def test_bc_dimension_doubling(self):
        h = Hom(Family.TRIG_BC, ParityData(2, 0))
        assert h.apply(LambdaElem.p(0)) == C(2, 4)

    def test_b_family_squares(self):
        h = Hom(Family.RAT_B, ParityData(2, 0))
        assert h.apply(LambdaElem.p(1)) == V(2, 0, 2) + V(2, 1, 2)

    def test_index_outside_the_variables_rejected(self):
        for parity in (ParityData(3, 0), ParityData(2, 1)):
            for i in (-1, 3):
                with pytest.raises(ValueError):
                    Hom(Family.RAT_A, parity, i)
            assert Hom(Family.RAT_A, parity, 2).apply(LambdaXElem.x(1)) == V(3, 2)

    def test_deformed_bc_rejected(self):
        with pytest.raises(ValueError):
            Hom(Family.TRIG_BC, ParityData(1, 1))

    def test_every_image_is_frozen(self):
        # Both sides of every diagram go through the same substitution, so a
        # substitution wrong by a factor that commutes with the operators
        # passes every diagram; this pins the images themselves.
        gens = [("p%d" % l, LambdaElem.p(l)) for l in range(4)]
        gens.append(("p1*p2", LambdaElem.p(1) * LambdaElem.p(2)))
        lines = []

        def images(family, size, homs, xs):
            for label, f in gens:
                lines.append("%s %s %s: %s" % (family.value, size, label, homs[0].apply(f).text()))
            for i, hom in homs[1:]:
                for label, f in xs:
                    lines.append("%s %s i=%d %s: %s" % (family.value, size, i, label, hom.apply(f).text()))

        for family in Family:
            xs = [(label, f) for label, f in standard_testset() if "x" in label]
            for N in (1, 2, 3):
                homs = [Hom(family, ParityData(N, 0))]
                homs += [(i, Hom(family, ParityData(N, 0), i)) for i in sorted({0, N - 1})]
                images(family, "N=%d" % N, homs, xs)
            if family is Family.TRIG_BC:
                continue
            for n, m in ((1, 1), (2, 1), (1, 2)):
                parity = ParityData(n, m)
                homs = [Hom(family, parity)]
                homs += [(i, Hom(family, parity, i)) for i in (0, n + m - 1)]
                images(family, "n=%d m=%d" % (n, m), homs, xs)
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert (len(lines), digest) == (
            257, "10ecde0c2e8f1df5cf79c4e185ca9318b130e2065e85362dcceb871e7b1733de")

    def test_zero_separation_by_reductions(self, rng):
        # a nonzero element with generators up to p_M has a nonzero reduction
        # for some N <= M+1
        for _ in range(10):
            terms = {}
            M = 3
            for _ in range(rng.randint(1, 3)):
                mono = []
                for idx in range(1, M + 1):
                    e = rng.randint(0, 2)
                    if e:
                        mono.append((idx, e))
                terms[tuple(mono)] = const(rng.randint(-4, 4))
            f = LambdaElem(terms)
            if f.is_zero():
                continue
            images = [
                Hom(Family.RAT_A, ParityData(N, 0)).apply(f) for N in range(1, M + 2)
            ]
            assert any(not img.is_zero() for img in images)


class TestDeformedRecursion:
    def test_base_case_species_zero(self):
        par = ParityData(1, 1)
        f = V(2, 0) + V(2, 1).scale(symbol("k", -1))
        assert deformed_partial_r(par, 0, 1, f) == C(2, 1)

    def test_base_case_species_one(self):
        par = ParityData(1, 1)
        f = V(2, 0) + V(2, 1).scale(symbol("k", -1))
        assert deformed_partial_r(par, 1, 1, f) == C(2, 1)

    def test_second_order_kills_deformed_p1(self):
        par = ParityData(1, 1)
        f = V(2, 0) + V(2, 1).scale(symbol("k", -1))
        assert deformed_partial_r(par, 0, 2, f).is_zero()

    def test_misuse_raises_inexact_division(self):
        par = ParityData(1, 1)
        with pytest.raises(InexactDivision):
            deformed_partial_r(par, 0, 2, V(2, 0, 2))  # x1^2 is not deformed-symmetric

    def test_second_integral_value_through_reduction(self):
        # the deformed second integral on the deformed p2 equals the reduction
        # of -2k p0^2 + 2(1+k) p0 with p0 -> 1 + 1/k
        par = ParityData(1, 1)
        hom = Hom(Family.RAT_A, par)
        val = deformed_integral(par, 2, hom.apply(LambdaElem.p(2)))
        p0 = ONE + symbol("k", -1)
        expected = C(2, (ONE + K).scale(2) * p0 - K.scale(2) * p0 * p0)
        assert val == expected

    def test_order_zero_is_the_identity(self):
        par = ParityData(2, 1)
        f = Hom(Family.RAT_A, par).apply(LambdaElem.p(2))
        assert finite_cms.deformed_partials(par, 0, f) == [f, f, f]
        assert deformed_integral(par, 0, f) == f.scale(ParamRatio.const(2) + k_power(-1))

    def test_negative_order_raises(self):
        par = ParityData(1, 1)
        with pytest.raises(ValueError):
            finite_cms.deformed_partials(par, -1, V(2, 0) + V(2, 1))
        for family in Family:
            with pytest.raises(ValueError):
                _finite_dunkl_power(family, 2, 0, V(2, 0) + V(2, 1), -1)

    def test_first_integral_kills_constants(self):
        par = ParityData(2, 1)
        assert deformed_integral(par, 1, C(3, 5)).is_zero()


class TestDiagrams:
    @pytest.mark.parametrize("family", list(Family))
    def test_dunkl_reduction_diagram(self, family):
        rep = diagram_check("dcomm", family, standard_testset(), r=2, parity=ParityData(3, 0), i=0)
        assert rep.ok, rep.counterexamples[0]

    @pytest.mark.parametrize("family", list(Family))
    def test_integral_reduction_diagram(self, family):
        rep = diagram_check(
            "heckdiag", family, standard_testset(with_x=False), r=2, parity=ParityData(2, 0)
        )
        assert rep.ok, rep.counterexamples[0]

    def test_deformed_recursion_diagram(self):
        rep = diagram_check(
            "propcomm",
            Family.RAT_A,
            standard_testset(with_x=False),
            r=3,
            parity=ParityData(2, 1),
            i=1,
        )
        assert rep.ok

    def test_deformed_integral_diagram(self):
        rep = diagram_check(
            "intrat",
            Family.RAT_A,
            standard_testset(with_x=False),
            r=3,
            parity=ParityData(1, 2),
        )
        assert rep.ok

    @pytest.mark.parametrize("family", list(Family))
    def test_every_kind_verifies_at_order_zero(self, family):
        # D^0 and d_i^(0) are the identity and E . D^0 multiplies by p0
        checks = [("dcomm", standard_testset(), ParityData(3, 0), 1),
                  ("heckdiag", standard_testset(with_x=False), ParityData(2, 0), 0)]
        if family is Family.RAT_A:
            lam_only = standard_testset(with_x=False)
            checks += [("propcomm", lam_only, ParityData(2, 1), 2), ("intrat", lam_only, ParityData(1, 2), 0)]
        for kind, testset, parity, i in checks:
            rep = diagram_check(kind, family, testset, 0, parity=parity, i=i)
            assert rep.ok, (kind, rep.counterexamples)

    def test_diagram_kinds_guarded(self):
        with pytest.raises(ValueError):
            diagram_check("propcomm", Family.TRIG_A, [], parity=ParityData(1, 1))


class TestDeformedCommutativity:
    def test_deformed_integrals_commute(self):
        # all deformed power-sum monomials of degree <= 5
        from dunklcms.dunkl_infinity import pmono_basis

        for (n, m) in ((2, 1), (1, 2)):
            par = ParityData(n, m)
            hom = Hom(Family.RAT_A, par)
            for mono in pmono_basis(5, 5):
                g = hom.apply(LambdaElem.monomial(mono))
                ab = deformed_integral(par, 2, deformed_integral(par, 3, g))
                ba = deformed_integral(par, 3, deformed_integral(par, 2, g))
                assert ab == ba, mono
