import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklcms.coeffs import ONE, ParamRatio, const, k_power, symbol
from dunklcms.finite_cms import (
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
    _nonzero_at_root,
    standard_testset,
)
from dunklcms.powersums import Family, InexactDivision, LambdaElem, LambdaXElem
from dunklcms.weyl import RatFun

K = symbol("k")


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


#: Every structural factor shape the root test covers, in both index orders:
#: x1 - x0 has the grlex leading term -x0.
ROOT_FACTORS = [
    ("x0 - x1", _fac_diff(3, 0, 1)),
    ("x1 - x0", _fac_diff(3, 1, 0)),
    ("x0 + x2", _fac_sum(3, 0, 2)),
    ("x2 + x0", _fac_sum(3, 2, 0)),
    ("x0 x1 - 1", _fac_prod_minus_1(3, 0, 1)),
    ("1 - x1 x2", -_fac_prod_minus_1(3, 1, 2)),
    ("x1 - 1", _fac_shift(3, 1, -1)),
    ("1 - x1", -_fac_shift(3, 1, -1)),
    ("x2 + 1", _fac_shift(3, 2, 1)),
    ("-x2 - 1", -_fac_shift(3, 2, 1)),
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
    """The root test in ``div_or_none`` against sympy and against its cost bound."""

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
        assert _nonzero_at_root(g.terms, f.terms) == (not divisible)
        q = g.div_or_none(f)
        assert (q is None) == (not divisible)
        if q is not None:
            assert q * f == g

    def test_does_not_apply_to_other_divisors(self):
        x = V(3, 0) * V(3, 0) - C(3, 1)
        two_x = V(3, 0).scale(const(2)) - V(3, 1)
        g = V(3, 2) + C(3, 1)
        assert not _nonzero_at_root(g.terms, x.terms)
        assert not _nonzero_at_root(g.terms, two_x.terms)
        assert g.div_or_none(x) is None and g.div_or_none(two_x) is None

    def test_divisor_with_three_terms(self):
        # the root test stays out of the way, and the long division decides
        f = V(3, 0) + V(3, 1) + C(3, 1)
        g = f * f * V(3, 2)
        miss = g + C(3, 1)
        assert not _nonzero_at_root(g.terms, f.terms)
        assert not _nonzero_at_root(miss.terms, f.terms)
        assert g.div_or_none(f) == f * V(3, 2)
        assert miss.div_or_none(f) is None
        with pytest.raises(InexactDivision):
            miss.exact_div(f)
        r = RatFun(g, {f: 3})
        assert r.num == C(3, 1) * V(3, 2) and r.den == {f: 1}
        r = RatFun(miss, {f: 1})
        assert r.num == miss and r.den == {f: 1}

    def test_rejection_does_no_coefficient_arithmetic(self, monkeypatch):
        # all 120 monomials of degree <= 7 in three variables; at the root
        # x0 = x1 each pure power of x2 is alone in its image monomial, which
        # proves that x0 - x1 does not divide g without any coefficient
        # operation, so a change that loses the shortcut fails here
        n = 3
        terms = {}
        for a in range(8):
            for b in range(8 - a):
                for c in range(8 - a - b):
                    terms[(a, b, c)] = const(1 + a + 2 * b + 3 * c) * K
        g = MultiPoly(n, terms)
        f = _fac_diff(n, 0, 1)
        assert len(g.terms) >= 100
        calls = []

        def counting(name):
            original = getattr(ParamRatio, name)

            def wrapper(self, *other):
                calls.append(name)
                return original(self, *other)
            return wrapper

        for name in ("__mul__", "__truediv__", "__add__", "__sub__", "__neg__"):
            monkeypatch.setattr(ParamRatio, name, counting(name))
        assert g.div_or_none(f) is None
        assert calls == []


class TestFiniteDunkl:
    def test_rational_a_basic_value(self):
        assert finite_dunkl(Family.RAT_A, 2, 0, V(2, 0)) == C(2, ONE - K)

    def test_rational_a_diagram_value(self):
        # D applied to x1^2 at N=3 must match the reduction of the infinite
        # operator on x^2
        N = 3
        hom = Hom(Family.RAT_A, "phi_iN", N=N, i=0)
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

    def test_trig_bc_noncommuting_at_two_variables(self):
        f = V(2, 0, -2) * V(2, 1, -2)
        ab = finite_dunkl(Family.TRIG_BC, 2, 0, finite_dunkl(Family.TRIG_BC, 2, 1, f))
        ba = finite_dunkl(Family.TRIG_BC, 2, 1, finite_dunkl(Family.TRIG_BC, 2, 0, f))
        assert ab != ba


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
        hom = Hom(Family.TRIG_BC, "phi_N", N=2)
        f = hom.apply(LambdaElem.p(2))
        out = heckman_integral(Family.TRIG_BC, 2, 1, f)
        assert is_invariant(Family.TRIG_BC, out)


class TestHoms:
    def test_plain_power_sum(self):
        h = Hom(Family.RAT_A, "phi_N", N=3)
        assert h.apply(LambdaElem.p(2)) == V(3, 0, 2) + V(3, 1, 2) + V(3, 2, 2)

    def test_deformed_with_x(self):
        h = Hom(Family.RAT_A, "phi_inm", parity=ParityData(1, 1), i=0)
        val = h.apply(LambdaXElem.x(1) * LambdaXElem.p(1))
        expected = V(2, 0) * (V(2, 0) + V(2, 1).scale(symbol("k", -1)))
        assert val == expected

    def test_bc_dimension_doubling(self):
        h = Hom(Family.TRIG_BC, "phi_N", N=2)
        assert h.apply(LambdaElem.p(0)) == C(2, 4)

    def test_b_family_squares(self):
        h = Hom(Family.RAT_B, "phi_N", N=2)
        assert h.apply(LambdaElem.p(1)) == V(2, 0, 2) + V(2, 1, 2)

    def test_deformed_bc_rejected(self):
        with pytest.raises(ValueError):
            Hom(Family.TRIG_BC, "phi_nm", parity=ParityData(1, 1))

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
                Hom(Family.RAT_A, "phi_N", N=N).apply(f) for N in range(1, M + 2)
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
        hom = Hom(Family.RAT_A, "phi_nm", parity=par)
        val = deformed_integral(par, 2, hom.apply(LambdaElem.p(2)))
        p0 = ONE + symbol("k", -1)
        expected = C(2, (ONE + K).scale(2) * p0 - K.scale(2) * p0 * p0)
        assert val == expected

    def test_first_integral_kills_constants(self):
        par = ParityData(2, 1)
        assert deformed_integral(par, 1, C(3, 5)).is_zero()


class TestDiagrams:
    @pytest.mark.parametrize("family", list(Family))
    def test_dunkl_reduction_diagram(self, family):
        rep = diagram_check("dcomm", family, standard_testset(family), r=2, N=3, i=0)
        assert rep.ok, rep.counterexamples[0]

    @pytest.mark.parametrize("family", list(Family))
    def test_integral_reduction_diagram(self, family):
        rep = diagram_check(
            "heckdiag", family, standard_testset(family, with_x=False), r=2, N=2
        )
        assert rep.ok, rep.counterexamples[0]

    def test_deformed_recursion_diagram(self):
        rep = diagram_check(
            "propcomm",
            Family.RAT_A,
            standard_testset(Family.RAT_A, with_x=False),
            r=3,
            parity=ParityData(2, 1),
            i=1,
        )
        assert rep.ok

    def test_deformed_integral_diagram(self):
        rep = diagram_check(
            "intrat",
            Family.RAT_A,
            standard_testset(Family.RAT_A, with_x=False),
            r=3,
            parity=ParityData(1, 2),
        )
        assert rep.ok

    def test_diagram_kinds_guarded(self):
        with pytest.raises(ValueError):
            diagram_check("propcomm", Family.TRIG_A, [], parity=ParityData(1, 1))


class TestDeformedCommutativity:
    def test_deformed_integrals_commute(self):
        # all deformed power-sum monomials of degree <= 5
        from dunklcms.dunkl_infinity import pmono_basis

        for (n, m) in ((2, 1), (1, 2)):
            par = ParityData(n, m)
            hom = Hom(Family.RAT_A, "phi_nm", parity=par)
            for mono in pmono_basis(5, 5):
                g = hom.apply(LambdaElem.monomial(mono))
                ab = deformed_integral(par, 2, deformed_integral(par, 3, g))
                ba = deformed_integral(par, 3, deformed_integral(par, 2, g))
                assert ab == ba, mono
