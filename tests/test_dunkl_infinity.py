"""Integrals at infinity against their finite-dimensional oracles.

Every derived expected value below is computed first through the independent
finite route (symmetrized powers of the classical Dunkl operators, reduced by
the power-sum substitution) and frozen; the infinite-variable route must then
reproduce it exactly.  The packed D^r kernel of ``InfDunkl.apply`` is checked
against ``apply_by_building_blocks``, the term-by-term composition of the
building blocks in ``reference_ops`` (derivation, difference part,
reflection, exact division by x-polynomials), and ``InfDunkl.integral``,
which runs the trigonometric-BC powers on the inversion-folded half and
projects the packed numerators, against ``reference_ops.project_E`` of
``InfDunkl.apply``.  The packed ``LambdaDiffOp.apply`` of the closed forms is
checked against ``reference_ops.apply_term_by_term``.  The runs at a point,
``InfDunkl(family, bindings)`` and ``commutator_on_basis(..., bindings)``,
are checked against the symbolic results substituted afterwards.
"""

import math
import random

import pytest

from dunklcms import dunkl_infinity
from dunklcms.coeffs import (
    HALF,
    MAX_DEGREE,
    ZERO,
    ExponentOverflow,
    ParamRatio,
    Rat,
    const,
    k_power,
    symbol,
)
from dunklcms.dunkl_infinity import (
    InfDunkl,
    InvalidBinding,
    LambdaDiffOp,
    _table_difference,
    apply_closed_form_L2,
    closed_form_L2,
    commutator_on_basis,
    integral_L,
    pmono_basis,
)
from dunklcms.finite_cms import Hom, MultiPoly, ParityData, heckman_integral
from dunklcms.powersums import (
    Family,
    LambdaElem,
    LambdaXElem,
    UnsupportedFamily,
)

from conftest import count_ratio_operations
from reference_ops import (
    apply_term_by_term,
    delta,
    derivation,
    divide_by_x_poly,
    partial,
    project_E,
    reflect,
)

K = symbol("k")
Q = symbol("q")
P = symbol("p")
ONE = ParamRatio.one()
X = LambdaXElem.x
Px = LambdaXElem.p
Pl = LambdaElem.p


_K_HALF = K * HALF
_P_HALF = P * HALF


def _apply_once_by_building_blocks(family: Family, f: LambdaXElem) -> LambdaXElem:
    out = partial(f, family)
    if family is Family.RAT_A:
        return out - delta(f, family).scale(K)
    if family is Family.TRIG_A:
        return out - delta(f, family).scale(_K_HALF)
    if family is Family.RAT_B:
        out = out - delta(f, family).scale(K.scale(2))
        g = f - reflect(f, family)
        if not g.is_zero():
            out = out - divide_by_x_poly(g, {1: 1}).scale(Q)
        return out
    # TRIG_BC
    out = out - delta(f, family).scale(_K_HALF)
    g = f - reflect(f, family)
    if not g.is_zero():
        h1 = divide_by_x_poly(g, {1: 1, 0: -1})
        h1 = h1 * X(1) + h1  # multiply by (x + 1)
        out = out - h1.scale(_P_HALF)
        h2 = divide_by_x_poly(g, {2: 1, 0: -1})
        h2 = h2 * X(2) + h2  # multiply by (x^2 + 1)
        out = out - h2.scale(Q)
    return out


def apply_by_building_blocks(family: Family, f: LambdaXElem, r: int = 1) -> LambdaXElem:
    """D^r f composed from the ``reference_ops`` building blocks term by term: the
    derivation, the difference part, the reflection and the exact divisions
    by x, x - 1 and x^2 - 1, with a canonical coefficient for every term of
    every intermediate result.  The reference route of ``InfDunkl.apply``."""
    for _ in range(r):
        f = _apply_once_by_building_blocks(family, f)
    return f


class TestApplyD:
    def test_rational_a_on_x(self):
        # expand: d(x) = 1, difference part on x gives p0 - 1
        expected = LambdaXElem.one() + (Px(0) - LambdaXElem.one()).scale(-K)
        assert InfDunkl(Family.RAT_A).apply(X(1)) == expected

    def test_rational_a_on_power_sum(self):
        assert InfDunkl(Family.RAT_A).apply(Px(2)) == X(1).scale(const(2))

    def test_rational_b_reflection_term_vanishes_on_power_sums(self):
        assert InfDunkl(Family.RAT_B).apply(Px(1)) == X(1).scale(const(2))

    def test_parity_flip_rational_b(self):
        # the B operator swaps even and odd x-powers
        op = InfDunkl(Family.RAT_B)
        for f in (Px(1), Px(2), X(2) * Px(1)):
            g = op.apply(f)
            assert all(a % 2 == 1 for (a, _m) in g.terms)

    @pytest.mark.parametrize("family", list(Family))
    def test_order_zero_is_the_identity_and_a_negative_order_raises(self, family):
        op = InfDunkl(family)
        f = X(1) * Px(2)
        assert op.apply(f, 0) == f
        with pytest.raises(ValueError):
            op.apply(f, -1)
        with pytest.raises(ValueError):
            op.integral(-1, LambdaElem.p(2))


def _random_element(rng: random.Random, family: Family, nterms: int) -> LambdaXElem:
    """Terms x^a m with m of degree <= 3, a p_0 factor now and then, and
    coefficients with denominators 2, k and k^2."""
    lo = -3 if family.laurent else 0
    basis = pmono_basis(3, 3)
    coeffs = [HALF, k_power(-1), k_power(-2), P, Q, const(3), -K.scale(2), ONE + k_power(-1)]
    terms = {}
    for _ in range(nterms):
        m = rng.choice(basis)
        if rng.random() < 0.3:
            m = ((0, rng.randint(1, 2)),) + m
        terms[(rng.randint(lo, 3), m)] = rng.choice(coeffs) * rng.choice(coeffs)
    return LambdaXElem(terms)


class TestPackedKernel:
    """``InfDunkl.apply`` against the term-by-term route."""

    @pytest.mark.parametrize("family", list(Family))
    def test_powers_on_the_basis(self, family):
        op = InfDunkl(family)
        for m in pmono_basis(5, 5) + [((0, 1), (2, 1)), ((0, 2), (1, 1), (3, 1))]:
            f = LambdaXElem.from_lambda(LambdaElem.monomial(m))
            g = f
            for r in range(1, 7):
                g = apply_by_building_blocks(family, g)
                # ParamRatio equality compares the canonical fields
                assert op.apply(f, r) == g, (m, r)

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_laurent_inputs(self, family, seed):
        rng = random.Random(seed)
        op = InfDunkl(family)
        for _ in range(6):
            f = _random_element(rng, family, rng.randint(1, 5))
            for r in (1, 2, 3):
                assert op.apply(f, r) == apply_by_building_blocks(family, f, r)

    def test_odd_powers_of_x_in_rational_b(self):
        # the reflection term -2q x^(a-1) of an odd power
        assert InfDunkl(Family.RAT_B).apply(X(1)) == apply_by_building_blocks(Family.RAT_B, X(1))
        assert InfDunkl(Family.RAT_B).apply(X(3) * Px(0)) == \
            apply_by_building_blocks(Family.RAT_B, X(3) * Px(0))

    @pytest.mark.parametrize("family", list(Family))
    def test_no_coefficient_arithmetic(self, family, monkeypatch):
        inputs = [_random_element(random.Random(seed), family, 5) for seed in range(4)]
        calls = count_ratio_operations(
            monkeypatch, ("__add__", "__sub__", "__mul__", "__neg__", "scale"))
        for f in inputs:
            InfDunkl(family).apply(f, 3)
        assert calls == []

    @pytest.mark.parametrize("family", [Family.RAT_A, Family.TRIG_A, Family.RAT_B])
    def test_laurent_element_in_a_polynomial_family(self, family):
        # the element holds x^-1 as it is; the family's operator refuses it
        for f in (X(-1), X(-1) * Px(1) + Px(2)):
            with pytest.raises(UnsupportedFamily):
                InfDunkl(family).apply(f)

    def test_laurent_element_in_trig_bc(self):
        for f in (X(-1), X(-1) * Px(1) + Px(2)):
            assert InfDunkl(Family.TRIG_BC).apply(f) == apply_by_building_blocks(Family.TRIG_BC, f)

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("name", ["k", "p", "q"])
    def test_exponent_overflow_where_the_reference_raises(self, family, name):
        raised = 0
        for r in (1, 2):
            c = symbol(name, MAX_DEGREE + 1 - r)
            for a in ((-2, -1, 0, 1, 2) if family.laurent else (0, 1, 2)):
                for m in ((), ((1, 1),), ((0, 1), (2, 1))):
                    f = LambdaXElem({(a, m): c})
                    try:
                        expected = apply_by_building_blocks(family, f, r)
                    except ExponentOverflow:
                        with pytest.raises(ExponentOverflow):
                            InfDunkl(family).apply(f, r)
                        raised += 1
                    else:
                        assert InfDunkl(family).apply(f, r) == expected
        # k enters through the difference part, p and q through the reflections
        reflected = {"p": family is Family.TRIG_BC,
                     "q": family in (Family.RAT_B, Family.TRIG_BC)}
        assert bool(raised) == reflected.get(name, True)

    def test_shared_k_denominator_past_max_degree(self):
        # over the shared denominator k^2, k^(MAX_DEGREE - 1) x would need k^(MAX_DEGREE + 1)
        f = LambdaXElem({(1, ()): k_power(MAX_DEGREE - 1), (2, ()): k_power(-2)})
        with pytest.raises(ExponentOverflow):
            InfDunkl(Family.RAT_A).apply(f)
        g = LambdaXElem({(1, ()): k_power(MAX_DEGREE - 3), (2, ()): k_power(-2)})
        assert InfDunkl(Family.RAT_A).apply(g) == apply_by_building_blocks(Family.RAT_A, g)


def _integral_by_apply(family: Family, r: int, f: LambdaElem) -> LambdaElem:
    """E . D^power f through ``InfDunkl.apply`` on the whole element and
    ``project_E``: the reference route of ``InfDunkl.integral``."""
    power = 2 * r if family.even_integrals else r
    return project_E(InfDunkl(family).apply(LambdaXElem.from_lambda(f), power), family)


def _inverted(f: LambdaXElem) -> LambdaXElem:
    """s f for the inversion s: x -> 1/x."""
    return LambdaXElem({(-a, m): c for (a, m), c in f.terms.items()})


def _kernel_calls(monkeypatch) -> list:
    """Record the number of terms of every call of the packed kernel."""
    calls = []
    real = dunkl_infinity._apply_packed

    def counting(terms, *args):
        calls.append(len(terms))
        return real(terms, *args)

    monkeypatch.setattr(dunkl_infinity, "_apply_packed", counting)
    return calls


class TestFoldedIntegral:
    """``InfDunkl.integral`` against ``project_E`` of ``InfDunkl.apply``."""

    def test_powers_alternate_in_symmetry_under_inversion(self):
        # the premise of the folded half: D anticommutes with s
        op = InfDunkl(Family.TRIG_BC)
        for m in pmono_basis(4, 4):
            g = LambdaXElem.from_lambda(LambdaElem.monomial(m))
            for j in range(1, 7):
                g = op.apply(g)
                sign = const((-1) ** j)
                assert _inverted(g) == g.scale(sign), (m, j)
                if j % 2:
                    assert all(a for a, _m in g.terms)

    @pytest.mark.parametrize("family", list(Family))
    def test_matches_the_reference_route_on_the_basis(self, family):
        op = InfDunkl(family)
        for m in pmono_basis(6, 6) + [((0, 1), (2, 1))]:
            f = LambdaElem.monomial(m)
            for r in (1, 2, 3):
                assert op.integral(r, f) == _integral_by_apply(family, r, f), (m, r)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_elements(self, seed):
        rng = random.Random(seed)
        basis = pmono_basis(4, 4)
        coeffs = [HALF, k_power(-1), P, Q, const(3), -K, ONE + k_power(-1)]
        op = InfDunkl(Family.TRIG_BC)
        for _ in range(4):
            terms = {}
            for _ in range(rng.randint(1, 5)):
                m = rng.choice(basis)
                if rng.random() < 0.3:
                    m = ((0, rng.randint(1, 2)),) + m
                terms[m] = rng.choice(coeffs) * rng.choice(coeffs)
            f = LambdaElem(terms)
            for r in (1, 2, 3):
                assert op.integral(r, f) == _integral_by_apply(Family.TRIG_BC, r, f)

    @pytest.mark.parametrize("name", ["k", "p", "q"])
    def test_exponent_overflow_at_the_same_application(self, name, monkeypatch):
        calls = _kernel_calls(monkeypatch)
        op = InfDunkl(Family.TRIG_BC)
        outcomes = set()
        for r in (1, 2):
            for t in range(1, 2 * r + 2):
                c = symbol(name, MAX_DEGREE + 1 - t)
                for m in ((), ((1, 1),), ((0, 1), (2, 1)), ((1, 1), (3, 1))):
                    f = LambdaElem.monomial(m, c)
                    del calls[:]
                    try:
                        expected = _integral_by_apply(Family.TRIG_BC, r, f)
                    except ExponentOverflow:
                        raised_at = len(calls)
                        del calls[:]
                        with pytest.raises(ExponentOverflow):
                            op.integral(r, f)
                        assert len(calls) == raised_at, (r, t, m)
                        outcomes.add("raised")
                    else:
                        assert op.integral(r, f) == expected
                        outcomes.add("equal")
        assert outcomes == {"raised", "equal"}

    @pytest.mark.parametrize("family", list(Family))
    def test_no_coefficient_arithmetic_on_the_basis(self, family, monkeypatch):
        # the work gate of ``integral`` on its own: no ParamRatio arithmetic,
        # and one canonical form per output monomial at most
        calls = count_ratio_operations(
            monkeypatch, ("__add__", "__sub__", "__mul__", "__neg__", "scale"))
        canonical = []
        real = dunkl_infinity._canonical
        monkeypatch.setattr(dunkl_infinity, "_canonical", lambda *a: canonical.append(a) or real(*a))
        op = InfDunkl(family)
        for m in pmono_basis(6, 6):
            for r in (1, 2, 3):
                del canonical[:]
                g = op.integral(r, LambdaElem.monomial(m))
                assert len(canonical) <= len(g.terms), (m, r)
        assert calls == []


def _heckman_oracle(family: Family, N: int, r: int, f: LambdaElem) -> MultiPoly:
    hom = Hom(family, ParityData(N, 0))
    return heckman_integral(family, N, r, hom.apply(f))


class TestIntegralValues:
    def test_rational_a_second_integral_kills_p1(self):
        assert integral_L(Family.RAT_A, 2, Pl(1)).is_zero()

    def test_rational_a_second_integral_on_p2(self):
        # oracle: finite reduction gives 2N - 2kN(N-1); frozen infinite form
        # -2k p0^2 + 2(1+k) p0 reproduces it under p0 -> N
        val = integral_L(Family.RAT_A, 2, Pl(2))
        frozen = (Pl(0) * Pl(0)).scale(-K.scale(2)) + Pl(0).scale((ONE + K).scale(2))
        assert val == frozen
        for N in (2, 3, 4):
            hom = Hom(Family.RAT_A, ParityData(N, 0))
            assert hom.apply(val) == _heckman_oracle(Family.RAT_A, N, 2, Pl(2))

    def test_trig_a_second_integral_on_p1(self):
        # oracle: finite reduction gives p1 (1 + k - kN)
        val = integral_L(Family.TRIG_A, 2, Pl(1))
        frozen = Pl(1).scale(ONE + K) - (Pl(0) * Pl(1)).scale(K)
        assert val == frozen
        for N in (2, 3):
            hom = Hom(Family.TRIG_A, ParityData(N, 0))
            assert hom.apply(val) == _heckman_oracle(Family.TRIG_A, N, 2, Pl(1))

    def test_rational_b_second_integral_on_p1(self):
        # oracle: finite reduction gives 2N - 4kN(N-1) - 4qN
        val = integral_L(Family.RAT_B, 1, Pl(1))
        frozen = (Pl(0) * Pl(0)).scale(-K.scale(4)) + Pl(0).scale(
            const(2) + K.scale(4) - Q.scale(4)
        )
        assert val == frozen
        for N in (2, 3):
            hom = Hom(Family.RAT_B, ParityData(N, 0))
            assert hom.apply(val) == _heckman_oracle(Family.RAT_B, N, 1, Pl(1))

    def test_trig_bc_second_integral_on_p1(self):
        # oracle: twice the finite reduction (the projection counts both signs
        # of each power); the frozen form was derived by expanding E.D^2
        val = integral_L(Family.TRIG_BC, 1, Pl(1))
        frozen = (
            Pl(1).scale(const(2) + K.scale(4) - P.scale(2) - Q.scale(4))
            - (Pl(0) * Pl(1)).scale(K.scale(2))
            - Pl(0).scale(P.scale(2))
        )
        assert val == frozen
        for N in (2, 3):
            hom = Hom(Family.TRIG_BC, ParityData(N, 0))
            assert hom.apply(val) == _heckman_oracle(Family.TRIG_BC, N, 1, Pl(1)).scale(const(2))


class TestClosedForm:
    @pytest.mark.parametrize("family", list(Family))
    def test_agrees_with_projected_powers(self, family):
        r = 1 if family.even_integrals else 2
        for m in pmono_basis(5, 5):
            f = LambdaElem.monomial(m)
            assert (apply_closed_form_L2(family, f) - integral_L(family, r, f)).is_zero()

    def test_trig_a_annihilates_constants(self):
        assert apply_closed_form_L2(Family.TRIG_A, LambdaElem.one()).is_zero()

    def test_text_rendering(self):
        op = closed_form_L2(Family.RAT_A, 2)
        text = op.text()
        assert "D[2]" in text and "p0" in text

    def test_rational_a_kzero_freezes_to_free_laplacian(self):
        # at k=0 only the pure second-derivative and lowering terms survive
        zero_k = {"k": const(0)}
        for m in pmono_basis(5, 5):
            f = LambdaElem.monomial(m)
            val = integral_L(Family.RAT_A, 2, f).substitute(zero_k)
            assert val == _free_laplacian(f)


def _packed_inputs(rng: random.Random, terms: int) -> LambdaElem:
    """Sums of monomials of degree <= 6, with p_0 factors now and then, and
    coefficients with denominators 3, 2 and k^2."""
    basis = pmono_basis(6, 6)
    coeffs = [(ONE + K) * ParamRatio.fraction(1, 3), k_power(-2), P * HALF, Q, const(-5),
              ONE + k_power(-1)]
    out = {}
    for _ in range(terms):
        m = rng.choice(basis)
        if rng.random() < 0.4:
            m = ((0, rng.randint(1, 2)),) + m
        out[m] = rng.choice(coeffs) * rng.choice(coeffs)
    return LambdaElem(out)


class TestPackedDiffOp:
    """``LambdaDiffOp.apply`` against ``reference_ops.apply_term_by_term``."""

    @pytest.mark.parametrize("family", list(Family))
    def test_closed_form_on_the_basis(self, family):
        op = closed_form_L2(family, 6)
        for m in pmono_basis(6, 6):
            f = LambdaElem.monomial(m)
            assert op.apply(f) == apply_term_by_term(op, f), m

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("seed", [1, 2])
    def test_multi_term_inputs(self, family, seed):
        rng = random.Random(seed)
        op = closed_form_L2(family, 6)
        for _ in range(5):
            f = _packed_inputs(rng, rng.randint(2, 5))
            assert op.apply(f) == apply_term_by_term(op, f)

    def test_fractional_operator_coefficients(self):
        # denominators 3, 2 and k^2 on the operator's side too; an empty
        # derivation tuple, and index 0, whose derivation a * d/dp_0 vanishes
        op = LambdaDiffOp({
            (((0, 1),), (1,)): (ONE + K) * ParamRatio.fraction(1, 3),
            (((2, 1),), (1, 1)): k_power(-2),
            ((), (2, 3)): P * HALF,
            (((1, 1),), ()): Q * k_power(-1),
            ((), (0,)): ONE,
        })
        rng = random.Random(5)
        inputs = [LambdaElem.zero(), LambdaElem.one()] + [_packed_inputs(rng, 4) for _ in range(6)]
        for f in inputs:
            assert op.apply(f) == apply_term_by_term(op, f)

    @pytest.mark.parametrize("family", list(Family))
    def test_zero_and_one(self, family):
        op = closed_form_L2(family, 6)
        assert op.apply(LambdaElem.zero()) == LambdaElem.zero()
        assert op.apply(LambdaElem.one()) == apply_term_by_term(op, LambdaElem.one())

    def test_shared_k_denominator_past_max_degree(self):
        op = LambdaDiffOp({(((0, 1),), (1,)): k_power(-300)})
        at_limit = LambdaElem.monomial(((1, 2),), k_power(300 - MAX_DEGREE))
        assert op.apply(at_limit) == apply_term_by_term(op, at_limit)
        past = LambdaElem.monomial(((1, 2),), k_power(299 - MAX_DEGREE))
        with pytest.raises(ExponentOverflow):
            op.apply(past)
        # over the operator's shared denominator k^2, k^(MAX_DEGREE - 1)
        # would need k^(MAX_DEGREE + 1)
        with pytest.raises(ExponentOverflow):
            LambdaDiffOp({((), (1,)): k_power(-2), ((), (2,)): k_power(MAX_DEGREE - 1)})

    def test_no_coefficient_arithmetic(self, monkeypatch):
        # the work gate: no ParamRatio product or sum, and one canonical
        # form per output monomial at most
        op = closed_form_L2(Family.TRIG_BC, 8)
        inputs = [LambdaElem.monomial(m) for m in pmono_basis(8, 8)]
        calls = count_ratio_operations(monkeypatch, ("__mul__", "__add__"))
        canonical = []
        real = dunkl_infinity._canonical

        def counting(*args):
            canonical.append(args)
            return real(*args)

        monkeypatch.setattr(dunkl_infinity, "_canonical", counting)
        for f in inputs:
            del canonical[:]
            g = op.apply(f)
            assert len(canonical) <= len(g.terms), f
        assert calls == []


def _free_laplacian(f: LambdaElem) -> LambdaElem:
    """Sum over a,b of p_{a+b-2} da db plus sum over a of (a-1) p_{a-2} da."""
    deg = max(f.degree(), 2)
    out = LambdaElem.zero()
    for a in range(1, deg + 1):
        for b in range(1, deg + 1):
            g = derivation(derivation(f, a), b)
            if not g.is_zero():
                out = out + Pl(a + b - 2) * g
    for a in range(2, deg + 1):
        g = derivation(f, a)
        if not g.is_zero():
            out = out + Pl(a - 2).scale(const(a - 1)) * g
    return out


class TestStructure:
    def test_degree_shift(self):
        # the second integral lowers degree by 2 in the rational A family and
        # preserves it in the trigonometric A family
        for m in pmono_basis(6, 6):
            if not m:
                continue
            f = LambdaElem.monomial(m)
            d = sum(i * e for i, e in m)
            ra = integral_L(Family.RAT_A, 2, f)
            if not ra.is_zero():
                assert ra.degree() == d - 2
            ta = integral_L(Family.TRIG_A, 2, f)
            if not ta.is_zero():
                assert ta.degree() == d

    def test_differential_order_bound(self):
        # iterated commutators with multiplication by p1 kill E.D^r after r+1
        # steps, the operator-order argument behind the finite order claim
        for family, r in ((Family.RAT_A, 2), (Family.RAT_A, 3), (Family.TRIG_A, 2)):
            op = InfDunkl(family)
            p1 = Pl(1)
            for m in pmono_basis(3, 3):
                g = LambdaElem.monomial(m)
                total = LambdaElem.zero()
                for j in range(r + 2):
                    sign = const((-1) ** j * math.comb(r + 1, j))
                    term = op.integral(r, _pow(p1, r + 1 - j) * g)
                    total = total + (_pow(p1, j) * term).scale(sign)
                assert total.is_zero()

    def test_p0_linearity(self):
        op = InfDunkl(Family.RAT_B)
        f = Pl(2) * Pl(1)
        lhs = op.integral(1, Pl(0) * f)
        rhs = Pl(0) * op.integral(1, f)
        assert lhs == rhs


def _pow(f: LambdaElem, n: int) -> LambdaElem:
    out = LambdaElem.one()
    for _ in range(n):
        out = out * f
    return out


class TestCommutators:
    def test_self_commutator_is_trivial(self):
        for m, res in commutator_on_basis(Family.RAT_A, 2, 2, 4, 4):
            assert res.is_zero()

    def test_pwindow_restricts_basis(self):
        basis = pmono_basis(4, 2)
        assert all(i <= 2 for m in basis for i, _e in m)
        assert ((1, 2), (2, 1)) in basis  # p1^2 p2 has degree 4
        results = commutator_on_basis(Family.RAT_A, 2, 3, 4, 2)
        assert [m for m, _res in results] == basis

    @pytest.mark.parametrize(
        "family,r,s,deg",
        [
            (Family.RAT_A, 2, 3, 4),
            (Family.TRIG_A, 2, 3, 4),
            (Family.RAT_B, 1, 2, 3),
            (Family.TRIG_BC, 1, 2, 3),
        ],
    )
    def test_integrals_commute(self, family, r, s, deg):
        for m, res in commutator_on_basis(family, r, s, deg, deg):
            assert res.is_zero(), m


def _commutators_directly(family, r, s, deg, pwindow):
    """The per-monomial oracle: both products by applying each integral in turn."""
    op = InfDunkl(family)
    out = []
    for m in pmono_basis(deg, pwindow):
        f = LambdaElem.monomial(m)
        out.append((m, op.integral(s, op.integral(r, f)) - op.integral(r, op.integral(s, f))))
    return out


#: (family, r, s, deg, pwindow); the trigonometric cases with pwindow < deg
#: reach monomials outside the basis, which the table fills in a second phase
TABLE_CASES = [
    (Family.RAT_A, 2, 3, 5, 5),
    (Family.TRIG_A, 2, 3, 5, 5),
    (Family.RAT_B, 1, 3, 4, 4),
    (Family.TRIG_BC, 1, 3, 4, 4),
    (Family.TRIG_A, 2, 3, 5, 2),
    (Family.TRIG_BC, 1, 2, 4, 2),
]


def _apply_by_table_per_pair(table: dict, r: int, f: LambdaElem) -> LambdaElem:
    """L^(r) f term by term: c p_0^j times the image of m, for each term
    c p_0^j m of f, in the ring of LambdaElem."""
    out = LambdaElem.zero()
    for m, c in f.terms.items():
        j, rest = (m[0][1], m[1:]) if m and m[0][0] == 0 else (0, m)
        out = out + (LambdaElem.monomial(((0, j),) if j else (), c) * table[(r, rest)])
    return out


class TestCommutatorTable:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_table_products_match_the_per_pair_route(self, seed):
        rng = random.Random(seed)
        basis = pmono_basis(3, 3)
        coeffs = [HALF, k_power(-1), k_power(-2), P, Q, const(3), -K.scale(2), ONE + k_power(-1)]

        def element(monomials):
            return LambdaElem({m: rng.choice(coeffs) * rng.choice(coeffs)
                               for m in rng.sample(monomials, 3)})

        with_p0 = basis + [((0, 1),) + m for m in basis] + [((0, 2),) + m for m in basis]
        table = {(t, m): element(with_p0) for t in (2, 3) for m in basis}
        zero = LambdaElem.zero()
        for _ in range(5):
            f, g = element(with_p0), element(with_p0)
            assert _table_difference(table, 2, f, 3, g) == \
                _apply_by_table_per_pair(table, 2, f) - _apply_by_table_per_pair(table, 3, g)
            assert _table_difference(table, 2, f, 3, zero) == _apply_by_table_per_pair(table, 2, f)
            assert _table_difference(table, 2, zero, 3, g) == -_apply_by_table_per_pair(table, 3, g)
            assert _table_difference(table, 3, f, 3, f) == zero

    def test_table_product_exponent_overflow(self):
        table = {(1, ((1, 1),)): LambdaElem.monomial(((2, 1),), K ** 300)}
        f = LambdaElem.monomial(((1, 1),), K ** (MAX_DEGREE - 300))
        zero = LambdaElem.zero()
        assert _table_difference(table, 1, f, 1, zero) == \
            LambdaElem.monomial(((2, 1),), K ** MAX_DEGREE)
        assert _table_difference(table, 1, zero, 1, f) == \
            LambdaElem.monomial(((2, 1),), -K ** MAX_DEGREE)
        with pytest.raises(ExponentOverflow):
            _table_difference(table, 1, f.scale(K), 1, zero)
        with pytest.raises(ExponentOverflow):
            _table_difference(table, 1, zero, 1, f.scale(K))

    def test_residual_that_cancels_makes_no_canonical_form(self, monkeypatch):
        table = {(t, m): integral_L(Family.TRIG_BC, t, LambdaElem.monomial(m))
                 for t in (1, 2) for m in pmono_basis(3, 3)}
        f = table[(1, ((1, 1), (2, 1)))] * Pl(0)
        calls = []
        real = dunkl_infinity._canonical
        monkeypatch.setattr(dunkl_infinity, "_canonical", lambda *a: calls.append(a) or real(*a))
        assert _table_difference(table, 2, f, 2, f).is_zero()
        assert calls == []

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("case", TABLE_CASES)
    def test_matches_direct_route(self, monkeypatch, case, workers):
        monkeypatch.setenv("DUNKLCMS_WORKERS", workers)
        assert commutator_on_basis(*case) == _commutators_directly(*case)

    @pytest.mark.parametrize("case", [(Family.TRIG_A, 2, 3, 5, 2), (Family.RAT_B, 1, 2, 4, 4),
                                      (Family.TRIG_BC, 1, 2, 4, 4)])
    def test_matches_direct_route_on_nonzero_residuals(self, monkeypatch, case):
        # L^(r) + p1 still commutes with p0, but no longer with L^(s)
        family, r = case[0], case[1]
        real = InfDunkl.integral

        def shifted(self, t, f):
            out = real(self, t, f)
            return out + Pl(1) * f if t == r else out

        monkeypatch.setattr(InfDunkl, "integral", shifted)
        monkeypatch.delenv("DUNKLCMS_WORKERS", raising=False)
        table = commutator_on_basis(*case)
        assert table == _commutators_directly(*case)
        assert sum(not res.is_zero() for _m, res in table) > len(table) // 2

    def test_each_integral_applied_once_per_table_key(self, monkeypatch):
        calls = []
        real = InfDunkl.integral

        def counting(self, r, f):
            calls.append((r, tuple(f.terms)))
            return real(self, r, f)

        monkeypatch.setattr(InfDunkl, "integral", counting)
        monkeypatch.delenv("DUNKLCMS_WORKERS", raising=False)
        commutator_on_basis(Family.TRIG_BC, 1, 3, 4, 4)
        # 12 basis monomials, two integrals, nothing outside the basis reached
        assert len(calls) == len(set(calls)) == 24

    def test_work_stays_bounded(self, monkeypatch):
        # the trigonometric-BC integrals on the folded half, and each residual
        # in one accumulator; unfolded, with two products and a subtraction
        # per residual, the same call makes 1,782 keys and 2,444 forms
        keys = _kernel_calls(monkeypatch)
        forms = []
        real = dunkl_infinity._canonical
        monkeypatch.setattr(dunkl_infinity, "_canonical", lambda *a: forms.append(a) or real(*a))
        monkeypatch.delenv("DUNKLCMS_WORKERS", raising=False)
        results = commutator_on_basis(Family.TRIG_BC, 1, 3, 4, 4)
        assert all(res.is_zero() for _m, res in results)
        assert sum(keys) <= 1002
        assert len(forms) <= 496

    def test_work_at_a_point_stays_bounded(self, monkeypatch):
        # at a sampled point every table coefficient is a one-term numerator;
        # computed symbolically and substituted afterwards, the same residuals
        # take 99,640 term pairs and the same 496 forms
        pairs, forms = [], []
        real_product, real_form = dunkl_infinity._add_product, dunkl_infinity._canonical

        def counting(out, key, n1, n2):
            n1, n2 = list(n1), list(n2)
            pairs.append(len(n1) * len(n2))
            return real_product(out, key, n1, n2)

        monkeypatch.setattr(dunkl_infinity, "_add_product", counting)
        monkeypatch.setattr(dunkl_infinity, "_canonical", lambda *a: forms.append(a) or real_form(*a))
        monkeypatch.delenv("DUNKLCMS_WORKERS", raising=False)
        results = commutator_on_basis(Family.TRIG_BC, 1, 3, 4, 4, _sampled_point(Family.TRIG_BC, 1))
        assert all(res.is_zero() for _m, res in results)
        assert sum(pairs) <= 4803
        assert len(forms) <= 496


def _sampled_point(family: Family, seed: int) -> dict:
    """Seeded rational values of the family's parameters, drawn as the CLI's
    sampled mode draws them."""
    rng = random.Random(seed)
    return {name: const(Rat(rng.randint(2, 10 ** 6), rng.randint(1, 97))) for name in family.symbols}


#: (family, bindings): sampled points, partial bindings, k = 0 and a negative k
POINTS = [
    *[(family, _sampled_point(family, seed)) for family in Family for seed in (0, 1)],
    (Family.RAT_B, {"k": const(Rat(3, 2))}),
    (Family.RAT_B, {"q": const(Rat(-4, 9))}),
    (Family.TRIG_BC, {"k": const(Rat(3, 2))}),
    (Family.TRIG_BC, {"p": const(Rat(-1, 3)), "q": const(Rat(5, 7))}),
    (Family.TRIG_BC, {"q": const(2)}),
    *[(family, {"k": ZERO}) for family in Family],
    *[(family, {"k": const(Rat(-5, 3))}) for family in Family],
    (Family.TRIG_BC, {"k": const(-2), "p": const(Rat(7, 4)), "q": ZERO}),
]


def _point_id(point) -> str:
    family, bindings = point
    return "%s-%s" % (family.value, ",".join("%s=%s" % (n, v.text()) for n, v in sorted(bindings.items())))


def _coefficients(bindings: dict) -> list:
    """Coefficients for random elements; a k-denominator only where k is not 0."""
    out = [HALF, P, Q, K, const(3), -K.scale(2), P * Q.scale(3)]
    return out if bindings.get("k") == ZERO else out + [ONE + k_power(-1), k_power(-2)]


#: the commutator of each family at a point: (r, s, deg, pwindow)
POINT_CASES = {Family.RAT_A: (2, 3, 4, 4), Family.TRIG_A: (2, 3, 4, 2),
               Family.RAT_B: (1, 2, 4, 4), Family.TRIG_BC: (1, 2, 3, 2)}


class TestAtPoint:
    """``InfDunkl(family, bindings)`` and ``commutator_on_basis(..., bindings)``
    against the symbolic results substituted afterwards."""

    @pytest.mark.parametrize("point", POINTS, ids=_point_id)
    def test_apply_matches_the_substituted_symbolic_result(self, point):
        family, bindings = point
        rng = random.Random(str(point))
        coefficients = _coefficients(bindings)
        exponents = range(-2, 4) if family.laurent else range(4)
        monomials = pmono_basis(2, 2) + [((0, 1),), ((0, 1), (2, 1))]
        at_point, symbolic = InfDunkl(family, bindings), InfDunkl(family)
        for r in (1, 2, 3):
            f = LambdaXElem({(rng.choice(exponents), rng.choice(monomials)): rng.choice(coefficients)
                             for _ in range(3)})
            assert at_point.apply(f, r) == symbolic.apply(f, r).substitute(bindings)

    @pytest.mark.parametrize("point", POINTS, ids=_point_id)
    def test_integral_matches_the_substituted_symbolic_result(self, point):
        # for trigonometric BC on the folded half
        family, bindings = point
        rng = random.Random(str(point))
        coefficients = _coefficients(bindings)
        monomials = pmono_basis(3, 3)
        at_point, symbolic = InfDunkl(family, bindings), InfDunkl(family)
        elements = [LambdaElem.monomial(m) for m in monomials[1:6]]
        elements.append(LambdaElem({((0, 1),) + m: rng.choice(coefficients) for m in monomials[4:7]}))
        for r in (1, 2):
            for f in elements:
                expected = symbolic.integral(r, f).substitute(bindings)
                assert at_point.integral(r, f) == expected
                assert integral_L(family, r, f, bindings) == expected

    @pytest.mark.parametrize("workers", [None, "2"])
    @pytest.mark.parametrize("point", POINTS, ids=_point_id)
    def test_commutator_matches_the_substituted_residuals(self, monkeypatch, point, workers):
        family, bindings = point
        case = (family, *POINT_CASES[family])
        if workers is None:
            monkeypatch.delenv("DUNKLCMS_WORKERS", raising=False)
        else:
            monkeypatch.setenv("DUNKLCMS_WORKERS", workers)
        expected = [(m, res.substitute(bindings)) for m, res in commutator_on_basis(*case)]
        assert commutator_on_basis(*case, bindings) == expected
        # L^(r) + p1 no longer commutes with L^(s): nonzero residuals
        real, r = InfDunkl.integral, case[1]

        def shifted(self, t, f):
            out = real(self, t, f)
            return out + Pl(1) * f if t == r else out

        monkeypatch.setattr(InfDunkl, "integral", shifted)
        expected = [(m, res.substitute(bindings)) for m, res in commutator_on_basis(*case)]
        assert commutator_on_basis(*case, bindings) == expected
        assert sum(not res.is_zero() for _m, res in expected) > len(expected) // 2

    def test_closed_form_at_a_point(self):
        for family, bindings in POINTS:
            op = closed_form_L2(family, 4)
            for m in pmono_basis(4, 4)[1:8]:
                f = LambdaElem.monomial(m)
                assert op.substitute(bindings).apply(f) == op.apply(f).substitute(bindings)

    @pytest.mark.parametrize("bindings", [
        {"r": const(2)}, {"s": 1}, {"x": Rat(1, 2)},
        {"k": 0.5}, {"k": "3/2"}, {"k": K}, {"k": k_power(-1)}, {"q": ONE + P}, {"p": None},
    ])
    def test_bad_binding_is_refused(self, bindings):
        f = LambdaElem.p(2)
        with pytest.raises(InvalidBinding):
            InfDunkl(Family.TRIG_BC, bindings)
        with pytest.raises(InvalidBinding):
            integral_L(Family.RAT_A, 2, f, bindings)
        with pytest.raises(InvalidBinding):
            commutator_on_basis(Family.TRIG_A, 1, 2, 2, 2, bindings)
        with pytest.raises(InvalidBinding):
            closed_form_L2(Family.RAT_B, 2).substitute(bindings)

    def test_int_rat_and_constant_bindings_agree(self):
        f = LambdaElem.monomial(((1, 1), (2, 1)))
        expected = integral_L(Family.TRIG_BC, 1, f).substitute({"k": const(-3), "p": const(Rat(1, 2))})
        for k, p in ((-3, Rat(1, 2)), (const(-3), const(Rat(1, 2))), (Rat(-3), HALF)):
            assert integral_L(Family.TRIG_BC, 1, f, {"k": k, "p": p}) == expected
