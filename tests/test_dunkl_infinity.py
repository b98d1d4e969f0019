"""Integrals at infinity against their finite-dimensional oracles.

Every derived expected value below is computed first through the independent
finite route (symmetrized powers of the classical Dunkl operators, reduced by
the power-sum substitution) and frozen; the infinite-variable route must then
reproduce it exactly.
"""

import math

import pytest

from dunklcms.coeffs import ParamRatio, const, symbol
from dunklcms.dunkl_infinity import (
    InfDunkl,
    apply_closed_form_L2,
    closed_form_L2,
    commutator_on_basis,
    integral_L,
    pmono_basis,
)
from dunklcms.finite_cms import Hom, MultiPoly, heckman_integral
from dunklcms.powersums import Family, LambdaElem, LambdaXElem

K = symbol("k")
Q = symbol("q")
P = symbol("p")
ONE = ParamRatio.one()
X = LambdaXElem.x
Px = LambdaXElem.p
Pl = LambdaElem.p


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


def _heckman_oracle(family: Family, N: int, r: int, f: LambdaElem) -> MultiPoly:
    hom = Hom(family, "phi_N", N=N)
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
            hom = Hom(Family.RAT_A, "phi_N", N=N)
            assert hom.apply(val) == _heckman_oracle(Family.RAT_A, N, 2, Pl(2))

    def test_trig_a_second_integral_on_p1(self):
        # oracle: finite reduction gives p1 (1 + k - kN)
        val = integral_L(Family.TRIG_A, 2, Pl(1))
        frozen = Pl(1).scale(ONE + K) - (Pl(0) * Pl(1)).scale(K)
        assert val == frozen
        for N in (2, 3):
            hom = Hom(Family.TRIG_A, "phi_N", N=N)
            assert hom.apply(val) == _heckman_oracle(Family.TRIG_A, N, 2, Pl(1))

    def test_rational_b_second_integral_on_p1(self):
        # oracle: finite reduction gives 2N - 4kN(N-1) - 4qN
        val = integral_L(Family.RAT_B, 1, Pl(1))
        frozen = (Pl(0) * Pl(0)).scale(-K.scale(4)) + Pl(0).scale(
            const(2) + K.scale(4) - Q.scale(4)
        )
        assert val == frozen
        for N in (2, 3):
            hom = Hom(Family.RAT_B, "phi_N", N=N)
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
            hom = Hom(Family.TRIG_BC, "phi_N", N=N)
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


def _free_laplacian(f: LambdaElem) -> LambdaElem:
    """Sum over a,b of p_{a+b-2} da db plus sum over a of (a-1) p_{a-2} da."""
    from dunklcms.dunkl_infinity import _derivation

    deg = max(f.degree(), 2)
    out = LambdaElem.zero()
    for a in range(1, deg + 1):
        for b in range(1, deg + 1):
            g = _derivation(_derivation(f, a), b)
            if not g.is_zero():
                out = out + Pl(a + b - 2) * g
    for a in range(2, deg + 1):
        g = _derivation(f, a)
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


class TestCommutatorTable:
    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("case", TABLE_CASES)
    def test_matches_direct_route(self, monkeypatch, case, workers):
        monkeypatch.setenv("DUNKLCMS_WORKERS", workers)
        assert commutator_on_basis(*case) == _commutators_directly(*case)

    @pytest.mark.parametrize("case", [(Family.TRIG_A, 2, 3, 5, 2), (Family.RAT_B, 1, 2, 4, 4)])
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
