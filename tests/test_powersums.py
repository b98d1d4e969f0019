import random

import pytest

from dunklcms.coeffs import ParamRatio, const
from dunklcms.powersums import (
    Family,
    InexactDivision,
    LambdaElem,
    LambdaXElem,
    UnsupportedFamily,
    pmono,
)

from reference_ops import delta, divide_by_x_poly, partial, project_E, reflect

X = LambdaXElem.x
P = LambdaXElem.p
ONE = ParamRatio.one()


def lam(fam):
    return fam.laurent


def random_element(rng: random.Random, fam: Family, nterms=3) -> LambdaXElem:
    out = LambdaXElem.zero(fam.laurent)
    lo = -2 if fam.laurent else 0
    for _ in range(nterms):
        t = X(rng.randint(lo, 3), fam.laurent)
        for _ in range(rng.randint(0, 2)):
            t = t * P(rng.randint(1, 4), fam.laurent)
        out = out + t.scale(const(rng.randint(-5, 5)))
    return out


class TestRing:
    def test_x_squared(self):
        assert X(1) * X(1) == X(2)

    def test_power_sum_square(self):
        sq = P(1) * P(1)
        assert sq == LambdaXElem({(0, pmono((1, 2))): ONE})

    def test_distributive_product(self):
        f = X(1) * P(0) + P(1) - X(1).scale(const(2))
        lhs = f * P(3)
        rhs = (X(1) * P(0) * P(3)) + (P(1) * P(3)) - (X(1) * P(3)).scale(const(2))
        assert lhs == rhs

    def test_laurent_flag_guard(self):
        with pytest.raises(ValueError):
            LambdaXElem({(-1, ()): ONE}, laurent=False)


class TestPartial:
    def test_rational_a_generator_rule(self):
        assert partial(P(2), Family.RAT_A) == X(1).scale(const(2))

    def test_trig_a_leibniz(self):
        # x p1 differentiates to x p1 + x^2
        assert partial(X(1) * P(1), Family.TRIG_A) == X(1) * P(1) + X(2)

    def test_rational_b_generator_rule(self):
        assert partial(P(2), Family.RAT_B) == X(3).scale(const(4))

    def test_trig_bc_generator_rule(self):
        assert partial(P(1, True), Family.TRIG_BC) == X(1, True) - X(-1, True)

    def test_p0_is_constant(self):
        for fam in Family:
            assert partial(P(0, fam.laurent), fam).is_zero()

    def test_leibniz_rule_on_random_products(self, rng):
        for fam in Family:
            for _ in range(8):
                f = random_element(rng, fam)
                g = random_element(rng, fam)
                lhs = partial(f * g, fam)
                rhs = partial(f, fam) * g + f * partial(g, fam)
                assert lhs == rhs


class TestDelta:
    def test_rational_a_on_x(self):
        assert delta(X(1), Family.RAT_A) == P(0) - LambdaXElem.one()

    def test_rational_a_module_linearity_value(self):
        # x^2 p3 maps to (x p0 + p1 - 2x) p3
        expected = (X(1) * P(0) + P(1) - X(1).scale(const(2))) * P(3)
        assert delta(X(2) * P(3), Family.RAT_A) == expected

    def test_rational_b_even_power(self):
        assert delta(X(2), Family.RAT_B) == X(1) * P(0) - X(1)

    def test_trig_bc_kills_constants(self):
        assert delta(LambdaXElem.one(True), Family.TRIG_BC).is_zero()

    def test_module_linearity(self, rng):
        # delta(x^l g) = delta(x^l) g for g free of x
        for fam in Family:
            for l in ([1, 2, 3] if not fam.laurent else [-2, -1, 1, 2]):
                g = P(2, fam.laurent) * P(3, fam.laurent)
                assert delta(X(l, fam.laurent) * g, fam) == delta(X(l, fam.laurent), fam) * g


class TestReflect:
    def test_sign_involution_values(self):
        assert reflect(X(3) * P(2), Family.RAT_B) == (X(3) * P(2)).scale(const(-1))
        assert reflect(P(5), Family.RAT_B) == P(5)

    def test_inversion_value(self):
        assert reflect(X(2, True) * P(1, True), Family.TRIG_BC) == X(-2, True) * P(1, True)

    def test_involution(self, rng):
        for fam in (Family.RAT_B, Family.TRIG_BC):
            for _ in range(6):
                f = random_element(rng, fam)
                assert reflect(reflect(f, fam), fam) == f

    def test_unsupported_families(self):
        for fam in (Family.RAT_A, Family.TRIG_A):
            with pytest.raises(UnsupportedFamily):
                reflect(X(1), fam)


class TestProjection:
    def test_a_family_value(self):
        assert project_E(X(3) * P(1), Family.RAT_A) == LambdaElem.p(3) * LambdaElem.p(1)

    def test_b_family_odd_power_killed(self):
        assert project_E(X(5) * P(2), Family.RAT_B).is_zero()

    def test_bc_family_absolute_value(self):
        assert project_E(X(-3, True), Family.TRIG_BC) == LambdaElem.p(3)

    def test_degree_zero_picks_up_p0(self):
        assert project_E(P(2), Family.RAT_A) == LambdaElem.p(0) * LambdaElem.p(2)

    def test_commutes_with_multiplication(self, rng):
        for fam in Family:
            for _ in range(6):
                f = random_element(rng, fam)
                g = LambdaElem.p(2) * LambdaElem.p(1)
                gx = LambdaXElem.from_lambda(g, fam.laurent)
                assert project_E(f * gx, fam) == project_E(f, fam) * g


class TestXPolynomialDivision:
    def test_exact_division_by_x_minus_1(self):
        f = X(3, True) - X(-3, True)
        q = divide_by_x_poly(f, {1: 1, 0: -1})
        assert q * (X(1, True) - LambdaXElem.one(True)) == f

    def test_exact_division_by_x(self):
        assert divide_by_x_poly(X(3).scale(const(4)), {1: 1}) == X(2).scale(const(4))

    def test_remainder_raises(self):
        with pytest.raises(InexactDivision):
            divide_by_x_poly(LambdaXElem.one(), {1: 1, 0: -1})
