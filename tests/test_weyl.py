import hashlib
import json
import random
from functools import reduce
from itertools import product

import pytest

from dunklcms import cli, finite_cms, weyl
from dunklcms.coeffs import ONE, ParamPoly, ParamRatio, UnsupportedDenominator, const, k_power, symbol
from dunklcms.finite_cms import (
    Hom,
    MultiPoly,
    ParityData,
    _fac_diff,
    _fac_prod_minus_1,
    _fac_shift,
    _fac_sum,
    _is_linear_root_factor,
    heckman_integral,
)
from dunklcms.dunkl_infinity import InfDunkl, pmono_basis
from dunklcms.powersums import Family, LambdaElem, LambdaXElem, UnsupportedFamily, pmono_degree
from dunklcms.weyl import (
    OpMatrix,
    RatFun,
    WeylOp,
    _hamiltonian_parts,
    _moser_M_parts,
    commute_check,
    commute_checks,
    hamiltonian,
    integral_vs_hamiltonian,
    lax_check,
    moser_L,
    moser_L_gauged,
    moser_M,
    moser_integral,
    moser_integrals,
)

from reference_ops import (
    basis_commute_check,
    estar_weights,
    gauge_conjugate,
    matmul,
    matsub,
    psi0_logderivs,
    reflect,
    sandwich,
)

K = symbol("k")


def V(n, i, p=1):
    return MultiPoly.var(n, i, p)


def rf(num, den_pairs=()):
    return RatFun(num, dict(den_pairs))


class TestCompose:
    def test_leibniz_on_variable(self):
        d1 = WeylOp.partial(2, 0)
        x1 = WeylOp.mul_by(rf(V(2, 0)))
        out = d1.compose(x1)
        assert out == x1.compose(d1) + WeylOp.const(2, 1)

    def test_leibniz_on_rational_coefficient(self):
        d1 = WeylOp.partial(2, 0)
        f = rf(MultiPoly.const(2, 1), [(V(2, 0) - V(2, 1), 1)])
        out = d1.compose(WeylOp.mul_by(f))
        expected = WeylOp.mul_by(f).compose(d1) + WeylOp.mul_by(
            RatFun(MultiPoly.const(2, -1), {V(2, 0) - V(2, 1): 2})
        )
        assert out == expected

    def test_euler_square(self):
        e1 = WeylOp.euler(2, 0)
        sq = e1.compose(e1)
        expected = WeylOp(2, {(2, 0): rf(V(2, 0, 2)), (1, 0): rf(V(2, 0))})
        assert sq == expected

    def test_partials_commute(self):
        a = WeylOp.partial(3, 0)
        b = WeylOp.partial(3, 2)
        assert a.commutator(b).is_zero()

    def test_multiplications_commute(self):
        a = WeylOp.mul_by(rf(V(3, 0)))
        b = WeylOp.mul_by(rf(V(3, 1, 2)))
        assert a.commutator(b).is_zero()

    def test_associativity_on_random_triples(self, rng):
        n = 2
        ops = []
        for _ in range(6):
            terms = {}
            for _ in range(rng.randint(1, 2)):
                de = (rng.randint(0, 1), rng.randint(0, 1))
                num = MultiPoly(n, {(rng.randint(0, 2), rng.randint(0, 2)): const(rng.randint(-3, 3))})
                den = {V(n, 0) - V(n, 1): rng.randint(0, 1)}
                if num.is_zero():
                    continue
                terms[de] = RatFun(num, den)
            ops.append(WeylOp(n, terms))
        for i in range(0, 6, 3):
            a, b, c = ops[i], ops[i + 1], ops[i + 2]
            assert a.compose(b).compose(c) == a.compose(b.compose(c))


def random_weyl_op(rng, n):
    """A random operator in n <= 2 variables of order <= 2, its coefficients
    over powers of the structural factors, with k in the numerators."""
    factors = [V(n, 0), _fac_shift(n, 0, -1), _fac_shift(n, 0, 1)]
    if n == 2:
        factors += [_fac_diff(n, 0, 1), _fac_sum(n, 0, 1), _fac_prod_minus_1(n, 0, 1), V(n, 1)]
    orders = [e for e in product(range(3), repeat=n) if sum(e) <= 2]
    terms = {}
    for _ in range(rng.randint(1, 3)):
        de = rng.choice(orders)
        num = MultiPoly(n, {
            tuple(rng.randint(0, 2) for _ in range(n)): const(rng.randint(-3, 3)) * k_power(rng.randint(-1, 1))
            for _ in range(rng.randint(1, 2))
        })
        if num.is_zero():
            continue
        den = {f: rng.randint(0, 2) for f in rng.sample(factors, 2)}
        terms[de] = RatFun(num, den)
    return WeylOp(n, terms)


def count_poly_products(monkeypatch) -> list:
    """Record every ParamPoly product from now on."""
    calls = []
    original = ParamPoly.__mul__

    def wrapper(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(ParamPoly, "__mul__", wrapper)
    return calls


class TestCommutator:
    """The commutator, which skips the Leibniz terms that cancel, against
    both normal-ordered products and against its work bound."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_both_products_on_random_operators(self, rng, n):
        nonzero = 0
        for _ in range(20):
            a, b = random_weyl_op(rng, n), random_weyl_op(rng, n)
            got = a.commutator(b)
            expected = a.compose(b) - b.compose(a)
            assert got == expected
            assert got.text() == expected.text()  # the same canonical coefficients
            nonzero += not got.is_zero()
        assert nonzero >= 15

    def test_multiplication_operator_sees_only_its_derivatives(self):
        # [f, d1^2] = -(2 f' d1 + f'') for f = 1/(x1 - x2)
        f = rf(MultiPoly.const(2, 1), [(V(2, 0) - V(2, 1), 1)])
        d1 = WeylOp.partial(2, 0)
        got = WeylOp.mul_by(f).commutator(d1.compose(d1))
        f1 = f.diff(0)
        f2 = f1.diff(0)
        assert got == -(WeylOp.partial(2, 0, f1.scale(const(2))) + WeylOp.mul_by(f2))

    @pytest.mark.parametrize("family, parity, make_a, products", [
        (Family.TRIG_A, ParityData(2, 2), lambda fam, par: moser_L(fam, par)[0, 1], 24),
        (Family.RAT_B, ParityData(1, 1), lambda fam, par: moser_integral(fam, par, 1), 80),
        (Family.TRIG_BC, ParityData(1, 1), lambda fam, par: moser_integral(fam, par, 1), 368),
    ])
    def test_coefficient_products_stay_bounded(self, monkeypatch, family, parity, make_a, products):
        # the two full products took 104, 116 and 724 ParamPoly products
        A, H = make_a(family, parity), hamiltonian(family, parity, gauged=False)
        calls = count_poly_products(monkeypatch)
        res = A.commutator(H)
        assert len(calls) <= products
        assert res.is_zero() is (family is not Family.TRIG_A)


class TestRatFunDenominators:
    def test_non_monic_factor_is_normalised(self):
        # 2 x1 - 2 x0 becomes x0 - x1; the unit -1/2 per power goes to the numerator
        f = V(2, 1).scale(const(2)) - V(2, 0).scale(const(2))
        g = rf(V(2, 1), [(f, 2)])
        assert g.den == {_fac_diff(2, 0, 1): 2}
        assert g.num == V(2, 1).scale(ONE / const(4))
        assert all(h.leading()[1] == ONE for h in g.den)

    def test_unit_times_monomial_leaves_the_denominator(self):
        # x0 x1 / (k x0)^2 = x1 / (k^2 x0), a Laurent polynomial; 3/3 = 1
        g = rf(V(2, 0) * V(2, 1), [(V(2, 0).scale(K), 2), (MultiPoly.const(2, 3), 1)])
        assert g.den == {}
        assert g.num == MultiPoly(2, {(-1, 1): k_power(-2) * (ONE / const(3))})


def diff_by_parts(r: RatFun, i: int) -> RatFun:
    """d/dx_i of r as a sum of parts, reduced from scratch: d_i N over r's
    denominator, and -e N d_i f over it with f^e raised to f^(e+1) for each
    factor f that contains x_i, brought over their common denominator."""
    parts = [(r.num.diff(i), dict(r.den))]
    for f, e in r.den.items():
        fd = f.diff(i)
        if not fd.is_zero():
            den = dict(r.den)
            den[f] = e + 1
            parts.append(((r.num * fd).scale(const(-e)), den))
    den = {f: max(d[f] for _, d in parts) for f in r.den}
    total = MultiPoly.zero(r.nvars)
    for num, d in parts:
        for f, e in den.items():
            num = num * f ** (e - d[f])
        total = total + num
    return RatFun(total, den)


def assert_reduced(r: RatFun):
    """r has the fields of its own num and den reduced from scratch, and no
    factor of its denominator divides its numerator."""
    again = RatFun(r.num, dict(r.den))
    assert again.num == r.num and again.den == r.den, r
    assert all(r.num.div_or_none(f) is None for f in r.den), r


def coefficients(op: WeylOp) -> list:
    return list(op.terms.values())


def trig_bc_integral_commutes():
    """The check [e*L^2e, H] = 0 for trig BC at n = m = 1, its operands built."""
    parity = ParityData(1, 1)
    I = moser_integral(Family.TRIG_BC, parity, 1)
    H = hamiltonian(Family.TRIG_BC, parity, gauged=False)
    return lambda: I.commutator(H).is_zero()


def trig_a_lax_holds():
    """The check lax_check(TRIG_A, (2, 2)), matrices built inside."""
    return lambda: lax_check(Family.TRIG_A, ParityData(2, 2)).ok


class TestClosedFormDerivative:
    """RatFun.diff over prod f^(e+1) against the sum of its parts."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_the_parts_sum(self, rng, n):
        seen = 0
        for _ in range(25):
            for r in coefficients(random_weyl_op(rng, n)):
                for i in range(n):
                    got, expected = r.diff(i), diff_by_parts(r, i)
                    assert got.num == expected.num and got.den == expected.den, (r, i)
                    assert got.text() == expected.text()
                    seen += bool(r.den)
        assert seen >= 25

    def test_factor_free_of_the_variable_can_cancel(self):
        # N = x0 (x1 - 1) + 1 is prime to x1 - 1, but d0 N = x1 - 1 is not
        x0, x1 = V(2, 0), V(2, 1)
        f, g = _fac_shift(2, 1, -1), _fac_shift(2, 0, 1)
        got = RatFun(x0 * f + MultiPoly.const(2, 1), {f: 1}).diff(0)
        assert got.num == MultiPoly.const(2, 1) and got.den == {}
        # next to the moving factor x0 + 1: d0 (x0 x1 + 1)/(x0 + 1) = (x1 - 1)/(x0 + 1)^2
        r = RatFun(x0 * x1 + MultiPoly.const(2, 1), {f: 2, g: 1})
        got, expected = r.diff(0), diff_by_parts(r, 0)
        assert got.num == expected.num == MultiPoly.const(2, 1)
        assert got.den == expected.den == {f: 1, g: 2}
        assert got.text() == expected.text()


class TestReducedForm:
    """Every operation returns the reduced form, although it tests only the
    denominator factors that can still divide."""

    def test_structural_factors_are_linear_root_factors(self):
        n = 3
        x0, x1, x2 = V(n, 0), V(n, 1), V(n, 2)
        for f in (_fac_diff(n, 0, 1), _fac_sum(n, 1, 2), _fac_prod_minus_1(n, 0, 2),
                  _fac_shift(n, 0, -1), _fac_shift(n, 2, 1), x0 * x1 - x2 * x2):
            assert _is_linear_root_factor(f), f
        for f in (_fac_shift(n, 0, -1, 2), x0 * x2 - x1 * x2, V(n, 0), (x0 * x1) ** 2 - x2 * x2,
                  x0 - x1 - x2, x0 - x1.scale(const(2)), x0 - MultiPoly.var(n, 1, -1)):
            assert not _is_linear_root_factor(f), f

    @pytest.mark.parametrize("n", [1, 2])
    def test_every_result_is_reduced(self, rng, n):
        ops = [random_weyl_op(rng, n) for _ in range(12)]
        for a, b in zip(ops[::2], ops[1::2]):
            fs, gs = coefficients(a), coefficients(b)
            results = [f * g for f in fs for g in gs]
            results += [f.diff(i) for f in fs + gs for i in range(n)]
            results.append(RatFun.sum(n, fs + gs + results))
            for op in (a.compose(b), a.commutator(b)):
                results += coefficients(op)
            for f in fs:
                results.append(b.apply(f))
            results.append(a.apply(MultiPoly(n, {(1,) * n: ONE, (2,) + (0,) * (n - 1): ONE})))
            for r in results:
                assert_reduced(r)

    def test_factors_outside_the_shape_are_refused(self):
        # x0^2 - 1 has the linear root factor x0 - 1 as a divisor, and
        # x0 x2 - x1 x2 is x2 (x0 - x1): neither is prime to the other factor,
        # so the reduced form over them would not be unique; a trinomial has
        # no root test, and 1 + k is no unit of the coefficient ring
        x0, x1, x2 = V(3, 0), V(3, 1), V(3, 2)
        for f in (_fac_shift(1, 0, -1, 2), (x0 * x2 - x1 * x2).scale(const(2)),
                  x0 - x1 - x2, (x0 + x1).scale(ONE + K)):
            for num in (MultiPoly.const(f.nvars, 1), MultiPoly.zero(f.nvars)):
                with pytest.raises(UnsupportedDenominator):
                    RatFun(num, {f: 1})
        # the split form of x0^2 - 1 is accepted
        sq = _fac_shift(1, 0, -1, 2)
        got = RatFun(sq, {_fac_shift(1, 0, -1): 1, _fac_shift(1, 0, 1): 2})
        assert got.num == MultiPoly.const(1, 1) and got.den == {_fac_shift(1, 0, 1): 1}

    def test_shape_tests_stay_bounded(self, monkeypatch):
        # one test per factor that enters through the public constructor;
        # 1,290 while every construction tested the shape of every factor
        monkeypatch.delenv("DUNKLCMS_WORKERS", raising=False)
        calls = []
        original = weyl._is_linear_root_factor
        monkeypatch.setattr(weyl, "_is_linear_root_factor", lambda f: calls.append(1) or original(f))
        assert trig_a_lax_holds()()
        assert len(calls) <= 40

    @pytest.mark.parametrize("prepare, tests", [
        (trig_bc_integral_commutes, 20),  # 68 while monomial numerators took cross-cancel tests, 124 before
        (trig_a_lax_holds, 126),  # 354 while H and M entered whole, 558 and 952 before
    ])
    def test_root_tests_stay_bounded(self, monkeypatch, prepare, tests):
        check = prepare()
        calls = []
        original = finite_cms._root_quotient
        monkeypatch.setattr(finite_cms, "_root_quotient", lambda g, f: calls.append(1) or original(g, f))
        assert check()
        assert len(calls) <= tests

    def test_term_pairs_stay_bounded(self, monkeypatch):
        # [e*L^2e, H] for trig BC at (n, m) = (2, 1): 4,161,200 term pairs once
        # RatFun.sum adds equal denominators first and the commutator reduces
        # once per key, 15,452,536 before
        parity = ParityData(2, 1)
        I = moser_integral(Family.TRIG_BC, parity, 1)
        H = hamiltonian(Family.TRIG_BC, parity, gauged=False)
        pairs = [0]
        original = ParamPoly.__mul__

        def counting(a, b):
            pairs[0] += len(a.terms) * len(b.terms)
            return original(a, b)

        monkeypatch.setattr(ParamPoly, "__mul__", counting)
        assert I.commutator(H).is_zero()
        assert pairs[0] <= 4_200_000


class TestStructuralEquality:
    """== compares fields, which the unique reduced form makes sound: it
    agrees with a vanishing difference on pairs equal by construction and
    on unequal ones."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_equality_matches_a_zero_difference(self, rng, n):
        equal = unequal = 0
        for _ in range(12):
            a, b = random_weyl_op(rng, n), random_weyl_op(rng, n)
            same = [(a + b, b + a), (a.commutator(b), -b.commutator(a))]
            other = [(a, b), (a, a.compose(b))]
            for f in coefficients(a):
                for g in coefficients(b):
                    same += [(f * g, g * f), (RatFun.sum(n, [f, g]), f + g), (f - g, -(g - f))]
                    other += [(f, g), (f * g, f + g), (f, f.diff(0))]
            for x, y in same:
                assert x == y and y == x and (x - y).is_zero(), (x, y)
            for x, y in other:
                zero = (x - y).is_zero()
                assert (x == y) is (y == x) is zero, (x, y)
                unequal += not zero
            equal += len(same)
        assert equal >= 100 and unequal >= 100, (equal, unequal)


class TestMoserMatrices:
    def test_rational_entries(self):
        par = ParityData(1, 1)
        L = moser_L(Family.RAT_A, par)
        assert L.entries[0][1] == WeylOp.mul_by(
            RatFun(MultiPoly.const(2, 1), {V(2, 0) - V(2, 1): 1})
        )
        assert L.entries[1][0] == WeylOp.mul_by(
            RatFun(MultiPoly.const(2, -K), {V(2, 0) - V(2, 1): 1})
        )
        assert L.entries[0][0] == WeylOp.partial(2, 0)

    def test_block_structure(self):
        par = ParityData(1, 1)
        for fam in (Family.RAT_B, Family.TRIG_BC):
            L = moser_L(fam, par)
            nm = par.size
            assert L.rows == L.cols == 2 * nm
            for i in range(nm):
                for j in range(nm):
                    assert L.entries[nm + i][nm + j] == -L.entries[i][j]
                    assert L.entries[nm + i][j] == -L.entries[i][nm + j]

    def test_rational_b_one_particle_entry(self):
        par = ParityData(1, 0)
        L = moser_L(Family.RAT_B, par)
        # B block diagonal is q/x_1
        assert L.entries[0][1] == WeylOp.mul_by(
            RatFun(MultiPoly.const(1, symbol("q")), {V(1, 0): 1})
        )

    def test_m_matrix_kernel_vectors(self):
        for fam in (Family.RAT_A, Family.TRIG_A):
            for (n, m) in ((1, 1), (2, 1)):
                par = ParityData(n, m)
                M = moser_M(fam, par)
                nm = par.size
                for i in range(nm):
                    row = M.entries[i][0]
                    for j in range(1, nm):
                        row = row + M.entries[i][j]
                    assert row.is_zero()
                w = estar_weights(fam, par)
                for j in range(nm):
                    col = M.entries[0][j].scale(w[0])
                    for i in range(1, nm):
                        col = col + M.entries[i][j].scale(w[i])
                    assert col.is_zero()

    def test_trig_m_entry(self):
        par = ParityData(1, 1)
        M = moser_M(Family.TRIG_A, par)
        num = (V(2, 0) * V(2, 1)).scale(const(2))
        assert M.entries[0][1] == WeylOp.mul_by(RatFun(num, {V(2, 0) - V(2, 1): 2}))

    def test_no_m_matrix_for_b_families(self):
        for fam in (Family.RAT_B, Family.TRIG_BC):
            with pytest.raises(UnsupportedFamily):
                moser_M(fam, ParityData(1, 1))


class TestHamiltonians:
    def test_rational_a_ungauged_value(self):
        par = ParityData(1, 1)
        H = hamiltonian(Family.RAT_A, par, gauged=False)
        expected = (
            WeylOp(2, {(2, 0): rf(MultiPoly.const(2, 1)), (0, 2): rf(MultiPoly.const(2, K))})
            - WeylOp.mul_by(RatFun(MultiPoly.const(2, (K + ONE).scale(2)), {V(2, 0) - V(2, 1): 2}))
        )
        assert H == expected

    def test_rational_a_gauged_value(self):
        par = ParityData(1, 1)
        H = hamiltonian(Family.RAT_A, par, gauged=True)
        cross = WeylOp.partial(2, 0) - WeylOp.partial(2, 1).scale(K)
        expected = (
            WeylOp(2, {(2, 0): rf(MultiPoly.const(2, 1)), (0, 2): rf(MultiPoly.const(2, K))})
            - WeylOp.mul_by(RatFun(MultiPoly.const(2, const(2)), {V(2, 0) - V(2, 1): 1})).compose(cross)
        )
        assert H == expected

    def test_k_equals_one_collapses_species(self):
        par = ParityData(1, 1)
        H = hamiltonian(Family.RAT_A, par, gauged=False).substitute({"k": const(1)})
        expected = (
            WeylOp(2, {(2, 0): rf(MultiPoly.const(2, 1)), (0, 2): rf(MultiPoly.const(2, 1))})
            - WeylOp.mul_by(RatFun(MultiPoly.const(2, 4), {V(2, 0) - V(2, 1): 2}))
        )
        assert H == expected

    def test_gauged_b_families_require_m_zero(self):
        for fam in (Family.RAT_B, Family.TRIG_BC):
            with pytest.raises(UnsupportedFamily):
                hamiltonian(fam, ParityData(1, 1), gauged=True)


class TestLax:
    @pytest.mark.parametrize("family", [Family.RAT_A, Family.TRIG_A])
    def test_lax_identity_smallest_case(self, family):
        rep = lax_check(family, ParityData(1, 1))
        assert rep.ok and len(rep.results) == 4

    def test_lax_rejects_b_families(self):
        with pytest.raises(UnsupportedFamily):
            lax_check(Family.RAT_B, ParityData(1, 1))

    @pytest.mark.parametrize("n, m", [(0, 0), (-1, 1), (1, -1), (-2, 0)])
    def test_no_particles_is_no_system(self, n, m):
        # lax_check over no entries would verify vacuously
        with pytest.raises(ValueError):
            lax_check(Family.RAT_A, ParityData(n, m))


def lax_residuals_by_matrices(family, parity, bindings=None):
    """The texts of [L_ij, H] - (L M - M L)_ij with H and M whole: both orders
    of the commutator composed in full, and the matrix products by the
    reference ``matmul``."""
    L, M = moser_L(family, parity), moser_M(family, parity)
    H = hamiltonian(family, parity, gauged=False)
    if bindings:
        L, M = (OpMatrix([[op.substitute(bindings) for op in row] for row in X.entries]) for X in (L, M))
        H = H.substitute(bindings)
    LM = matsub(matmul(L, M), matmul(M, L))
    return [(L[i, j].compose(H) - H.compose(L[i, j]) - LM[i, j]).text()
            for i in range(L.rows) for j in range(L.cols)]


LAX_CASES = [(family, ParityData(n, m)) for family in (Family.RAT_A, Family.TRIG_A)
             for n, m in ((1, 1), (2, 1), (1, 2))]


class TestLaxParts:
    """``lax_check`` sums the residuals from the parts of H and M; the matrix
    route forms H, M and the products L M, M L whole."""

    @pytest.mark.parametrize("family, parity", LAX_CASES)
    def test_part_residuals_match_the_matrix_route(self, family, parity):
        rep = lax_check(family, parity)
        assert [r.residual for r in rep.results] == lax_residuals_by_matrices(family, parity)
        assert rep.ok and len(rep.results) == parity.size ** 2

    @pytest.mark.parametrize("family", [Family.RAT_A, Family.TRIG_A])
    def test_bound_parameters_match_the_matrix_route(self, family):
        parity, bindings = ParityData(2, 1), {"k": const(3)}
        rep = lax_check(family, parity, bindings)
        assert [r.residual for r in rep.results] == lax_residuals_by_matrices(family, parity, bindings)
        assert rep.ok

    @pytest.mark.parametrize("family, parity", LAX_CASES)
    def test_perturbed_m_fails_on_both_routes(self, monkeypatch, family, parity):
        # M_01 doubled while the diagonal M_00 keeps its single negated part:
        # row 0 no longer sums to zero, and [L, H] = [L, M] fails
        original = weyl._moser_M_parts

        def doubled(fam, par):
            table = original(fam, par)
            table[0][1] = table[0][1] * 2
            return table

        monkeypatch.setattr(weyl, "_moser_M_parts", doubled)
        rep = lax_check(family, parity)
        got = [r.residual for r in rep.results]
        assert got == lax_residuals_by_matrices(family, parity)
        assert any(not r.ok for r in rep.results if r.i == 0)


#: sha256 prefixes of the texts of H and of M (``OpMatrix.to_json``) as the
#: pairwise fold of their terms built them, one reduction per addition
FOLDED_DIGESTS = {
    Family.RAT_A: {
        ("H", (1, 1), False): "059561f445f662f3",
        ("H", (1, 1), True): "66eacfc26fc2b758",
        ("M", (1, 1)): "99ee6c9aaf9c93d9",
        ("H", (2, 1), False): "2d5c305c5467b240",
        ("H", (2, 1), True): "5bd93b85a3ef5c42",
        ("M", (2, 1)): "4da62c3fe0e0bd84",
        ("H", (1, 2), False): "79dec3dfec751344",
        ("H", (1, 2), True): "176f6b888cdebd01",
        ("M", (1, 2)): "db6c9b025738fa47",
        ("H", (3, 0), False): "23b5e7d64bbaaf40",
        ("H", (3, 0), True): "68d29ac8ebda69b6",
        ("M", (3, 0)): "9ba137c0deb4fb43",
    },
    Family.TRIG_A: {
        ("H", (1, 1), False): "a9b10e8fa3319059",
        ("H", (1, 1), True): "eadffce035fca4fd",
        ("M", (1, 1)): "6cd3a5cc73ecac9f",
        ("H", (2, 1), False): "db9cd149a4a9fb0f",
        ("H", (2, 1), True): "a8fcdbc4700b685d",
        ("M", (2, 1)): "34fcd1510c782e99",
        ("H", (1, 2), False): "0b6a012b5bac006f",
        ("H", (1, 2), True): "322e38525d2b65f6",
        ("M", (1, 2)): "81119d6cba922525",
        ("H", (3, 0), False): "f4644bd2641d2f95",
        ("H", (3, 0), True): "3ba8c6be5da8e0e1",
        ("M", (3, 0)): "b956ccbf5ec4b8a3",
    },
    Family.RAT_B: {
        ("H", (1, 1), False): "693d8fbe1d904f79",
        ("H", (2, 1), False): "7978e39f2a91ac8d",
        ("H", (1, 2), False): "4658bd0c2f3d1b8c",
        ("H", (3, 0), False): "619d9a650a5446e1",
        ("H", (3, 0), True): "78059161ac64f4dd",
    },
    Family.TRIG_BC: {
        ("H", (1, 1), False): "1fc5ddf4d6134480",
        ("H", (2, 1), False): "bc28e08c3916f4fc",
        ("H", (1, 2), False): "182779bbf58f1558",
        ("H", (3, 0), False): "a0454abcd9792f37",
        ("H", (3, 0), True): "c476d1d4866127a6",
    },
}


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def pairwise(ops):
    """The sum of ``ops`` by pairwise addition, one reduction per addition."""
    return reduce(lambda a, b: a + b, ops)


class TestParts:
    """H and M, each coefficient summed once from their parts, keep the values
    of the pairwise fold; the gauged H, which is e* G^2 e and has no parts,
    keeps the value that the pairwise fold of its old parts had."""

    @pytest.mark.parametrize("family", list(Family))
    def test_sums_of_parts_keep_their_values(self, family):
        for key, digest in FOLDED_DIGESTS[family].items():
            parity = ParityData(*key[1])
            if key[0] == "H":
                got = hamiltonian(family, parity, gauged=key[2])
                if not key[2]:
                    assert got.text() == pairwise(_hamiltonian_parts(family, parity)).text(), key
                text = got.text()
            else:
                got = moser_M(family, parity)
                folded = OpMatrix([[pairwise(cell) for cell in row]
                                   for row in _moser_M_parts(family, parity)])
                assert got.to_json() == folded.to_json(), key
                text = got.to_json()
            assert text_digest(text) == digest, key

    def test_m_rows_are_their_negated_diagonals(self):
        for family in (Family.RAT_A, Family.TRIG_A):
            table = _moser_M_parts(family, ParityData(2, 1))
            for i, row in enumerate(table):
                assert len(row[i]) == len(row) - 1
                assert all(len(cell) == 1 for j, cell in enumerate(row) if j != i)
                assert WeylOp.sum(3, [op for cell in row for op in cell]).is_zero()


#: sha256 prefixes of the texts of L (``OpMatrix.to_json``) for every family,
#: of the gauged trigonometric A matrix G, and of the reference ground-state
#: log-derivatives of the A families (a JSON list of their texts)
BUILT_DIGESTS = {
    ("L", Family.RAT_A, (1, 1)): "b4721e7a8e766d47",
    ("L", Family.RAT_A, (2, 1)): "e65f7dcd6ff95dbf",
    ("L", Family.RAT_A, (1, 2)): "911784c0e43c62c3",
    ("L", Family.RAT_A, (3, 0)): "8cafb11017266b0a",
    ("L", Family.TRIG_A, (1, 1)): "0b1592310aeef472",
    ("L", Family.TRIG_A, (2, 1)): "a3fd827c4dc961d3",
    ("L", Family.TRIG_A, (1, 2)): "c5d9bf9af5701606",
    ("L", Family.TRIG_A, (3, 0)): "b0d2e246d3b917d7",
    ("L", Family.RAT_B, (1, 1)): "1628f35c4f126b20",
    ("L", Family.RAT_B, (2, 1)): "10d6ab6c738c2860",
    ("L", Family.RAT_B, (1, 2)): "57657eb7926d92ba",
    ("L", Family.RAT_B, (3, 0)): "29c5f6fa52876a68",
    ("L", Family.TRIG_BC, (1, 1)): "210c1b7fb913964c",
    ("L", Family.TRIG_BC, (2, 1)): "a56f1de24339b08d",
    ("L", Family.TRIG_BC, (1, 2)): "cb38c20bbae8f530",
    ("L", Family.TRIG_BC, (3, 0)): "c5dac7cd2216a82b",
    ("L gauged", Family.TRIG_A, (1, 1)): "6aeaa99effd85c7a",
    ("L gauged", Family.TRIG_A, (2, 1)): "cfe145285031d5f1",
    ("L gauged", Family.TRIG_A, (1, 2)): "e49f8b0fb215f41d",
    ("L gauged", Family.TRIG_A, (3, 0)): "b9a2524b66daed4f",
    ("psi0", Family.RAT_A, (1, 1)): "2ea7256e98b64bdc",
    ("psi0", Family.RAT_A, (2, 1)): "95e087f198ae32d6",
    ("psi0", Family.RAT_A, (1, 2)): "957ad1efc47dc24c",
    ("psi0", Family.RAT_A, (3, 0)): "ae2e7c98d7f2967f",
    ("psi0", Family.TRIG_A, (1, 1)): "b14258e4d1aa4249",
    ("psi0", Family.TRIG_A, (2, 1)): "0c9745413096e205",
    ("psi0", Family.TRIG_A, (1, 2)): "3fd90cf7982d7c07",
    ("psi0", Family.TRIG_A, (3, 0)): "41ab439e433049ee",
}


class TestBuiltTexts:
    """L, the gauged trigonometric G and the log-derivatives of the ground
    state keep their texts."""

    @pytest.mark.parametrize("what, family, size", list(BUILT_DIGESTS))
    def test_texts_keep_their_digests(self, what, family, size):
        parity = ParityData(*size)
        if what == "L":
            text = moser_L(family, parity).to_json()
        elif what == "L gauged":
            text = moser_L_gauged(family, parity).to_json()
        else:
            text = json.dumps([w.text() for w in psi0_logderivs(family, parity)])
        assert text_digest(text) == BUILT_DIGESTS[what, family, size]


class TestIntegrals:
    def test_first_integral_is_total_momentum(self):
        par = ParityData(1, 1)
        I1 = moser_integral(Family.RAT_A, par, 1)
        assert I1 == WeylOp.partial(2, 0) + WeylOp.partial(2, 1)

    def test_second_integral_reproduces_hamiltonian(self):
        par = ParityData(1, 1)
        I2 = moser_integral(Family.RAT_A, par, 2)
        assert I2 == hamiltonian(Family.RAT_A, par, gauged=False)

    def test_hamiltonian_factors(self):
        expect = {
            Family.RAT_A: (ONE, True),
            Family.TRIG_A: (ONE, False),
            Family.RAT_B: (const(-2), True),
            Family.TRIG_BC: (const(2), False),
        }
        for fam, (factor, const_zero) in expect.items():
            f, c, res = integral_vs_hamiltonian(fam, ParityData(1, 1))
            assert f == factor
            assert res.is_zero()
            assert c.is_scalar()
            assert c.is_zero() == const_zero

    def test_self_commutator(self):
        H = hamiltonian(Family.RAT_A, ParityData(1, 1), gauged=False)
        assert commute_check(H, H, "symbolic").ok

    def test_integrals_commute_with_hamiltonian(self):
        par = ParityData(1, 1)
        H = hamiltonian(Family.RAT_A, par, gauged=False)
        for r in (1, 2, 3):
            I = moser_integral(Family.RAT_A, par, r)
            assert commute_check(I, H, "symbolic").ok

    @pytest.mark.parametrize("mode", ["Symbolic", "basis(deg=4)", ""])
    def test_commute_check_rejects_other_modes(self, mode):
        H = hamiltonian(Family.RAT_A, ParityData(1, 1))
        with pytest.raises(ValueError):
            commute_check(H, H, mode)

    @pytest.mark.parametrize("mode", ["symbolic", "basis"])
    def test_commute_check_rejects_a_negative_degree(self, mode):
        # the basis route over no monomial would verify vacuously
        H = hamiltonian(Family.RAT_A, ParityData(1, 1))
        with pytest.raises(ValueError):
            commute_check(H, H, mode, deg=-1)

    def test_commute_check_basis_mode(self):
        par = ParityData(1, 1)
        H = hamiltonian(Family.RAT_B, par, gauged=False)
        I = moser_integral(Family.RAT_B, par, 1)
        rep = commute_check(I, H, "basis", deg=3)
        assert rep.ok

    def test_basis_mode_forms_each_derivative_once(self, monkeypatch):
        # apply forms each derivative of its argument once, for all of its
        # terms, and differentiates no zero; per term it took 224 derivatives
        monkeypatch.delenv("DUNKLCMS_WORKERS", raising=False)
        par = ParityData(1, 1)
        I, H = moser_integral(Family.TRIG_A, par, 2), hamiltonian(Family.TRIG_A, par)
        calls = []
        original = RatFun.diff
        monkeypatch.setattr(RatFun, "diff", lambda self, i: calls.append(i) or original(self, i))
        assert commute_check(I, H, "basis", deg=3).ok
        assert len(calls) <= 144

    def test_basis_request_takes_one_pass_over_the_monomials(self, capsys, monkeypatch):
        # both integrals in one map, each derivative of a monomial and of
        # H m formed once; at two maps, one per integral, it took 1,296
        # derivatives
        monkeypatch.delenv("DUNKLCMS_WORKERS", raising=False)
        calls, maps = [], []
        original, real_map = RatFun.diff, weyl.ordered_map
        monkeypatch.setattr(RatFun, "diff", lambda self, i: calls.append(i) or original(self, i))
        monkeypatch.setattr(weyl, "ordered_map", lambda fn, items: maps.append(1) or real_map(fn, items))
        code = cli.run(["verify", "moser-integrals", "--family", "rat-a", "--n", "2", "--m", "1",
                        "--r", "2", "--basis-deg", "4", "--mode", "sampled", "--seed", "1", "--no-timing"])
        assert code == 0, capsys.readouterr().out
        assert len(calls) <= 756
        assert len(maps) == 1

    def test_trig_bc_commutes_on_laurent_monomials(self):
        # the BC operators act on Laurent polynomials; spot-check negative exponents
        par = ParityData(1, 1)
        H = hamiltonian(Family.TRIG_BC, par, gauged=False)
        I = moser_integral(Family.TRIG_BC, par, 1)
        for exps in ((-1, 1), (-2, 0), (-1, -1)):
            mono = MultiPoly(2, {exps: ONE})
            v1 = I.apply(H.apply(mono))
            v2 = H.apply(I.apply(mono))
            assert (v1 - v2).is_zero(), exps

    def test_higher_block_integrals_commute_mutually(self):
        # the fourth-power integrals commute with the second-power ones, fully
        # symbolically, for both block families
        par = ParityData(1, 1)
        for fam in (Family.RAT_B, Family.TRIG_BC):
            I1 = moser_integral(fam, par, 1)
            I2 = moser_integral(fam, par, 2)
            assert commute_check(I1, I2, "symbolic").ok

    def test_commute_check_detects_noncommuting(self):
        x = WeylOp.mul_by(rf(V(1, 0)))
        d = WeylOp.partial(1, 0)
        assert not commute_check(x, d, "symbolic").ok
        assert not commute_check(x, d, "basis", deg=2).ok


class TestCommuteChecks:
    """``commute_checks`` on a list of operators against the reference
    route, which checks one operator at a time and applies both orders
    separately (``reference_ops.basis_commute_check``)."""

    @staticmethod
    def cases():
        par = ParityData(1, 1)
        x1 = WeylOp.mul_by(rf(V(2, 0)))
        d1 = WeylOp.partial(2, 0)
        H = hamiltonian(Family.RAT_B, par)
        # the total momentum commutes with d1, x1 does not; H commutes with
        # its integral, not with x1 nor d1
        return [([moser_integral(Family.RAT_A, par, 1), x1], d1),
                ([moser_integral(Family.RAT_B, par, 1), x1, d1], H)]

    @pytest.mark.parametrize("workers", [None, "2"])
    @pytest.mark.parametrize("deg", [0, 2, 3])
    def test_reports_match_the_reference_route(self, monkeypatch, workers, deg):
        monkeypatch.delenv("DUNKLCMS_WORKERS", raising=False)
        if workers:
            monkeypatch.setenv("DUNKLCMS_WORKERS", workers)
        for As, B in self.cases():
            reports = commute_checks(As, B, "basis", deg)
            assert reports == [basis_commute_check(A, B, deg) for A in As]
            assert reports[0].ok and not reports[-1].ok
            assert all(rep.ok != bool(rep.counterexamples) for rep in reports)

    def test_symbolic_reports_are_those_of_each_operator(self):
        for As, B in self.cases():
            assert commute_checks(As, B) == [commute_check(A, B) for A in As]

    @pytest.mark.parametrize("mode", ["symbolic", "basis"])
    def test_empty_list(self, mode):
        H = hamiltonian(Family.RAT_A, ParityData(1, 1))
        assert commute_checks([], H, mode, 3) == []
        with pytest.raises(ValueError):
            commute_checks([], H, mode, -1)


def matrix_power_total(L, weights, p):
    """e* L^p e by the matrix route: L^p by repeated ``matmul``, then the sum
    of weights[i] * (L^p)_ij over all entries."""
    power = L
    for _ in range(p - 1):
        power = matmul(power, L)
    total = WeylOp.zero(L[0, 0].nvars)
    for i, row in enumerate(power.entries):
        for op in row:
            total = total + op.scale(weights[i])
    return total


class TestCovectorIntegrals:
    """e* L^p e as the row e* L carried through p - 1 compositions with L,
    folded to the N-entry row on A + B and A - B for the B families."""

    @pytest.mark.parametrize("family, parity, rmax", [
        (Family.RAT_A, ParityData(2, 1), 3),
        (Family.TRIG_A, ParityData(2, 2), 2),
        (Family.RAT_B, ParityData(1, 1), 2),
        (Family.TRIG_BC, ParityData(1, 1), 2),
        (Family.RAT_B, ParityData(2, 1), 2),
        (Family.RAT_B, ParityData(1, 2), 1),
        (Family.RAT_B, ParityData(2, 0), 2),
        (Family.TRIG_BC, ParityData(2, 0), 1),
    ])
    def test_matches_the_matrix_power(self, family, parity, rmax):
        L, w = moser_L(family, parity), estar_weights(family, parity)
        for r in range(1, rmax + 1):
            got = moser_integral(family, parity, r)
            expected = matrix_power_total(L, w, 2 * r if family.even_integrals else r)
            assert got == expected, r
            assert got.text() == expected.text(), r  # the same canonical coefficients

    @pytest.mark.parametrize("family, parity, r, compositions", [
        (Family.RAT_A, ParityData(2, 1), 3, 18),  # the matrix power took 54
        (Family.RAT_B, ParityData(1, 1), 1, 4),  # 16 by the full row, 64 by the matrix power
        (Family.TRIG_BC, ParityData(1, 1), 2, 12),  # 48; 192
        (Family.RAT_B, ParityData(2, 1), 2, 27),  # 108; 648
    ])
    def test_compositions_stay_bounded(self, monkeypatch, family, parity, r, compositions):
        # (p - 1) n^2 for the power p of the n x n matrix L, and for the
        # B families (p - 1) N^2 on the folded N-entry row (N = n + m)
        calls = []
        original = WeylOp._compose_into

        def wrapper(self, *args):
            calls.append(1)
            return original(self, *args)

        monkeypatch.setattr(WeylOp, "_compose_into", wrapper)
        moser_integral(family, parity, r)
        assert len(calls) <= compositions

    @pytest.mark.parametrize("family", [Family.RAT_A, Family.RAT_B])
    def test_power_below_one_raises(self, family):
        with pytest.raises(ValueError, match="power 0 is below 1"):
            moser_integral(family, ParityData(1, 1), 0)

    def test_apply_to_a_polynomial_and_to_its_rational_function(self):
        # one apply serves both: x0^2 x1 as a MultiPoly and as a RatFun give
        # the same value, and a rational argument is differentiated in full
        par = ParityData(1, 1)
        H = hamiltonian(Family.RAT_A, par, gauged=False)
        mono = V(2, 0, 2) * V(2, 1)
        assert H.apply(mono).text() == H.apply(RatFun(mono)).text()
        f = rf(MultiPoly.const(2, 1), [(V(2, 0), 1)])  # 1/x0
        d = WeylOp.partial(2, 0)
        assert d.compose(d).apply(f) == rf(MultiPoly.const(2, 2), [(V(2, 0), 3)])


class TestFoldedRow:
    """A B family's row iteration folds the block form [[A, B], [-B, -A]]:
    the N-entry row steps by A + B and A - B in turn (``weyl._row_steps``),
    against the full 2N-entry row of the tests (``reference_ops.sandwich``);
    ``TestCovectorIntegrals`` compares it with the matrix power."""

    @pytest.mark.parametrize("family", [Family.RAT_B, Family.TRIG_BC])
    @pytest.mark.parametrize("size", [(2, 0), (1, 1), (2, 1)])
    def test_the_gauged_matrix_keeps_the_block_form(self, family, size):
        G = moser_L_gauged(family, ParityData(*size))
        N = G.rows // 2
        for i in range(N):
            for j in range(N):
                assert G[N + i, N + j] == -G[i, j], (i, j)
                assert G[N + i, j] == -G[i, N + j], (i, j)

    @pytest.mark.parametrize("family", [Family.RAT_B, Family.TRIG_BC])
    @pytest.mark.parametrize("N", [1, 2])
    def test_gauged_hamiltonian_is_half_the_full_row_total(self, family, N):
        parity = ParityData(N, 0)
        G = moser_L_gauged(family, parity)
        full = sandwich(G, G.row(estar_weights(family, parity)), 2)
        assert full[0].is_zero()
        assert hamiltonian(family, parity, gauged=True) == full[1].scale(ParamRatio.fraction(1, 2))

    @pytest.mark.parametrize("family, size", [(Family.RAT_B, (1, 1)), (Family.TRIG_BC, (2, 0))])
    def test_a_fold_that_steps_by_a_minus_b_on_even_powers_fails(self, monkeypatch, family, size):
        # the row (u, -u) of an odd power meets L as u (A + B); stepping it
        # by A - B instead gives a different e* L^2 e and e* L^4 e
        parity = ParityData(*size)
        L = moser_L(family, parity)
        right = sandwich(L, L.row(estar_weights(family, parity)), 4)
        steps = weyl._row_steps

        def wrong(fam, M):
            (minus, _), factors = steps(fam, M)
            return (minus, minus), factors

        monkeypatch.setattr(weyl, "_row_steps", wrong)
        for r in (1, 2):
            assert moser_integral(family, parity, r) != right[2 * r - 1], r


class TestOneBuild:
    """``moser_integrals`` substitutes H, L and the row e* L before the first
    composition; the old route substituted each finished operator."""

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("size", [(1, 1), (2, 1), (1, 2), (2, 0)])
    def test_matches_the_substituted_symbolic_route(self, family, size):
        # every order up to 3, or 2 for the B families; but 1 for trig BC at
        # three particles, whose symbolic e* L^4 e alone takes minutes
        parity = ParityData(*size)
        rmax = 3 if not family.even_integrals else 1 if family.trig and sum(size) == 3 else 2
        symbolic = [moser_integral(family, parity, r) for r in range(1, rmax + 1)]
        H = hamiltonian(family, parity, gauged=False)
        factor = weyl.integral_hamiltonian_factor(family)
        points = [{"k": const(-2)}, {"k": ParamRatio.fraction(3, 2)}, cli._sample_bindings(family, 3)]
        for b in points:
            Hb, integrals, (lam, cst, residual) = moser_integrals(family, parity, rmax, b)
            old = [I.substitute(b) for I in symbolic]
            assert Hb == H.substitute(b)
            assert integrals == old
            diff = old[0 if family.even_integrals else 1] - Hb.scale(factor)
            assert (lam, cst) == (factor, diff.constant_part())
            assert residual == diff - WeylOp.mul_by(cst) and residual.is_zero()

    def test_without_bindings_it_is_symbolic(self):
        parity = ParityData(2, 1)
        H, integrals, _ = moser_integrals(Family.TRIG_A, parity, 3)
        assert H == hamiltonian(Family.TRIG_A, parity)
        assert integrals == [moser_integral(Family.TRIG_A, parity, r) for r in (1, 2, 3)]


def moser_identity_failures(family, parity, d, G):
    """(rows checked, failures) of phi_i(D f) = sum_j G_ij phi_j(f) on the
    basis {x^a m : a + deg m <= d}, m from ``pmono_basis(d, d)``, with x^-a m
    added for trig BC; phi_i is ``Hom(family, parity, i)`` and D the Dunkl
    operator at infinity.  Row N + i of a B family reads phi_i . s on both
    sides, s the reflection."""
    homs = [Hom(family, parity, i) for i in range(parity.size)]

    def phis(f):
        out = [h.apply(f) for h in homs]
        if family.even_integrals:
            out += [h.apply(reflect(f, family)) for h in homs]
        return out

    D = InfDunkl(family)
    exps = range(-d, d + 1) if family is Family.TRIG_BC else range(d + 1)
    rows, failures = 0, []
    for m in pmono_basis(d, d):
        for a in exps:
            if abs(a) + pmono_degree(m) > d:
                continue
            f = LambdaXElem({(a, m): ONE})
            rhs_args, lhs = phis(f), phis(D.apply(f, 1))
            for i in range(G.rows):
                rows += 1
                rhs = RatFun.sum(parity.size, [G[i, j].apply(g) for j, g in enumerate(rhs_args)])
                if rhs != RatFun(lhs[i]):
                    failures.append((i, f.text()))
    return rows, failures


class TestMoserIdentity:
    """G is the paper's quantum Moser matrix: phi_i(D f) = sum_j G_ij phi_j(f)
    for every row i, checked on a degree basis at symbolic k.  By induction
    phi_i(D^r f) = (G^r phi(f))_i, which links e* G^r e to E . D^r."""

    @pytest.mark.parametrize("family, size, d, rows", [
        (Family.RAT_A, (2, 1), 3, 42), (Family.RAT_A, (3, 1), 4, 104),
        (Family.TRIG_A, (2, 1), 3, 42), (Family.TRIG_A, (2, 2), 4, 104),
        (Family.RAT_B, (2, 1), 3, 84), (Family.RAT_B, (1, 1), 4, 104),
        (Family.TRIG_BC, (2, 0), 3, 84),
    ])
    def test_every_row_holds(self, family, size, d, rows):
        parity = ParityData(*size)
        assert moser_identity_failures(family, parity, d, moser_L_gauged(family, parity)) == (rows, [])

    @pytest.mark.parametrize("family, size", [(Family.RAT_A, (1, 1)), (Family.TRIG_A, (1, 1)),
                                              (Family.RAT_B, (2, 0)), (Family.TRIG_BC, (2, 0))])
    def test_the_ungauged_matrix_fails(self, family, size):
        # L's diagonal does not kill constants: the identity fails on every
        # row and every basis element
        parity = ParityData(*size)
        rows, failures = moser_identity_failures(family, parity, 2, moser_L(family, parity))
        assert rows and len(failures) == rows


class TestGauge:
    def test_shift_definition(self):
        w = RatFun(MultiPoly.const(2, K), {V(2, 0) - V(2, 1): 1})
        out = gauge_conjugate(WeylOp.partial(2, 0), [w, RatFun.zero(2)])
        assert out == WeylOp.partial(2, 0) + WeylOp.mul_by(w)

    def test_shifted_square(self):
        n = 1
        w = RatFun(MultiPoly.const(1, 1), {V(1, 0): 1})  # 1/x
        d = WeylOp.partial(1, 0)
        out = gauge_conjugate(d.compose(d), [w])
        expected = (
            d.compose(d)
            + WeylOp.mul_by(w.scale(const(2))).compose(d)
            + WeylOp.mul_by(w * w + w.diff(0))
        )
        assert out == expected

    def test_ungauged_to_gauged_rational(self):
        par = ParityData(2, 1)
        Hu = hamiltonian(Family.RAT_A, par, gauged=False)
        Hg = hamiltonian(Family.RAT_A, par, gauged=True)
        w = [-x for x in psi0_logderivs(Family.RAT_A, par)]
        assert gauge_conjugate(Hu, w) == Hg

    def test_ungauged_to_gauged_trig_constant(self):
        par = ParityData(1, 1)
        Hu = hamiltonian(Family.TRIG_A, par, gauged=False)
        Hg = hamiltonian(Family.TRIG_A, par, gauged=True)
        w = psi0_logderivs(Family.TRIG_A, par)
        diff = gauge_conjugate(Hu, w) - Hg
        c = diff.constant_part()
        assert (diff - WeylOp.mul_by(c)).is_zero() and c.is_scalar()
        # the ground-state shift (k+1)/4
        assert c == RatFun(MultiPoly.const(2, (K + ONE) * ParamRatio.fraction(1, 4)))

    @pytest.mark.parametrize("family", [Family.RAT_B, Family.TRIG_BC])
    @pytest.mark.parametrize("size", [(1, 0), (0, 1), (1, 1), (2, 1)])
    def test_b_families_have_no_ground_state_factor(self, family, size):
        with pytest.raises(UnsupportedFamily):
            psi0_logderivs(family, ParityData(*size))

    def test_gauged_trig_matrix_gives_gauged_hamiltonian(self):
        # e* G^2 e written out: (x1 d1)^2 + k (x2 d2)^2 less the pair term
        # (x1 + x2) / (x1 - x2) times x1 d1 - k x2 d2
        par = ParityData(1, 1)
        T1, T2 = WeylOp.euler(2, 0), WeylOp.euler(2, 1)
        f = RatFun(V(2, 0) + V(2, 1), {V(2, 0) - V(2, 1): 1})
        expected = (T1.compose(T1) + T2.compose(T2).scale(K)
                    - WeylOp.mul_by(f).compose(T1 - T2.scale(K)))
        assert hamiltonian(Family.TRIG_A, par, gauged=True) == expected

    @pytest.mark.parametrize("size", [(1, 1), (2, 1), (1, 2)])
    def test_rational_a_matrix_is_the_conjugated_one(self, size):
        # G_ij = (1/psi0) L_ij psi0 entry by entry, with w minus the
        # log-derivatives of psi0
        par = ParityData(*size)
        L, G = moser_L(Family.RAT_A, par), moser_L_gauged(Family.RAT_A, par)
        w = [-x for x in psi0_logderivs(Family.RAT_A, par)]
        for i in range(par.size):
            for j in range(par.size):
                assert G[i, j] == gauge_conjugate(L[i, j], w), (i, j)

    def test_gauge_connects_both_trig_matrices(self):
        par = ParityData(1, 1)
        I2 = moser_integral(Family.TRIG_A, par, 2)
        Lg = moser_L_gauged(Family.TRIG_A, par)
        I2g = sandwich(Lg, Lg.row(estar_weights(Family.TRIG_A, par)), 2)[-1]
        w = psi0_logderivs(Family.TRIG_A, par)
        assert gauge_conjugate(I2, w) == I2g


class TestDegenerations:
    def test_k_one_matches_undeformed_integrals(self):
        one = {"k": const(1)}
        par = ParityData(1, 1)
        hom = Hom(Family.RAT_A, par)
        w = [-x for x in psi0_logderivs(Family.RAT_A, par)]
        for r in (1, 2, 3):
            G = gauge_conjugate(moser_integral(Family.RAT_A, par, r), w).substitute(one)
            for f in (LambdaElem.p(2), LambdaElem.p(1) * LambdaElem.p(2)):
                g1 = hom.apply(f).substitute(one)
                lhs = G.apply(g1)
                rhs = heckman_integral(Family.RAT_A, 2, r, g1).substitute(one)
                assert (lhs - RatFun(rhs)).is_zero()

    @pytest.mark.parametrize("size", [(1, 1), (2, 1), (1, 2)])
    def test_k_one_integrals_are_the_conjugated_ones(self, monkeypatch, size):
        # the e* G^r e of degenerate_k1_check, r <= 3, against the reference
        # route: e* L^r e built at k = 1 and conjugated by the ground state
        parity, one = ParityData(*size), {"k": const(1)}
        seen, powers = [], weyl._integral_powers

        def spy(*args):
            seen.append(powers(*args))
            return seen[-1]

        monkeypatch.setattr(weyl, "_integral_powers", spy)
        assert all(res.ok for res in weyl.degenerate_k1_check(parity, 3))
        monkeypatch.undo()
        _, integrals, _ = moser_integrals(Family.RAT_A, parity, 3, one)
        w = [-x.substitute(one) for x in psi0_logderivs(Family.RAT_A, parity)]
        assert seen == [[gauge_conjugate(I, w) for I in integrals]]

    def test_k_one_check_needs_an_integral(self):
        # R = 0 would leave only the vacuous empty list
        with pytest.raises(ValueError, match="R=0 is below the minimum 1"):
            weyl.degenerate_k1_check(ParityData(1, 1), 0)

    def test_m_zero_reduces_to_undeformed(self):
        for fam in Family:
            par = ParityData(2, 0)
            Hg = hamiltonian(fam, par, gauged=True)
            hom = Hom(fam, par)
            for f in (LambdaElem.p(1), LambdaElem.p(2)):
                g = hom.apply(f)
                lhs = Hg.apply(g)
                rhs = heckman_integral(fam, 2, 1 if fam.even_integrals else 2, g)
                assert (lhs - RatFun(rhs)).is_zero()
