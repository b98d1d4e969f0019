"""Acceptance suite: every check exact (zero tolerance), symbolic in all
parameters, at the stated desk scales.  One criterion per test, each printing
a single PASS/FAIL line.
"""

import sys

from dunklcms.coeffs import ONE, const, symbol
from dunklcms.dunkl_infinity import (
    apply_closed_form_L2,
    commutator_on_basis,
    integral_L,
    pmono_basis,
)
from dunklcms.finite_cms import (
    Hom,
    MultiPoly,
    ParityData,
    deformed_integral,
    diagram_check,
    finite_dunkl,
    heckman_integral,
    standard_testset,
)
from dunklcms.powersums import Family, LambdaElem
from dunklcms.weyl import (
    RatFun,
    commute_check,
    gauge_conjugate,
    hamiltonian,
    integral_vs_hamiltonian,
    lax_check,
    moser_integral,
    psi0_logderivs,
)

K = symbol("k")
Q = symbol("q")
P = symbol("p")


def _report(number: int, title: str, ok: bool):
    line = "ACCEPTANCE %d %-22s %s" % (number, title, "PASS" if ok else "FAIL")
    print(line, file=sys.stderr)
    assert ok, line


def test_criterion_1_closed_form_agreement():
    ok = True
    for family, deg in (
        (Family.RAT_A, 8),
        (Family.TRIG_A, 8),
        (Family.RAT_B, 6),
        (Family.TRIG_BC, 6),
    ):
        r = 1 if family.even_integrals else 2
        for m in pmono_basis(deg, deg):
            f = LambdaElem.monomial(m)
            ok = ok and (apply_closed_form_L2(family, f) - integral_L(family, r, f)).is_zero()
    # cross-check values, frozen from the finite oracles
    p0, p1, p2 = LambdaElem.p(0), LambdaElem.p(1), LambdaElem.p(2)
    ok = ok and integral_L(Family.RAT_A, 2, p2) == (
        (p0 * p0).scale(-K.scale(2)) + p0.scale((ONE + K).scale(2))
    )
    ok = ok and integral_L(Family.TRIG_A, 2, p1) == (
        p1.scale(ONE + K) - (p0 * p1).scale(K)
    )
    ok = ok and integral_L(Family.RAT_B, 1, p1) == (
        (p0 * p0).scale(-K.scale(4)) + p0.scale(const(2) + K.scale(4) - Q.scale(4))
    )
    _report(1, "closed-form", ok)


def test_criterion_2_commutativity_at_infinity():
    ok = True
    for family, pairs, deg in (
        (Family.RAT_A, ((2, 3), (2, 4), (3, 4)), 6),
        (Family.TRIG_A, ((2, 3), (2, 4), (3, 4)), 6),
        (Family.RAT_B, ((1, 2), (1, 3)), 4),
        (Family.TRIG_BC, ((1, 2), (1, 3)), 4),
    ):
        for r, s in pairs:
            for _m, residual in commutator_on_basis(family, r, s, deg, deg):
                ok = ok and residual.is_zero()
    _report(2, "commute-at-infinity", ok)


def test_criterion_3_reduction_diagrams():
    ok = True
    full = standard_testset()
    lam_only = standard_testset(with_x=False)
    for family in Family:
        for N in (2, 3, 4):
            for r in (1, 2, 3):
                for i in (0, N - 1):
                    ok = ok and diagram_check("dcomm", family, full, r=r, parity=ParityData(N, 0), i=i).ok
                ok = ok and diagram_check("heckdiag", family, lam_only, r=r, parity=ParityData(N, 0)).ok
    for (n, m) in ((1, 1), (2, 1), (1, 2)):
        parity = ParityData(n, m)
        for r in (1, 2, 3):
            for i in (0, parity.size - 1):
                ok = ok and diagram_check(
                    "propcomm", Family.RAT_A, lam_only, r=r, parity=parity, i=i
                ).ok
            ok = ok and diagram_check(
                "intrat", Family.RAT_A, lam_only, r=r, parity=parity
            ).ok
    _report(3, "reduction-diagrams", ok)


def test_criterion_4_quantum_lax():
    ok = True
    for family in (Family.RAT_A, Family.TRIG_A):
        for (n, m) in ((1, 1), (2, 1), (1, 2)):
            rep = lax_check(family, ParityData(n, m))
            ok = ok and rep.ok and len(rep.results) == (n + m) ** 2
    _report(4, "quantum-lax", ok)


def test_criterion_5_deformed_integrals():
    ok = True
    # symbolic commutation for the A families
    for family in (Family.RAT_A, Family.TRIG_A):
        for (n, m) in ((1, 1), (2, 1)):
            parity = ParityData(n, m)
            H = hamiltonian(family, parity, gauged=False)
            for r in (1, 2, 3):
                ok = ok and commute_check(moser_integral(family, parity, r), H, "symbolic").ok
    # basis-mode commutation for the B families, symbolic in k, q (and p)
    for family in (Family.RAT_B, Family.TRIG_BC):
        parity = ParityData(1, 1)
        H = hamiltonian(family, parity, gauged=False)
        I2 = moser_integral(family, parity, 1)
        ok = ok and commute_check(I2, H, "basis", deg=4).ok
    # the second integral against the Hamiltonian: exact for rational A, a
    # scalar constant for trig A, the block factor -2/+2 plus a scalar for B/BC
    for family, exact in (
        (Family.RAT_A, True),
        (Family.TRIG_A, False),
        (Family.RAT_B, True),
        (Family.TRIG_BC, False),
    ):
        for nm in ((1, 1), (2, 1)):
            factor, cst, residual = integral_vs_hamiltonian(family, ParityData(*nm))
            ok = ok and residual.is_zero() and cst.is_scalar()
            if exact:
                ok = ok and cst.is_zero()
    # the rational block family also commutes fully symbolically
    parity = ParityData(1, 1)
    ok = ok and commute_check(
        moser_integral(Family.RAT_B, parity, 1),
        hamiltonian(Family.RAT_B, parity, gauged=False),
        "symbolic",
    ).ok
    # mutual commutativity beyond the Lax argument
    parity = ParityData(2, 1)
    I2 = moser_integral(Family.RAT_A, parity, 2)
    I3 = moser_integral(Family.RAT_A, parity, 3)
    ok = ok and commute_check(I2, I3, "basis", deg=4).ok
    _report(5, "deformed-integrals", ok)


def test_criterion_6_recursion_consistency():
    ok = True
    parity = ParityData(2, 1)
    tests = [("p1", LambdaElem.p(1)), ("p2", LambdaElem.p(2)), ("p3", LambdaElem.p(3))]
    for r in (1, 2, 3):
        for i in (0, 2):
            rep = diagram_check("propcomm", Family.RAT_A, tests, r=r, parity=parity, i=i)
            ok = ok and rep.ok
    # the second deformed integral coincides with the gauged deformed operator
    hom = Hom(Family.RAT_A, parity)
    Hg = hamiltonian(Family.RAT_A, parity, gauged=True)
    for _label, f in tests:
        g = hom.apply(f)
        lhs = deformed_integral(parity, 2, g)
        ok = ok and (Hg.apply(g) - RatFun(lhs)).is_zero()
    _report(6, "recursion-consistency", ok)


def test_criterion_7_degenerations():
    ok = True
    one = {"k": const(1)}
    parity = ParityData(1, 1)
    hom = Hom(Family.RAT_A, parity)
    tests = [LambdaElem.p(1), LambdaElem.p(2), LambdaElem.p(3),
             LambdaElem.p(1) * LambdaElem.p(2)]
    # k = 1: the deformed recursion integrals become the undeformed ones
    for r in (1, 2, 3):
        for f in tests:
            g = hom.apply(f)
            lhs = deformed_integral(parity, r, g).substitute(one)
            rhs = heckman_integral(Family.RAT_A, 2, r, g.substitute(one)).substitute(one)
            ok = ok and lhs == rhs
    # k = 1: the gauged Moser integrals agree with the undeformed ones
    w = [-x for x in psi0_logderivs(Family.RAT_A, parity)]
    for r in (1, 2, 3):
        G = gauge_conjugate(moser_integral(Family.RAT_A, parity, r), w).substitute(one)
        for f in tests:
            g1 = hom.apply(f).substitute(one)
            rhs = heckman_integral(Family.RAT_A, 2, r, g1).substitute(one)
            ok = ok and (G.apply(g1) - RatFun(rhs)).is_zero()
    # m = 0: deformed operators reduce to the undeformed family operators
    for family in Family:
        parN = ParityData(2, 0)
        Hg = hamiltonian(family, parN, gauged=True)
        homN = Hom(family, parN)
        for f in (LambdaElem.p(1), LambdaElem.p(2)):
            g = homN.apply(f)
            rhs = heckman_integral(family, 2, 1 if family.even_integrals else 2, g)
            ok = ok and (Hg.apply(g) - RatFun(rhs)).is_zero()
    # m = 0: the deformed recursion integrals become the symmetrized powers
    parN = ParityData(3, 0)
    homN = Hom(Family.RAT_A, parN)
    for r in (1, 2, 3):
        for f in (LambdaElem.p(2), LambdaElem.p(3)):
            g = homN.apply(f)
            ok = ok and deformed_integral(parN, r, g) == heckman_integral(Family.RAT_A, 3, r, g)
    _report(7, "degenerations", ok)


def test_criterion_8_negative_control():
    # The stated N=2 trig commutator vanishes identically (rank one): prove
    # the vanishing on a full degree box, then exhibit the genuine
    # non-commutativity at N=3 (trig A) and N=2 (trig BC), so the suite cannot
    # pass with a trivially-zero implementation.
    ok = True
    for a in range(6):
        for b in range(6):
            f = MultiPoly(2, {(a, b): ONE})
            ab = finite_dunkl(Family.TRIG_A, 2, 0, finite_dunkl(Family.TRIG_A, 2, 1, f))
            ba = finite_dunkl(Family.TRIG_A, 2, 1, finite_dunkl(Family.TRIG_A, 2, 0, f))
            ok = ok and ab == ba
    f = MultiPoly.var(3, 2)
    ab = finite_dunkl(Family.TRIG_A, 3, 0, finite_dunkl(Family.TRIG_A, 3, 1, f))
    ba = finite_dunkl(Family.TRIG_A, 3, 1, finite_dunkl(Family.TRIG_A, 3, 0, f))
    ok = ok and ab != ba
    g = MultiPoly.var(2, 0, -2) * MultiPoly.var(2, 1, -2)
    ab = finite_dunkl(Family.TRIG_BC, 2, 0, finite_dunkl(Family.TRIG_BC, 2, 1, g))
    ba = finite_dunkl(Family.TRIG_BC, 2, 1, finite_dunkl(Family.TRIG_BC, 2, 0, g))
    ok = ok and ab != ba
    _report(8, "negative-control", ok)
