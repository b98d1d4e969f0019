"""The reference routes of the tests: the term-by-term Dunkl building blocks
and the operator-matrix products.

``dunkl_infinity.InfDunkl`` computes every power of D in one packed stencil
kernel.  This module composes the same operator from its parts, one
``LambdaXElem`` at a time, with a canonical coefficient for every term of
every intermediate result, so the tests can check the kernel against an
independent route:

* ``partial``    the family derivation (rational A: p_l -> l x^(l-1),
  trigonometric A: l x^l, rational B: 2l x^(2l-1), trigonometric BC:
  l (x^l - x^(-l)))
* ``delta``      the difference-part operator, defined on x-powers by
  ``dunkl_infinity._delta_of_x_power`` and extended linearly over the
  power-sum coefficients
* ``reflect``    the sign involution of rational B (x -> -x) and the
  inversion of trigonometric BC (x -> 1/x)
* ``project_E``  the projection back into the power-sum algebra that turns
  x-powers into power sums
* ``divide_by_x_poly``  exact division by a polynomial in x alone

``dunkl_infinity.LambdaDiffOp.apply`` runs a differential operator in the
power sums over packed numerators; the term-by-term route here applies it
one term and one derivation at a time:

* ``derivation``  the scaled derivation a * d/dp_a of a ``LambdaElem``
* ``apply_term_by_term``  every term of a ``LambdaDiffOp`` on its own, its
  derivatives taken from the argument

The library forms e* L^r e by one row iteration, which folds the block
form of a B family's L to an N-entry row stepped by A + B and A - B in turn
(``weyl._row_steps``), and the Lax residuals from the parts of H and M; the
routes here carry the full row, or form whole matrices:

* ``estar_weights``  the covector e* of the full matrix, k^-p(i) on both
  halves for a B family
* ``sandwich``   e* L^q e for q = 1, ..., p by the row e* L of all 2N
  entries of a B family's L stepped by L itself, 4 N^2 compositions per
  power
* ``matmul``     the product of two ``OpMatrix`` values, each entry a sum of
  compositions
* ``matsub``     their entrywise difference

``weyl.lax_check`` forms the residuals of the orbit representatives of the
entries under S_n x S_m only, once L, M and H are checked equivariant; the
route here forms every entry:

* ``lax_check_all_entries``  the report from the n^2 residuals, each formed
  by ``weyl._lax_entry``

``weyl.commute_checks`` checks a list of operators against B on the monomial
basis in one pass, sharing derivatives and reducing each residual once, and
applies them only to one monomial of each orbit of the transpositions that
leave them all invariant; the route here checks one operator at a time, on
every monomial, both orders applied separately:

* ``commutator_on_x_monomial``  A(B m) - B(A m) on one monomial m, by four
  applications and a subtraction
* ``basis_commute_check``  the basis report of one operator from it

``weyl.moser_L_gauged`` gauges the Moser matrix by its row rule; the route
here conjugates by the ground-state factor of the A families instead:

* ``gauge_conjugate``  (1/Psi) op Psi by the shift d_i -> d_i + w_i
* ``psi0_logderivs``   the logarithmic derivatives w_i of that factor

``finite_cms.heckman_integral`` sums the S_N-orbit of the one power
D_{0,N}^r f; the route here applies every operator:

* ``heckman_integral_direct``  the sum over i of D_{i,N}^r f, one kernel
  call per i

It is imported by the test modules only; pytest does not collect it.
"""

from dunklcms import weyl
from dunklcms.coeffs import ONE, Rat, k_power
from dunklcms.dunkl_infinity import _delta_of_x_power
from dunklcms.finite_cms import MultiPoly, finite_dunkl
from dunklcms.powersums import (
    Family,
    InexactDivision,
    LambdaElem,
    LambdaXElem,
    UnsupportedFamily,
    pmono_mul,
    pmono_text,
)
from dunklcms.weyl import (
    CommuteReport,
    LaxReport,
    OpMatrix,
    RatFun,
    WeylOp,
    _monomials,
    _pair_factors,
    _pair_term,
)


def _check_family_domain(f: LambdaXElem, family: Family):
    if not family.laurent and any(a < 0 for a, _ in f.terms):
        raise UnsupportedFamily("Laurent element in a polynomial family")


def partial(f: LambdaXElem, family: Family) -> LambdaXElem:
    """The family derivation, extended from the generator rules by Leibniz."""
    _check_family_domain(f, family)
    out: dict = {}

    def add(key, c):
        v = out.get(key)
        s = c if v is None else v + c
        if s.is_zero():
            out.pop(key, None)
        else:
            out[key] = s

    for (a, m), c in f.terms.items():
        # d(x^a) * m
        if a != 0:
            if family in (Family.RAT_A, Family.RAT_B):
                add((a - 1, m), c.scale(a))
            else:
                add((a, m), c.scale(a))
        # x^a * sum over generators of the monomial
        for pos, (idx, mult) in enumerate(m):
            if idx == 0:
                continue
            rest = list(m)
            if mult == 1:
                del rest[pos]
            else:
                rest[pos] = (idx, mult - 1)
            rest = tuple(rest)
            cc = c.scale(mult)
            if family is Family.RAT_A:
                add((a + idx - 1, rest), cc.scale(idx))
            elif family is Family.TRIG_A:
                add((a + idx, rest), cc.scale(idx))
            elif family is Family.RAT_B:
                add((a + 2 * idx - 1, rest), cc.scale(2 * idx))
            else:  # TRIG_BC: l (x^l - x^-l)
                add((a + idx, rest), cc.scale(idx))
                add((a - idx, rest), -cc.scale(idx))

    return LambdaXElem(out)


def delta(f: LambdaXElem, family: Family) -> LambdaXElem:
    """The family difference-part operator, linear over power sums."""
    _check_family_domain(f, family)
    out: dict = {}
    cache: dict = {}
    for (a, m), c in f.terms.items():
        rules = cache.get(a)
        if rules is None:
            rules = _delta_of_x_power(a, family)
            cache[a] = rules
        for xexp, pidx, scalar in rules:
            mm = m if pidx is None else pmono_mul(m, ((pidx, 1),))
            key = (xexp, mm)
            cc = c.scale(scalar)
            v = out.get(key)
            s = cc if v is None else v + cc
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
    return LambdaXElem(out)


def reflect(f: LambdaXElem, family: Family) -> LambdaXElem:
    """The rational-B sign involution or the trigonometric-BC inversion."""
    if family is Family.RAT_B:
        return LambdaXElem({(a, m): (-c if a % 2 else c) for (a, m), c in f.terms.items()})
    if family is Family.TRIG_BC:
        return LambdaXElem({(-a, m): c for (a, m), c in f.terms.items()})
    raise UnsupportedFamily("no reflection in family %s" % family.value)


def project_E(f: LambdaXElem, family: Family) -> LambdaElem:
    """Project back into the power-sum algebra by turning x-powers into power sums."""
    out: dict = {}
    for (a, m), c in f.terms.items():
        if family in (Family.RAT_A, Family.TRIG_A):
            if a < 0:
                raise ValueError("negative x power in an A-family element")
            idx = a
        elif family is Family.RAT_B:
            if a % 2:
                continue
            idx = a // 2
        else:
            idx = abs(a)
        mm = pmono_mul(m, ((idx, 1),))
        v = out.get(mm)
        s = c if v is None else v + c
        if s.is_zero():
            out.pop(mm, None)
        else:
            out[mm] = s
    return LambdaElem(out)


def divide_by_x_poly(f: LambdaXElem, divisor: dict) -> LambdaXElem:
    """Exact division by a polynomial in x alone (e.g. {1: 1, 0: -1} for x - 1).

    Works per power-sum monomial: the x-Laurent coefficients are shifted to an
    ordinary polynomial, divided synthetically, and shifted back.  Raises
    InexactDivision when a remainder survives; for the reflection terms
    divisibility is structural, so a remainder signals a transcription bug.
    ``InfDunkl.apply`` takes these quotients in closed form; this division
    serves the term-by-term reference route of the test suite.
    """
    lead = max(divisor)
    inv_lead = Rat(1) / Rat(divisor[lead])
    if len(divisor) == 1:
        # monomial divisor: shift the x exponent, exact in the Laurent ring
        return LambdaXElem({(a - lead, m): c.scale(inv_lead) for (a, m), c in f.terms.items()})
    groups: dict = {}
    for (a, m), c in f.terms.items():
        groups.setdefault(m, {})[a] = c
    out: dict = {}
    for m, poly in groups.items():
        shift = min(poly)
        poly = {a - shift: c for a, c in poly.items()}
        quo: dict = {}
        while poly:
            top = max(poly)
            if top < lead:
                raise InexactDivision("x-division left remainder on %s" % pmono_text(m))
            c = poly.pop(top).scale(inv_lead)
            qexp = top - lead
            quo[qexp] = c
            for d_exp, d_c in divisor.items():
                if d_exp == lead:
                    continue
                key = qexp + d_exp
                v = poly.get(key)
                s = -c.scale(d_c) if v is None else v - c.scale(d_c)
                if s.is_zero():
                    poly.pop(key, None)
                else:
                    poly[key] = s
        for a, c in quo.items():
            out[(a + shift, m)] = c
    return LambdaXElem(out)


def derivation(f: LambdaElem, a: int) -> LambdaElem:
    """The scaled derivation a * d/dp_a applied to f."""
    out: dict = {}
    for m, c in f.terms.items():
        for pos, (idx, mult) in enumerate(m):
            if idx != a:
                continue
            rest = list(m)
            if mult == 1:
                del rest[pos]
            else:
                rest[pos] = (idx, mult - 1)
            key = tuple(rest)
            cc = c.scale(a * mult)
            v = out.get(key)
            s = cc if v is None else v + cc
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
            break
    return LambdaElem(out)


def apply_term_by_term(op, f: LambdaElem) -> LambdaElem:
    """The ``LambdaDiffOp`` op applied to f: every term on its own, its
    derivatives taken from f."""
    out = LambdaElem.zero()
    for (cmono, didx), c in op.terms.items():
        g = f
        for a in didx:
            g = derivation(g, a)
        out = out + LambdaElem.monomial(cmono, c) * g
    return out


def estar_weights(family: Family, parity):
    """The left covector: k^{-p(i)}, duplicated across blocks for B/BC."""
    w = [parity.k_inv_weight(i) for i in range(parity.size)]
    if family.even_integrals:
        w = w + w
    return w


def sandwich(L: OpMatrix, row, p: int) -> list:
    """[e* L^q e for q = 1, ..., p], e = (1, ..., 1), from the row
    ``row`` = e* L (``OpMatrix.row``) of all entries of L: v_j <- sum_l
    v_l . L_lj, p - 1 times, and e* L^q e is the sum of the entries of v
    after step q - 1."""
    if p < 1:
        raise ValueError("power %d is below 1" % p)
    nvars, idx = L[0, 0].nvars, range(L.rows)
    out = [WeylOp.sum(nvars, row)]
    for _ in range(p - 1):
        row = [WeylOp.sum(nvars, [row[l].compose(L[l, j]) for l in idx]) for j in idx]
        out.append(WeylOp.sum(nvars, row))
    return out


def matsub(a: OpMatrix, b: OpMatrix) -> OpMatrix:
    """The entrywise difference a - b."""
    return OpMatrix([[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a.entries, b.entries)])


def matmul(a: OpMatrix, b: OpMatrix) -> OpMatrix:
    """The product a b: entry (i, j) is the sum over l of a_il . b_lj."""
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = None
            for l in range(a.cols):
                term = a.entries[i][l].compose(b.entries[l][j])
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return OpMatrix(out)


def lax_check_all_entries(family: Family, parity, bindings=None) -> LaxReport:
    """The report of [L, H] = [L, M] from the residual of every entry, in
    row-major order; L, H and M are looked up on ``weyl`` at call time, so a
    test that replaces one of them replaces it here too."""
    E, hs, ms = weyl._at_point(bindings, weyl.moser_L(family, parity).entries,
                               weyl._hamiltonian_parts(family, parity), weyl._moser_M_parts(family, parity))
    nm = parity.size
    return LaxReport(family, parity, [weyl._lax_entry(E, hs, ms, (i, j))
                                      for i in range(nm) for j in range(nm)])


def commutator_on_x_monomial(A, B, exps):
    """(exps, A(B m) - B(A m)) for the monomial m = x^exps."""
    mono = MultiPoly(A.nvars, {exps: ONE})
    return exps, A.apply(B.apply(mono)) - B.apply(A.apply(mono))


def basis_commute_check(A, B, deg: int) -> CommuteReport:
    """The report of [A, B] = 0 on the monomials of total degree <= deg."""
    outcomes = [commutator_on_x_monomial(A, B, exps) for exps in _monomials(A.nvars, deg)]
    bad = [(str(exps), res.text()) for exps, res in outcomes if not res.is_zero()]
    return CommuteReport("basis(deg=%d)" % deg, not bad, bad)


def gauge_conjugate(op: WeylOp, logderivs) -> WeylOp:
    """Conjugation by the ground-state factor via the shift d_i -> d_i + w_i.

    ``logderivs[i]`` is the i-th logarithmic derivative of the factor; the
    result is (1/Psi) op Psi as a normal-ordered operator, exactly.
    """
    nvars = op.nvars
    shifted = [
        WeylOp.partial(nvars, i) + WeylOp.mul_by(w) for i, w in enumerate(logderivs)
    ]
    one = WeylOp.const(nvars, 1)
    parts = []
    for dexps, f in op.terms.items():
        term = one
        for i, e in enumerate(dexps):
            for _ in range(e):
                term = term.compose(shifted[i])
        parts.append(WeylOp.mul_by(f).compose(term))
    return WeylOp.sum(nvars, parts)


def psi0_logderivs(family: Family, parity):
    """Logarithmic derivatives of the ground-state factor of the A families.

    Rational A: product of (x_i - x_j)^(k^(1-p(i)-p(j))); trigonometric A:
    product of (x_i x_j / (x_i - x_j)^2)^(k^(1-p(i)-p(j))/2).  The symbolic
    exponents never appear themselves, only their rational log-derivatives:
    the sum over j of the pair terms of x_i - x_j with k^(1-p(i)-p(j)),
    divided by -x_i for trigonometric A.  The B families have no such gauge.
    """
    if family.even_integrals:
        raise UnsupportedFamily("no ground-state factor for family %s" % family.value)
    nm = parity.size
    out = []
    for i in range(nm):
        w = RatFun.sum(nm, [_pair_term(family, *_pair_factors(family, nm, i, j)[0],
                                       k_power(1 - parity.p(i) - parity.p(j)))
                            for j in range(nm) if j != i])
        if family.trig:
            w = w * RatFun(MultiPoly.const(nm, -1), {MultiPoly.var(nm, i): 1})
        out.append(w)
    return out


def heckman_integral_direct(family: Family, N: int, r: int, f: MultiPoly) -> MultiPoly:
    """Sum over i of D_{i,N}^r f (power 2r for the B families), each power
    a kernel call of its own; no invariance is asserted."""
    power = 2 * r if family.even_integrals else r
    out = MultiPoly.zero(N)
    for i in range(N):
        out = out + finite_dunkl(family, N, i, f, power)
    return out
