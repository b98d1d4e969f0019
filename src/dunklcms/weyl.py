"""Normal-ordered differential operators and the quantum Moser matrices.

``WeylOp`` is a differential operator in finitely many variables with
rational-function coefficients, kept in normal order (coefficients left of all
derivatives); composition re-normalizes through the Leibniz rule.  The
Leibniz parts of a composition, of both orders of a commutator, or of all the
compositions of a Lax residual, are collected per derivative key in one
accumulator (``WeylOp._compose_into``) and reduced once, by one
``RatFun.sum``, which adds the parts of equal denominators first and lifts
each such group to the common denominator once.  A
commutator [A, B] forms neither product in full: the Leibniz term of
f d^a . g d^b that differentiates neither coefficient, f g d^(a+b), also
occurs in g d^b . f d^a and cancels, so both orders skip it.  Each
coefficient of the result is still one canonical ``RatFun``.
``RatFun`` keeps its denominator in factored form: every denominator arising
here is a product of the irreducible structural factors x_i, x_i - x_j,
x_i + x_j, x_i x_j - 1, x_i - 1, x_i + 1 (built in ``finite_cms``), so
cancellation reduces to exact-division tests and zero-testing stays decisive
(a rational function vanishes iff its numerator does).  Each of these factors
except x_i is a binomial x^a +- x^b, so ``MultiPoly.div_or_none`` decides a
cancellation at the factor's root: a failing one by int sums alone, and a
succeeding one by Ruffini's rule.
A ``RatFun`` is always reduced: no factor of its denominator divides its
numerator N.  The public constructor makes every factor fit one shape,
once: a unit times a monomial (x_i, a constant, k^a) is divided out of N,
and any other factor is made monic and must be a linear root factor
(``finite_cms._is_linear_root_factor``: a binomial whose terms have
disjoint supports and exponents >= 0, linear in some variable), or
``UnsupportedDenominator`` is raised; then every factor is tested against
N.  Every structural factor but x_i has that shape.  The operations build
their results through ``_rf`` and test a factor f only where f can divide,
by one lemma: if f is prime in the Laurent ring and divides neither N nor
any other factor g, it divides no product N * prod g, so no sum in which
every other term is a multiple of f (``RatFun.sum``), and, with d_i f a
nonzero monomial, not the closed-form derivative's numerator, which is
-e N d_i f prod g modulo f (``RatFun.diff``).  Distinct monic linear root
factors are non-associate primes, so the reduced form is unique, and two
``RatFun`` values are equal iff their fields are.
Numerators and factors are fraction-free ``MultiPoly`` values (int
coefficients over one denominator c * k^a), so bringing terms over a common
denominator, and every cancellation test, is int arithmetic on whole
polynomials; a coefficient of one x-monomial appears as a ``ParamRatio``
only in leading coefficients, in substitution and in the report texts.

On top of this the module builds, for each family, the quantum Moser matrix L
(block form [[A, B], [-B, -A]] for the B families), its gauged form G (each
diagonal entry less the other entries of its row, so that every row kills
constants), the companion matrix M of the A families, the deformed
Hamiltonian H (its gauged form is e* G^2 e), the quantum Lax check
[L, H] = [L, M], and the integrals e* L^r e.  One set of pieces builds them
all, for every family: the kinetic operator T_i (d_i, or x_i d_i for the
trigonometric families), the root factors d of a pair (x_i - x_j, and for a
B family its reflected factor x_i + x_j or x_i x_j - 1), the pair term of d
(c / d, or (c/2) t / d with t = d + 2u its trigonometric numerator, as in
``finite_cms._divided_differences``), the pair potential of d (c / d^2, or
c x_i x_j / d^2), and the one-particle terms and potentials of the B
families over x_i, x_i - 1 and x_i^2 - 1; each builder differs from the
others only in the coefficients it gives them.  H and M are sums of simple
parts (H: a kinetic term or a pair potential each; M: one pair potential per
off-diagonal entry, negated on the diagonal), and ``lax_check`` never sums
them: it composes each entry of L with each part, so that a part meets only
the derivatives that act on it and its factors stay out of the other parts'
reductions.  The operators have the symmetry S_n x S_m, the permutations
inside each species, and so have the residuals: relabelled by a
transposition t (``RatFun.act_swap``, ``WeylOp.act_swap``, a ring
automorphism that keeps the reduced form), the residual of entry (i, j)
is that of (t(i), t(j)), once t.L_ij = L_t(i)t(j), t.M_ij = M_t(i)t(j)
and t.H = H.  ``lax_check`` checks this exactly, at the request's point,
for the adjacent transpositions inside each species, and then forms one
entry of each orbit, at most 6 of the (n + m)^2; an entry whose
representative fails is formed itself, and if the check fails every entry
is.  An integral never forms the matrix L^r: one row iteration
(``_row_powers``) carries the row e* L through v_j <- sum_l v_l . S_lj and
sums it after each step, so it gives e* L^p e for every p up to the top
power.  An A family steps by S = L, n^2 compositions per power.  A B family
folds its block form (``_row_steps``): with e* = (w, w) the row of the
2N x 2N matrix is (u, -u) or (v, v), so the N-entry row u or v steps by
A + B and A - B in turn, N^2 compositions per power where the full row
takes 4 N^2, and e* L^p e is 0 for odd p and 2 sum_j v_j for even p.  G
keeps the block form, so the gauged Hamiltonian folds the same way.
A request is built once, at its parameter point: ``_at_point`` is the one
place where bindings enter the Moser operators.  It substitutes H (or its
parts), the steps of L or G (and the parts of M) and the row e* L or
e* G, after the covector's scaling and before the first composition, so
that every composition runs at the point.  The covector itself is never
substituted: its weights k^-p(i) cancel only inside the row, which is what
keeps k = 0 inside the domain of the A families at (1, 1) and (2, 1).
``moser_integrals`` makes that build for ``moser-integrals`` and the
e* L^2 e = lam H + c check (``integral_vs_hamiltonian``); ``lax_check``
substitutes its L, H and M parts, and ``degenerate_k1_check`` its G and
row e* G, through the same helper.
``WeylOp.apply`` applies an operator to a polynomial or a rational function
alike; like a composition, it forms each derivative of its argument once
(``_derivative``), and operators applied to one argument can share that
derivative memo.  The basis route of ``commute_checks`` checks [A, B] = 0
for a list of operators A on the monomials up to a degree without forming a
normal-ordered product: one pass over the monomials, in which B m is formed
once per monomial m, B m and every A m share m's derivatives, every A meets
those of B m, and each residual A(B m) - B(A m) is reduced once.  The
pass takes one monomial of each orbit of the adjacent transpositions under
which B and every A equal their relabelling, with the same fallback.
``degenerate_k1_check`` is the k = 1 degeneration of the deformed integrals
of rational A to the undeformed CMS integrals, by the recursion of
``finite_cms`` and by the gauged Moser integrals e* G^r e, one row iteration
of G at k = 1, both compared with the Heckman integrals at k = 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache, partial
from math import comb

from ._parallel import ordered_map
from .coeffs import HALF, K, ONE, P, Q, R_VALUE, S_VALUE, ParamRatio, UnsupportedDenominator, k_power
from .finite_cms import (
    DiagramResult,
    Hom,
    MultiPoly,
    ParityData,
    _fac_diff,
    _fac_prod_minus_1,
    _fac_shift,
    _fac_sum,
    _is_linear_root_factor,
    deformed_integral,
    heckman_integral,
)
from .powersums import Family, LambdaElem, UnsupportedFamily


_new = object.__new__


class RatFun:
    """Rational function with factored denominator over the parameter field.

    The form is reduced: no factor of ``den`` divides ``num``, and every
    factor is a monic linear root factor (see the module docstring).
    ``RatFun(num, den)`` makes it so: it divides each unit times a monomial
    out of ``num``, makes each other factor monic, raises
    ``UnsupportedDenominator`` for one that is then no linear root factor,
    and divides each factor out of ``num`` as often as it goes.  ``sum``,
    ``diff`` and ``*`` test only the factors that can still divide
    (``_rf``), and get the same reduced form.
    """

    __slots__ = ("nvars", "num", "den")

    def __init__(self, num: MultiPoly, den: dict = None):
        clean: dict = {}
        for f, e in (den or {}).items():
            if e == 0:
                continue
            if e < 0:
                raise ValueError("negative denominator exponent")
            if f.is_zero():
                raise ZeroDivisionError("zero denominator factor")
            if f.is_monomial():  # a unit of the Laurent ring
                for _ in range(e):
                    num = num.div_or_none(f)
                continue
            inv = ONE / f.leading()[1]
            f = f.scale(inv)
            num = num.scale(inv ** e)
            if not _is_linear_root_factor(f):
                raise UnsupportedDenominator("%s is not a linear root factor" % f.text())
            clean[f] = clean.get(f, 0) + e
        self.nvars = num.nvars
        self.num, self.den = _reduced(num, clean, list(clean))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "RatFun":
        return RatFun(MultiPoly.zero(nvars))

    @staticmethod
    def const(nvars: int, c) -> "RatFun":
        return RatFun(MultiPoly.const(nvars, c))

    # -- queries ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_scalar(self) -> bool:
        """True for a constant: no denominator and no x in the numerator."""
        return not self.den and self.num.is_const()

    def den_poly(self) -> MultiPoly:
        out = MultiPoly.const(self.nvars, 1)
        for f, e in self.den.items():
            out = out * f ** e
        return out

    def __eq__(self, other):
        if not isinstance(other, RatFun):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        raise TypeError("RatFun is not hashable")

    # -- arithmetic ---------------------------------------------------------------

    @staticmethod
    def sum(nvars: int, items) -> "RatFun":
        """Sum many rational functions over a single common denominator.

        One reduction at the end instead of one per pairwise addition; the
        dominant cost saver in operator application and composition.  Items
        with equal denominators are added first, unreduced, so each such
        group is lifted to the common denominator once.  Over linear root
        factors it tests only the factors that two items or more carry at
        the full exponent; the carriers are counted per item, not per group.
        """
        items = [f for f in items if not f.num.is_zero()]
        if not items:
            return RatFun.zero(nvars)
        if len(items) == 1:
            return items[0]
        den: dict = {}
        carriers: dict = {}  # the number of items at den's exponent
        groups: dict = {}  # the items' numerators added per denominator
        for f in items:
            for fac, e in f.den.items():
                d = den.get(fac, 0)
                if d < e:
                    den[fac] = e
                    carriers[fac] = 1
                elif d == e:
                    carriers[fac] += 1
            key = frozenset(f.den.items())
            group = groups.get(key)
            groups[key] = (f.den, f.num) if group is None else (group[0], group[1] + f.num)
        total = None
        for fden, num in groups.values():
            if num.is_zero():
                continue
            for fac, e in den.items():
                d = e - fden.get(fac, 0)
                if d:
                    num = num * (fac if d == 1 else _fac_power(fac, d))
            total = num if total is None else total + num
        if total is None:
            return RatFun.zero(nvars)
        return _rf(total, den, [fac for fac in den if carriers[fac] > 1])

    def __add__(self, other: "RatFun") -> "RatFun":
        return RatFun.sum(self.nvars, [self, other])

    def __neg__(self) -> "RatFun":
        return _rf(-self.num, self.den)

    def __sub__(self, other: "RatFun") -> "RatFun":
        return self + (-other)

    def __mul__(self, other: "RatFun") -> "RatFun":
        if self.num.is_zero() or other.num.is_zero():
            return RatFun.zero(self.nvars)
        den = dict(self.den)
        for f, e in other.den.items():
            den[f] = den.get(f, 0) + e
        # cancel across before the product (Henrici): a factor of both
        # denominators divides neither numerator, and one of one denominator
        # only can divide only the other operand's numerator, unless that is
        # a monomial, which no root factor divides
        a, b = self.num, other.num
        if not b.is_monomial():
            for f, e in self.den.items():
                if f not in other.den:
                    b, den[f] = _cancel(b, f, e)
        if not a.is_monomial():
            for f, e in other.den.items():
                if f not in self.den:
                    a, den[f] = _cancel(a, f, e)
        return _rf(a * b, {f: e for f, e in den.items() if e})

    def scale(self, c: ParamRatio) -> "RatFun":
        if c.is_zero():
            return RatFun.zero(self.nvars)
        return _rf(self.num.scale(c), self.den)

    def diff(self, i: int) -> "RatFun":
        """d/dx_i in closed form: for the factors f that contain x_i, with P
        their product and Q = sum e_f d_i f prod_{g != f} g, the derivative
        of N / prod f^e is (d_i N P - N Q) over the factors that contain x_i
        raised by one.  Only the factors free of x_i are tested."""
        den, still, P, Q = {}, [], None, None
        for f, e in self.den.items():
            df = f.diff(i)
            if df.is_zero():
                den[f] = e
                still.append(f)
                continue
            den[f] = e + 1
            step = df if e == 1 else df.scale(ParamRatio.const(e))
            # one more factor f: P -> P f and Q -> Q f + e_f d_i f P
            P, Q = (f, step) if P is None else (P * f, Q * f + step * P)
        num = self.num.diff(i)
        if P is not None:
            num = num * P - self.num * Q
        return _rf(num, den, still)

    def substitute(self, bindings: dict) -> "RatFun":
        """A monic linear root factor carries no parameter, so it is its own
        image; each is tested against the substituted numerator."""
        return _rf(self.num.substitute(bindings), dict(self.den), list(self.den))

    # -- group actions ------------------------------------------------------

    def act_swap(self, a: int, b: int) -> "RatFun":
        """The relabelling x_a <-> x_b of numerator and factors.  It is a
        ring automorphism, so the form stays reduced and nothing is tested;
        a relabelled factor whose leading coefficient is -1, such as
        x_b - x_a from x_a - x_b, is negated, and the numerator takes the
        sign for an odd exponent."""
        num, den = self.num.act_swap(a, b), {}
        for f, e in self.den.items():
            f = f.act_swap(a, b)
            if f.leading()[1] != ONE:
                f = -f
                if e & 1:
                    num = -num
            den[f] = e
        return _rf(num, den)

    # -- display --------------------------------------------------------------------

    def text(self) -> str:
        if not self.den:
            return self.num.text()
        return "(%s) / (%s)" % (self.num.text(), self.den_poly().text())

    def __repr__(self):
        return "RatFun(%s)" % self.text()


@cache
def _fac_power(fac: MultiPoly, d: int) -> MultiPoly:
    """fac ** d, formed once per factor and exponent: ``RatFun.sum`` lifts
    its groups by powers of the same few root factors."""
    return fac ** d


def _cancel(num: MultiPoly, f: MultiPoly, e: int):
    """num divided by f as often as it goes, at most e times, and the
    exponent of f that is left."""
    while e:
        q = num.div_or_none(f)
        if q is None:
            break
        num, e = q, e - 1
    return num, e


def _reduced(num: MultiPoly, den: dict, may_divide) -> tuple:
    """num and den with each factor of ``may_divide``, a list of keys of
    ``den``, divided out of num as often as it goes; den is updated in
    place, and is empty when num is zero."""
    if num.is_zero():
        return num, {}
    for f in may_divide:
        num, e = _cancel(num, f, den[f])
        if e:
            den[f] = e
        else:
            del den[f]
    return num, den


def _rf(num: MultiPoly, den: dict, may_divide=()) -> RatFun:
    """The RatFun num / den for monic linear root factors ``den`` that are
    trusted to be reduced but for those listed in ``may_divide``; den is
    kept, not copied, and no RatFun changes its den after construction."""
    r = _new(RatFun)
    r.nvars = num.nvars
    r.num, r.den = _reduced(num, den, may_divide)
    return r


def _derivative(derivs: dict, idx: tuple) -> RatFun:
    """d^idx of the function at derivs[(0, ..., 0)], each derivative formed
    once from a lower one and kept in ``derivs``; a zero one is not
    differentiated."""
    v = derivs.get(idx)
    if v is None:
        i = 0
        while not idx[i]:
            i += 1
        lower = idx[:i] + (idx[i] - 1,) + idx[i + 1:]
        # a RatFun is never false; the lookup spares the call when the
        # lower derivative is known, the common case of a basis apply
        v = derivs.get(lower) or _derivative(derivs, lower)
        v = derivs[idx] = v if v.is_zero() else v.diff(i)
    return v


def _iter_sub_indices(exps):
    """All componentwise-dominated multi-indices of exps."""
    if not exps:
        yield ()
        return
    head = exps[0]
    for rest in _iter_sub_indices(exps[1:]):
        for h in range(head + 1):
            yield (h,) + rest


class WeylOp:
    """Normal-ordered differential operator with rational-function coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict):
        self.nvars = nvars
        self.terms = {e: f for e, f in terms.items() if not f.is_zero()}

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "WeylOp":
        return WeylOp(nvars, {})

    @staticmethod
    def const(nvars: int, c) -> "WeylOp":
        f = c if isinstance(c, RatFun) else RatFun.const(nvars, c)
        return WeylOp(nvars, {(0,) * nvars: f})

    @staticmethod
    def mul_by(f: RatFun) -> "WeylOp":
        return WeylOp(f.nvars, {(0,) * f.nvars: f})

    @staticmethod
    def partial(nvars: int, i: int, coeff: RatFun = None) -> "WeylOp":
        e = [0] * nvars
        e[i] = 1
        f = coeff if coeff is not None else RatFun.const(nvars, 1)
        return WeylOp(nvars, {tuple(e): f})

    @staticmethod
    def euler(nvars: int, i: int, coeff: ParamRatio = ONE) -> "WeylOp":
        """x_i d/dx_i scaled by a parameter coefficient."""
        e = [0] * nvars
        e[i] = 1
        return WeylOp(nvars, {tuple(e): RatFun(MultiPoly.var(nvars, i).scale(coeff))})

    # -- queries ------------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, WeylOp):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        raise TypeError("WeylOp is not hashable")

    # -- arithmetic ------------------------------------------------------------------

    def __add__(self, other: "WeylOp") -> "WeylOp":
        return WeylOp.sum(self.nvars, (self, other))

    def __neg__(self) -> "WeylOp":
        return WeylOp(self.nvars, {e: -f for e, f in self.terms.items()})

    def __sub__(self, other: "WeylOp") -> "WeylOp":
        return self + (-other)

    def scale(self, c) -> "WeylOp":
        if isinstance(c, RatFun):
            return WeylOp(self.nvars, {e: f * c for e, f in self.terms.items()})
        return WeylOp(self.nvars, {e: f.scale(c) for e, f in self.terms.items()})

    @staticmethod
    def sum(nvars: int, ops) -> "WeylOp":
        """The sum of ``ops``, each coefficient reduced once from its parts."""
        out: dict = {}
        for op in ops:
            for e, f in op.terms.items():
                out.setdefault(e, []).append(f)
        return WeylOp._from_parts(nvars, out)

    @staticmethod
    def _from_parts(nvars: int, out: dict) -> "WeylOp":
        """The operator whose coefficient at each key of ``out`` is the one
        ``RatFun.sum`` of the parts listed there."""
        return WeylOp(nvars, {key: RatFun.sum(nvars, parts) for key, parts in out.items()})

    def compose(self, other: "WeylOp") -> "WeylOp":
        """Normal-ordered product self . other."""
        out: dict = {}
        self._compose_into(other, False, out)
        return WeylOp._from_parts(self.nvars, out)

    def commutator(self, other: "WeylOp") -> "WeylOp":
        """[self, other] = self . other - other . self.

        For terms f d^a of self and g d^b of other, the Leibniz term of
        f d^a . g d^b in which no derivative falls on g is f g d^(a+b), and
        g d^b . f d^a has the same term g f d^(a+b); they cancel, so neither
        product forms them.  A multiplication operator f then contributes to
        [f, B] only through the derivatives of f in B . f.  The parts of both
        products go into one accumulator, so each coefficient is reduced
        once.
        """
        out: dict = {}
        self._compose_into(other, True, out)
        other._compose_into(self, True, out, -1)
        return WeylOp._from_parts(self.nvars, out)

    def _compose_into(self, other: "WeylOp", drop_underived: bool, out: dict, sign: int = 1):
        """Append the Leibniz parts of self . other, times ``sign``, to
        ``out[key]`` for the derivative key of each, less the terms
        f g d^(a+b) that differentiate no coefficient of other when
        ``drop_underived``; the parts stay unsummed."""
        for be, g in other.terms.items():
            derivs = {(0,) * self.nvars: g}
            for ae, f in self.terms.items():
                for ce in _iter_sub_indices(ae):
                    if drop_underived and ce == ae:
                        continue
                    dg = _derivative(derivs, tuple(a - c for a, c in zip(ae, ce)))
                    if dg.is_zero():
                        continue
                    coeff = sign
                    for a, c in zip(ae, ce):
                        coeff *= comb(a, c)
                    key = tuple(c + b for c, b in zip(ce, be))
                    part = f * dg
                    if coeff == -1:
                        part = -part
                    elif coeff != 1:
                        part = part.scale(ParamRatio.const(coeff))
                    out.setdefault(key, []).append(part)

    def apply(self, f, derivs: dict = None) -> RatFun:
        """self applied to a polynomial or a rational function: each term's
        derivative of f times its coefficient, each derivative of f formed
        once (``_derivative``).  ``derivs``, an empty dict or the one an
        earlier apply to the same f filled, is the derivative memo of f, so
        that operators applied to one f share its derivatives."""
        if derivs is None:
            derivs = {}
        if not derivs:
            derivs[(0,) * self.nvars] = RatFun(f) if isinstance(f, MultiPoly) else f
        return RatFun.sum(self.nvars, self._parts_on(derivs))

    def _parts_on(self, derivs: dict) -> list:
        """The terms of self on the function whose derivative memo is
        ``derivs``, unsummed."""
        return [c * _derivative(derivs, dexps) for dexps, c in self.terms.items()]

    def substitute(self, bindings: dict) -> "WeylOp":
        return WeylOp(self.nvars, {e: f.substitute(bindings) for e, f in self.terms.items()})

    def act_swap(self, a: int, b: int) -> "WeylOp":
        """The relabelling x_a <-> x_b: each coefficient relabelled, and the
        orders of d_a and d_b exchanged in its derivative key."""
        def key(e):
            e = list(e)
            e[a], e[b] = e[b], e[a]
            return tuple(e)

        return WeylOp(self.nvars, {key(e): f.act_swap(a, b) for e, f in self.terms.items()})

    def constant_part(self) -> RatFun:
        return self.terms.get((0,) * self.nvars, RatFun.zero(self.nvars))

    def text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t)):
            factors = ["(%s)" % self.terms[e].text()]
            for i, pw in enumerate(e):
                if pw == 1:
                    factors.append("d%d" % (i + 1))
                elif pw:
                    factors.append("d%d^%d" % (i + 1, pw))
            parts.append(" * ".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return "WeylOp(%s)" % self.text()


class OpMatrix:
    """Dense matrix of WeylOps."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        self.entries = entries
        self.rows = len(entries)
        self.cols = len(entries[0]) if entries else 0

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def row(self, weights) -> list:
        """The row e* self for the covector e* = ``weights``: its entry j is
        sum_l weights_l self_lj, which only scales entries."""
        L, nvars = self.entries, self.entries[0][0].nvars
        return [WeylOp.sum(nvars, (L[l][j].scale(weights[l]) for l in range(self.rows)))
                for j in range(self.cols)]

    def to_json(self) -> str:
        """Row-major JSON array of entry strings."""
        return json.dumps([op.text() for row in self.entries for op in row])


# -- the shared pieces of L, M and H (see the module docstring)


def _kinetic(family: Family, nm: int, i: int, c: ParamRatio = ONE) -> WeylOp:
    """c T_i: c d_i for the rational families, c x_i d_i for the trigonometric ones."""
    return WeylOp.euler(nm, i, c) if family.trig else WeylOp.partial(nm, i, RatFun.const(nm, c))


@cache
def _pair_factors(family: Family, nm: int, i: int, j: int) -> tuple:
    """The root factors of the pair (i, j) as (d, t): first (x_i - x_j,
    x_i + x_j), then for a B family the reflected factor, x_i + x_j for
    rational B (whose terms read no numerator) and (x_i x_j - 1,
    x_i x_j + 1) for trig BC."""
    out = [(_fac_diff(nm, i, j), _fac_sum(nm, i, j))]
    if family is Family.RAT_B:
        out.append((_fac_sum(nm, i, j), None))
    elif family is Family.TRIG_BC:
        d = _fac_prod_minus_1(nm, i, j)
        out.append((d, d + MultiPoly.const(nm, 2)))
    return tuple(out)


def _pair_term(family: Family, d: MultiPoly, t: MultiPoly, c: ParamRatio) -> RatFun:
    """c / d, or (c/2) t / d for the trigonometric families."""
    num = t.scale(c * HALF) if family.trig else MultiPoly.const(d.nvars, c)
    return RatFun(num, {d: 1})


def _pair_potential(family: Family, i: int, j: int, d: MultiPoly, c: ParamRatio) -> RatFun:
    """c / d^2, or c x_i x_j / d^2 for the trigonometric families."""
    nm = d.nvars
    num = (MultiPoly.var(nm, i) * MultiPoly.var(nm, j)).scale(c) if family.trig else MultiPoly.const(nm, c)
    return RatFun(num, {d: 2})


def _species_multiplicity(family: Family, parity: ParityData, i: int):
    """Reflection multiplicities after the constraints: rational B returns
    m(i) in {q, s}; trig BC returns (mu(i), nu(i)) in {(p, q), (r, s)}, with
    s and r the values ``S_VALUE`` and ``R_VALUE`` in k, p and q."""
    if family is Family.RAT_B:
        return Q if parity.p(i) == 0 else S_VALUE
    if family is Family.TRIG_BC:
        return (P, Q) if parity.p(i) == 0 else (R_VALUE, S_VALUE)
    raise UnsupportedFamily(family.value)


def _den_shift2(nm: int, i: int, e: int) -> dict:
    """(x_i^2 - 1)^e as irreducible denominator factors."""
    return {_fac_shift(nm, i, -1): e, _fac_shift(nm, i, 1): e}


def _one_particle(family: Family, parity: ParityData, i: int) -> RatFun:
    """The one-particle term of a B family with the multiplicities scaled by
    c = k^p(i): c m / x_i for rational B, and the pair term of x_i - 1 with
    c mu plus c nu (x_i^2 + 1) / (x_i^2 - 1) for trig BC."""
    nm, mult, c = parity.size, _species_multiplicity(family, parity, i), parity.k_weight(i)
    if family is Family.RAT_B:
        return _pair_term(family, MultiPoly.var(nm, i), None, c * mult)
    mu, nu = mult
    return (_pair_term(family, _fac_shift(nm, i, -1), _fac_shift(nm, i, 1), c * mu)
            + RatFun(_fac_shift(nm, i, 1, 2).scale(c * nu), _den_shift2(nm, i, 1)))


def _one_particle_potentials(family: Family, parity: ParityData, i: int) -> list:
    """The one-particle potentials of a B family: k^p(i) m (m + 1) / x_i^2 for
    rational B; for trig BC k^p(i) mu (mu + 2 nu + 1) x_i / (x_i - 1)^2 and
    4 k^p(i) nu (nu + 1) x_i^2 / (x_i^2 - 1)^2."""
    nm, kw, mult = parity.size, parity.k_weight(i), _species_multiplicity(family, parity, i)
    x = MultiPoly.var(nm, i)
    if family is Family.RAT_B:
        return [RatFun(MultiPoly.const(nm, kw * mult * (mult + ONE)), {x: 2})]
    mu, nu = mult
    return [RatFun(x.scale(kw * mu * (mu + nu.scale(2) + ONE)), {_fac_shift(nm, i, -1): 2}),
            RatFun(MultiPoly.var(nm, i, 2).scale((kw * nu * (nu + ONE)).scale(4)), _den_shift2(nm, i, 2))]


def _pair_coefficient(parity: ParityData, i: int, j: int) -> ParamRatio:
    """2 k(k+1), 2 (1/k + 1) or 2 (k + 1): the ungauged pair coupling of
    particles i < j of species (0, 0), (1, 1) or (0, 1)."""
    return {
        (0, 0): K * (K + ONE),
        (1, 1): k_power(-1) + ONE,
        (0, 1): K + ONE,
    }[(parity.p(i), parity.p(j))].scale(2)


# -- Moser matrices ------------------------------------------------------------


def moser_L(family: Family, parity: ParityData) -> OpMatrix:
    """The quantum Moser matrix, one entry rule for every family.

    Block 0 holds k^p(i) T_i on the diagonal and the pair term of x_i - x_j
    with the weight w_ij = k^(1-p(j)) off it; for the A families it is L.  A
    B family has the block form [[A, B], [-B, -A]] with A its block 0, which
    is the A family's L, and B its block 1: the one-particle term with the
    multiplicities scaled by k^p(i) on the diagonal and the pair term of the
    reflected factor with w_ij off it.
    """
    nm = parity.size

    def entry(i: int, j: int, b: int) -> WeylOp:
        if i != j:
            d, t = _pair_factors(family, nm, i, j)[b]
            return WeylOp.mul_by(_pair_term(family, d, t, parity.cross_weight(i, j)))
        if b == 0:
            return _kinetic(family, nm, i, parity.k_weight(i))
        return WeylOp.mul_by(_one_particle(family, parity, i))

    A = [[entry(i, j, 0) for j in range(nm)] for i in range(nm)]
    if not family.even_integrals:
        return OpMatrix(A)
    B = [[entry(i, j, 1) for j in range(nm)] for i in range(nm)]
    top = [arow + brow for arow, brow in zip(A, B)]
    bottom = [[-op for op in brow] + [-op for op in arow] for arow, brow in zip(A, B)]
    return OpMatrix(top + bottom)


def moser_M(family: Family, parity: ParityData) -> OpMatrix:
    """The companion matrix M of the Lax identity; it exists for the A families only."""
    return OpMatrix([[WeylOp.sum(parity.size, cell) for cell in row]
                     for row in _moser_M_parts(family, parity)])


def _moser_M_parts(family: Family, parity: ParityData) -> list:
    """M as an n x n table of lists of parts: off the diagonal the one
    multiplication operator by the pair potential of x_i - x_j with 2 w_ij,
    and on it the negated off-diagonal parts of its row, so that every row
    sums to zero."""
    if family.even_integrals:
        raise UnsupportedFamily("no M matrix for family %s" % family.value)
    nm = parity.size
    table = [[[] for _ in range(nm)] for _ in range(nm)]
    for i in range(nm):
        for j in range(nm):
            if i == j:
                continue
            d = _pair_factors(family, nm, i, j)[0][0]
            f = _pair_potential(family, i, j, d, parity.cross_weight(i, j).scale(2))
            table[i][j].append(WeylOp.mul_by(f))
            table[i][i].append(WeylOp.mul_by(-f))
    return table


def moser_L_gauged(family: Family, parity: ParityData) -> OpMatrix:
    """The gauged Moser matrix G: L (``moser_L``) with each diagonal entry
    less the other entries of its row, the full 2N-entry row for a B
    family.  Those entries are multiplication operators, so every row of G
    kills constants; the tests check phi_i(D f) = sum_j G_ij phi_j(f)
    against the Dunkl operator at infinity entry by entry."""
    L = moser_L(family, parity)
    for i, row in enumerate(L.entries):
        row[i] = WeylOp.sum(parity.size, [row[i]] + [-op for j, op in enumerate(row) if j != i])
    return L


# -- Hamiltonians ------------------------------------------------------------------


def hamiltonian(family: Family, parity: ParityData, gauged: bool = False) -> WeylOp:
    """The deformed Hamiltonian of the family.  Ungauged, it is the sum of
    its parts (see ``_hamiltonian_parts``), each coefficient reduced once.
    Gauged, it is e* G^2 e of the gauged Moser matrix (``moser_L_gauged``),
    halved for the B families, whose block form doubles it; their gauged
    forms are stated at m = 0 only."""
    if not gauged:
        return WeylOp.sum(parity.size, _hamiltonian_parts(family, parity))
    if family.even_integrals and parity.m:
        raise UnsupportedFamily("gauged %s form is stated at m = 0 only"
                                % ("rational B" if family is Family.RAT_B else "trig BC"))
    H = _integral_powers(family, parity, moser_L_gauged(family, parity), 2)[-1]
    return H.scale(HALF) if family.even_integrals else H


def _hamiltonian_parts(family: Family, parity: ParityData) -> list:
    """The terms of the ungauged deformed Hamiltonian, signed, as separate
    operators, one loop for every family: the kinetic terms k^p(i) T_i^2,
    then minus the pair potential of each pair i < j and root factor d of
    the pair with the coupling ``_pair_coefficient``, then minus the
    one-particle potentials of each particle of a B family.  The rational B
    operator carries the global sign -1.

    The trig-BC coefficients are pinned by the Moser matrix:
    e* L^2 e = 2 H + scalar constant must hold (verified symbolically in the
    tests).  The commonly quoted 4x-scaled variant, which also lacks the
    cross term over (x_i y_j - 1)^2, fails that identity.
    """
    nm = parity.size
    T = [_kinetic(family, nm, i) for i in range(nm)]
    parts = [T[i].compose(T[i]).scale(parity.k_weight(i)) for i in range(nm)]
    for i in range(nm):
        for j in range(i + 1, nm):
            for d, _ in _pair_factors(family, nm, i, j):
                parts.append(-WeylOp.mul_by(_pair_potential(family, i, j, d, _pair_coefficient(parity, i, j))))
    if family.even_integrals:
        for i in range(nm):
            parts.extend(-WeylOp.mul_by(f) for f in _one_particle_potentials(family, parity, i))
    if family is Family.RAT_B:
        parts = [-op for op in parts]
    return parts


# -- verification reports ---------------------------------------------------------


@dataclass
class EntryResult:
    i: int
    j: int
    ok: bool
    residual: str


@dataclass
class LaxReport:
    family: Family
    parity: ParityData
    results: list

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def counterexamples(self):
        return [r for r in self.results if not r.ok]


def _lax_entry(E, hs, ms, ij) -> EntryResult:
    """The residual of entry (i, j): [L_ij, H] - (L M - M L)_ij, from the
    entries E of L, the parts hs of H and the parts ms of M."""
    i, j = ij
    out: dict = {}
    for h in hs:
        E[i][j]._compose_into(h, True, out)
        h._compose_into(E[i][j], True, out, -1)
    for l in range(len(E)):
        for m in ms[l][j]:
            E[i][l]._compose_into(m, False, out, -1)
        for m in ms[i][l]:
            m._compose_into(E[l][j], False, out)
    res = WeylOp._from_parts(len(E), out)
    return EntryResult(i, j, res.is_zero(), res.text())


def lax_check(family: Family, parity: ParityData, bindings: dict = None) -> LaxReport:
    """Verify [L, H] = [L, M] entrywise (A families).

    H and M enter as their parts (``_hamiltonian_parts``, ``_moser_M_parts``),
    never summed: the residual [L_ij, H] - (L M - M L)_ij is the sum of
    [L_ij, h] over the parts h of H, of -L_il . m over the parts m of M_lj
    and of m . L_lj over the parts m of M_il, and its Leibniz parts go into
    one accumulator, so each coefficient is reduced once.  A derivative of
    L_ij that misses the variables of a part of H then gives no Leibniz
    part, and the factors of the other parts never enter its derivatives.

    The residuals are S_n x S_m-equivariant once L, M and H are: for each
    adjacent transposition t inside a species, ``_lax_equivariant`` checks
    t.L_ij = L_t(i)t(j), t.M_ij = M_t(i)t(j) and t.H = H exactly, at the
    point, and then the residual of (t(i), t(j)) is t of that of (i, j).
    So only the representatives of the orbits of the entries
    (``_pair_representative``, at most 6) are formed, distributed across
    workers (``_orbit_map``); an entry takes its representative's result
    when that vanishes, and is formed itself when it does not.  If the
    check fails, all n^2 entries are formed.

    With ``bindings``, L and the parts are taken at that parameter point
    (``_at_point``) before the compositions.
    """
    if family not in (Family.RAT_A, Family.TRIG_A):
        raise UnsupportedFamily("no Lax pair is stated for family %s" % family.value)
    E, hs, ms = _at_point(bindings, moser_L(family, parity).entries,
                          _hamiltonian_parts(family, parity), _moser_M_parts(family, parity))
    nm = parity.size
    swaps = [s for s in range(nm - 1) if parity.p(s) == parity.p(s + 1)]
    if not all(_lax_equivariant(E, hs, ms, s) for s in swaps):
        swaps = []
    first = _run_starts(nm, swaps)
    entries = [(i, j) for i in range(nm) for j in range(nm)]
    results = _orbit_map(partial(_lax_entry, E, hs, ms), entries,
                         partial(_pair_representative, first), lambda r: r.ok)
    return LaxReport(family, parity, [EntryResult(i, j, r.ok, r.residual)
                                      for (i, j), r in zip(entries, results)])


def _lax_equivariant(E, hs, ms, s: int) -> bool:
    """Whether t = (s, s+1) maps L_ij to L_t(i)t(j), the parts of M_ij to
    those of M_t(i)t(j) and the parts of H to themselves, each list of
    parts as a multiset, for the entries E of L, the parts hs of H and the
    parts ms of M; equal parts give equal sums, so t.M = M and t.H = H."""
    idx = range(len(E))
    t = list(idx)
    t[s], t[s + 1] = s + 1, s
    return (all(E[i][j].act_swap(s, s + 1) == E[t[i]][t[j]] and
                _same_parts([m.act_swap(s, s + 1) for m in ms[i][j]], ms[t[i]][t[j]])
                for i in idx for j in idx)
            and _same_parts([h.act_swap(s, s + 1) for h in hs], hs))


def _same_parts(xs: list, ys: list) -> bool:
    """Whether the operators ``xs`` are those of ``ys`` in some order."""
    rest = list(ys)
    for x in xs:
        if x not in rest:
            return False
        rest.remove(x)
    return not rest


def _run_starts(n: int, swaps) -> list:
    """first[i], the first index of the run of i among 0, ..., n-1 that the
    adjacent transpositions (s, s+1), s in ``swaps``, join: the group they
    generate permutes each run and fixes the partition into runs."""
    first = list(range(n))
    for s in sorted(swaps):
        first[s + 1] = first[s]
    return first


def _pair_representative(first: list, ij: tuple) -> tuple:
    """The representative of the orbit of the entry (i, j) under the
    permutations of the runs whose starts are ``first``: (a, a) on the
    diagonal of the run starting at a, (a, a+1) off it, and (a, b) for
    i and j in the runs starting at a and b."""
    i, j = ij
    a, b = first[i], first[j]
    return (a, a if i == j else a + 1) if a == b else (a, b)


def _orbit_map(fn, items: list, representative, vanishes) -> list:
    """[fn(x) for x in ``items``] for a function fn that is equivariant
    under a group whose orbits ``representative`` names, with fn(x)
    vanishing iff fn(representative(x)) does: fn maps the representatives
    first, across workers (``ordered_map``), and then the other items of
    the orbits whose representative does not vanish, which take their own
    results; every other item takes its representative's result."""
    reps = list(dict.fromkeys(representative(x) for x in items))
    out = dict(zip(reps, ordered_map(fn, reps)))
    direct = [x for x in items if x not in out and not vanishes(out[representative(x)])]
    if direct:
        out.update(zip(direct, ordered_map(fn, direct)))
    return [out[x] if x in out else out[representative(x)] for x in items]


def _at_point(bindings, *groups) -> tuple:
    """Each of ``groups``, a WeylOp or a list of groups, with ``bindings``
    substituted, in order; unchanged without bindings.  The one place where
    bindings enter the Moser operators (see the module docstring)."""
    if not bindings:
        return groups
    return tuple(g.substitute(bindings) if isinstance(g, WeylOp) else list(_at_point(bindings, *g))
                 for g in groups)


def _row_steps(family: Family, M: OpMatrix) -> tuple:
    """The matrices that the row iteration of e* M^q e steps by, and the
    factor of the sum of each power's row, both taken in turn, for the
    family's Moser matrix M (L, or G).

    An A family steps by M every time, and e* M^q e is the sum of the row.
    A B family's M is [[A, B], [-B, -A]], and G keeps that form, since its
    row rule changes each half-row's diagonal entry by the same operator
    with the sign of the half.  With e* = (w, w), e* M = (u, -u) for
    u = w (A - B), and (u, -u) M = (v, v) for v = u (A + B): the row folds
    to its first N entries and steps by A + B and A - B in turn, and
    e* M^q e is 0 for odd q and 2 sum_j v_j for even q.
    """
    if not family.even_integrals:
        return (M.entries,), (1,)
    nm = M.rows // 2
    top = M.entries[:nm]
    minus = [[row[j] - row[nm + j] for j in range(nm)] for row in top]
    plus = [[row[j] + row[nm + j] for j in range(nm)] for row in top]
    return (minus, plus), (2, 0)


def _row_powers(steps, factors, row, p: int) -> list:
    """[e* M^q e for q = 1, ..., p] from the ``_row_steps`` of M and the
    row ``row`` = e* steps[0].  The row of power q is v_j <- sum_l v_l . S_lj
    of the row of power q - 1, with S = steps[(q - 1) mod their number]:
    n^2 compositions per power on the n x n steps, where a matrix product
    takes n^3.  e* M^q e is the sum of v times factors[q mod their number].
    Each composition is reduced before the n of an entry are summed once:
    the coefficients of v are large, and one accumulator over all n
    compositions made more coefficient products, not fewer."""
    if p < 1:
        raise ValueError("power %d is below 1" % p)
    nvars, idx = row[0].nvars, range(len(row))
    out = []
    for q in range(1, p + 1):
        if q > 1:
            S = steps[(q - 1) % len(steps)]
            row = [WeylOp.sum(nvars, [row[l].compose(S[l][j]) for l in idx]) for j in idx]
        c = factors[q % len(factors)]
        total = WeylOp.sum(nvars, row) if c else WeylOp.zero(nvars)
        out.append(total.scale(ParamRatio.const(c)) if c > 1 else total)
    return out


def _integral_powers(family: Family, parity: ParityData, M: OpMatrix, p: int, bindings: dict = None) -> list:
    """[e* M^q e for q = 1, ..., p] for the family's Moser matrix M, by one
    row iteration (``_row_powers``) over the steps of ``_row_steps``, at the
    point ``bindings``: ``_at_point`` substitutes the steps and the first
    row e* steps[0], whose covector entries are k^-p(i), after the
    covector's scaling."""
    steps, factors = _row_steps(family, M)
    weights = [parity.k_inv_weight(i) for i in range(parity.size)]
    steps, row = _at_point(bindings, steps, OpMatrix(steps[0]).row(weights))
    return _row_powers(steps, factors, row, p)


def moser_integral(family: Family, parity: ParityData, r: int) -> WeylOp:
    """The scalar integral e* L^r e (even power 2r for the B families): the
    top power of one row iteration (``_integral_powers``), symbolic."""
    return _integral_powers(family, parity, moser_L(family, parity), 2 * r if family.even_integrals else r)[-1]


def moser_integrals(family: Family, parity: ParityData, r: int, bindings: dict = None) -> tuple:
    """H, the integrals 1, ..., r and the comparison of e* L^2 e with H, from
    one build of L, H and the row e* L at the point ``bindings``.

    ``_at_point`` substitutes H, then the steps of L and the row, before the
    first composition.  One row iteration then gives e* L^p e for every p up
    to the power of the r-th integral, and at least up to e* L^2 e, which is
    compared with lam H (``integral_hamiltonian_factor``).  Returns
    (H, [integral 1, ..., integral r], (lam, constant, residual)), the
    residual being e* L^2 e - lam H less its constant term.
    """
    H, = _at_point(bindings, hamiltonian(family, parity))
    powers = _integral_powers(family, parity, moser_L(family, parity),
                              2 * r if family.even_integrals else max(2, r), bindings)
    factor = integral_hamiltonian_factor(family)
    diff = powers[1] - H.scale(factor)
    const = diff.constant_part()
    integrals = powers[1::2] if family.even_integrals else powers[:r]
    return H, integrals, (factor, const, diff - WeylOp.mul_by(const))


def integral_hamiltonian_factor(family: Family) -> ParamRatio:
    """Structural factor lam with e* L^2 e = lam * H + constant.

    The A families give lam = 1.  The block form of the B families doubles the
    total (both half-blocks contribute) and the ungauged rational B operator
    carries a global minus sign, hence -2 and +2.
    """
    return {
        Family.RAT_A: ONE,
        Family.TRIG_A: ONE,
        Family.RAT_B: ParamRatio.const(-2),
        Family.TRIG_BC: ParamRatio.const(2),
    }[family]


def integral_vs_hamiltonian(family: Family, parity: ParityData, bindings: dict = None):
    """Compare e* L^2 e with its Hamiltonian: returns (factor, constant, residual).

    The residual is the non-constant part left after subtracting factor * H
    and the constant term; the identity holds exactly when it vanishes.  With
    ``bindings``, both come from one build at that parameter point
    (``moser_integrals``), so the constant is the one at that point.
    """
    return moser_integrals(family, parity, 1, bindings)[2]


@dataclass
class CommuteReport:
    mode: str
    ok: bool
    counterexamples: list = field(default_factory=list)


def _monomials(nvars: int, deg: int):
    """The exponents of the monomials in ``nvars`` variables of total degree
    <= deg: by degree, then by the exponent of each variable in turn."""
    def rec(prefix, remaining, pos):
        if pos == nvars - 1:
            yield prefix + (remaining,)
            return
        for d in range(remaining + 1):
            yield from rec(prefix + (d,), remaining - d, pos + 1)

    for t in range(deg + 1):
        yield from rec((), t, 0)


def _residuals_on_monomial(As, B: WeylOp, negB: WeylOp, exps) -> list:
    """[A(B m) - B(A m) for A in As] on the monomial m = x^exps.

    B m and every A m share the derivative memo of m, B m is formed once
    and its memo is shared by every A, and each residual is one
    ``RatFun.sum`` of A's terms on the derivatives of B m and -B's terms on
    those of A m (``negB`` = -B)."""
    zero = (0,) * B.nvars
    mderivs: dict = {}
    Bderivs = {zero: B.apply(MultiPoly(B.nvars, {exps: ONE}), mderivs)}
    m = mderivs[zero]
    return [RatFun.sum(B.nvars, A._parts_on(Bderivs) + negB._parts_on({zero: A.apply(m, mderivs)}))
            for A in As]


def _block_sorted(first: list, exps: tuple) -> tuple:
    """exps with the exponents of each run, whose starts are ``first``
    (``_run_starts``), sorted down: the representative of the orbit of the
    monomial x^exps under the permutations of the runs."""
    out = list(exps)
    for a in set(first):
        run = [i for i, f in enumerate(first) if f == a]
        for i, e in zip(run, sorted((exps[i] for i in run), reverse=True)):
            out[i] = e
    return tuple(out)


def commute_checks(As, B: WeylOp, mode: str = "symbolic", deg: int = 4) -> list:
    """Check [A, B] = 0 for every A of ``As``, symbolically or on all
    monomials of total degree <= deg; one ``CommuteReport`` per A, in order.

    The symbolic route forms each normal-ordered commutator A.commutator(B).
    The basis route never does: one pass over the monomials applies both
    orders of every A to each monomial (``_residuals_on_monomial``).  It
    first finds the adjacent transpositions t = (s, s+1) under which B and
    every A equal their relabelling exactly; then the residuals on t m are
    t of those on m, so the pass takes only the monomials whose exponents
    do not increase along each run that those t join, across workers
    (``_orbit_map``).  A monomial takes its representative's residuals
    when they all vanish, and is applied itself otherwise.  Any other
    ``mode``, and a negative ``deg``, raise ValueError.
    """
    if mode not in ("symbolic", "basis"):
        raise ValueError("commute_check mode %r is neither 'symbolic' nor 'basis'" % (mode,))
    if deg < 0:
        raise ValueError("commute_check degree %d is below 0" % deg)
    if mode == "symbolic":
        return [CommuteReport("symbolic", res.is_zero(), [] if res.is_zero() else [("operator", res.text())])
                for res in (A.commutator(B) for A in As)]
    As = list(As)
    if not As:
        return []
    swaps = [s for s in range(B.nvars - 1)
             if all(op.act_swap(s, s + 1) == op for op in [B] + As)]
    monomials = list(_monomials(B.nvars, deg))
    outcomes = _orbit_map(partial(_residuals_on_monomial, As, B, -B), monomials,
                          partial(_block_sorted, _run_starts(B.nvars, swaps)),
                          lambda res: all(r.is_zero() for r in res))
    reports = []
    for j in range(len(As)):
        bad = [(str(exps), res[j].text()) for exps, res in zip(monomials, outcomes) if not res[j].is_zero()]
        reports.append(CommuteReport("basis(deg=%d)" % deg, not bad, bad))
    return reports


def commute_check(A: WeylOp, B: WeylOp, mode: str = "symbolic", deg: int = 4) -> CommuteReport:
    """Check [A, B] = 0 symbolically or on all monomials of total degree
    <= deg: the one-operator case of ``commute_checks``."""
    return commute_checks([A], B, mode, deg)[0]


# -- the k = 1 degeneration ---------------------------------------------------------


def degenerate_k1_check(parity: ParityData, R: int) -> list:
    """At k = 1 the deformed integrals of rational A become the undeformed
    CMS integrals: for r = 1..R and the images g of p1, p2, p3 and p1*p2,
    the deformed integral of g (labelled ``recursion r=%d %s``) and the
    gauged Moser integral e* G^r e applied to g (``moser r=%d %s``) are each
    compared, at k = 1, with the Heckman integral of g at k = 1.  Each image,
    its k = 1 substitution and each Heckman integral is formed once, for
    both routes; the gauged integrals come from one row iteration of G
    (``moser_L_gauged``) built at k = 1.  R must be at least 1."""
    if R < 1:
        raise ValueError("degenerate_k1_check R=%d is below the minimum 1" % R)
    one = {"k": ONE}
    hom = Hom(Family.RAT_A, parity)
    tests = [("p1", LambdaElem.p(1)), ("p2", LambdaElem.p(2)),
             ("p3", LambdaElem.p(3)), ("p1*p2", LambdaElem.p(1) * LambdaElem.p(2))]
    images = []
    for label, f in tests:
        g = hom.apply(f)
        images.append((label, g, g.substitute(one)))
    refs = [[heckman_integral(Family.RAT_A, parity.size, r, g1).substitute(one) for _, _, g1 in images]
            for r in range(1, R + 1)]
    results = []
    for r, row in enumerate(refs, 1):
        for (label, g, _), rhs in zip(images, row):
            lhs = deformed_integral(parity, r, g).substitute(one)
            results.append(DiagramResult.compared("recursion r=%d %s" % (r, label), lhs == rhs, lhs, rhs))
    powers = _integral_powers(Family.RAT_A, parity, moser_L_gauged(Family.RAT_A, parity), R, one)
    for r, (I, row) in enumerate(zip(powers, refs), 1):
        for (label, _, g1), rhs in zip(images, row):
            lhs = I.apply(g1)
            results.append(DiagramResult.compared("moser r=%d %s" % (r, label), lhs == RatFun(rhs), lhs, rhs))
    return results
