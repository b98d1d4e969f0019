"""The graded power-sum algebra and its extension by a distinguished variable.

``LambdaElem`` models the free commutative algebra on generators p_0, p_1, ...
(power sums with the "dimension" p_0 adjoined as a formal variable), graded by
deg p_i = i.  ``LambdaXElem`` adjoins one extra variable x, possibly with
negative powers (Laurent), and is the domain of the infinite-variable Dunkl
operators.  This module provides the ring structure together with the four
families' building blocks:

* ``partial``    the family derivation (rational A: p_l -> l x^(l-1),
  trigonometric A: l x^l, rational B: 2l x^(2l-1), trigonometric BC:
  l (x^l - x^(-l)))
* ``delta``      the difference-part operator, defined on x-powers and
  extended linearly over the power-sum coefficients
* ``reflect``    the sign involution of rational B (x -> -x) and the
  inversion of trigonometric BC (x -> 1/x)
* ``project_E``  the projection back into the power-sum algebra that turns
  x-powers into power sums

All elements are immutable; coefficients are ``ParamRatio`` values.
"""

from __future__ import annotations

import enum

from .coeffs import ONE, ParamRatio, Rat

# A power-sum monomial: sorted tuple of (generator index, multiplicity).
PMono = tuple
PMONO_ONE: PMono = ()


class UnsupportedFamily(ValueError):
    """Operation undefined for the requested family."""


class InexactDivision(ArithmeticError):
    """A structurally guaranteed division left a remainder."""


class Family(enum.Enum):
    """The four operator families."""

    RAT_A = "rat-a"
    TRIG_A = "trig-a"
    RAT_B = "rat-b"
    TRIG_BC = "trig-bc"

    @property
    def laurent(self) -> bool:
        return self is Family.TRIG_BC

    @property
    def symbols(self):
        """Deformation symbols the family's operators depend on."""
        return {
            Family.RAT_A: ("k",),
            Family.TRIG_A: ("k",),
            Family.RAT_B: ("k", "q"),
            Family.TRIG_BC: ("k", "p", "q"),
        }[self]

    @property
    def even_integrals(self) -> bool:
        """Whether integrals are built from even operator powers."""
        return self in (Family.RAT_B, Family.TRIG_BC)


def pmono(*pairs) -> PMono:
    """Build a power-sum monomial from (index, multiplicity) pairs."""
    acc: dict = {}
    for idx, mult in pairs:
        acc[idx] = acc.get(idx, 0) + mult
    return tuple(sorted((i, m) for i, m in acc.items() if m))


def pmono_mul(a: PMono, b: PMono) -> PMono:
    if not a:
        return b
    if not b:
        return a
    acc = dict(a)
    for i, m in b:
        acc[i] = acc.get(i, 0) + m
    return tuple(sorted(acc.items()))


def pmono_degree(m: PMono) -> int:
    return sum(i * e for i, e in m)


def pmono_text(m: PMono) -> str:
    if not m:
        return "1"
    return "*".join("p%d" % i if e == 1 else "p%d^%d" % (i, e) for i, e in m)


class LambdaElem:
    """Element of the power-sum algebra: sparse sum of p-monomials."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = {m: c for m, c in terms.items() if not c.is_zero()}

    @staticmethod
    def zero() -> "LambdaElem":
        return LambdaElem({})

    @staticmethod
    def one() -> "LambdaElem":
        return LambdaElem({PMONO_ONE: ONE})

    @staticmethod
    def p(l: int, power: int = 1) -> "LambdaElem":
        return LambdaElem({pmono((l, power)): ONE})

    @staticmethod
    def monomial(m: PMono, coeff: ParamRatio = ONE) -> "LambdaElem":
        return LambdaElem({m: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((pmono_degree(m) for m in self.terms), default=0)

    def __eq__(self, other):
        return isinstance(other, LambdaElem) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items(), key=lambda t: t[0])))

    def __add__(self, other: "LambdaElem") -> "LambdaElem":
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m)
            out[m] = c if v is None else v + c
        return LambdaElem(out)

    def __neg__(self) -> "LambdaElem":
        return LambdaElem({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "LambdaElem") -> "LambdaElem":
        return self + (-other)

    def __mul__(self, other: "LambdaElem") -> "LambdaElem":
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = pmono_mul(m1, m2)
                c = c1 * c2
                v = out.get(m)
                out[m] = c if v is None else v + c
        return LambdaElem(out)

    def scale(self, c: ParamRatio) -> "LambdaElem":
        if c.is_zero():
            return LambdaElem({})
        return LambdaElem({m: v * c for m, v in self.terms.items()})

    def substitute(self, bindings: dict) -> "LambdaElem":
        return LambdaElem({m: c.substitute(bindings) for m, c in self.terms.items()})

    def text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=lambda mm: (pmono_degree(mm), mm)):
            parts.append("%s * %s" % (self.terms[m].text(), pmono_text(m)))
        return " + ".join(parts)

    def __repr__(self):
        return "LambdaElem(%s)" % self.text()


class LambdaXElem:
    """Element of the power-sum algebra with the variable x adjoined.

    ``terms`` maps (x exponent, p-monomial) to coefficients; negative x
    exponents require ``laurent=True``.
    """

    __slots__ = ("laurent", "terms")

    def __init__(self, terms: dict, laurent: bool = False):
        self.laurent = laurent
        self.terms = {}
        for key, c in terms.items():
            if c.is_zero():
                continue
            if key[0] < 0 and not laurent:
                raise ValueError("negative x power in a non-Laurent element")
            self.terms[key] = c

    @staticmethod
    def zero(laurent: bool = False) -> "LambdaXElem":
        return LambdaXElem({}, laurent)

    @staticmethod
    def one(laurent: bool = False) -> "LambdaXElem":
        return LambdaXElem({(0, PMONO_ONE): ONE}, laurent)

    @staticmethod
    def x(power: int = 1, laurent: bool = False) -> "LambdaXElem":
        return LambdaXElem({(power, PMONO_ONE): ONE}, laurent or power < 0)

    @staticmethod
    def p(l: int, laurent: bool = False) -> "LambdaXElem":
        return LambdaXElem({(0, pmono((l, 1))): ONE}, laurent)

    @staticmethod
    def from_lambda(f: LambdaElem, laurent: bool = False) -> "LambdaXElem":
        return LambdaXElem({(0, m): c for m, c in f.terms.items()}, laurent)

    def to_lambda(self) -> LambdaElem:
        """Forget x; requires that no x-power is present."""
        out = {}
        for (a, m), c in self.terms.items():
            if a != 0:
                raise ValueError("element contains x powers")
            out[m] = c
        return LambdaElem(out)

    def with_laurent(self, laurent: bool) -> "LambdaXElem":
        return LambdaXElem(self.terms, laurent)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, LambdaXElem) and self.terms == other.terms

    def __add__(self, other: "LambdaXElem") -> "LambdaXElem":
        out = dict(self.terms)
        for key, c in other.terms.items():
            v = out.get(key)
            out[key] = c if v is None else v + c
        return LambdaXElem(out, self.laurent or other.laurent)

    def __neg__(self) -> "LambdaXElem":
        return LambdaXElem({k: -c for k, c in self.terms.items()}, self.laurent)

    def __sub__(self, other: "LambdaXElem") -> "LambdaXElem":
        return self + (-other)

    def __mul__(self, other: "LambdaXElem") -> "LambdaXElem":
        out: dict = {}
        for (a1, m1), c1 in self.terms.items():
            for (a2, m2), c2 in other.terms.items():
                key = (a1 + a2, pmono_mul(m1, m2))
                c = c1 * c2
                v = out.get(key)
                out[key] = c if v is None else v + c
        return LambdaXElem(out, self.laurent or other.laurent)

    def scale(self, c: ParamRatio) -> "LambdaXElem":
        if c.is_zero():
            return LambdaXElem({}, self.laurent)
        return LambdaXElem({k: v * c for k, v in self.terms.items()}, self.laurent)

    def mul_x(self, power: int) -> "LambdaXElem":
        return LambdaXElem(
            {(a + power, m): c for (a, m), c in self.terms.items()},
            self.laurent or power < 0,
        )

    def substitute(self, bindings: dict) -> "LambdaXElem":
        return LambdaXElem(
            {k: c.substitute(bindings) for k, c in self.terms.items()}, self.laurent
        )

    def text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (a, m) in sorted(self.terms, key=lambda km: (km[0], pmono_degree(km[1]), km[1])):
            factors = [self.terms[(a, m)].text()]
            if a:
                factors.append("x^%d" % a)
            if m:
                factors.append(pmono_text(m))
            parts.append(" * ".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return "LambdaXElem(%s)" % self.text()


# -- the family building blocks ----------------------------------------------


def _check_family_domain(f: LambdaXElem, family: Family):
    if f.laurent and not family.laurent:
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

    return LambdaXElem(out, f.laurent or family.laurent)


def _delta_of_x_power(a: int, family: Family):
    """Terms of the difference operator applied to x^a, as (xexp, pindex or None, scalar).

    pindex None marks a pure x-power term; otherwise the term is x^xexp * p_pindex.
    """
    if a == 0:
        return []
    out = []
    if family is Family.RAT_A:
        # x^(a-1) p_0 + x^(a-2) p_1 + ... + p_(a-1) - a x^(a-1)
        for j in range(a):
            out.append((a - 1 - j, j, 1))
        out.append((a - 1, None, -a))
    elif family is Family.TRIG_A:
        # x^a p_0 + 2 x^(a-1) p_1 + ... + 2 x p_(a-1) + p_a - 2a x^a
        out.append((a, 0, 1))
        for j in range(1, a):
            out.append((a - j, j, 2))
        out.append((0, a, 1))
        out.append((a, None, -2 * a))
    elif family is Family.RAT_B:
        if a % 2 == 0:
            l = a // 2
            # sum_{j<l} x^(2(l-j)-1) p_j - l x^(2l-1)
            for j in range(l):
                out.append((2 * (l - j) - 1, j, 1))
            out.append((2 * l - 1, None, -l))
        else:
            l = (a + 1) // 2
            # sum_{j<l} x^(2(l-1-j)) p_j - l x^(2l-2)
            for j in range(l):
                out.append((2 * (l - 1 - j), j, 1))
            out.append((2 * l - 2, None, -l))
    else:  # TRIG_BC
        l = abs(a)
        sign = 1 if a > 0 else -1
        # (p_0 - 2l - 1) x^l - 2 sum_{j=1}^{l-1} x^(l-2j) - x^-l
        #   + 2 sum_{j=1}^{l-1} p_j x^(l-j) + p_l, negated for x^-l
        out.append((sign * l, 0, sign))
        out.append((sign * l, None, -sign * (2 * l + 1)))
        for j in range(1, l):
            out.append((sign * (l - 2 * j), None, -2 * sign))
        out.append((-sign * l, None, -sign))
        for j in range(1, l):
            out.append((sign * (l - j), j, 2 * sign))
        out.append((0, l, sign))
    return out


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
    return LambdaXElem(out, f.laurent or family.laurent)


def reflect(f: LambdaXElem, family: Family) -> LambdaXElem:
    """The rational-B sign involution or the trigonometric-BC inversion."""
    if family is Family.RAT_B:
        return LambdaXElem(
            {(a, m): (-c if a % 2 else c) for (a, m), c in f.terms.items()}, f.laurent
        )
    if family is Family.TRIG_BC:
        return LambdaXElem({(-a, m): c for (a, m), c in f.terms.items()}, True)
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
        # monomial divisor: shift the x exponent
        out = {}
        for (a, m), c in f.terms.items():
            if a - lead < 0 and not f.laurent:
                raise InexactDivision("x-division left remainder on %s" % pmono_text(m))
            out[(a - lead, m)] = c.scale(inv_lead)
        return LambdaXElem(out, f.laurent)
    groups: dict = {}
    for (a, m), c in f.terms.items():
        groups.setdefault(m, {})[a] = c
    out: dict = {}
    laurent = f.laurent
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
            exp = a + shift
            if exp < 0:
                laurent = True
            out[(exp, m)] = c
    return LambdaXElem(out, laurent)
