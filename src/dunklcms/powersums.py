"""The graded power-sum algebra and its extension by a distinguished variable.

``LambdaElem`` models the free commutative algebra on generators p_0, p_1, ...
(power sums with the "dimension" p_0 adjoined as a formal variable), graded by
deg p_i = i.  ``LambdaXElem`` adjoins one extra variable x, possibly with
negative powers (Laurent), and is the domain of the infinite-variable Dunkl
operators.  This module provides the ring structure and the four families;
the operators themselves, with the rules of their difference part, live in
``dunkl_infinity``.

All elements are immutable; coefficients are ``ParamRatio`` values.
"""

from __future__ import annotations

import enum

from .coeffs import ONE, ParamRatio

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
    def trig(self) -> bool:
        """Whether the family is trigonometric: its kinetic operator is
        x_i d_i and its reflection terms carry a numerator and a half."""
        return self in (Family.TRIG_A, Family.TRIG_BC)

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
