"""The graded power-sum algebra and its extension by a distinguished variable.

``LambdaElem`` models the free commutative algebra on generators p_0, p_1, ...
(power sums with the "dimension" p_0 adjoined as a formal variable), graded by
deg p_i = i.  ``LambdaXElem`` adjoins one extra variable x, with negative
powers allowed (Laurent), and is the domain of the infinite-variable Dunkl
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
        """Whether the family's operators at infinity take negative powers
        of x; the polynomial families refuse them."""
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


class _SparseElem:
    """A sparse sum of monomials with ``ParamRatio`` coefficients, zero terms
    dropped.  The subclass names its monomials (``terms`` keys) and their
    product (``_key_mul``); the ring operations are implemented here once."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = {m: c for m, c in terms.items() if not c.is_zero()}

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m)
            out[m] = c if v is None else v + c
        return type(self)(out)

    def __neg__(self):
        return type(self)({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        key_mul = self._key_mul
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = key_mul(m1, m2)
                c = c1 * c2
                v = out.get(m)
                out[m] = c if v is None else v + c
        return type(self)(out)

    def scale(self, c: ParamRatio):
        if c.is_zero():
            return type(self)({})
        return type(self)({m: v * c for m, v in self.terms.items()})

    def substitute(self, bindings: dict):
        return type(self)({m: c.substitute(bindings) for m, c in self.terms.items()})

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self.text())


class LambdaElem(_SparseElem):
    """Element of the power-sum algebra: sparse sum of p-monomials."""

    __slots__ = ()
    _key_mul = staticmethod(pmono_mul)

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

    def degree(self) -> int:
        return max((pmono_degree(m) for m in self.terms), default=0)

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items(), key=lambda t: t[0])))

    def text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=lambda mm: (pmono_degree(mm), mm)):
            parts.append("%s * %s" % (self.terms[m].text(), pmono_text(m)))
        return " + ".join(parts)


class LambdaXElem(_SparseElem):
    """Element of the power-sum algebra with the variable x adjoined.

    ``terms`` maps (x exponent, p-monomial) to coefficients.  An exponent may
    be negative; whether a family's operator accepts such a term is decided
    by the operator (``InfDunkl.apply``), not by the element.
    """

    __slots__ = ()
    # An entry of this class's own dict, so that the per-layer boundary
    # ``powersums.LambdaXElem.mul`` of perfbench/tracer.py finds it.
    __mul__ = _SparseElem.__mul__

    @staticmethod
    def _key_mul(a, b):
        return (a[0] + b[0], pmono_mul(a[1], b[1]))

    @staticmethod
    def zero() -> "LambdaXElem":
        return LambdaXElem({})

    @staticmethod
    def one() -> "LambdaXElem":
        return LambdaXElem({(0, PMONO_ONE): ONE})

    @staticmethod
    def x(power: int = 1) -> "LambdaXElem":
        return LambdaXElem({(power, PMONO_ONE): ONE})

    @staticmethod
    def p(l: int) -> "LambdaXElem":
        return LambdaXElem({(0, pmono((l, 1))): ONE})

    @staticmethod
    def from_lambda(f: LambdaElem) -> "LambdaXElem":
        return LambdaXElem({(0, m): c for m, c in f.terms.items()})

    def to_lambda(self) -> LambdaElem:
        """Forget x; requires that no x-power is present."""
        out = {}
        for (a, m), c in self.terms.items():
            if a != 0:
                raise ValueError("element contains x powers")
            out[m] = c
        return LambdaElem(out)

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
