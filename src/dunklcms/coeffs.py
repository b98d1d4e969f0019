"""Exact arithmetic in the Laurent coefficient ring Q[k, 1/k, p, q, r, s].

Every coefficient the library builds lies in this ring: the only denominators
that occur are those of the constraint values r = p/k and s = (2q+1-k)/(2k)
and of the weights k^-1.  A ``ParamRatio`` is an integer polynomial ``num``
over ``den_int * k^den_k``, with ``den_int`` a positive integer, kept in a
unique canonical form:

* the content of ``num`` (the gcd of its coefficients) is coprime to ``den_int``;
* when ``den_k > 0``, ``num`` is not divisible by k;

so structural equality decides mathematical equality and ``is_zero`` is
exact.  Dividing by anything other than a nonzero constant times a power of k
would leave the ring and raises ``UnsupportedDenominator``.  All values are
immutable.

Monomials are packed into one int (Kronecker substitution; Monagan and Pearce,
J. Symb. Comp. 46, 2011): the exponent of SYMBOLS[i] occupies bits
[10 i, 10 i + 10).  The top bit of each field is a guard, so exponents are at
most MAX_DEGREE; adding two valid exponents never carries into the next
field, and a product that sets a guard bit raises ``ExponentOverflow``.
Coefficients are plain ints, so all arithmetic is int arithmetic and
``math.gcd``.

Above the parameter monomial a key may carry further fields of 12 bits, each
with its top bit as a guard, and a product that sets any guard bit raises
``ExponentOverflow`` as well.  The ring operations (+, -, *, ``scale`` and
the canonical form) add keys and read only the k field and the guard bits,
so they apply unchanged: ``finite_cms`` keeps each polynomial in x as one
``ParamRatio`` whose keys also hold the x-exponents.

The symbol set is fixed globally; each operator family uses a subset ({k} for
the A families, {k, q} for rational B, {k, p, q} for trigonometric BC, the
remaining symbols being eliminated through ``ParamRatio.substitute``).
"""

from __future__ import annotations

from fractions import Fraction as Rat
from functools import cache, reduce
from math import gcd
from operator import or_

SYMBOLS = ("k", "p", "q", "r", "s")
NSYM = len(SYMBOLS)
_SYMBOL_INDEX = {name: i for i, name in enumerate(SYMBOLS)}

_BITS = 10
_FIELD = (1 << _BITS) - 1
MAX_DEGREE = (1 << (_BITS - 1)) - 1
_XBITS = 12  # the fields above the parameter monomial
_XFIELDS = 64  # of which the guards of this many are tested
_GUARD = (sum(1 << (_BITS * i + _BITS - 1) for i in range(NSYM))
          | sum(1 << (_BITS * NSYM + _XBITS * i + _XBITS - 1) for i in range(_XFIELDS)))
_NOT_K = sum(_FIELD << (_BITS * i) for i in range(1, NSYM))
_k_exponent = _FIELD.__and__


class CoeffError(ArithmeticError):
    """Base class for coefficient-arithmetic failures."""


class DivisionByZero(CoeffError):
    """Division by the zero rational function."""


class DenominatorVanishes(CoeffError):
    """A substitution turned a denominator into zero."""


class UnsupportedDenominator(CoeffError):
    """Division by a parameter polynomial that is not a constant times a power
    of k: the quotient lies outside the coefficient ring."""


class ExponentOverflow(CoeffError):
    """An exponent left its packed range (0..MAX_DEGREE for a parameter)."""


def _pack(exps) -> int:
    e = 0
    for i, d in enumerate(exps):
        if not 0 <= d <= MAX_DEGREE:
            raise ExponentOverflow("exponent %d of %s outside 0..%d" % (d, SYMBOLS[i], MAX_DEGREE))
        e |= d << (_BITS * i)
    return e


def _unpack(e: int) -> list:
    return [(e >> (_BITS * i)) & _FIELD for i in range(NSYM)]


def _checked(terms: dict) -> dict:
    """``terms`` after checking that no field reached its guard bit."""
    if reduce(or_, terms, 0) & _GUARD:
        raise ExponentOverflow("an exponent left its packed range")
    return terms


def _grlex(e: int):
    # graded lexicographic, k < p < q < r < s: total degree first, then the
    # packed int, whose highest field is s
    return (sum(_unpack(e)), e)


def _terms_text(terms: dict, den: int) -> str:
    """Text of the polynomial ``terms / den``, rational coefficients reduced."""
    if not terms:
        return "0"
    parts = []
    for e in sorted(terms, key=_grlex, reverse=True):
        n, d = terms[e], den
        if d != 1:
            g = gcd(n, d)
            n, d = n // g, d // g
        factors = []
        if n != 1 or d != 1 or not e:
            factors.append(str(n) if d == 1 else "(%d/%d)" % (n, d))
        for i, pw in enumerate(_unpack(e)):
            if pw == 1:
                factors.append(SYMBOLS[i])
            elif pw > 1:
                factors.append("%s^%d" % (SYMBOLS[i], pw))
        parts.append("*".join(factors))
    return "+".join(parts).replace("+-", "-")


_new = object.__new__


def _poly(terms: dict) -> "ParamPoly":
    """A ParamPoly over ``terms``, which hold no zero coefficient."""
    p = _new(ParamPoly)
    p.terms = terms
    return p


class ParamPoly:
    """Sparse polynomial in the deformation symbols over Z.

    ``terms`` maps packed exponents to nonzero int coefficients.  The zero
    polynomial has no terms.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = {e: c for e, c in terms.items() if c}

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero() -> "ParamPoly":
        return _POLY_ZERO

    @staticmethod
    def const(value: int) -> "ParamPoly":
        return _poly({0: value}) if value else _POLY_ZERO

    @staticmethod
    def symbol(name: str, power: int = 1) -> "ParamPoly":
        e = [0] * NSYM
        e[_SYMBOL_INDEX[name]] = power
        return _poly({_pack(e): 1})

    # -- basic queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(_unpack(e)) for e in self.terms), default=0)

    def key(self):
        return tuple(sorted(self.terms.items()))

    def __eq__(self, other):
        return isinstance(other, ParamPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(self.key())

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "ParamPoly") -> "ParamPoly":
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        get = out.get
        for e, c in b.items():
            out[e] = get(e, 0) + c
        if 0 in out.values():
            out = {e: c for e, c in out.items() if c}
        return _poly(out)

    def __neg__(self) -> "ParamPoly":
        return _poly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "ParamPoly") -> "ParamPoly":
        return self + (-other)

    def __mul__(self, other: "ParamPoly") -> "ParamPoly":
        a, b = self.terms, other.terms
        if not a or not b:
            return _POLY_ZERO
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            (e2, c2), = b.items()
            if c2 == 1:
                out = {e + e2: c for e, c in a.items()}
            else:
                out = {e + e2: c * c2 for e, c in a.items()}
            return _poly(_checked(out) if e2 else out)
        out = {}
        get = out.get
        for e2, c2 in b.items():
            for e1, c1 in a.items():
                e = e1 + e2
                v = get(e)
                out[e] = c1 * c2 if v is None else v + c1 * c2
        if 0 in out.values():
            out = {e: c for e, c in out.items() if c}
        return _poly(_checked(out))

    def scale(self, c: int) -> "ParamPoly":
        if c == 1:
            return self
        if not c:
            return _POLY_ZERO
        return _poly({e: v * c for e, v in self.terms.items()})

    def __pow__(self, n: int) -> "ParamPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = _POLY_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def _scale_shift(self, c: int, j: int) -> "ParamPoly":
        """c * k^j * self, for 0 <= j <= MAX_DEGREE."""
        if not j:
            return self.scale(c)
        return _poly(_checked({e + j: v * c for e, v in self.terms.items()}))

    def _k_valuation(self) -> int:
        """The largest j with k^j dividing self (self nonzero)."""
        return min(map(_k_exponent, self.terms))

    def _shift_down(self, j: int) -> "ParamPoly":
        """self / k^j, for k^j dividing self."""
        return _poly({e - j: c for e, c in self.terms.items()}) if j else self

    # -- substitution -----------------------------------------------------

    def substitute(self, bindings: dict) -> "ParamRatio":
        """Replace symbols by ParamRatio values; returns a ParamRatio."""
        images = {}
        for name, val in bindings.items():
            images[_SYMBOL_INDEX[name]] = val if isinstance(val, ParamRatio) else ParamRatio.const(val)
        powers = {}
        out = _RATIO_ZERO
        for e, c in self.terms.items():
            term = None
            for i, image in images.items():
                pw = (e >> (_BITS * i)) & _FIELD
                if pw:
                    e -= pw << (_BITS * i)
                    f = powers.get((i, pw))
                    if f is None:
                        f = powers[(i, pw)] = image ** pw
                    term = f if term is None else term * f
            mono = _raw(_poly({e: c}), 1, 0)
            out = out + (mono if term is None else mono * term)
        return out

    # -- display -----------------------------------------------------------

    def text(self) -> str:
        return _terms_text(self.terms, 1)

    def __repr__(self):
        return "ParamPoly(%s)" % self.text()


_POLY_ZERO = _poly({})
_POLY_ONE = _poly({0: 1})


def _raw(num: ParamPoly, den_int: int, den_k: int) -> "ParamRatio":
    """A ParamRatio from fields already in canonical form."""
    r = _new(ParamRatio)
    r.num = num
    r.den_int = den_int
    r.den_k = den_k
    return r


def _content_free(num: ParamPoly, den_int: int):
    """(num, den_int) divided by the gcd of den_int and the content of num."""
    if den_int != 1:
        g = gcd(den_int, *num.terms.values())
        if g != 1:
            return _poly({e: c // g for e, c in num.terms.items()}), den_int // g
    return num, den_int


def _canonical(num: ParamPoly, den_int: int, den_k: int) -> "ParamRatio":
    """num / (den_int * k^den_k) in canonical form, for den_int > 0."""
    if not num.terms:
        return _RATIO_ZERO
    num, den_int = _content_free(num, den_int)
    if den_k:
        j = min(den_k, num._k_valuation())
        num = num._shift_down(j)
        den_k -= j
    return _raw(num, den_int, den_k)


def _lcd(coeffs):
    """(den_int, den_k): the least common denominator den_int * k^den_k of
    the ParamRatio values ``coeffs``."""
    den_int, den_k = 1, 0
    for c in coeffs:
        d = c.den_int
        if d != 1:
            den_int = den_int // gcd(den_int, d) * d
        if c.den_k > den_k:
            den_k = c.den_k
    return den_int, den_k


def _numerator(c: "ParamRatio", den_int: int, den_k: int) -> dict:
    """The int numerator of c over den_int * k^den_k, a multiple of c's
    denominator; a k-exponent it pushes past MAX_DEGREE raises
    ExponentOverflow.  Read only: it may be c's own dict."""
    m, j = den_int // c.den_int, den_k - c.den_k
    terms = c.num.terms
    if j:
        return _checked({e + j: v * m for e, v in terms.items()})
    if m != 1:
        return {e: v * m for e, v in terms.items()}
    return terms


def _check_den_k(den_k: int) -> int:
    if den_k > MAX_DEGREE:
        raise ExponentOverflow("denominator k^%d exceeds k^%d" % (den_k, MAX_DEGREE))
    return den_k


class ParamRatio:
    """Element of Q[k, 1/k, p, q, r, s]: ``num / (den_int * k^den_k)`` in
    canonical form.

    ``ParamRatio(num, den)`` takes ParamPoly operands; ``den`` must be a
    nonzero constant times a power of k.
    """

    __slots__ = ("num", "den_int", "den_k")

    def __init__(self, num: ParamPoly, den: ParamPoly = _POLY_ONE):
        terms = den.terms
        if not terms:
            raise DivisionByZero("zero denominator")
        if len(terms) != 1 or next(iter(terms)) & _NOT_K:
            raise UnsupportedDenominator(
                "denominator %s is not a constant times a power of k" % den.text())
        (e, c), = terms.items()
        if c < 0:
            num, c = -num, -c
        r = _canonical(num, c, e)
        self.num, self.den_int, self.den_k = r.num, r.den_int, r.den_k

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "ParamRatio":
        return _RATIO_ZERO

    @staticmethod
    def one() -> "ParamRatio":
        return _RATIO_ONE

    @staticmethod
    def const(value) -> "ParamRatio":
        if type(value) is int:
            n, d = value, 1
        else:
            value = Rat(value)
            n, d = value.numerator, value.denominator
        return _raw(_poly({0: n}), d, 0) if n else _RATIO_ZERO

    @staticmethod
    def symbol(name: str, power: int = 1) -> "ParamRatio":
        """Symbol to an integer power; only k may have a negative power."""
        if power >= 0:
            return _raw(ParamPoly.symbol(name, power), 1, 0)
        if name != "k":
            raise UnsupportedDenominator("%s^%d is outside the coefficient ring" % (name, power))
        return _raw(_POLY_ONE, 1, _check_den_k(-power))

    @staticmethod
    def fraction(num, den) -> "ParamRatio":
        return ParamRatio.const(Rat(num, den))

    # -- queries -------------------------------------------------------------

    @property
    def den(self) -> ParamPoly:
        """The denominator den_int * k^den_k as a ParamPoly."""
        return _poly({self.den_k: self.den_int})

    def is_zero(self) -> bool:
        return not self.num.terms

    def key(self):
        return (self.num.key(), self.den_int, self.den_k)

    def __eq__(self, other):
        if not isinstance(other, ParamRatio):
            return NotImplemented
        return (self.den_k == other.den_k and self.den_int == other.den_int
                and self.num.terms == other.num.terms)

    def __hash__(self):
        return hash(self.key())

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "ParamRatio") -> "ParamRatio":
        n1, n2 = self.num, other.num
        if not n1.terms:
            return other
        if not n2.terms:
            return self
        d1, d2, a1, a2 = self.den_int, other.den_int, self.den_k, other.den_k
        if a1 == a2:
            if d1 == d2:
                num = n1 + n2
                if d1 == 1 and not a1:
                    return _raw(num, 1, 0)
                return _canonical(num, d1, a1)
            g = gcd(d1, d2)
            return _canonical(n1.scale(d2 // g) + n2.scale(d1 // g), d1 // g * d2, a1)
        # One numerator is not divisible by k and the other gets shifted by a
        # positive power of k, so the sum is nonzero and not divisible by k.
        g = gcd(d1, d2)
        a = max(a1, a2)
        num = n1._scale_shift(d2 // g, a - a1) + n2._scale_shift(d1 // g, a - a2)
        return _raw(*_content_free(num, d1 // g * d2), a)

    def __neg__(self) -> "ParamRatio":
        return _raw(-self.num, self.den_int, self.den_k)

    def __sub__(self, other: "ParamRatio") -> "ParamRatio":
        return self + (-other)

    def __mul__(self, other: "ParamRatio") -> "ParamRatio":
        n1, n2 = self.num, other.num
        if not n1.terms or not n2.terms:
            return _RATIO_ZERO
        d1, d2, a1, a2 = self.den_int, other.den_int, self.den_k, other.den_k
        # k cancels only against a numerator whose own denominator has no k;
        # it is cancelled before the product, so that a product that fits is
        # never rejected for an exponent that it cancels
        j = 0
        if a1 and a2:
            pass  # neither numerator is divisible by k
        elif a1:
            j = min(a1, n2._k_valuation())
            n2 = n2._shift_down(j)
        elif a2:
            j = min(a2, n1._k_valuation())
            n1 = n1._shift_down(j)
        elif d1 == 1 and d2 == 1:
            return _raw(n1 * n2, 1, 0)
        num, den_int = _content_free(n1 * n2, d1 * d2)
        return _raw(num, den_int, _check_den_k(a1 + a2 - j))

    def inverse(self) -> "ParamRatio":
        terms = self.num.terms
        if not terms:
            raise DivisionByZero("division by the zero rational function")
        if len(terms) != 1 or next(iter(terms)) & _NOT_K:
            raise UnsupportedDenominator(
                "division by %s, which is not a constant times a power of k" % self.text())
        (e, c), = terms.items()
        g = gcd(self.den_int, c)
        top, bottom = self.den_int // g, c // g
        if bottom < 0:
            top, bottom = -top, -bottom
        if self.den_k >= e:
            return _raw(_poly({self.den_k - e: top}), bottom, 0)
        return _raw(_poly({0: top}), bottom, e - self.den_k)

    def __truediv__(self, other: "ParamRatio") -> "ParamRatio":
        return self * other.inverse()

    def __pow__(self, n: int) -> "ParamRatio":
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return _RATIO_ONE
        return _raw(self.num ** n, self.den_int ** n, _check_den_k(self.den_k * n))

    def scale(self, c) -> "ParamRatio":
        if type(c) is int:
            m, d = c, 1
        else:
            c = Rat(c)
            m, d = c.numerator, c.denominator
        if not m or not self.num.terms:
            return _RATIO_ZERO
        if d == 1:
            # the content of num is coprime to den_int, so only m can cancel
            g = gcd(m, self.den_int)
            return _raw(self.num.scale(m // g), self.den_int // g, self.den_k)
        return _raw(*_content_free(self.num.scale(m), self.den_int * d), self.den_k)

    # -- substitution -----------------------------------------------------------

    def substitute(self, bindings: dict) -> "ParamRatio":
        """Substitute symbols by ParamRatio values (exact)."""
        out = self.num.substitute(bindings)
        if self.den_int != 1:
            out = out.scale(Rat(1, self.den_int))
        if not self.den_k:
            return out
        k = bindings.get("k")
        if k is None:
            return out * _raw(_POLY_ONE, 1, self.den_k)
        k = k if isinstance(k, ParamRatio) else ParamRatio.const(k)
        if k.is_zero():
            raise DenominatorVanishes("denominator vanishes under substitution")
        return out * k.inverse() ** self.den_k

    # -- display ------------------------------------------------------------------

    def text(self) -> str:
        num = _terms_text(self.num.terms, self.den_int)
        if len(self.num.terms) > 1:
            num = "(%s)" % num
        a = self.den_k
        return "%s/%s" % (num, "1" if not a else "k" if a == 1 else "k^%d" % a)

    def __repr__(self):
        return "ParamRatio(%s)" % self.text()


_RATIO_ZERO = _raw(_POLY_ZERO, 1, 0)
_RATIO_ONE = _raw(_POLY_ONE, 1, 0)

ZERO = _RATIO_ZERO
ONE = _RATIO_ONE
K = ParamRatio.symbol("k")
P = ParamRatio.symbol("p")
Q = ParamRatio.symbol("q")
HALF = ParamRatio.fraction(1, 2)
#: the packed keys of k, p and q: multiplying a numerator by one of them adds
#: its key to every exponent
_K_KEY, _P_KEY, _Q_KEY = (next(iter(s.num.terms)) for s in (K, P, Q))


def const(value) -> ParamRatio:
    return ParamRatio.const(value)


def symbol(name: str, power: int = 1) -> ParamRatio:
    return ParamRatio.symbol(name, power)


@cache
def k_power(n: int) -> ParamRatio:
    """k to an integer power (negative allowed), built once per power."""
    return ParamRatio.symbol("k", n)


#: Substitutions eliminating the constrained parameters: the rational B family
#: ties s to q via 2q+1 = k(2s+1), the trigonometric BC family additionally
#: ties r to p via p = kr.
B_CONSTRAINT = {
    "s": ParamRatio(
        ParamPoly.symbol("q").scale(2) + ParamPoly.const(1) - ParamPoly.symbol("k"),
        ParamPoly.symbol("k").scale(2),
    )
}
BC_CONSTRAINT = {
    "s": B_CONSTRAINT["s"],
    "r": ParamRatio(ParamPoly.symbol("p"), ParamPoly.symbol("k")),
}
