"""Finite-dimensional reductions: polynomial algebras, Dunkl operators, and
the substitution homomorphism phi_{n,m} (``Hom``) that ties them to the
infinite-variable side; the undeformed phi_N is its case m = 0.

Every identity about operators in infinitely many variables is checked here
against an independent finite-dimensional computation: the classical Dunkl
(and Dunkl-Heckman) operators act by reflection divided differences, taken
in closed form as geometric series on the packed terms, the symmetrized
power sums give the quantum integrals, and the commutative-diagram checks
compare both routes term by term.  ``DIAGRAM_KINDS`` declares each diagram
kind once, for the library and the command line alike.

A power D_i^r of a finite operator runs in one kernel over the packed int
numerator, as ``InfDunkl.apply`` does at infinity: each application adds the
derivative (or Euler) term and every reflection series into one int dict
over a shared denominator, each parameter k, p or q entering as a shift of
the packed keys, and the power makes one canonical form, at its end.

Variables are indexed 0..N-1 internally.  Laurent exponents are allowed where
the trigonometric BC family needs them.

``MultiPoly`` is fraction-free, like the coefficient ring below it: the whole
polynomial is one ``ParamRatio`` whose packed monomial keys also carry the
x-exponents above the parameter monomial.  Sums and scaling are the
coefficient ring's own operations on it, and so are products, between a
shift of one factor's keys and a check of the x-exponents; derivatives, the
group actions, the divided differences and exact division by a root factor
(a monomial, or a binomial x^a +- x^b at its root) are loops over its int
dict.  A ``ParamRatio`` per x-monomial is built only for display, for the
leading coefficient, for substitution and for the ``terms`` view.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, partial

from ._parallel import ordered_map
from .coeffs import (
    _BITS,
    _FIELD,
    _NOT_K,
    _XBITS,
    _XFIELDS,
    NSYM,
    ONE,
    ExponentOverflow,
    ParamRatio,
    UnsupportedDenominator,
    ZERO,
    _K_KEY,
    _P_KEY,
    _Q_KEY,
    _canonical,
    _checked,
    _k_exponent,
    _lcd,
    _numerator,
    _poly,
    _raw,
    k_power,
)
from .dunkl_infinity import InfDunkl
from .powersums import (
    Family,
    InexactDivision,
    LambdaElem,
    LambdaXElem,
)


class NotInvariant(ValueError):
    """Input fails the required group-invariance check."""


# -- packed keys ----------------------------------------------------------------

_PARAM_BITS = _BITS * NSYM  # the parameter monomial, packed as in coeffs
_PARAM_MASK = (1 << _PARAM_BITS) - 1
_XFIELD = (1 << _XBITS) - 1
_XBIAS = 1 << (_XBITS - 2)
MIN_X_EXPONENT = -_XBIAS
MAX_X_EXPONENT = _XBIAS - 1


class _Layout:
    """Field positions of the packed keys of polynomials in nvars variables.

    From the top: the total degree, then x_0, x_1, ..., x_{nvars-1}, each in a
    12-bit field holding the exponent plus 1024 (so 0..2047 when valid, with
    the top bit as a guard), then the parameter monomial in the low 30 bits,
    packed as ``coeffs`` packs it.  So keys compare as ints in the graded
    lexicographic order of their x-monomials, and adding a key and a key
    less ``bias`` multiplies the monomials.  Each field then holds a value in
    -1024..3071 before the borrows and carries between fields, so distinct
    monomials never share a key, and the lowest field that left 0..2047 has
    its guard bit set: ``coeffs._checked``, which tests the guard bits of up
    to 64 fields, detects every overflow, whichever way it carries.  Maps
    that move the total degree further, by up to 4096, test it with
    ``_degree_checked``.
    """

    __slots__ = ("nvars", "offsets", "units", "deg_off", "deg_unit", "bias", "zero_x")

    def __init__(self, nvars: int):
        if nvars >= _XFIELDS:
            raise ValueError("at most %d variables" % (_XFIELDS - 1))
        self.nvars = nvars
        self.offsets = [_PARAM_BITS + _XBITS * (nvars - 1 - v) for v in range(nvars)]
        self.units = [1 << off for off in self.offsets]
        self.deg_off = _PARAM_BITS + _XBITS * nvars
        self.deg_unit = 1 << self.deg_off
        self.bias = sum(_XBIAS << off for off in self.offsets + [self.deg_off])
        self.zero_x = self.bias >> _PARAM_BITS  # the x-part of a constant

    def pack(self, exps) -> int:
        """The key of x^exps with parameter monomial 1."""
        if len(exps) != self.nvars:
            raise ValueError("%d exponents for %d variables" % (len(exps), self.nvars))
        for p in (*exps, sum(exps)):
            if not MIN_X_EXPONENT <= p <= MAX_X_EXPONENT:
                raise ExponentOverflow("x-exponent or degree %d outside %d..%d"
                                       % (p, MIN_X_EXPONENT, MAX_X_EXPONENT))
        return self.bias + sum(p * u for p, u in zip(exps, self.units)) + sum(exps) * self.deg_unit

    def unpack(self, key: int) -> tuple:
        """The x-exponents of a key."""
        return tuple(((key >> off) & _XFIELD) - _XBIAS for off in self.offsets)

    def __reduce__(self):
        # unpickled polynomials share the process's layout, so that the
        # identity test of ``_same_layout`` holds across worker processes
        return _layout, (self.nvars,)


_LAYOUTS: dict = {}


def _layout(nvars: int) -> _Layout:
    lay = _LAYOUTS.get(nvars)
    if lay is None:
        lay = _LAYOUTS[nvars] = _Layout(nvars)
    return lay


_new = object.__new__


def _mp(lay: _Layout, ratio: ParamRatio) -> "MultiPoly":
    """A MultiPoly over ``ratio``, whose keys are valid in ``lay``."""
    f = _new(MultiPoly)
    f.nvars = lay.nvars
    f._lay = lay
    f.ratio = ratio
    f._hash = None
    return f


def _same_layout(f: "MultiPoly", g: "MultiPoly") -> _Layout:
    """The layout f and g share; ValueError for polynomials in different
    numbers of variables, whose packed keys do not line up."""
    lay = f._lay
    if g._lay is not lay:
        raise ValueError("polynomials in %d and %d variables" % (f.nvars, g.nvars))
    return lay


def _degree_checked(lay: _Layout, terms: dict) -> dict:
    """``terms`` after ``_checked`` and a test of the total degree, for keys
    whose x-fields moved by at most 2048 but whose degree may have moved
    further, past the reach of its guard bit.  The degree is the top field,
    so the least and the greatest key carry its extremes."""
    _checked(terms)
    if terms and (min(terms) < 0 or max(terms) >> lay.deg_off >= 2 * _XBIAS):
        raise ExponentOverflow("a total degree outside %d..%d" % (MIN_X_EXPONENT, MAX_X_EXPONENT))
    return terms


def _coefficient(group: dict, ratio: ParamRatio) -> ParamRatio:
    """The ParamRatio group / (den_int * k^den_k) of ratio's denominator;
    group maps parameter monomials to ints."""
    return _canonical(_poly(group), ratio.den_int, ratio.den_k)


# -- x-polynomials ----------------------------------------------------------------


class MultiPoly:
    """Sparse Laurent polynomial in x_0..x_{nvars-1} over the coefficient ring.

    ``MultiPoly(nvars, {exponent tuple: ParamRatio})`` builds one.  Inside, it
    is a single ``ParamRatio``, ``ratio``, in the coefficient ring's canonical
    form: an int polynomial over one denominator den_int * k^den_k for the
    whole x-polynomial, with the content coprime to den_int and, when
    den_k > 0, some monomial free of k.  So equal polynomials have equal
    fields.  Its monomial keys carry the x-exponents and their total degree
    in 12-bit fields above the parameter monomial (see ``_Layout``):

    * the ring's +, - and scaling apply to it unchanged, and a product is the
      ring's product once one factor's keys have lost the layout's bias;
    * every x-exponent and every term's total degree lies in
      MIN_X_EXPONENT..MAX_X_EXPONENT (-1024..1023), and a result outside
      raises ``ExponentOverflow``;
    * the parameter exponents of the shared numerator stay within
      ``coeffs.MAX_DEGREE`` (511), so a polynomial whose terms span more
      than k^511 between them, such as x0/k^300 + k^300*x1, raises it too;
    * keys compare as ints in the graded lexicographic order of their
      x-monomials (total degree, then x_0, x_1, ...), ties broken by the
      parameter monomial;
    * +, -, *, ``div_or_none`` and == take two polynomials in the same
      number of variables, whose keys share one layout, and raise
      ``ValueError`` otherwise;
    * ``div_or_none`` divides by a unit times a monomial, or by x^a +- x^b
      times a power of k over an int, the shapes of the root factors, and
      raises ``UnsupportedDenominator`` for any other divisor.

    ``terms`` is the read-only view {exponent tuple: ParamRatio}, built on
    each access.
    """

    __slots__ = ("nvars", "_lay", "ratio", "_hash")

    def __init__(self, nvars: int, terms: dict):
        lay = _layout(nvars)
        items = [(e, c) for e, c in terms.items() if not c.is_zero()]
        den_int, den_k = _lcd(c for _, c in items)
        packed = {}
        for e, c in items:
            base = lay.pack(e)
            for pe, v in _numerator(c, den_int, den_k).items():
                packed[base + pe] = v
        self.nvars, self._lay, self._hash = nvars, lay, None
        self.ratio = _canonical(_poly(_checked(packed)), den_int, den_k)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "MultiPoly":
        return _mp(_layout(nvars), ZERO)

    @staticmethod
    def const(nvars: int, c) -> "MultiPoly":
        c = c if isinstance(c, ParamRatio) else ParamRatio.const(c)
        lay = _layout(nvars)
        return _mp(lay, _raw(_poly({lay.bias + e: v for e, v in c.num.terms.items()}), c.den_int, c.den_k))

    @staticmethod
    def var(nvars: int, i: int, power: int = 1) -> "MultiPoly":
        e = [0] * nvars
        e[i] = power
        lay = _layout(nvars)
        return _mp(lay, _raw(_poly({lay.pack(e): 1}), 1, 0))

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.ratio.num.terms

    def is_const(self) -> bool:
        """True when no term carries an x (the zero polynomial included)."""
        zero_x = self._lay.zero_x
        return all(e >> _PARAM_BITS == zero_x for e in self.ratio.num.terms)

    def is_monomial(self) -> bool:
        """True when every term carries the same x-monomial: a coefficient
        times x^a, which no binomial root factor divides."""
        keys = iter(self.ratio.num.terms)
        x = next(keys, 0) >> _PARAM_BITS
        return all(e >> _PARAM_BITS == x for e in keys)

    @property
    def terms(self) -> dict:
        """{exponent tuple: ParamRatio}, built from the packed form."""
        groups: dict = {}
        for e, c in self.ratio.num.terms.items():
            groups.setdefault(e >> _PARAM_BITS, {})[e & _PARAM_MASK] = c
        unpack = self._lay.unpack
        return {unpack(x << _PARAM_BITS): _coefficient(g, self.ratio) for x, g in groups.items()}

    def key(self):
        return self.ratio.key()

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        _same_layout(self, other)
        return self.ratio == other.ratio

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.nvars, self.key()))
        return self._hash

    def leading(self):
        """The grlex-leading exponent tuple and its ParamRatio coefficient."""
        packed = self.ratio.num.terms
        x = max(packed) >> _PARAM_BITS
        group = {e & _PARAM_MASK: c for e, c in packed.items() if e >> _PARAM_BITS == x}
        return self._lay.unpack(x << _PARAM_BITS), _coefficient(group, self.ratio)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        return _mp(_same_layout(self, other), self.ratio + other.ratio)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return _mp(_same_layout(self, other), self.ratio - other.ratio)

    def __neg__(self) -> "MultiPoly":
        return _mp(self._lay, -self.ratio)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        lay = _same_layout(self, other)
        a, b = self.ratio, other.ratio
        if len(a.num.terms) < len(b.num.terms):
            a, b = b, a
        # keys add, so the smaller factor's keys lose the bias first; the
        # shift keeps its canonical form, and the product checks the guards
        bias = lay.bias
        return _mp(lay, a * _raw(_poly({e - bias: c for e, c in b.num.terms.items()}), b.den_int, b.den_k))

    def scale(self, c: ParamRatio) -> "MultiPoly":
        return _mp(self._lay, self.ratio * c)

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative polynomial power; use mul_monomial")
        if n == 0:
            return MultiPoly.const(self.nvars, 1)
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def _remap(self, terms: dict) -> "MultiPoly":
        """``terms`` over self's denominator, for terms that are self's with
        their x-monomials moved and signs changed: the content and the
        k-valuation of the numerator, and hence the canonical form, stay."""
        r = self.ratio
        return _mp(self._lay, _raw(_poly(terms), r.den_int, r.den_k))

    def _shifted(self, shift: int) -> "MultiPoly":
        """self times the x-monomial whose key less the bias is ``shift``."""
        return self._remap(_checked({e + shift: c for e, c in self.ratio.num.terms.items()}))

    def mul_monomial(self, exps, coeff: ParamRatio = ONE) -> "MultiPoly":
        lay = self._lay
        f = self._shifted(lay.pack(exps) - lay.bias)
        return f if coeff == ONE else f.scale(coeff)

    def diff(self, i: int) -> "MultiPoly":
        lay = self._lay
        off = lay.offsets[i]
        step = lay.units[i] + lay.deg_unit
        out = {}
        for e, c in self.ratio.num.terms.items():
            p = (e >> off & _XFIELD) - _XBIAS
            if p:
                out[e - step] = c * p
        r = self.ratio
        return _mp(lay, _canonical(_poly(_checked(out)), r.den_int, r.den_k))

    # -- group actions ------------------------------------------------------

    def act_swap(self, i: int, j: int) -> "MultiPoly":
        lay = self._lay
        oi, oj = lay.offsets[i], lay.offsets[j]
        move = lay.units[i] - lay.units[j]
        return self._remap({e + ((e >> oj & _XFIELD) - (e >> oi & _XFIELD)) * move: c
                            for e, c in self.ratio.num.terms.items()})

    def act_signed_swap(self, i: int, j: int) -> "MultiPoly":
        """(x_i, x_j) -> (-x_j, -x_i)."""
        lay = self._lay
        oi, oj = lay.offsets[i], lay.offsets[j]
        move = lay.units[i] - lay.units[j]
        out = {}
        for e, c in self.ratio.num.terms.items():
            vi, vj = e >> oi & _XFIELD, e >> oj & _XFIELD
            out[e + (vj - vi) * move] = -c if (vi + vj) & 1 else c
        return self._remap(out)

    def act_flip(self, i: int) -> "MultiPoly":
        """x_i -> -x_i."""
        off = self._lay.offsets[i]
        return self._remap({e: -c if e >> off & 1 else c for e, c in self.ratio.num.terms.items()})

    def act_invert(self, i: int) -> "MultiPoly":
        """x_i -> 1/x_i."""
        lay = self._lay
        off = lay.offsets[i]
        move = lay.units[i] + lay.deg_unit
        return self._remap(_checked({e + (2 * _XBIAS - 2 * (e >> off & _XFIELD)) * move: c
                                     for e, c in self.ratio.num.terms.items()}))

    def act_invert_swap(self, i: int, j: int) -> "MultiPoly":
        """(x_i, x_j) -> (1/x_j, 1/x_i)."""
        lay = self._lay
        oi, oj = lay.offsets[i], lay.offsets[j]
        move = lay.units[i] + lay.units[j] + 2 * lay.deg_unit
        # the degree moves by up to 4096
        return self._remap(_degree_checked(lay, {
            e + (2 * _XBIAS - (e >> oi & _XFIELD) - (e >> oj & _XFIELD)) * move: c
            for e, c in self.ratio.num.terms.items()}))

    # -- division --------------------------------------------------------------

    def div_or_none(self, other: "MultiPoly"):
        """Exact quotient self / other in the Laurent ring, or None when there
        is none.

        The divisor must be a unit c * k^a of the coefficient ring times a
        monomial, divided out by a shift, or k^a * (x^e1 +- x^e2) over the
        divisor's denominator, divided at its root (``_root_quotient``); any
        other divisor raises ``UnsupportedDenominator``.
        """
        _same_layout(self, other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return self
        fp = other.ratio.num.terms
        if len(fp) == 1:
            (lead, c), = fp.items()
            if not lead & _NOT_K:
                # the divisor is the unit u = c * k^a / other's denominator,
                # times x^le: divide by u in the coefficient ring, then shift
                a = lead & _FIELD
                u = _raw(_poly({a: c}), other.ratio.den_int, other.ratio.den_k)
                q = self if u == ONE else self.scale(u.inverse())
                shift = self._lay.bias + a - lead
                return q._shifted(shift) if shift else q
        elif len(fp) == 2:
            (k1, s), (k2, t) = fp.items()
            a = k1 & _PARAM_MASK
            if s * s == t * t == 1 and k2 & _PARAM_MASK == a and not a & _NOT_K:
                return _root_quotient(self, other)
        raise UnsupportedDenominator(
            "cannot divide by %s: not a unit times a monomial or x^a +- x^b" % other.text())

    def exact_div(self, other: "MultiPoly") -> "MultiPoly":
        q = self.div_or_none(other)
        if q is None:
            raise InexactDivision("nonzero remainder in structural division")
        return q

    # -- parameter handling ------------------------------------------------------

    def substitute(self, bindings: dict) -> "MultiPoly":
        return MultiPoly(self.nvars, {e: c.substitute(bindings) for e, c in self.terms.items()})

    # -- display --------------------------------------------------------------------

    def text(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for e, c in sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True):
            factors = [c.text()]
            for i, pw in enumerate(e):
                if pw == 1:
                    factors.append("x%d" % (i + 1))
                elif pw:
                    factors.append("x%d^%d" % (i + 1, pw))
            parts.append(" * ".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return "MultiPoly(%s)" % self.text()


def _root_quotient(g: MultiPoly, f: MultiPoly):
    """g / f for a binomial f = u * (s x^e1 + t x^e2), s, t = +-1 and u the
    unit k^a over f's denominator, or None when f does not divide g.

    Over the Laurent ring s x^e1 + t x^e2 = s x^e2 (y - rho) with y = x^(e1-e2)
    and rho = -s t.  Take the variable x_a where e1 and e2 differ most, and
    name the terms so that d = e1_a - e2_a > 0.  Each term of g then lies in
    one orbit x^b y^j, j = v_a // d for the biased field v_a = m_a + 1024,
    so g is a sum of x^b P_b(y), and y - rho divides g iff every P_b
    vanishes at rho.  The first pass sums c_j rho^j per orbit, on the ints:
    a nonzero sum proves that no quotient exists.  Otherwise Ruffini's rule
    down each orbit gives P_b / (y - rho), which has int coefficients; by
    Gauss's lemma, f's numerator being primitive and free of k, the quotient
    of g's canonical numerator is canonical over g's denominator.

    An orbit is keyed by the key of x^b.  No other x-exponent differs by
    more than d between e1 and e2, so each field of these keys spans fewer
    than 4096 values and distinct orbits keep distinct keys.  A quotient
    term lies between g's terms, less e2, so ``_degree_checked`` detects
    every overflow (see ``_Layout``).
    """
    lay = g._lay
    fr = f.ratio
    (k1, s), (k2, t) = fr.num.terms.items()
    e1, e2 = lay.unpack(k1), lay.unpack(k2)
    a = max(range(lay.nvars), key=lambda v: abs(e1[v] - e2[v]))
    if e1[a] < e2[a]:
        k1, s, k2, t = k2, t, k1, s
    d = abs(e1[a] - e2[a])
    off = lay.offsets[a]
    delta = k1 - k2  # the key of y, less the bias
    rho = -s * t
    terms = g.ratio.num.terms
    sums: dict = {}
    get = sums.get
    for e, c in terms.items():
        j = (e >> off & _XFIELD) // d
        b = e - j * delta
        sums[b] = get(b, 0) + (-c if rho < 0 and j & 1 else c)
    if any(sums.values()):
        return None
    orbits: dict = {}
    for e, c in terms.items():
        j = (e >> off & _XFIELD) // d
        orbits.setdefault(e - j * delta, {})[j] = c
    unit = k2 & _PARAM_MASK  # k^a
    shift = k2 - unit - lay.bias  # the key of x^e2, less the bias
    quo = {}
    for b, cs in orbits.items():
        h = 0
        low = min(cs)
        for j in range(max(cs), low, -1):  # h is the coefficient of y^(j-1)
            h = cs.get(j, 0) + rho * h
            if h:
                quo[b + (j - 1) * delta - shift] = s * h
    quo = _poly(_degree_checked(lay, quo))
    gr = g.ratio
    if not unit and fr.den_int == 1 and not fr.den_k:
        return _mp(lay, _raw(quo, gr.den_int, gr.den_k))
    # g / f = quo / (g.den * k^a) * f.den
    return _mp(lay, _raw(quo, 1, 0) * _canonical(_poly({fr.den_k: fr.den_int}), gr.den_int, gr.den_k + unit))


def _is_linear_root_factor(f: MultiPoly) -> bool:
    """Whether f is a root factor u * (x^e1 +- x^e2) of ``div_or_none`` whose
    two terms have disjoint supports and exponents >= 0, and some variable
    has exponent 1 in one term and 0 in the other.

    Such an f has degree 1 in that variable, with coefficients that are
    coprime monomials, so it is prime in the Laurent ring; each derivative
    d_i f is a monomial or 0, which f does not divide; and no two distinct
    monic ones are associates, since a monomial multiple of one has a
    negative exponent or a variable in both terms.  Every structural factor
    x_i +- x_j, x_i x_j - 1, x_i +- 1 has this shape.
    """
    fp = f.ratio.num.terms
    if len(fp) != 2:
        return False
    (k1, s), (k2, t) = fp.items()
    a = k1 & _PARAM_MASK
    if not (s * s == t * t == 1 and k2 & _PARAM_MASK == a and not a & _NOT_K):
        return False
    e1, e2 = f._lay.unpack(k1), f._lay.unpack(k2)
    return (min(e1 + e2) >= 0 and not any(p and q for p, q in zip(e1, e2))
            and any(p + q == 1 for p, q in zip(e1, e2)))


# -- structural factors of the Dunkl operators and of the Moser matrices ------
#
# Each builder is memoized: the factors are immutable, and the Moser matrices
# and the deformed recursion ask for the same few again and again.


def _structural(nvars: int, lead, tail, c: int) -> MultiPoly:
    """x^lead + c * x^tail, where lead and tail list variables with multiplicity."""
    def exps(variables):
        e = [0] * nvars
        for v in variables:
            e[v] += 1
        return tuple(e)

    return MultiPoly(nvars, {exps(lead): ONE, exps(tail): ParamRatio.const(c)})


@cache
def _fac_diff(nvars: int, i: int, j: int) -> MultiPoly:
    """x_i - x_j."""
    return _structural(nvars, (i,), (j,), -1)


@cache
def _fac_sum(nvars: int, i: int, j: int) -> MultiPoly:
    """x_i + x_j."""
    return _structural(nvars, (i,), (j,), 1)


@cache
def _fac_prod_minus_1(nvars: int, i: int, j: int) -> MultiPoly:
    """x_i x_j - 1."""
    return _structural(nvars, (i, j), (), -1)


@cache
def _fac_shift(nvars: int, i: int, c: int, power: int = 1) -> MultiPoly:
    """x_i^power + c."""
    return _structural(nvars, (i,) * power, (), c)


# -- reflection divided differences -------------------------------------------


def _x_groups(terms: dict) -> dict:
    """A packed numerator grouped by x-monomial: {key of the x-monomial:
    [(packed parameter monomial, int coefficient), ...]}."""
    groups: dict = {}
    for e, c in terms.items():
        pm = e & _PARAM_MASK
        groups.setdefault(e - pm, []).append((pm, c))
    return groups


def _divided_differences(lay: _Layout, groups: dict, reflections, out: dict,
                         factor: int = 1, shift: int = 0, trig: bool = False) -> None:
    """Add ``factor`` times the parameter monomial of packed key ``shift``
    times the sum over ``reflections`` of (f - w f) / d, in closed form, to
    ``out``, for the polynomial f whose packed numerator ``_x_groups``
    grouped as ``groups``.

    Each reflection is a triple (kind, i, j), j None for the kinds in one
    variable, naming a reflection w and its root factor d:

    ===============  ===========================  ============
    kind             w                            d
    ===============  ===========================  ============
    ``swap``         ``f.act_swap(i, j)``         x_i - x_j
    ``signed_swap``  ``f.act_signed_swap(i, j)``  x_i + x_j
    ``invert_swap``  ``f.act_invert_swap(i, j)``  x_i x_j - 1
    ``invert``       ``f.act_invert(i)``          x_i - 1
    ``invert2``      ``f.act_invert(i)``          x_i^2 - 1
    ``flip``         ``f.act_flip(i)``            x_i
    ===============  ===========================  ============

    Except for ``flip``, each term m = c x^a of f has w m = m y^(-n) for a
    monomial ratio y, and d = u (y - 1) for a prefactor u:

    ===============  ========  =========  =====
    kind             y         n          u
    ===============  ========  =========  =====
    ``swap``         x_i/x_j   a_i - a_j  x_j
    ``signed_swap``  -x_i/x_j  a_i - a_j  -x_j
    ``invert_swap``  x_i x_j   a_i + a_j  1
    ``invert``       x_i       2 a_i      1
    ``invert2``      x_i^2     a_i        1
    ===============  ========  =========  =====

    So (m - w m) / (y - 1) is the geometric series m y^(-n) (1 + ... + y^(n-1))
    when n > 0 and -m (1 + ... + y^(|n|-1)) when n < 0, whose keys form an
    arithmetic progression.  For ``flip`` an odd a_i gives 2c x^(a - e_i) and
    an even one nothing.  With ``trig`` each quotient is multiplied by
    d + 2u = u (y + 1), the numerator of the trigonometric operators
    (x_i + x_j, x_i x_j + 1, x_i + 1, x_i^2 + 1): u cancels, and the series
    1 + 2y + ... + 2y^(n-1) + y^n gains a term and doubles its inner
    coefficients.  It applies to every kind but ``signed_swap`` and ``flip``.

    The series depends on the x-monomial only, so it is laid out once per
    group and added for each parameter monomial of the group.  The int
    coefficients are added over f's denominator: no image w f and no
    polynomial division are formed.  ``out`` may keep zero entries, and its
    keys are unchecked.  Every x-exponent of a term lies between those of m
    and of w m, so it can only just reach its guard bit; the total degree can
    go further, and ``_degree_checked`` tests it.  A parameter exponent
    rises by at most one.
    """
    du = lay.deg_unit
    get = out.get
    for kind, i, j in reflections:
        if trig and kind in ("signed_swap", "flip"):
            raise ValueError("no trigonometric numerator for %s" % kind)
        oi, ui = lay.offsets[i], lay.units[i]
        if kind == "flip":
            for x, coeffs in groups.items():
                if x >> oi & 1:  # the bias is even, so this is the parity of a_i
                    x += shift - ui - du
                    for pm, c in coeffs:
                        pm += x
                        out[pm] = get(pm, 0) + 2 * factor * c
            continue
        oj, uj = (oi, 0) if j is None else (lay.offsets[j], lay.units[j])
        # n = ci * v_i + cj * v_j + c0 for the biased fields v = a + _XBIAS
        if kind in ("swap", "signed_swap"):
            ci, cj, c0, dy, pre = 1, -1, 0, ui - uj, -uj - du
        elif kind == "invert_swap":
            ci, cj, c0, dy, pre = 1, 1, -2 * _XBIAS, ui + uj + 2 * du, 0
        elif kind == "invert":
            ci, cj, c0, dy, pre = 2, 0, -2 * _XBIAS, ui + du, 0
        elif kind == "invert2":
            ci, cj, c0, dy, pre = 1, 0, -_XBIAS, 2 * (ui + du), 0
        else:
            raise ValueError(kind)
        alternate = kind == "signed_swap"
        # for n < 0 each term is -c/u: -c for u = x_j or 1, and c for u = -x_j
        below = factor if alternate else -factor
        for x, coeffs in groups.items():
            n = (x >> oi & _XFIELD) * ci + (x >> oj & _XFIELD) * cj + c0
            if not n:
                continue
            x += shift
            if trig:  # m y^(-s) for s = 0..n, or -m y^t for t = 0..|n|
                if n > 0:
                    step, w = -dy, factor
                else:
                    step, w, n = dy, -factor, -n
                last = x + n * step
                runs = (((x, last), w), (range(x + step, last, step), 2 * w))
            else:
                if n > 0:  # m y^(-s) / u for s = 1..n
                    start, step, w = x + pre - dy, -dy, factor
                else:  # -m y^t / u for t = 0..|n|-1
                    start, step, n, w = x + pre, dy, -n, below
                stop = start + n * step
                if alternate:  # y carries the sign -1
                    runs = ((range(start, stop, 2 * step), w), (range(start + step, stop, 2 * step), -w))
                else:
                    runs = ((range(start, stop, step), w),)
            for keys, w in runs:
                for pm, c in coeffs:
                    c *= w
                    for key in keys:
                        key += pm
                        out[key] = get(key, 0) + c


# -- finite Dunkl operators -------------------------------------------------


def _dunkl_parts(family: Family, N: int, i: int) -> tuple:
    """The reflection terms of D_{i,N} as (reflections, factor, shift) for
    ``_divided_differences``; for the trigonometric families the operator is
    x_i d_i plus these terms, each with its numerator and a half, and the
    factor is over the doubled denominator."""
    if not 0 <= i < N:
        raise ValueError("index %d outside 0..%d" % (i, N - 1))
    others = [j for j in range(N) if j != i]
    swaps = [("swap", i, j) for j in others]
    if family is Family.RAT_A:  # d_i - k sum_j (1 - s_ij) / (x_i - x_j)
        return ((swaps, -1, _K_KEY),)
    if family is Family.RAT_B:  # ... and its signed swaps over x_i + x_j, - q (1 - s_i) / x_i
        signed = [(kind, i, j) for j in others for kind in ("swap", "signed_swap")]
        return ((signed, -1, _K_KEY), ([("flip", i, None)], -1, _Q_KEY))
    if family is Family.TRIG_A:  # x_i d_i - (k/2) sum_j (x_i + x_j) (1 - s_ij) / (x_i - x_j)
        return ((swaps, -1, _K_KEY),)
    # TRIG_BC: x_i d_i - (k/2) [the swaps and their inverted forms]
    #          - (p/2) (x_i + 1) (1 - t_i) / (x_i - 1) - q (x_i^2 + 1) (1 - t_i) / (x_i^2 - 1)
    pairs = [(kind, i, j) for j in others for kind in ("swap", "invert_swap")]
    return ((pairs, -1, _K_KEY), ([("invert", i, None)], -1, _P_KEY),
            ([("invert2", i, None)], -2, _Q_KEY))


def _finite_dunkl_power(family: Family, N: int, i: int, f: MultiPoly, r: int) -> MultiPoly:
    """D_{i,N}^r applied to f, in one kernel over f's packed numerator.

    Each application adds the derivative term and every reflection series
    (``_divided_differences``) into one int dict over the shared denominator
    den_int * k^den_k, with each parameter k, p or q entering as a shift of
    the packed keys; the half of the trigonometric families doubles den_int
    once per application.  Then the common power of k is shifted out while
    den_k > 0, so the k-exponents are those of the canonical form, and
    ``_degree_checked`` tests the keys: a step whose result leaves the
    exponent ranges raises ``ExponentOverflow`` at that step.  The
    canonical form is made once, at the end.  A negative r raises
    ValueError.
    """
    if f.nvars != N:
        raise ValueError("variable count mismatch")
    if r < 0:
        raise ValueError("negative order %d" % r)
    parts = _dunkl_parts(family, N, i)
    trig = family.trig
    lay = f._lay
    off = lay.offsets[i]
    # x_i d_i keeps the key of x^a; d_i lowers a_i and the degree by one
    down = 0 if trig else lay.units[i] + lay.deg_unit
    two = 2 if trig else 1
    ratio = f.ratio
    terms, den_int, den_k = ratio.num.terms, ratio.den_int, ratio.den_k
    for _ in range(r):
        out = {}
        groups = _x_groups(terms)
        for x, coeffs in groups.items():
            a = two * ((x >> off & _XFIELD) - _XBIAS)
            if a:
                x -= down
                for pm, c in coeffs:
                    out[x + pm] = a * c
        for reflections, factor, shift in parts:
            _divided_differences(lay, groups, reflections, out, factor, shift, trig)
        terms = {e: c for e, c in out.items() if c}
        if den_k and terms:
            # a k-exponent may stand at MAX_DEGREE + 1 here, which the
            # field holds without a carry
            j = min(den_k, min(map(_k_exponent, terms)))
            if j:
                terms = {e - j: c for e, c in terms.items()}
                den_k -= j
        _degree_checked(lay, terms)
        den_int *= two
    return _mp(lay, _canonical(_poly(terms), den_int, den_k))


def finite_dunkl(family: Family, N: int, i: int, f: MultiPoly) -> MultiPoly:
    """The family's finite Dunkl (or Dunkl-Heckman) operator D_{i,N} applied to f.

    The reflection terms are divided differences (f - w f) / d, summed in
    closed form from f's packed terms by the kernel of
    ``_finite_dunkl_power``, of which this is the case r = 1; for the
    trigonometric families each carries its numerator (x_i + x_j,
    x_i x_j + 1, x_i + 1 or x_i^2 + 1).  No image w f, no polynomial division
    and no product of polynomials is formed.  The index i must lie in
    0..N-1, and ValueError says so otherwise.
    """
    return _finite_dunkl_power(family, N, i, f, 1)


def is_invariant(family: Family, f: MultiPoly) -> bool:
    """Whether the family's group fixes f: each swap of neighbouring
    variables, then the flip (rational B) or the inversion (trigonometric
    BC) of x_0; the first generator that moves f decides."""
    if any(f.act_swap(i, i + 1) != f for i in range(f.nvars - 1)):
        return False
    if family is Family.RAT_B:
        return f.act_flip(0) == f
    if family is Family.TRIG_BC:
        return f.act_invert(0) == f
    return True


def heckman_integral(family: Family, N: int, r: int, f: MultiPoly) -> MultiPoly:
    """Sum over i of D_{i,N}^r applied to an invariant f (power 2r for B/BC).

    Each power D_{i,N}^r is one call of the kernel ``_finite_dunkl_power``,
    which makes one canonical form; the N powers are then added.
    Restriction to invariants is implemented literally: the full operator sum
    is applied and invariance of input and output is asserted.
    """
    if not is_invariant(family, f):
        raise NotInvariant("input is not invariant under the family's group")
    power = 2 * r if family.even_integrals else r
    out = MultiPoly.zero(N)
    for i in range(N):
        out = out + _finite_dunkl_power(family, N, i, f, power)
    if not is_invariant(family, out):
        raise NotInvariant("operator output failed the invariance check")
    return out


# -- parity data and substitution homomorphisms ------------------------------


@dataclass(frozen=True)
class ParityData:
    """Two-species particle data: n of species 0 and m of species 1/k, with
    n, m >= 0 and at least one particle (``ValueError`` otherwise)."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 0 or self.m < 0 or self.n + self.m < 1:
            raise ValueError("n=%d, m=%d: need n, m >= 0 and at least one particle" % (self.n, self.m))

    @property
    def size(self) -> int:
        return self.n + self.m

    def p(self, i: int) -> int:
        return 0 if i < self.n else 1

    def k_weight(self, i: int) -> ParamRatio:
        """k^{p(i)}."""
        return k_power(self.p(i))

    def k_inv_weight(self, i: int) -> ParamRatio:
        """k^{-p(i)}."""
        return k_power(-self.p(i))

    def cross_weight(self, i: int, j: int) -> ParamRatio:
        """k^{1-p(j)}."""
        return k_power(1 - self.p(j))


class Hom:
    """The substitution homomorphism phi_{n,m} from the power-sum algebra
    into polynomials in n + m variables, for ``parity`` = (n, m).

    p_l goes to the family's deformed power sum, each variable x_j weighted
    by k^{-p(j)}; with a distinguished index i, x also goes to x_i.  The
    undeformed phi_N is the case ``ParityData(N, 0)``, where every weight is
    1.  Trig BC has no deformed substitution, so it needs m = 0.
    """

    def __init__(self, family: Family, parity: ParityData, i: int = None):
        if parity.m and family is Family.TRIG_BC:
            raise ValueError("no deformed substitution is defined for trig BC")
        self.nvars = parity.size
        if i is not None and not 0 <= i < self.nvars:
            raise ValueError("index %d outside 0..%d" % (i, self.nvars - 1))
        self.family = family
        self.parity = parity
        self.i = i
        self._pl_cache: dict = {}

    def p_image(self, l: int, power: int = 1) -> MultiPoly:
        """The image of p_l^power, each power built once per ``Hom``."""
        img = self._pl_cache.get((l, power))
        if img is not None:
            return img
        if power > 1:
            img = self.p_image(l) ** power
            self._pl_cache[(l, power)] = img
            return img
        n = self.nvars
        if self.family is Family.RAT_B:
            exps = [2 * l]
        elif self.family is Family.TRIG_BC:
            exps = [l, -l]
        else:
            exps = [l]
        terms: dict = {}
        for j in range(n):
            w = self.parity.k_inv_weight(j)
            for pw in exps:
                e = [0] * n
                e[j] = pw
                e = tuple(e)
                terms[e] = terms.get(e, ZERO) + w
        img = MultiPoly(n, terms)
        self._pl_cache[(l, 1)] = img
        return img

    def apply(self, f) -> MultiPoly:
        """The image of f: each term's coefficient times x_i^a (which needs
        the distinguished index) and the images of its generator powers,
        the terms summed once over their least common denominator."""
        n = self.nvars
        if isinstance(f, LambdaElem):
            items = [((0, m), c) for m, c in f.terms.items()]
        else:
            items = list(f.terms.items())
        images = []
        for (a, mono), c in items:
            if a and self.i is None:
                raise ValueError("x is only mapped with a distinguished index")
            term = MultiPoly.const(n, c)
            if a:
                e = [0] * n
                e[self.i] = a
                term = term.mul_monomial(tuple(e))
            for idx, mult in mono:
                term = term * self.p_image(idx, mult)
            images.append(term.ratio)
        den_int, den_k = _lcd(images)
        acc: dict = {}
        get = acc.get
        for ratio in images:
            for e, v in _numerator(ratio, den_int, den_k).items():
                acc[e] = get(e, 0) + v
        return _mp(_layout(n), _canonical(_poly({e: v for e, v in acc.items() if v}), den_int, den_k))


# -- deformed operators (rational A) ------------------------------------------


def deformed_partials(parity: ParityData, r: int, f: MultiPoly) -> list:
    """All recursion operators of order r applied to f: [d_0^(r) f, ..., d_{N-1}^(r) f].

    d_i^(0) is the identity.  The recursion divides differences of
    lower-order results by x_i - x_j, once per pair, since the quotient is
    symmetric in i and j; exactness is guaranteed on elements generated by
    the deformed power sums and surfaces as InexactDivision otherwise.  A
    negative order raises ValueError.
    """
    N = parity.size
    if f.nvars != N:
        raise ValueError("variable count mismatch")
    if r < 0:
        raise ValueError("negative order %d" % r)
    if r == 0:
        return [f] * N
    level = [f.diff(i).scale(parity.k_weight(i)) for i in range(N)]
    for _ in range(r - 1):
        nxt = []
        quotients = {}
        for i in range(N):
            g = level[i].diff(i).scale(parity.k_weight(i))
            for j in range(N):
                if j == i:
                    continue
                h = quotients.get((j, i))
                if h is None:
                    h = quotients[i, j] = (level[i] - level[j]).exact_div(_fac_diff(N, i, j))
                g = g - h.scale(parity.cross_weight(i, j))
            nxt.append(g)
        level = nxt
    return level


def deformed_partial_r(parity: ParityData, i: int, r: int, f: MultiPoly) -> MultiPoly:
    return deformed_partials(parity, r, f)[i]


def deformed_integral(parity: ParityData, r: int, f: MultiPoly) -> MultiPoly:
    """Sum over i of k^{-p(i)} d_i^(r) f, the r-th deformed quantum integral.

    The species weight is k^{-p(i)}, matching the deformed total trace: with
    the weight k^{+p(i)} the r=2 case would carry a k^3 second-derivative term
    and fail to reproduce the deformed CMS operator.
    """
    parts = deformed_partials(parity, r, f)
    out = MultiPoly.zero(parity.size)
    for i, g in enumerate(parts):
        out = out + g.scale(parity.k_inv_weight(i))
    return out


# -- diagram checks --------------------------------------------------------------


@dataclass
class DiagramResult:
    """One diagram check; ``lhs`` and ``rhs`` hold the sides' text for a
    counterexample and are empty when the check holds."""

    label: str
    ok: bool
    lhs: str
    rhs: str

    @staticmethod
    def compared(label: str, ok: bool, lhs, rhs) -> "DiagramResult":
        """The result of comparing the sides lhs and rhs; their text is
        built only for a counterexample."""
        if ok:
            return DiagramResult(label, True, "", "")
        return DiagramResult(label, False, lhs.text(), rhs.text())


@dataclass
class DiagramReport:
    detail: str
    results: list

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def counterexamples(self):
        return [r for r in self.results if not r.ok]


#: Each diagram kind: (deformed, indexed, statement).  A deformed kind is
#: sized by n and m, the others by N; an indexed kind reads the index i; a
#: statement names a diagram stated for rational A only.
DIAGRAM_KINDS = {
    "dcomm": (False, True, None),
    "heckdiag": (False, False, None),
    "propcomm": (True, True, "recursion"),
    "intrat": (True, False, "deformed-integral"),
}


def _diagram_one(kind: str, r: int, op: InfDunkl, hom: Hom, labeled) -> DiagramResult:
    """The diagram ``kind`` on one labelled element, for the family, size
    and index of ``hom``."""
    family, parity, i = hom.family, hom.parity, hom.i
    label, f = labeled
    if kind != "dcomm" and isinstance(f, LambdaXElem):
        f = f.to_lambda()
    if kind == "dcomm":
        lhs = hom.apply(op.apply(f, r))
        rhs = _finite_dunkl_power(family, parity.size, i, hom.apply(f), r)
    elif kind == "heckdiag":
        lhs = hom.apply(op.integral(r, f))
        rhs = heckman_integral(family, parity.size, r, hom.apply(f))
        if family is Family.TRIG_BC:
            # the projection counts x^j and x^-j separately while the finite
            # power sum appears once, a structural factor of two
            rhs = rhs.scale(ParamRatio.const(2))
    elif kind == "propcomm":
        lhs = hom.apply(op.apply(LambdaXElem.from_lambda(f), r))
        rhs = deformed_partial_r(parity, i, r, hom.apply(f))
    else:  # intrat
        lhs = hom.apply(op.integral(r, f))
        rhs = deformed_integral(parity, r, hom.apply(f))
    return DiagramResult.compared(label, lhs == rhs, lhs, rhs)


def diagram_check(kind: str, family: Family, testset, r: int = 1, *,
                  parity: ParityData, i: int = 0) -> DiagramReport:
    """Verify one of the commutative-diagram statements on a list of elements.

    Kinds (``DIAGRAM_KINDS``): ``dcomm`` (Dunkl operator vs its finite
    reduction, on elements that may contain x), ``heckdiag`` (the projected
    integral vs the symmetrized finite operator powers), ``propcomm``
    (deformed recursion, rational A) and ``intrat`` (deformed integrals,
    rational A).  The undeformed kinds take ``ParityData(N, 0)``.  For trig
    BC ``heckdiag`` carries the structural factor 2.  Test elements
    distribute across workers (DUNKLCMS_WORKERS); results keep the testset
    order.
    """
    if kind not in DIAGRAM_KINDS:
        raise ValueError(kind)
    deformed, indexed, statement = DIAGRAM_KINDS[kind]
    if statement and family is not Family.RAT_A:
        raise ValueError("the %s diagram is stated for rational A only" % statement)
    size = "n=%d m=%d" % (parity.n, parity.m) if deformed else "N=%d" % parity.size
    detail = size + (" i=%d" % (i + 1) if indexed else "") + " r=%d" % r
    # one operator and one substitution for every element, built before the
    # map forks, so each image of a power sum is formed once per worker
    hom = Hom(family, parity, i if indexed else None)
    one = partial(_diagram_one, kind, r, InfDunkl(family), hom)
    results = ordered_map(one, list(testset))
    return DiagramReport(detail, results)


def deformed_check(parity: ParityData, R: int) -> list:
    """The deformed quantum integrals of rational A: the ``intrat`` diagram
    for r = 1..R, labelled ``intrat r=%d %s``, then [L2, L3] = 0 on the
    image of each test element, labelled ``[L2,L3] on %s``."""
    family = Family.RAT_A
    testset = standard_testset(with_x=False)
    results = [replace(res, label="intrat r=%d %s" % (r, res.label)) for r in range(1, R + 1)
               for res in diagram_check("intrat", family, testset, r=r, parity=parity).results]
    hom = Hom(family, parity)
    for label, f in testset:
        g = hom.apply(f.to_lambda())
        lhs = deformed_integral(parity, 2, deformed_integral(parity, 3, g))
        rhs = deformed_integral(parity, 3, deformed_integral(parity, 2, g))
        results.append(DiagramResult.compared("[L2,L3] on %s" % label, lhs == rhs, lhs, rhs))
    return results


def standard_testset(with_x: bool = True):
    """The generator set used by the diagram checks."""
    els = [("p1", LambdaXElem.p(1)), ("p2", LambdaXElem.p(2)), ("p3", LambdaXElem.p(3))]
    if with_x:
        x = LambdaXElem.x(1)
        els += [
            ("x", x),
            ("x^2", x * x),
            ("x*p1", x * LambdaXElem.p(1)),
            ("x^2*p2", x * x * LambdaXElem.p(2)),
        ]
    return els
