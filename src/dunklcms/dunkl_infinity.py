"""Dunkl operators in infinitely many variables and the quantum integrals.

For each family the operator D acts on the power-sum algebra with x adjoined:

* rational A:        D = partial - k * delta
* trigonometric A:   D = partial - (k/2) * delta
* rational B:        D = partial - 2k * delta - (q/x)(1 - reflect)
* trigonometric BC:  D = partial - (k/2) * delta
                         - (p/2) ((x+1)/(x-1)) (1 - reflect)
                         - q ((x^2+1)/(x^2-1)) (1 - reflect)

``InfDunkl.apply`` computes D^r in one kernel over packed integer numerators.
The element is held as {(x exponent, p-monomial): int numerator} over one
shared denominator den_int * k^den_k, with the parameter monomials packed as
in ``coeffs``.  The derivation and the difference part add integer multiples
of numerators; multiplying by k, p or q adds a packed key; the half of the
trigonometric families doubles the shared denominator once per application.
The trigonometric-BC reflection terms are closed-form series: for a != 0,
with l = |a|,

    (x+1)/(x-1) (x^a - x^-a)        = sign(a) x^-l (1 + 2x + ... + 2x^(2l-1) + x^2l)
    (x^2+1)/(x^2-1) (x^a - x^-a)    = sign(a) x^-l (1 + 2x^2 + ... + 2x^(2l-2) + x^2l)

and the rational-B term -(q/x)(1 - reflect) x^a is -2q x^(a-1) for odd a and
0 for even a.  Each output term is put in canonical form once.  The
difference part on x^a follows the rules of ``_delta_of_x_power``; the test
suite composes the same operator term by term (derivation, difference part,
reflection, exact division by x, x - 1 and x^2 - 1) as the reference route.

The quantum integrals are E . D^r restricted to the power-sum algebra (even
powers D^(2r) for the B and BC families, matching their projection E).
``InfDunkl.integral`` runs D^r in the same kernel and applies E to the packed
numerators, so each output monomial's coefficient is put in canonical form
once.  For trigonometric BC, D anticommutes with the inversion s: x -> 1/x:
x d/dx changes sign under s, the difference part sends x^-a to minus the
inversion of its image of x^a, and each reflection term f(x)(1 - s) has
f(1/x) = -f(x) while s(1 - s) = -(1 - s).  So D^j m is s-invariant for even
j and s-anti-invariant for odd j, and the integral runs on the folded half
{(a >= 0, m): numerator}: an entry at a > 0 stands for
c (x^a + e x^-a) m, with e = (-1)^j after j applications, and one at a = 0
for c m.  ``InfDunkl.apply`` keeps both halves; it serves general elements
and is the reference route of the folded integrals.  The second integral
also has an explicit closed form as a differential operator in the power
sums; ``closed_form_L2`` produces it as a ``LambdaDiffOp`` and the test suite
verifies the two routes against each other.  ``LambdaDiffOp.apply`` runs on
packed numerators too: the operator holds its coefficients over one shared
denominator, f's go over f's, and the int products add up in one dict per
output monomial, put in canonical form once.  The two k-denominators must
sum to at most k^MAX_DEGREE; past that it raises ExponentOverflow, never a
wrong value.  The test suite applies the operator term by term as the
reference route.  E . D^r is always the ground truth: the closed
forms were derived independently and any disagreement is reported with the
offending monomial instead of patched.

All integrals commute with multiplication by p_0: the derivation skips index
0, and the difference part, the reflections and E carry the power-sum
monomial along as a coefficient.  So commutator checks run over p_0-free
monomials, and ``commutator_on_basis`` applies each integral only once per
p_0-free monomial: it tabulates the images L^(r) m, farming the table entries
out to worker processes, and forms each residual L^(s) L^(r) m -
L^(r) L^(s) m from the table in one accumulator over one common denominator,
splitting off the p_0 factor of each monomial and multiplying it back in.

All these kernels share one way to sum packed numerators and one way out.
``_apply_packed`` adds integer multiples of numerators in its own loop, the
hot one.  Every product of two numerators goes through ``_add_product``: an
operator coefficient times a derivative of f in ``LambdaDiffOp.apply``, an
image times a coefficient of f or g in ``_table_difference``, and E's
weight, a one-term numerator, times a numerator in ``integral``; a key met
for the first time is filled in place, in ``_apply_packed`` and in E, so the
hot loops make no call per new key.  ``_nonzero`` is the one exit: it drops
zero entries and empty numerators and tests the numerators left against the
guard bits, so a field that reached one raises ExponentOverflow, never a
wrong value.  ``_canonical_all`` then makes one canonical form per nonzero
output key, and a coefficient that cancels makes none.

Sampled runs and runs with bound parameters compute at their point, in the
same kernels.  ``InfDunkl(family, bindings)`` is the one place where
bindings enter: it takes each stencil at the point (``_stencil`` with that
point) and scales the shared denominator to match, and ``apply`` and
``integral`` substitute their argument first, in the one packing step they
share.  ``_stencil`` is the one stencil table, keyed by (family, point,
sign, a, m): symbolic or at a point, unfolded or on either sign of the
folded half.
``commutator_on_basis(..., bindings)`` builds its table with that operator,
so its residuals are formed at the point, and ``LambdaDiffOp.substitute``
puts a closed form at the point.  A binding that is not an exact rational
constant, or that names no parameter, raises ``InvalidBinding``.  Without
bindings every kernel runs symbolically, as above.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import chain
from math import lcm

from ._parallel import ordered_map
from .coeffs import (
    K,
    ONE,
    P,
    Q,
    SYMBOLS,
    ParamRatio,
    Rat,
    _K_KEY,
    _P_KEY,
    _Q_KEY,
    _canonical,
    _check_den_k,
    _checked,
    _lcd,
    _numerator,
    _poly,
)
from .powersums import (
    Family,
    LambdaElem,
    LambdaXElem,
    PMono,
    UnsupportedFamily,
    pmono,
    pmono_degree,
    pmono_mul,
    pmono_text,
)


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


#: Stencils kept, of all kinds together: more than the distinct keys of one
#: pass of a benchmark workload, so that a pass computes each key once (run
#: serially, seeds 0-2: 1,232 on ``infinity``, 909 unfolded and 323 folded;
#: 913 on ``precheck``, 267 unfolded, 323 folded and 323 at the point), few
#: enough that a long run's memory does not grow with every key it has met.
_STENCILS_KEPT = 2048


def _lowered(m: PMono, pos: int) -> PMono:
    """m with the multiplicity of its generator at ``pos`` lowered by one."""
    idx, mult = m[pos]
    return m[:pos] + m[pos + 1:] if mult == 1 else m[:pos] + ((idx, mult - 1),) + m[pos + 1:]


@lru_cache(maxsize=_STENCILS_KEPT)
def _stencil(family: Family, point, sign: int, a: int, m: PMono) -> tuple:
    """D(x^a m) as a tuple of (x exponent, p-monomial, n, shift), each entry
    standing for n * x^exponent * p-monomial times the parameter monomial
    with packed key ``shift`` (0, k, p or q); over 2 for the trigonometric
    families, so that every n is an integer.  Kept for later calls (see
    ``_STENCILS_KEPT``), so callers must not change it.

    ``sign`` 0 gives the stencil itself.  ``sign`` +-1 gives the
    trigonometric-BC stencil on the folded half (see ``InfDunkl``):
    D((x^a + e x^-a) m) for a > 0, or D(m) for a = 0, where ``sign`` = -e is
    the sign of the output.  Its entries at b < 0 move to -b times ``sign``;
    those at b = 0 are doubled for sign +1 and dropped for sign -1; for
    a = 0 only the entries at b > 0 are kept, the others being the mirror
    images.  So the reflection terms of an s-invariant input, which (1 - s)
    kills, cancel.  ``point`` None runs symbolically; a point of ``_point``
    turns the symbolic stencil of ``sign`` into an integer one (see
    ``InfDunkl``).  Folded and at a point, entries of equal keys are merged
    and zero ones dropped."""
    if point is not None or sign:
        out: dict = {}
        if point is None:
            for b, mm, n, shift in _stencil(family, None, 0, a, m):
                if b < 0:
                    if not a:
                        continue
                    b, n = -b, sign * n
                elif not b:
                    if not a or sign < 0:
                        continue
                    n *= 2
                out[(b, mm, shift)] = out.get((b, mm, shift), 0) + n
        else:
            scale, values = point[0], dict(point[1])
            for b, mm, n, shift in _stencil(family, None, sign, a, m):
                v = values.get(shift)
                if v is None:
                    n *= scale
                else:
                    n, shift = n * v, 0
                out[(b, mm, shift)] = out.get((b, mm, shift), 0) + n
        return tuple((b, mm, n, shift) for (b, mm, shift), n in out.items() if n)
    trig = family.trig
    two = 2 if trig else 1
    out = []
    # the derivation: d(x^a) m, then the generators of m by Leibniz
    if a:
        out.append((a if trig else a - 1, m, two * a, 0))
    for pos, (idx, mult) in enumerate(m):
        if not idx:
            continue
        rest = _lowered(m, pos)
        n = two * mult * idx
        if family is Family.RAT_A:
            out.append((a + idx - 1, rest, n, 0))
        elif family is Family.TRIG_A:
            out.append((a + idx, rest, n, 0))
        elif family is Family.RAT_B:
            out.append((a + 2 * idx - 1, rest, 2 * n, 0))
        else:  # TRIG_BC: l (x^l - x^-l)
            out.append((a + idx, rest, n, 0))
            out.append((a - idx, rest, -n, 0))
    # the difference part: -k delta, -(k/2) delta or -2k delta
    kc = -2 if family is Family.RAT_B else -1
    for xexp, pidx, scalar in _delta_of_x_power(a, family):
        mm = m if pidx is None else pmono_mul(m, ((pidx, 1),))
        out.append((xexp, mm, kc * scalar, _K_KEY))
    # the reflection terms
    if family is Family.RAT_B:
        # -(q/x)(1 - s) x^a = -2q x^(a-1) for odd a, 0 for even a
        if a % 2:
            out.append((a - 1, m, -2, _Q_KEY))
    elif family is Family.TRIG_BC and a:
        # with sign = sign(a) and l = |a|:
        # -(p/2) (x+1)/(x-1) (x^a - x^-a) = -(p/2) sign x^-l (1, 2, ..., 2, 1)
        # over x^0, x^1, ..., x^2l, and -q (x^2+1)/(x^2-1) (x^a - x^-a) the
        # same series in x^2, over x^0, x^2, ..., x^2l
        sign = 1 if a > 0 else -1
        l = sign * a
        for j in range(2 * l + 1):
            out.append((j - l, m, -sign if j in (0, 2 * l) else -2 * sign, _P_KEY))
        for j in range(l + 1):
            out.append((2 * j - l, m, -2 * sign if j in (0, l) else -4 * sign, _Q_KEY))
    return tuple(out)


def _apply_packed(terms: dict, stencil) -> dict:
    """D applied once to ``terms`` {(x exponent, p-monomial): int numerator},
    all over one denominator, which the result shares (doubled for the
    trigonometric families).  ``stencil(a, m)`` gives the stencil of each
    key.  The result goes through ``_nonzero``."""
    out: dict = {}
    get = out.get
    for key, num in terms.items():
        for a, m, n, shift in stencil(*key):
            acc = get((a, m))
            if acc is None:
                out[(a, m)] = {e + shift: n * c for e, c in num.items()}
                continue
            aget = acc.get
            for e, c in num.items():
                e += shift
                acc[e] = aget(e, 0) + n * c
    return _nonzero(out)


def _add_product(out: dict, key, n1, n2) -> None:
    """Add the product of the numerators ``n1`` and ``n2``, iterables of
    (packed monomial, int) pairs, into the numerator ``out[key]``; ``n2`` is
    read once per pair of ``n1``."""
    acc = out.get(key)
    if acc is None:
        acc = out[key] = {}
    aget = acc.get
    for e1, v1 in n1:
        for e2, v2 in n2:
            e = e1 + e2
            acc[e] = aget(e, 0) + v1 * v2


def _nonzero(out: dict) -> dict:
    """``out`` {key: int numerator}, in place, without zero entries or empty
    numerators; the numerators left are tested against the guard bits in one
    pass, so a field that reached one raises ExponentOverflow."""
    for key, acc in list(out.items()):
        if 0 in acc.values():
            acc = out[key] = {e: c for e, c in acc.items() if c}
            if not acc:
                del out[key]
    _checked(chain.from_iterable(out.values()))
    return out


def _canonical_all(out: dict, den_int: int, den_k: int) -> dict:
    """{key: the canonical form of out[key] / (den_int * k^den_k)}, for the
    numerators of ``out``, which went through ``_nonzero``."""
    return {key: _canonical(_poly(num), den_int, den_k) for key, num in out.items()}


class InvalidBinding(ValueError):
    """A binding that names no symbol of ``SYMBOLS``, or whose value is not
    an exact rational constant (an int, a Rat or a constant ParamRatio)."""


#: The packed key of each symbol: the shift of a stencil entry that it multiplies.
_SHIFTS = dict(zip(SYMBOLS, (_K_KEY, _P_KEY, _Q_KEY)))


def _point(bindings: dict) -> tuple:
    """(L, ((shift, value * L), ...)) for ``bindings``, sorted by shift: L is
    the least common multiple of the denominators of the bound values, so
    that each value times L is an int.  A binding that is not an exact
    rational constant, or that names no symbol, raises InvalidBinding."""
    values = {}
    for name, v in bindings.items():
        if name not in _SHIFTS:
            raise InvalidBinding("binding %r names no parameter (expected one of %s)"
                                 % (name, ", ".join(SYMBOLS)))
        if isinstance(v, ParamRatio) and not v.den_k and set(v.num.terms) <= {0}:
            v = Rat(v.num.terms.get(0, 0), v.den_int)
        elif type(v) is not int and not isinstance(v, Rat):
            raise InvalidBinding("binding %s=%r is not an exact rational constant" % (name, v))
        values[_SHIFTS[name]] = Rat(v)
    scale = lcm(*(v.denominator for v in values.values()))
    return scale, tuple(sorted((shift, v.numerator * (scale // v.denominator)) for shift, v in values.items()))


class InfDunkl:
    """The family's Dunkl operator at infinity, symbolic or at a point.

    ``apply`` and ``integral`` pack f once (``_packed``: at the point, then
    int numerators over the least common denominator) and run D^r in one
    kernel, ``_power``, over the packed numerators (see the module
    docstring): each term x^a m goes through its stencil (``_stencil``, of
    which ``_power`` only picks the signs), the integer combination of terms
    x^a' m' times 1, k, p or q that D(x^a m) is, with the two
    trigonometric-BC series in closed form.  A numerator that
    reaches a guard bit raises ExponentOverflow after the application that
    formed it.  The shared k-denominator sets one more limit, which the
    term-by-term route does not have: a coefficient c k^j next to one over
    k^i is held as c k^(j+i), so j + i must stay at most MAX_DEGREE, and
    each application may add one more power of k.

    ``integral`` runs the same kernel.  For trigonometric BC it works on the
    folded half: D anticommutes with the inversion s: x -> 1/x (see the
    module docstring), so D^j m is s-invariant for even j and
    s-anti-invariant for odd j.  An entry {(a, m): c} with a > 0 stands for
    c (x^a + e x^-a) m, with e = +1 before the first application and
    alternating after each; one at a = 0 stands for c m.  The stencils fold
    accordingly (``_stencil`` with sign -1, +1, -1, ...), and the guard
    checks and the doubled denominator stay as in ``apply``: each
    nonzero numerator of ``apply`` equals a folded one up to sign or a
    factor 2, so the guard bits see the same exponents and both routes raise
    ExponentOverflow at the same application.

    ``InfDunkl(family, bindings)`` runs at the point ``bindings``, exact
    rational values of some or all of k, p and q (``_point``): ``apply`` and
    ``integral`` substitute f first, and each stencil entry n times the
    parameter monomial ``shift`` becomes an integer entry (``_stencil`` at
    the point, kept in the same table as the symbolic stencils).
    With L the least common multiple of the bound values' denominators, a
    bound parameter's entry becomes n * value * L with shift 0, and any
    other entry n * L with its shift; each application multiplies the shared
    denominator by L, as the trigonometric half doubles it.  So the kernel,
    the guard checks and the canonical forms run unchanged, and a
    coefficient equals the substituted symbolic one.  Without bindings the
    symbolic stencils are used as they are.
    """

    def __init__(self, family: Family, bindings: dict = None):
        self.family = family
        self.bindings = bindings or None
        self._point = _point(bindings) if bindings else None

    def _packed(self, f, key) -> tuple:
        """(terms, den_int, den_k): f's coefficients, at the point when there
        is one, as int numerators over their least common denominator
        den_int * k^den_k, each under ``key`` of its monomial."""
        if self.bindings:
            f = f.substitute(self.bindings)
        den_int, den_k = _lcd(f.terms.values())
        return {key(m): _numerator(c, den_int, den_k) for m, c in f.terms.items()}, den_int, den_k

    def _power(self, terms: dict, den_int: int, r: int, folded: bool = False):
        """(D^r terms, its den_int) on packed numerators over den_int; on the
        folded half when ``folded``.  A negative r raises ValueError."""
        if r < 0:
            raise ValueError("negative order %d" % r)
        fam, point = self.family, self._point
        scale = (2 if fam.trig else 1) * (point[0] if point else 1)
        # application j (from 0) of the folded half outputs the sign (-1)^(j+1)
        stencils = [partial(_stencil, fam, point, sign) for sign in ((-1, 1) if folded else (0,))]
        for j in range(r):
            terms = _apply_packed(terms, stencils[j % len(stencils)])
            den_int *= scale
        return terms, den_int

    def apply(self, f: LambdaXElem, r: int = 1) -> LambdaXElem:
        """D^r applied to f (at the point, f substituted first)."""
        if not self.family.laurent and any(a < 0 for a, _ in f.terms):
            raise UnsupportedFamily("Laurent element in a polynomial family")
        terms, den_int, den_k = self._packed(f, lambda key: key)
        terms, den_int = self._power(terms, den_int, r)
        return LambdaXElem(_canonical_all(terms, den_int, den_k))

    def integral(self, r: int, f: LambdaElem) -> LambdaElem:
        """The r-th quantum integral applied to f in the power-sum algebra.

        For the B and BC families r indexes the even power: the operator is
        E . D^(2r).  D^(2r) runs on f's packed numerators, on the folded half
        for trigonometric BC, and E projects the numerators: x^a goes to p_a
        (p_(a/2) for rational B, which drops odd a), a folded entry at a > 0
        with weight 2 for its two halves.  Each output monomial's coefficient
        is put in canonical form once.  E applied term by term to
        ``apply(...)`` is the reference route of the tests.  At a point f
        is substituted first.
        """
        fam = self.family
        folded = fam is Family.TRIG_BC
        terms, den_int, den_k = self._packed(f, lambda m: (0, m))
        terms, den_int = self._power(terms, den_int, 2 * r if fam.even_integrals else r, folded)
        out: dict = {}
        for (a, m), num in terms.items():
            weight = 2 if folded and a else 1
            if fam is Family.RAT_B:
                if a % 2:
                    continue
                a //= 2
            mm = pmono_mul(m, ((a, 1),))
            if mm in out:
                _add_product(out, mm, ((0, weight),), num.items())
            else:
                out[mm] = {e: weight * c for e, c in num.items()}
        return LambdaElem(_canonical_all(_nonzero(out), den_int, den_k))


def integral_L(family: Family, r: int, f: LambdaElem, bindings: dict = None) -> LambdaElem:
    return InfDunkl(family, bindings).integral(r, f)


# -- the explicit second integrals -------------------------------------------


class LambdaDiffOp:
    """Normal-ordered differential operator in the power sums.

    ``terms`` maps (coefficient monomial, sorted tuple of derivation indices)
    to coefficients, a derivation index a standing for a * d/dp_a.  The
    operator is immutable: its constructor groups the terms by tuple of
    derivation indices and holds each coefficient as an int numerator over
    one shared denominator den_int * k^den_k (``_packed``).

    ``apply`` runs over packed numerators as ``InfDunkl`` does: f's
    coefficients go over f's least common denominator, each derivative of
    f's monomials is formed once per index prefix as (int factor, monomial)
    pairs, and the int products of the numerators add up in one dict per
    output monomial, over the product of the two denominators, which is put
    in canonical form once.  The shared denominators set the limit that
    ``InfDunkl``'s does, which the term-by-term route does not have: a
    coefficient c k^j of the operator next to one over k^i is held as
    c k^(j+i), so j + i must stay at most MAX_DEGREE, and so must the sum of
    the operator's k-denominator and f's.  Past it the constructor or
    ``apply`` raises ExponentOverflow, never a wrong value, as it does for a
    product of numerators that reaches a guard bit.
    """

    __slots__ = ("terms", "_packed")

    def __init__(self, terms: dict):
        self.terms = {key: c for key, c in terms.items() if not c.is_zero()}
        den_int, den_k = _lcd(self.terms.values())
        groups: dict = {}
        for (cmono, didx), c in self.terms.items():
            groups.setdefault(didx, []).append((cmono, list(_numerator(c, den_int, den_k).items())))
        self._packed = (groups, den_int, den_k)

    def apply(self, f: LambdaElem) -> LambdaElem:
        """The operator applied to f: per tuple of derivation indices, its
        coefficient monomials times the derivative of f, all over packed
        numerators (see the class docstring).  A tuple with an index outside
        f's support contributes nothing and is skipped."""
        groups, den1, k1 = self._packed
        den2, k2 = _lcd(f.terms.values())
        den_k = _check_den_k(k1 + k2)
        nums = {m: _numerator(c, den2, k2) for m, c in f.terms.items()}
        support = {idx for m in nums for idx, _mult in m if idx}
        # the derivatives of f's monomials: (monomial of f, int factor, monomial)
        derivatives = {(): [(m, 1, m) for m in nums]}

        def derivative(didx):
            d = derivatives.get(didx)
            if d is None:
                a = didx[-1]
                d = []
                for src, n, m in derivative(didx[:-1]):
                    for pos, (idx, mult) in enumerate(m):
                        if idx == a:
                            d.append((src, n * a * mult, _lowered(m, pos)))
                            break
                derivatives[didx] = d
            return d

        out: dict = {}
        for didx, coeffs in groups.items():
            if not support.issuperset(didx):
                continue
            for src, n, m in derivative(didx):
                num = [(e, n * v) for e, v in nums[src].items()]
                for cmono, cnum in coeffs:
                    _add_product(out, pmono_mul(cmono, m), cnum, num)
        return LambdaElem(_canonical_all(_nonzero(out), den1 * den2, den_k))

    def substitute(self, bindings: dict) -> "LambdaDiffOp":
        """The operator with ``bindings`` substituted in its coefficients; a
        binding that ``InfDunkl`` refuses raises InvalidBinding."""
        _point(bindings)
        return LambdaDiffOp({key: c.substitute(bindings) for key, c in self.terms.items()})

    def text(self) -> str:
        if not self.terms:
            return "0"
        parts = []

        def order_key(item):
            (cmono, didx), _ = item
            return (len(didx), didx, pmono_degree(cmono), cmono)

        for (cmono, didx), c in sorted(self.terms.items(), key=order_key):
            factors = ["(%s)" % c.text()]
            if cmono:
                factors.append(pmono_text(cmono))
            factors.extend("D[%d]" % a for a in didx)
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return "LambdaDiffOp(%s)" % self.text()


def closed_form_L2(family: Family, max_index: int) -> LambdaDiffOp:
    """The explicit second integral, truncated to derivation indices <= max_index.

    The truncation is exact on arguments of degree <= max_index: every
    derivation index must occur in the argument's support to contribute.
    """
    terms: dict = {}

    def add(c: ParamRatio, cmono: PMono, didx):
        key = (cmono, tuple(sorted(didx)))
        v = terms.get(key)
        terms[key] = c if v is None else v + c

    W = max_index
    one = ONE
    if family is Family.RAT_A:
        for a in range(1, W + 1):
            for b in range(1, W + 1):
                add(one, pmono((a + b - 2, 1)), (a, b))
        for a in range(0, W + 1):
            for b in range(0, W - a - 1):
                add(-K, pmono((a, 1), (b, 1)), (a + b + 2,))
        for a in range(2, W + 1):
            add((ONE + K).scale(a - 1), pmono((a - 2, 1)), (a,))
    elif family is Family.TRIG_A:
        for a in range(1, W + 1):
            for b in range(1, W + 1):
                add(one, pmono((a + b, 1)), (a, b))
        for a in range(1, W + 1):
            for b in range(1, W - a + 1):
                add(-K, pmono((a, 1), (b, 1)), (a + b,))
        for a in range(1, W + 1):
            add((ONE + K).scale(a), pmono((a, 1)), (a,))
            add(-K, pmono((0, 1), (a, 1)), (a,))
    elif family is Family.RAT_B:
        # Leading coefficient 4 on ordered pairs: fixed against E . D^2, which
        # also matches the two-derivative helper identities for this family.
        for a in range(1, W + 1):
            for b in range(1, W + 1):
                add(ParamRatio.const(4), pmono((a + b - 1, 1)), (a, b))
        for a in range(0, W + 1):
            for b in range(0, W - a):
                add(-K.scale(4), pmono((a, 1), (b, 1)), (a + b + 1,))
        for a in range(0, W):
            coeff = K.scale(4 * (a + 1)) + ParamRatio.const(2 * (2 * a + 1)) - Q.scale(4)
            add(coeff, pmono((a, 1)), (a + 1,))
    elif family is Family.TRIG_BC:
        # Derived independently from E . D^2; indices p_{a-b}, p_{a-2j}, p_{a-j}
        # follow the absolute-value convention.
        two = ParamRatio.const(2)
        for a in range(1, W + 1):
            for b in range(1, W + 1):
                add(two, pmono((a + b, 1)), (a, b))
                add(-two, pmono((abs(a - b), 1)), (a, b))
        for a in range(1, W + 1):
            # 2(ak + a + k + h') p_a with h' = -k p_0 - p - 2q
            add((K.scale(a + 1) + ParamRatio.const(a) - P - Q.scale(2)).scale(2), pmono((a, 1)), (a,))
            add(-K.scale(2), pmono((0, 1), (a, 1)), (a,))
            for j in range(1, 2 * a):
                add(-P.scale(2), pmono((abs(a - j), 1)), (a,))
        for a in range(2, W + 1):
            for j in range(1, a):
                add(K.scale(2) - Q.scale(4), pmono((abs(a - 2 * j), 1)), (a,))
                add(-K.scale(2), pmono((j, 1), (a - j, 1)), (a,))
    else:  # pragma: no cover
        raise ValueError(family)
    return LambdaDiffOp(terms)


def apply_closed_form_L2(family: Family, f: LambdaElem) -> LambdaElem:
    """Apply the explicit second integral, truncating to the argument's degree."""
    return closed_form_L2(family, max(f.degree(), 1)).apply(f)


# -- basis enumeration and commutator checks ----------------------------------


def pmono_basis(deg: int, pwindow: int):
    """All p-monomials with weighted degree <= deg and indices in 1..pwindow.

    p_0 is omitted: every integral commutes with multiplication by p_0, so
    p_0-free monomials already separate the operators.
    """
    out = []

    def extend(prefix, remaining):
        out.append(tuple(sorted(prefix)))
        start = prefix[-1][0] if prefix else pwindow
        for idx in range(min(remaining, start), 0, -1):
            if prefix and idx == prefix[-1][0]:
                grown = prefix[:-1] + ((idx, prefix[-1][1] + 1),)
            else:
                grown = prefix + ((idx, 1),)
            extend(grown, remaining - idx)

    extend((), deg)
    return sorted(out, key=lambda m: (pmono_degree(m), m))


def _p0_split(m: PMono):
    """(j, rest) with m = p_0^j * rest and rest p_0-free."""
    if m and m[0][0] == 0:
        return m[0][1], m[1:]
    return 0, m


def _integral_image(op: InfDunkl, key) -> LambdaElem:
    """L^(r) applied to the p_0-free monomial m, for key = (r, m)."""
    r, m = key
    return op.integral(r, LambdaElem.monomial(m))


def _table_difference(table: dict, s: int, f: LambdaElem, r: int, g: LambdaElem) -> LambdaElem:
    """L^(s) f - L^(r) g by linearity over p_0: each monomial p_0^j m of f
    contributes its coefficient times p_0^j times the image table[(s, m)],
    and each of g its coefficient times p_0^j times table[(r, m)], negated.

    Both products accumulate on int numerators in one dict.  A half's
    products are over the least common denominator of its element's
    coefficients times that of its images'; the accumulator is over the
    least common multiple of the two halves' denominators.  Each output
    coefficient is put in canonical form once, and one that cancels is never
    formed.
    """
    halves = []
    den, den_k = 1, 0
    for t, h, sign in ((s, f, 1), (r, g, -1)):
        images = {rest: table[(t, rest)].terms for rest in {_p0_split(m)[1] for m in h.terms}}
        den1, k1 = _lcd(h.terms.values())
        den2, k2 = _lcd(c for terms in images.values() for c in terms.values())
        den, den_k = lcm(den, den1 * den2), max(den_k, k1 + k2)
        halves.append((h, sign, images, den1, k1))
    den_k = _check_den_k(den_k)
    out: dict = {}
    for h, sign, images, den1, k1 in halves:
        # the images over den / den1 * k^(den_k - k1), so that each product
        # is over den * k^den_k
        images = {rest: [(m2, _numerator(c2, den // den1, den_k - k1).items()) for m2, c2 in terms.items()]
                  for rest, terms in images.items()}
        for m, c in h.terms.items():
            n1 = [(e1, sign * v1) for e1, v1 in _numerator(c, den1, k1).items()]
            j, rest = _p0_split(m)
            for m2, n2 in images[rest]:
                if j:
                    i, tail = _p0_split(m2)
                    m2 = ((0, i + j),) + tail
                _add_product(out, m2, n2, n1)
    return LambdaElem(_canonical_all(_nonzero(out), den, den_k))


def commutator_on_basis(family: Family, r: int, s: int, deg: int, pwindow: int, bindings: dict = None):
    """[L^(r), L^(s)] applied to every basis monomial; all results should vanish.

    Returns (m, L^(s) L^(r) m - L^(r) L^(s) m) for each monomial m of
    ``pmono_basis(deg, pwindow)``, in basis order.  Each integral is applied
    once per p_0-free monomial, into a table {(r, m): L^(r) m}:

    * phase 1 fills it for L^(r) and L^(s) on the basis;
    * phase 2 adds the p_0-free monomials that the phase-1 images reach and
      the basis lacks (there can be some only when pwindow < deg);
    * the outer integral of each product is then read off the table by
      linearity, since the integrals commute with multiplication by p_0.

    Both products of a residual go into one accumulator of int numerators
    over one common denominator (``_table_difference``), so each residual
    coefficient is put in canonical form once, and a residual that cancels
    makes none.  The table entries of each phase distribute across workers
    (DUNKLCMS_WORKERS) as (r, m) items; the residuals are formed in this
    process.  Coefficients are canonical, so the residuals do not depend on
    the worker count.  The table lives only for this call.

    With ``bindings`` every table entry is computed at that point
    (``InfDunkl(family, bindings)``), so the residuals are the symbolic ones
    substituted, and their products multiply one-term numerators where every
    parameter is bound.
    """
    image = partial(_integral_image, InfDunkl(family, bindings))
    basis = pmono_basis(deg, pwindow)
    keys = list(dict.fromkeys((t, m) for t in (r, s) for m in basis))
    table = dict(zip(keys, ordered_map(image, keys)))
    outer = {r: s, s: r}
    reached = dict.fromkeys(
        (outer[key[0]], _p0_split(m)[1]) for key in keys for m in table[key].terms
    )
    missing = [key for key in reached if key not in table]
    table.update(zip(missing, ordered_map(image, missing)))
    return [(m, _table_difference(table, s, table[(r, m)], r, table[(s, m)])) for m in basis]
