"""Finite-dimensional reductions: polynomial algebras, Dunkl operators, and
the substitution homomorphisms that tie them to the infinite-variable side.

Every identity about operators in infinitely many variables is checked here
against an independent finite-dimensional computation: the classical Dunkl
(and Dunkl-Heckman) operators act by divided differences with exact
polynomial division, the symmetrized power sums give the quantum integrals,
and the commutative-diagram checks compare both routes term by term.

Variables are indexed 0..N-1 internally.  Laurent exponents are allowed where
the trigonometric BC family needs them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .coeffs import ONE, ParamRatio, ZERO, k_power
from .powersums import (
    Family,
    InexactDivision,
    LambdaElem,
    LambdaXElem,
)

_K = ParamRatio.symbol("k")
_P = ParamRatio.symbol("p")
_Q = ParamRatio.symbol("q")
_HALF = ParamRatio.fraction(1, 2)
_MINUS_ONE = ParamRatio.const(-1)


class NotInvariant(ValueError):
    """Input fails the required group-invariance check."""


def _grlex(e):
    return (sum(e), e)


class MultiPoly:
    """Sparse (Laurent) polynomial in x_0..x_{nvars-1} over the parameter field."""

    __slots__ = ("nvars", "terms", "_key")

    def __init__(self, nvars: int, terms: dict):
        self.nvars = nvars
        self.terms = {e: c for e, c in terms.items() if not c.is_zero()}
        self._key = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "MultiPoly":
        return MultiPoly(nvars, {})

    @staticmethod
    def const(nvars: int, c) -> "MultiPoly":
        c = c if isinstance(c, ParamRatio) else ParamRatio.const(c)
        return MultiPoly(nvars, {(0,) * nvars: c})

    @staticmethod
    def var(nvars: int, i: int, power: int = 1) -> "MultiPoly":
        e = [0] * nvars
        e[i] = power
        return MultiPoly(nvars, {tuple(e): ONE})

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_laurent(self) -> bool:
        return any(p < 0 for e in self.terms for p in e)

    def key(self):
        if self._key is None:
            self._key = tuple(
                sorted(((e, c.key()) for e, c in self.terms.items()), key=lambda t: t[0])
            )
        return self._key

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, self.key()))

    def leading(self):
        e = max(self.terms, key=_grlex)
        return e, self.terms[e]

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e)
            out[e] = c if v is None else v + c
        return MultiPoly(self.nvars, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        if not self.terms or not other.terms:
            return MultiPoly(self.nvars, {})
        if len(other.terms) == 1:
            (e2, c2), = other.terms.items()
            return self.mul_monomial(e2, c2)
        if len(self.terms) == 1:
            (e1, c1), = self.terms.items()
            return other.mul_monomial(e1, c1)
        out: dict = {}
        get = out.get
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple([a + b for a, b in zip(e1, e2)])
                c = c1 * c2
                v = get(e)
                out[e] = c if v is None else v + c
        return MultiPoly(self.nvars, out)

    def scale(self, c: ParamRatio) -> "MultiPoly":
        if c.is_zero():
            return MultiPoly(self.nvars, {})
        return MultiPoly(self.nvars, {e: v * c for e, v in self.terms.items()})

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative polynomial power; use mul_monomial")
        result = MultiPoly.const(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def mul_monomial(self, exps, coeff: ParamRatio = ONE) -> "MultiPoly":
        return MultiPoly(
            self.nvars,
            {tuple(a + b for a, b in zip(e, exps)): c * coeff for e, c in self.terms.items()},
        )

    def diff(self, i: int) -> "MultiPoly":
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ee = list(e)
            ee[i] -= 1
            out[tuple(ee)] = c.scale(e[i])
        return MultiPoly(self.nvars, out)

    # -- group actions ------------------------------------------------------

    def act_swap(self, i: int, j: int) -> "MultiPoly":
        out = {}
        for e, c in self.terms.items():
            ee = list(e)
            ee[i], ee[j] = ee[j], ee[i]
            out[tuple(ee)] = c
        return MultiPoly(self.nvars, out)

    def act_signed_swap(self, i: int, j: int) -> "MultiPoly":
        """(x_i, x_j) -> (-x_j, -x_i)."""
        out = {}
        for e, c in self.terms.items():
            ee = list(e)
            ee[i], ee[j] = ee[j], ee[i]
            out[tuple(ee)] = -c if (e[i] + e[j]) % 2 else c
        return MultiPoly(self.nvars, out)

    def act_flip(self, i: int) -> "MultiPoly":
        """x_i -> -x_i."""
        return MultiPoly(
            self.nvars,
            {e: (-c if e[i] % 2 else c) for e, c in self.terms.items()},
        )

    def act_invert(self, i: int) -> "MultiPoly":
        """x_i -> 1/x_i."""
        out = {}
        for e, c in self.terms.items():
            ee = list(e)
            ee[i] = -ee[i]
            out[tuple(ee)] = c
        return MultiPoly(self.nvars, out)

    def act_invert_swap(self, i: int, j: int) -> "MultiPoly":
        """(x_i, x_j) -> (1/x_j, 1/x_i)."""
        out = {}
        for e, c in self.terms.items():
            ee = list(e)
            ee[i], ee[j] = -e[j], -e[i]
            out[tuple(ee)] = c
        return MultiPoly(self.nvars, out)

    # -- division --------------------------------------------------------------

    def div_or_none(self, other: "MultiPoly"):
        """Exact quotient self / other, or None when a remainder survives.

        A divisor with a root in closed form is tried at that root first (see
        ``_nonzero_at_root``): a nonzero value proves that no quotient exists,
        so most failing cancellations never reach the long division.  Only a
        dividend that vanishes there is divided, which yields the quotient.
        """
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return MultiPoly(self.nvars, {})
        if len(other.terms) == 1:
            (oe, oc), = other.terms.items()
            inv = ONE / oc
            return MultiPoly(
                self.nvars,
                {tuple(a - b for a, b in zip(e, oe)): c * inv for e, c in self.terms.items()},
            )
        if _nonzero_at_root(self.terms, other.terms):
            return None
        # shift a Laurent dividend into the polynomial ring; valid because all
        # non-monomial divisors used here have, in each variable, a term of
        # exponent zero, so Laurent divisibility equals shifted divisibility
        shift = [0] * self.nvars
        for e in self.terms:
            for v, pw in enumerate(e):
                if pw < shift[v]:
                    shift[v] = pw
        rem = {
            tuple(a - b for a, b in zip(e, shift)): c for e, c in self.terms.items()
        }
        quo: dict = {}
        le, lc = other.leading()
        inv = ONE / lc
        # max-heap with lazy deletion tracks the leading remainder term
        heap = [(-sum(e), tuple(-x for x in e)) for e in rem]
        heapq.heapify(heap)
        in_heap = set(rem)
        while rem:
            while heap:
                _, ne = heap[0]
                re = tuple(-x for x in ne)
                if re in rem:
                    break
                heapq.heappop(heap)
            diff = tuple(a - b for a, b in zip(re, le))
            if any(d < 0 for d in diff):
                return None
            heapq.heappop(heap)
            in_heap.discard(re)
            c = _times(rem.pop(re), inv)
            quo[diff] = quo.get(diff, ZERO) + c
            for e2, c2 in other.terms.items():
                if e2 == le:
                    continue
                e = tuple(a + b for a, b in zip(diff, e2))
                v = rem.get(e, ZERO) - _times(c, c2)
                if v.is_zero():
                    rem.pop(e, None)
                else:
                    rem[e] = v
                    if e not in in_heap:
                        in_heap.add(e)
                        heapq.heappush(heap, (-sum(e), tuple(-x for x in e)))
        return MultiPoly(
            self.nvars,
            {tuple(a + b for a, b in zip(e, shift)): c for e, c in quo.items()},
        )

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
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_grlex, reverse=True):
            factors = [self.terms[e].text()]
            for i, pw in enumerate(e):
                if pw == 1:
                    factors.append("x%d" % (i + 1))
                elif pw:
                    factors.append("x%d^%d" % (i + 1, pw))
            parts.append(" * ".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return "MultiPoly(%s)" % self.text()


def _times(c: ParamRatio, u: ParamRatio) -> ParamRatio:
    """c * u; the structural factors have coefficients +-1, which need no product."""
    if u == ONE:
        return c
    if u == _MINUS_ONE:
        return -c
    return c * u


def _nonzero_at_root(terms: dict, divisor: dict) -> bool:
    """True when the divisor provably does not divide the dividend ``terms``.

    Applies to a divisor s*x^e1 + t*x^e2 with s, t = +-1 and a variable x_a of
    exponent 1 in e1 and 0 in e2.  Over the Laurent ring it is the unit
    s*x^(e1-x_a) times x_a - r with r = -s*t * x^(e2-e1+x_a), and r is free
    of x_a, so by the factor theorem it divides g iff g vanishes at x_a = r.
    That substitution sends x^e to (-s*t)^(e_a) x^(e + e_a*(e2-e1)).  A term
    alone in its image monomial makes the image nonzero without coefficient
    arithmetic; otherwise the coefficients of each image monomial are summed.
    False means either that the image vanishes or that the test does not apply.
    """
    if len(divisor) != 2:
        return False
    (e1, s), (e2, t) = divisor.items()
    if not (s == ONE or s == _MINUS_ONE) or not (t == ONE or t == _MINUS_ONE):
        return False
    for a, (p1, p2) in enumerate(zip(e1, e2)):
        if p1 == 1 and not p2:
            break
        if p2 == 1 and not p1:
            e1, e2 = e2, e1
            break
    else:
        return False
    shift = tuple(b - c for b, c in zip(e2, e1))
    groups: dict = {}
    for e in terms:
        ea = e[a]
        image = tuple([b + ea * c for b, c in zip(e, shift)]) if ea else e
        groups.setdefault(image, []).append(e)
    if any(len(group) == 1 for group in groups.values()):
        return True
    flip = s == t  # the root carries the sign -s*t = -1
    for group in groups.values():
        total = ZERO
        for e in group:
            c = terms[e]
            total = total - c if flip and e[a] % 2 else total + c
        if not total.is_zero():
            return True
    return False


# -- structural factors of the Dunkl operators and of the Moser matrices ------


def _structural(nvars: int, lead, tail, c: int) -> MultiPoly:
    """x^lead + c * x^tail, where lead and tail list variables with multiplicity."""
    def exps(variables):
        e = [0] * nvars
        for v in variables:
            e[v] += 1
        return tuple(e)

    return MultiPoly(nvars, {exps(lead): ONE, exps(tail): ParamRatio.const(c)})


def _fac_diff(nvars: int, i: int, j: int) -> MultiPoly:
    """x_i - x_j."""
    return _structural(nvars, (i,), (j,), -1)


def _fac_sum(nvars: int, i: int, j: int) -> MultiPoly:
    """x_i + x_j."""
    return _structural(nvars, (i,), (j,), 1)


def _fac_prod_minus_1(nvars: int, i: int, j: int) -> MultiPoly:
    """x_i x_j - 1."""
    return _structural(nvars, (i, j), (), -1)


def _fac_shift(nvars: int, i: int, c: int, power: int = 1) -> MultiPoly:
    """x_i^power + c."""
    return _structural(nvars, (i,) * power, (), c)


# -- finite Dunkl operators -------------------------------------------------


def finite_dunkl(family: Family, N: int, i: int, f: MultiPoly) -> MultiPoly:
    """The family's finite Dunkl (or Dunkl-Heckman) operator D_{i,N} applied to f."""
    if f.nvars != N:
        raise ValueError("variable count mismatch")
    n = N
    if family is Family.RAT_A:
        out = f.diff(i)
        for j in range(n):
            if j == i:
                continue
            g = (f - f.act_swap(i, j)).exact_div(_fac_diff(n, i, j))
            out = out - g.scale(_K)
        return out
    if family is Family.TRIG_A:
        out = f.diff(i).mul_monomial(tuple(1 if v == i else 0 for v in range(n)))
        for j in range(n):
            if j == i:
                continue
            g = (f - f.act_swap(i, j)).exact_div(_fac_diff(n, i, j))
            out = out - (_fac_sum(n, i, j) * g).scale(_K * _HALF)
        return out
    if family is Family.RAT_B:
        out = f.diff(i)
        for j in range(n):
            if j == i:
                continue
            g1 = (f - f.act_swap(i, j)).exact_div(_fac_diff(n, i, j))
            g2 = (f - f.act_signed_swap(i, j)).exact_div(_fac_sum(n, i, j))
            out = out - (g1 + g2).scale(_K)
        xi = MultiPoly.var(n, i)
        g3 = (f - f.act_flip(i)).exact_div(xi)
        return out - g3.scale(_Q)
    # TRIG_BC
    out = f.diff(i).mul_monomial(tuple(1 if v == i else 0 for v in range(n)))
    for j in range(n):
        if j == i:
            continue
        g1 = (f - f.act_swap(i, j)).exact_div(_fac_diff(n, i, j))
        out = out - (_fac_sum(n, i, j) * g1).scale(_K * _HALF)
        g2 = (f - f.act_invert_swap(i, j)).exact_div(_fac_prod_minus_1(n, i, j))
        xx1 = _fac_prod_minus_1(n, i, j) + MultiPoly.const(n, 2)  # x_i x_j + 1
        out = out - (xx1 * g2).scale(_K * _HALF)
    ti = f - f.act_invert(i)
    g3 = ti.exact_div(_fac_shift(n, i, -1))
    out = out - (_fac_shift(n, i, 1) * g3).scale(_P * _HALF)
    g4 = ti.exact_div(_fac_shift(n, i, -1, 2))
    out = out - (_fac_shift(n, i, 1, 2) * g4).scale(_Q)
    return out


def _invariance_generators(family: Family, N: int):
    gens = [("swap", (i, i + 1)) for i in range(N - 1)]
    if family is Family.RAT_B:
        gens.append(("flip", (0,)))
    elif family is Family.TRIG_BC:
        gens.append(("invert", (0,)))
    return gens


def is_invariant(family: Family, f: MultiPoly) -> bool:
    for kind, args in _invariance_generators(family, f.nvars):
        if kind == "swap":
            g = f.act_swap(*args)
        elif kind == "flip":
            g = f.act_flip(*args)
        else:
            g = f.act_invert(*args)
        if g != f:
            return False
    return True


def heckman_integral(family: Family, N: int, r: int, f: MultiPoly) -> MultiPoly:
    """Sum over i of D_{i,N}^r applied to an invariant f (power 2r for B/BC).

    Restriction to invariants is implemented literally: the full operator sum
    is applied and invariance of input and output is asserted.
    """
    if not is_invariant(family, f):
        raise NotInvariant("input is not invariant under the family's group")
    power = 2 * r if family.even_integrals else r
    out = MultiPoly.zero(N)
    for i in range(N):
        g = f
        for _ in range(power):
            g = finite_dunkl(family, N, i, g)
        out = out + g
    if not is_invariant(family, out):
        raise NotInvariant("operator output failed the invariance check")
    return out


# -- parity data and substitution homomorphisms ------------------------------


@dataclass(frozen=True)
class ParityData:
    """Two-species particle data: n of species 0 and m of species 1/k."""

    n: int
    m: int

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
    """Substitution homomorphism from the power-sum algebra into polynomials.

    Kinds: ``phi_N`` and ``phi_iN`` send p_l to the family's N-variable power
    sums (``phi_iN`` also sends x to x_i); ``phi_nm`` and ``phi_inm`` are the
    deformed versions weighting species by powers of k.
    """

    def __init__(self, family: Family, kind: str, N: int = None, parity: ParityData = None, i: int = None):
        if kind in ("phi_N", "phi_iN"):
            if N is None:
                raise ValueError("N required")
            self.nvars = N
        elif kind in ("phi_nm", "phi_inm"):
            if parity is None:
                raise ValueError("parity required")
            if family is Family.TRIG_BC:
                raise ValueError("no deformed substitution is defined for trig BC")
            self.nvars = parity.size
        else:
            raise ValueError(kind)
        if kind in ("phi_iN", "phi_inm") and i is None:
            raise ValueError("distinguished index required")
        self.family = family
        self.kind = kind
        self.parity = parity
        self.i = i
        self._pl_cache: dict = {}

    def p_image(self, l: int) -> MultiPoly:
        img = self._pl_cache.get(l)
        if img is not None:
            return img
        n = self.nvars
        terms: dict = {}
        deformed = self.kind in ("phi_nm", "phi_inm")
        for j in range(n):
            w = self.parity.k_inv_weight(j) if deformed else ONE
            if self.family is Family.RAT_B:
                exps = [2 * l]
            elif self.family is Family.TRIG_BC:
                exps = [l, -l] if l else [0, 0]
            else:
                exps = [l]
            for pw in exps:
                e = [0] * n
                e[j] = pw
                e = tuple(e)
                terms[e] = terms.get(e, ZERO) + w
        img = MultiPoly(n, terms)
        self._pl_cache[l] = img
        return img

    def apply(self, f) -> MultiPoly:
        n = self.nvars
        out = MultiPoly.zero(n)
        if isinstance(f, LambdaElem):
            items = [((0, m), c) for m, c in f.terms.items()]
        else:
            items = list(f.terms.items())
        for (a, mono), c in items:
            if a and self.kind not in ("phi_iN", "phi_inm"):
                raise ValueError("x is only mapped by the distinguished-index kinds")
            term = MultiPoly.const(n, c)
            if a:
                e = [0] * n
                e[self.i] = a
                term = term.mul_monomial(tuple(e))
            for idx, mult in mono:
                term = term * self.p_image(idx) ** mult
            out = out + term
        return out


def apply_hom(h: Hom, f) -> MultiPoly:
    return h.apply(f)


# -- deformed operators (rational A) ------------------------------------------


def deformed_partials(parity: ParityData, r: int, f: MultiPoly) -> list:
    """All recursion operators of order r applied to f: [d_0^(r) f, ..., d_{N-1}^(r) f].

    The recursion divides differences of lower-order results by x_i - x_j;
    exactness is guaranteed on elements generated by the deformed power sums
    and surfaces as InexactDivision otherwise.
    """
    N = parity.size
    if f.nvars != N:
        raise ValueError("variable count mismatch")
    level = [f.diff(i).scale(parity.k_weight(i)) for i in range(N)]
    for _ in range(r - 1):
        nxt = []
        for i in range(N):
            g = level[i].diff(i).scale(parity.k_weight(i))
            for j in range(N):
                if j == i:
                    continue
                h = (level[i] - level[j]).exact_div(_fac_diff(N, i, j))
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
    label: str
    ok: bool
    lhs: str
    rhs: str


@dataclass
class DiagramReport:
    kind: str
    family: Family
    detail: str
    results: list

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def counterexamples(self):
        return [r for r in self.results if not r.ok]


def _finite_dunkl_power(family: Family, N: int, i: int, f: MultiPoly, r: int) -> MultiPoly:
    for _ in range(r):
        f = finite_dunkl(family, N, i, f)
    return f


def _diagram_one(kind: str, family: Family, r: int, N, parity, i, labeled) -> DiagramResult:
    from .dunkl_infinity import InfDunkl

    op = InfDunkl(family)
    label, f = labeled
    if kind == "dcomm":
        hom = Hom(family, "phi_iN", N=N, i=i)
        lhs = hom.apply(op.apply(f, r))
        rhs = _finite_dunkl_power(family, N, i, hom.apply(f), r)
    elif kind == "heckdiag":
        hom = Hom(family, "phi_N", N=N)
        f = f.to_lambda() if isinstance(f, LambdaXElem) else f
        lhs = hom.apply(op.integral(r, f))
        rhs = heckman_integral(family, N, r, hom.apply(f))
        if family is Family.TRIG_BC:
            # the projection counts x^j and x^-j separately while the finite
            # power sum appears once, a structural factor of two
            rhs = rhs.scale(ParamRatio.const(2))
    elif kind == "propcomm":
        hom_i = Hom(family, "phi_inm", parity=parity, i=i)
        hom = Hom(family, "phi_nm", parity=parity)
        f = f.to_lambda() if isinstance(f, LambdaXElem) else f
        lhs = hom_i.apply(op.apply(LambdaXElem.from_lambda(f), r))
        rhs = deformed_partial_r(parity, i, r, hom.apply(f))
    else:  # intrat
        hom = Hom(family, "phi_nm", parity=parity)
        f = f.to_lambda() if isinstance(f, LambdaXElem) else f
        lhs = hom.apply(op.integral(r, f))
        rhs = deformed_integral(parity, r, hom.apply(f))
    return DiagramResult(label, lhs == rhs, lhs.text(), rhs.text())


def diagram_check(kind: str, family: Family, testset, r: int = 1,
                  N: int = None, parity: ParityData = None, i: int = 0) -> DiagramReport:
    """Verify one of the commutative-diagram statements on a list of elements.

    Kinds: ``dcomm`` (Dunkl operator vs its finite reduction, on elements that
    may contain x), ``heckdiag`` (the projected integral vs the symmetrized
    finite operator powers), ``propcomm`` (deformed recursion, rational A) and
    ``intrat`` (deformed integrals, rational A).  For trig BC ``heckdiag``
    carries the structural factor 2.  Test elements distribute across workers
    (DUNKLCMS_WORKERS); results keep the testset order.
    """
    from functools import partial

    from ._parallel import ordered_map

    if kind == "dcomm":
        detail = "N=%d i=%d r=%d" % (N, i + 1, r)
    elif kind == "heckdiag":
        detail = "N=%d r=%d" % (N, r)
    elif kind == "propcomm":
        if family is not Family.RAT_A:
            raise ValueError("the recursion diagram is stated for rational A only")
        detail = "n=%d m=%d i=%d r=%d" % (parity.n, parity.m, i + 1, r)
    elif kind == "intrat":
        if family is not Family.RAT_A:
            raise ValueError("the deformed-integral diagram is stated for rational A only")
        detail = "n=%d m=%d r=%d" % (parity.n, parity.m, r)
    else:
        raise ValueError(kind)
    results = ordered_map(partial(_diagram_one, kind, family, r, N, parity, i), list(testset))
    return DiagramReport(kind, family, detail, results)


def standard_testset(family: Family, with_x: bool = True):
    """The generator set used by the diagram checks."""
    laurent = family.laurent
    els = [
        ("p1", LambdaXElem.p(1, laurent)),
        ("p2", LambdaXElem.p(2, laurent)),
        ("p3", LambdaXElem.p(3, laurent)),
    ]
    if with_x:
        x = LambdaXElem.x(1, laurent)
        els += [
            ("x", x),
            ("x^2", x * x),
            ("x*p1", x * LambdaXElem.p(1, laurent)),
            ("x^2*p2", x * x * LambdaXElem.p(2, laurent)),
        ]
    return els
