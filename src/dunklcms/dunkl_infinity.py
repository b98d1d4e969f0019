"""Dunkl operators in infinitely many variables and the quantum integrals.

For each family the operator D acts on the power-sum algebra with x adjoined:

* rational A:        D = partial - k * delta
* trigonometric A:   D = partial - (k/2) * delta
* rational B:        D = partial - 2k * delta - (q/x)(1 - reflect)
* trigonometric BC:  D = partial - (k/2) * delta
                         - (p/2) ((x+1)/(x-1)) (1 - reflect)
                         - q ((x^2+1)/(x^2-1)) (1 - reflect)

The quantum integrals are E . D^r restricted to the power-sum algebra (even
powers D^(2r) for the B and BC families, matching their projection E).  The
second integral also has an explicit closed form as a differential operator in
the power sums; ``closed_form_L2`` produces it and the test suite verifies the
two routes against each other.  E . D^r is always the ground truth: the closed
forms were derived independently and any disagreement is reported with the
offending monomial instead of patched.

All integrals commute with multiplication by p_0: the derivation skips index
0, and the difference part, the reflections and E carry the power-sum
monomial along as a coefficient.  So commutator checks run over p_0-free
monomials, and ``commutator_on_basis`` applies each integral only once per
p_0-free monomial: it tabulates the images L^(r) m, farming the table entries
out to worker processes, and forms both products L^(s) L^(r) m and
L^(r) L^(s) m from the table, splitting off the p_0 factor of each monomial
and multiplying it back in.
"""

from __future__ import annotations

from .coeffs import HALF, K, ONE, P, Q, ParamRatio
from .powersums import (
    Family,
    LambdaElem,
    LambdaXElem,
    PMono,
    delta,
    divide_by_x_poly,
    partial,
    pmono,
    pmono_degree,
    pmono_text,
    project_E,
    reflect,
)

_K_HALF = K * HALF
_P_HALF = P * HALF

_X_MINUS_1 = {1: 1, 0: -1}
_X2_MINUS_1 = {2: 1, 0: -1}
_X = {1: 1}


class InfDunkl:
    """The family's Dunkl operator at infinity."""

    def __init__(self, family: Family):
        self.family = family

    def apply(self, f: LambdaXElem, r: int = 1) -> LambdaXElem:
        """D^r applied to f."""
        fam = self.family
        if fam.laurent and not f.laurent:
            f = f.with_laurent(True)
        for _ in range(r):
            f = self._apply_once(f)
        return f

    def _apply_once(self, f: LambdaXElem) -> LambdaXElem:
        fam = self.family
        out = partial(f, fam)
        if fam is Family.RAT_A:
            return out - delta(f, fam).scale(K)
        if fam is Family.TRIG_A:
            return out - delta(f, fam).scale(_K_HALF)
        if fam is Family.RAT_B:
            out = out - delta(f, fam).scale(K.scale(2))
            g = f - reflect(f, fam)
            if not g.is_zero():
                out = out - divide_by_x_poly(g, _X).scale(Q)
            return out
        # TRIG_BC
        out = out - delta(f, fam).scale(_K_HALF)
        g = f - reflect(f, fam)
        if not g.is_zero():
            h1 = divide_by_x_poly(g, _X_MINUS_1)
            h1 = h1.mul_x(1) + h1  # multiply by (x + 1)
            out = out - h1.scale(_P_HALF)
            h2 = divide_by_x_poly(g, _X2_MINUS_1)
            h2 = h2.mul_x(2) + h2  # multiply by (x^2 + 1)
            out = out - h2.scale(Q)
        return out

    def integral(self, r: int, f: LambdaElem) -> LambdaElem:
        """The r-th quantum integral applied to f in the power-sum algebra.

        For the B and BC families r indexes the even power: the operator is
        E . D^(2r).
        """
        power = 2 * r if self.family.even_integrals else r
        g = self.apply(LambdaXElem.from_lambda(f, self.family.laurent), power)
        return project_E(g, self.family)


def integral_L(family: Family, r: int, f: LambdaElem) -> LambdaElem:
    return InfDunkl(family).integral(r, f)


# -- the explicit second integrals -------------------------------------------


class LambdaDiffOp:
    """Normal-ordered differential operator in the power sums.

    ``terms`` maps (coefficient monomial, sorted tuple of derivation indices)
    to coefficients, a derivation index a standing for a * d/dp_a.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = {key: c for key, c in terms.items() if not c.is_zero()}

    def __add__(self, other: "LambdaDiffOp") -> "LambdaDiffOp":
        out = dict(self.terms)
        for key, c in other.terms.items():
            v = out.get(key)
            out[key] = c if v is None else v + c
        return LambdaDiffOp(out)

    def __sub__(self, other: "LambdaDiffOp") -> "LambdaDiffOp":
        return self + LambdaDiffOp({k: -c for k, c in other.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def apply(self, f: LambdaElem) -> LambdaElem:
        out = LambdaElem.zero()
        for (cmono, didx), c in self.terms.items():
            g = f
            for a in didx:
                g = _derivation(g, a)
                if g.is_zero():
                    break
            if g.is_zero():
                continue
            out = out + LambdaElem.monomial(cmono, c) * g
        return out

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


def _derivation(f: LambdaElem, a: int) -> LambdaElem:
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


def _p(*pairs) -> PMono:
    return pmono(*pairs)


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
                add(one, _p((a + b - 2, 1)), (a, b))
        for a in range(0, W + 1):
            for b in range(0, W - a - 1):
                add(-K, _p((a, 1), (b, 1)), (a + b + 2,))
        for a in range(2, W + 1):
            add((ONE + K).scale(a - 1), _p((a - 2, 1)), (a,))
    elif family is Family.TRIG_A:
        for a in range(1, W + 1):
            for b in range(1, W + 1):
                add(one, _p((a + b, 1)), (a, b))
        for a in range(1, W + 1):
            for b in range(1, W - a + 1):
                add(-K, _p((a, 1), (b, 1)), (a + b,))
        for a in range(1, W + 1):
            add((ONE + K).scale(a), _p((a, 1)), (a,))
            add(-K, _p((0, 1), (a, 1)), (a,))
    elif family is Family.RAT_B:
        # Leading coefficient 4 on ordered pairs: fixed against E . D^2, which
        # also matches the two-derivative helper identities for this family.
        for a in range(1, W + 1):
            for b in range(1, W + 1):
                add(ParamRatio.const(4), _p((a + b - 1, 1)), (a, b))
        for a in range(0, W + 1):
            for b in range(0, W - a):
                add(-K.scale(4), _p((a, 1), (b, 1)), (a + b + 1,))
        for a in range(0, W):
            coeff = K.scale(4 * (a + 1)) + ParamRatio.const(2 * (2 * a + 1)) - Q.scale(4)
            add(coeff, _p((a, 1)), (a + 1,))
    elif family is Family.TRIG_BC:
        # Derived independently from E . D^2; indices p_{a-b}, p_{a-2j}, p_{a-j}
        # follow the absolute-value convention.
        two = ParamRatio.const(2)
        for a in range(1, W + 1):
            for b in range(1, W + 1):
                add(two, _p((a + b, 1)), (a, b))
                add(-two, _p((abs(a - b), 1)), (a, b))
        for a in range(1, W + 1):
            # 2(ak + a + k + h') p_a with h' = -k p_0 - p - 2q
            add((K.scale(a + 1) + ParamRatio.const(a) - P - Q.scale(2)).scale(2), _p((a, 1)), (a,))
            add(-K.scale(2), _p((0, 1), (a, 1)), (a,))
            for j in range(1, 2 * a):
                add(-P.scale(2), _p((abs(a - j), 1)), (a,))
        for a in range(2, W + 1):
            for j in range(1, a):
                add(K.scale(2) - Q.scale(4), _p((abs(a - 2 * j), 1)), (a,))
                add(-K.scale(2), _p((j, 1), (a - j, 1)), (a,))
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


def _integral_image(family: Family, key) -> LambdaElem:
    """L^(r) applied to the p_0-free monomial m, for key = (r, m)."""
    r, m = key
    return InfDunkl(family).integral(r, LambdaElem.monomial(m))


def _apply_by_table(table: dict, r: int, f: LambdaElem) -> LambdaElem:
    """L^(r) f by linearity over p_0: each monomial p_0^j m of f contributes
    its coefficient times p_0^j times the image table[(r, m)]."""
    out: dict = {}
    for m, c in f.terms.items():
        j, rest = _p0_split(m)
        for m2, c2 in table[(r, rest)].terms.items():
            if j:
                i, tail = _p0_split(m2)
                m2 = ((0, i + j),) + tail
            v = out.get(m2)
            out[m2] = c * c2 if v is None else v + c * c2
    return LambdaElem(out)


def commutator_on_basis(family: Family, r: int, s: int, deg: int, pwindow: int):
    """[L^(r), L^(s)] applied to every basis monomial; all results should vanish.

    Returns (m, L^(s) L^(r) m - L^(r) L^(s) m) for each monomial m of
    ``pmono_basis(deg, pwindow)``, in basis order.  Each integral is applied
    once per p_0-free monomial, into a table {(r, m): L^(r) m}:

    * phase 1 fills it for L^(r) and L^(s) on the basis;
    * phase 2 adds the p_0-free monomials that the phase-1 images reach and
      the basis lacks (there can be some only when pwindow < deg);
    * the outer integral of each product is then read off the table by
      linearity, since the integrals commute with multiplication by p_0.

    The table entries of each phase distribute across workers
    (DUNKLCMS_WORKERS) as (r, m) items; the products are formed in this
    process.  Coefficients are canonical, so the residuals do not depend on
    the worker count.  The table lives only for this call.
    """
    from functools import partial

    from ._parallel import ordered_map

    image = partial(_integral_image, family)
    basis = pmono_basis(deg, pwindow)
    keys = list(dict.fromkeys((t, m) for t in (r, s) for m in basis))
    table = dict(zip(keys, ordered_map(image, keys)))
    outer = {r: s, s: r}
    reached = dict.fromkeys(
        (outer[key[0]], _p0_split(m)[1]) for key in keys for m in table[key].terms
    )
    missing = [key for key in reached if key not in table]
    table.update(zip(missing, ordered_map(image, missing)))
    return [
        (m, _apply_by_table(table, s, table[(r, m)]) - _apply_by_table(table, r, table[(s, m)]))
        for m in basis
    ]
