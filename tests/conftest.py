import random

import pytest

from dunklcms.coeffs import SYMBOLS, CoeffError, ParamPoly, ParamRatio, Rat, _unpack


def random_param_poly(rng: random.Random, symbols=(0, 1, 2), max_terms=4, max_exp=3) -> ParamPoly:
    out = ParamPoly.zero()
    for _ in range(rng.randint(1, max_terms)):
        term = ParamPoly.const(rng.randint(-9, 9))
        for s in symbols:
            term = term * ParamPoly.symbol(SYMBOLS[s], rng.randint(0, max_exp))
        out = out + term
    return out


def random_param_ratio(rng: random.Random, symbols=(0,)) -> ParamRatio:
    """A random Laurent element: a polynomial over a positive integer times a
    power of k, the only denominators the coefficient ring admits."""
    num = random_param_poly(rng, symbols)
    den = ParamPoly.const(rng.randint(1, 12)) * ParamPoly.symbol("k", rng.randint(0, 2))
    return ParamRatio(num, den)


class PoleAtPoint(CoeffError):
    """Numeric evaluation hit a zero of the denominator."""


def eval_at(a: ParamRatio, point: dict) -> Rat:
    """The exact rational value of ``a`` at {symbol: rational}, read off its
    packed terms: an evaluator independent of ``substitute``.  Raises
    PoleAtPoint when the denominator vanishes there."""
    d = a.den_int * Rat(point.get("k", 0)) ** a.den_k
    if d == 0:
        raise PoleAtPoint("denominator vanishes at %r" % (point,))
    vals = [Rat(point.get(name, 0)) for name in SYMBOLS]
    total = Rat(0)
    for e, c in a.num.terms.items():
        term = Rat(c)
        for i, pw in enumerate(_unpack(e)):
            if pw:
                term = term * vals[i] ** pw
        total = total + term
    return total / d


def count_ratio_operations(monkeypatch, names=("__mul__", "__truediv__", "__add__", "__sub__",
                                              "__neg__")) -> list:
    """Record every call of the ParamRatio methods ``names`` (by default
    product, quotient, sum, difference and negation) from now on; returns the
    list the names are appended to."""
    calls = []

    def counting(name):
        original = getattr(ParamRatio, name)

        def wrapper(self, *other):
            calls.append(name)
            return original(self, *other)
        return wrapper

    for name in names:
        monkeypatch.setattr(ParamRatio, name, counting(name))
    return calls


@pytest.fixture
def rng():
    return random.Random(20240615)


@pytest.fixture(scope="session")
def sp():
    """sympy, the oracle of the ring and root tests; only a test that asks for
    it is skipped when sympy is missing."""
    return pytest.importorskip("sympy")
