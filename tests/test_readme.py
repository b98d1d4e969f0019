"""The README's library quick tour, run: every claim in its comments holds."""

import ast
import os

from dunklcms.coeffs import ONE, symbol
from dunklcms.powersums import LambdaElem

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def quick_tour() -> str:
    """The python block under the heading "Library quick tour"."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Library quick tour\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def times(c, e: LambdaElem) -> LambdaElem:
    return LambdaElem({m: c * v for m, v in e.terms.items()})


def test_quick_tour_claims_hold():
    # the value the comment "# -> -2k p0^2 + 2(1+k) p0" gives the integral
    k = symbol("k")
    arrow = times(k.scale(-2), LambdaElem.p(0, 2)) + times((ONE + k).scale(2), LambdaElem.p(0))
    source = quick_tour()
    lines = source.splitlines()
    namespace: dict = {}
    claims = []
    for stmt in ast.parse(source).body:
        code = compile(ast.Module([stmt], []), README, "exec")
        if not isinstance(stmt, ast.Expr):
            exec(code, namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), README, "eval"), namespace)
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        following = lines[stmt.end_lineno].strip() if stmt.end_lineno < len(lines) else ""
        if following.startswith("# ->"):
            assert following == "# -> -2k p0^2 + 2(1+k) p0" and value == arrow, following
        else:
            # a check the comment above it names, or one marked "# True"
            assert comment in ("", "True") and value is True, lines[stmt.end_lineno - 1]
        claims.append(lines[stmt.end_lineno - 1])
    assert len(claims) == 4, claims


def test_public_names_resolve():
    # ``from dunklcms import *`` binds every name of ``__all__``, and each
    # is an attribute of the package
    import dunklcms

    namespace: dict = {}
    exec("from dunklcms import *", namespace)
    assert dunklcms.__all__ and len(set(dunklcms.__all__)) == len(dunklcms.__all__)
    for name in dunklcms.__all__:
        assert namespace[name] is getattr(dunklcms, name), name
