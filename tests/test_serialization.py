"""Frozen text forms: serializations must stay bit-stable across versions."""

import json

from dunklcms.coeffs import ParamRatio, symbol
from dunklcms.dunkl_infinity import closed_form_L2
from dunklcms.finite_cms import MultiPoly, ParityData
from dunklcms.powersums import Family, LambdaXElem
from dunklcms.weyl import RatFun, WeylOp, moser_L

K = symbol("k")


def test_param_ratio_text():
    assert ((K * K + K) * ParamRatio.const(2)).text() == "(2*k^2+2*k)/1"
    assert (ParamRatio.one() / K).text() == "1/k"


def test_lambda_x_elem_text():
    f = LambdaXElem.x(-2) + (LambdaXElem.x(1) * LambdaXElem.p(0) * LambdaXElem.p(3)).scale(K)
    assert f.text() == "1/1 * x^-2 + k/1 * x^1 * p0*p3"


def test_diff_op_text():
    # window 2: p0 d1 d1 + 2 p1 d1 d2 + p2 d2 d2 - k p0^2 d2 + (1+k) p0 d2
    op = closed_form_L2(Family.RAT_A, 2)
    assert op.text() == (
        "((k+1)/1)*p0*D[2] + (-1*k/1)*p0^2*D[2] + (1/1)*p0*D[1]*D[1]"
        " + (2/1)*p1*D[1]*D[2] + (1/1)*p2*D[2]*D[2]"
    )


def test_weyl_op_text():
    n = 2
    x1mx2 = MultiPoly.var(n, 0) - MultiPoly.var(n, 1)
    op = WeylOp(n, {(1, 0): RatFun(MultiPoly.const(n, K), {x1mx2: 1}), (0, 2): RatFun(MultiPoly.const(n, 1))})
    assert op.text() == "((k/1) / (1/1 * x1 + -1/1 * x2)) * d1 + (1/1) * d2^2"


def test_op_matrix_json_row_major():
    L = moser_L(Family.RAT_A, ParityData(1, 1))
    flat = json.loads(L.to_json())
    assert len(flat) == 4
    assert flat[0] == "(1/1) * d1"
    assert flat[1] == "((1/1) / (1/1 * x1 + -1/1 * x2))"
    assert flat[2] == "((-1*k/1) / (1/1 * x1 + -1/1 * x2))"
    assert flat[3] == "(k/1) * d2"
