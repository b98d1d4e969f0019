"""Layer benchmark of the operators at infinity: ``InfDunkl`` in
``commutator_on_basis``, and ``LambdaDiffOp.apply``.

    python3 bench/operator_layer.py --label NAME --out BENCH_21.json [--src DIR]

Times ``commutator_on_basis(TRIG_BC, 1, 3, 4, 4)``, the commutator of the
trigonometric-BC integrals E.D^2 and E.D^6 on the 12 p_0-free monomials of
degree <= 4, ``harness.REPEATS`` (7) times, and records the minimum and the
median.  One extra run, not timed, counts the work of ``dunkl_infinity``:
the applications of the packed kernel ``_apply_packed`` (one per power of
D), the packed keys entering it, and the ``_canonical`` forms the module
makes.  Two CLI requests are timed as often: the one that makes the same
check, and ``verify closed-form --family trig-bc --deg 8``, which compares
E.D^2 with its closed form on the 67 monomials of degree <= 8.  For each
family, the closed form ``closed_form_L2(family, 8)`` is applied to those 67
monomials as often (``LambdaDiffOp.apply``, built once outside the timing),
and one extra run counts its ``ParamRatio`` products and sums and its
canonical forms (``_canonical`` calls of ``coeffs`` and ``dunkl_infinity``).
Results are stored under ``--label`` in the JSON file ``--out``, next to the
other labels already in it; ``--src`` names the ``src`` directory whose
``dunklcms`` is measured (default: the one of this checkout).  Everything
runs in this process: DUNKLCMS_WORKERS is cleared.

Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from harness import DEFAULT_SRC, environment, quiet_run, store, timed

CHECK = ("TRIG_BC", 1, 3, 4, 4)
CLOSED_FORM_DEG = 8
COMMANDS = [
    ["verify", "commute-infinity", "--family", "trig-bc", "--r", "1", "--s", "3", "--deg", "4",
     "--no-timing"],
    ["verify", "closed-form", "--family", "trig-bc", "--deg", "8", "--no-timing"],
]


def count_work(dunkl_infinity, check) -> dict:
    """Run ``check`` once with the kernel applications, the packed keys
    entering the kernel and the canonical forms of ``dunkl_infinity``
    counted.  The kernel's packed terms are its first dict argument (it
    also took the family first in earlier versions)."""
    counts = {"_apply_packed.calls": 0, "_apply_packed.keys": 0, "_canonical.calls": 0}
    kernel, canonical = dunkl_infinity._apply_packed, dunkl_infinity._canonical

    def counting_kernel(*args):
        counts["_apply_packed.calls"] += 1
        counts["_apply_packed.keys"] += len(next(a for a in args if isinstance(a, dict)))
        return kernel(*args)

    def counting_canonical(*args):
        counts["_canonical.calls"] += 1
        return canonical(*args)

    dunkl_infinity._apply_packed, dunkl_infinity._canonical = counting_kernel, counting_canonical
    try:
        check()
    finally:
        dunkl_infinity._apply_packed, dunkl_infinity._canonical = kernel, canonical
    return counts


def count_coefficient_work(coeffs, dunkl_infinity, check) -> dict:
    """Run ``check`` once with the ``ParamRatio`` products and sums and the
    canonical forms counted, both those ``coeffs`` makes and those of
    ``dunkl_infinity``'s own kernels."""
    counts = {"ParamRatio.mul.calls": 0, "ParamRatio.add.calls": 0, "_canonical.calls": 0}
    ratio = coeffs.ParamRatio
    saved = (ratio.__mul__, ratio.__add__, coeffs._canonical, dunkl_infinity._canonical)

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    ratio.__mul__ = counting("ParamRatio.mul.calls", saved[0])
    ratio.__add__ = counting("ParamRatio.add.calls", saved[1])
    coeffs._canonical = counting("_canonical.calls", saved[2])
    dunkl_infinity._canonical = counting("_canonical.calls", saved[3])
    try:
        check()
    finally:
        ratio.__mul__, ratio.__add__, coeffs._canonical, dunkl_infinity._canonical = saved
    return counts


def measure(src: str) -> dict:
    os.environ.pop("DUNKLCMS_WORKERS", None)
    sys.path.insert(0, src)
    from dunklcms import cli, coeffs, dunkl_infinity
    from dunklcms.powersums import Family, LambdaElem

    family, *rest = CHECK

    def check():
        results = dunkl_infinity.commutator_on_basis(Family[family], *rest)
        if not all(res.is_zero() for _m, res in results):
            raise SystemExit("the integrals do not commute")

    counts = count_work(dunkl_infinity, check)
    result = environment(src, coeffs.Rat)
    result["layers"] = {"commutator_on_basis": {**counts, **timed(check)}}
    basis = [LambdaElem.monomial(m) for m in dunkl_infinity.pmono_basis(CLOSED_FORM_DEG, CLOSED_FORM_DEG)]
    for fam in Family:
        op = dunkl_infinity.closed_form_L2(fam, CLOSED_FORM_DEG)

        def apply_all(op=op):
            for f in basis:
                op.apply(f)

        counts = count_coefficient_work(coeffs, dunkl_infinity, apply_all)
        result["layers"]["LambdaDiffOp.apply %s" % fam.value] = {
            "monomials": len(basis), **counts, **timed(apply_all)}
    result["commands"] = {" ".join(argv): timed(lambda: quiet_run(cli.run, argv))
                          for argv in COMMANDS}
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="the name the results are stored under")
    ap.add_argument("--out", required=True, help="the JSON file to update")
    ap.add_argument("--src", default=DEFAULT_SRC)
    args = ap.parse_args(argv)
    result = measure(os.path.abspath(args.src))
    store(args.out, args.label, result,
          benchmark="operator layer: InfDunkl in commutator_on_basis(%s, %d, %d, %d, %d)" % CHECK
                    + "; LambdaDiffOp.apply of closed_form_L2(family, %d) on pmono_basis(%d, %d)"
                    % (CLOSED_FORM_DEG, CLOSED_FORM_DEG, CLOSED_FORM_DEG),
          commands=[" ".join(argv) for argv in COMMANDS])
    print(json.dumps({args.label: result["layers"], "commands": result["commands"]}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
