"""Layer benchmark of the operator layer: building e*L^4 e, ``WeylOp.commutator`` and ``lax_check``.

    python3 bench/weyl_layer.py --label NAME --out BENCH_18.json [--src DIR]

Times the build of the trigonometric-BC integral I = e*L^4 e
(``moser_integral``) and ``I.commutator(H)`` with the ungauged Hamiltonian
H at n = m = 1, and the build of the rational-B e*L^4 e at (n, m) = (2, 1),
``harness.REPEATS`` (7) times each, and records the minimum
and the median; the commutator's I and H are built once, outside its
timing.  One extra run of each, not timed, counts the work: for the build,
the calls of ``WeylOp._compose_into`` (``WeylOp._compose`` in versions that
have it), the compositions of operators; for the commutator, the calls of
``coeffs.ParamPoly.__mul__``, the products of the coefficient ring, with
their term pairs (the product of the two operands' term counts), and the
calls of ``finite_cms._root_quotient``, the root tests of the factored
rational functions, and of ``weyl._is_linear_root_factor`` and
``MultiPoly.leading``, the shape tests and the monic normalisation of
their denominator factors.  The same time and work are recorded for the
trigonometric-BC commutator [e*L^2 e, H] at (n, m) = (2, 1), its operands
built outside the timing, and for ``lax_check`` of trigonometric A at
(2, 2) and of rational A at (3, 2), which build L, M and H themselves.  The
requests ``verify moser-integrals --family trig-bc --n 1 --m 1 --r R`` for
R = 1 (the README request) and R = 2 are timed as often.  For the
requests ``verify moser-integrals --family F --n 2 --m 1 --r 3`` (F = rat-a
and trig-a, the ``moser`` workload's) and the README request, one untimed
run counts the calls of ``WeylOp.compose``, of ``weyl.moser_L`` and of
``weyl._hamiltonian_parts``: how often the request builds L and H, and
composes operators outside the commutators.  Results are
stored under ``--label`` in the JSON file ``--out``, next to the other
labels already in it; ``--src`` names the ``src`` directory whose
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

FAMILY, N, M, R = "TRIG_BC", 1, 1, 2
RAT_B_BUILD = ("RAT_B", 2, 1, 2)  # e*L^4 e of the 6 x 6 rational-B matrix
BIG_PARITY = (2, 1)
LAX_CASES = [("TRIG_A", 2, 2), ("RAT_A", 3, 2)]
COMMANDS = [
    ["verify", "moser-integrals", "--family", "trig-bc", "--n", "1", "--m", "1", "--r", str(r),
     "--no-timing"]
    for r in (1, 2)
]
BUILD_COMMANDS = [
    ["verify", "moser-integrals", "--family", family, "--n", "2", "--m", "1", "--r", "3", "--no-timing"]
    for family in ("rat-a", "trig-a")
] + COMMANDS[:1]


def counted(run, *counters) -> list:
    """Run ``run`` once with every call of ``owner.name`` adding
    ``weight(*args)`` to its counter, for each (owner, name, weight) of
    ``counters``; returns the totals in that order.  Counters of one method
    share its wrapper."""
    totals = [0] * len(counters)
    groups: dict = {}
    for slot, (owner, name, weight) in enumerate(counters):
        groups.setdefault((owner, name), []).append((slot, weight))
    originals = {key: getattr(*key) for key in groups}

    def wrapped(original, weights):
        def wrapper(*args, **kwargs):
            for slot, weight in weights:
                totals[slot] += weight(*args)
            return original(*args, **kwargs)
        return wrapper

    for key, weights in groups.items():
        setattr(*key, wrapped(originals[key], weights))
    try:
        run()
    finally:
        for key, original in originals.items():
            setattr(*key, original)
    return totals


def once(*args) -> int:
    return 1


def term_pairs(a, b) -> int:
    return len(a.terms) * len(b.terms)


def measure(src: str) -> dict:
    os.environ.pop("DUNKLCMS_WORKERS", None)
    sys.path.insert(0, src)
    from dunklcms import cli, coeffs, finite_cms, weyl
    from dunklcms.finite_cms import ParityData
    from dunklcms.powersums import Family
    from dunklcms.weyl import WeylOp, hamiltonian, lax_check, moser_integral

    def builder(family, n, m, r):
        return lambda: moser_integral(Family[family], ParityData(n, m), r)

    build = builder(FAMILY, N, M, R)

    def commutes(I, H):
        def check():
            if not I.commutator(H).is_zero():
                raise SystemExit("the integral does not commute with the Hamiltonian")
        return check

    def lax_holds(family, n, m):
        def check():
            if not lax_check(Family[family], ParityData(n, m)).ok:
                raise SystemExit("the Lax identity fails")
        return check

    def work(check) -> dict:
        products, pairs, root_tests, shape_tests, leading = counted(
            check, (coeffs.ParamPoly, "__mul__", once), (coeffs.ParamPoly, "__mul__", term_pairs),
            (finite_cms, "_root_quotient", once), (weyl, "_is_linear_root_factor", once),
            (finite_cms.MultiPoly, "leading", once))
        return {"ParamPoly.mul.calls": products, "ParamPoly.mul.term_pairs": pairs,
                "_root_quotient.calls": root_tests, "_is_linear_root_factor.calls": shape_tests,
                "MultiPoly.leading.calls": leading, **timed(check)}

    compose = "_compose_into" if hasattr(WeylOp, "_compose_into") else "_compose"

    def build_row(run) -> dict:
        compositions, = counted(run, (WeylOp, compose, once))
        return {"WeylOp.%s.calls" % compose: compositions, **timed(run)}

    result = environment(src, coeffs.Rat)
    big = ParityData(*BIG_PARITY)
    result["layers"] = {
        "build": build_row(build),
        "build %s n=%d m=%d r=%d" % RAT_B_BUILD: build_row(builder(*RAT_B_BUILD)),
        "commutator": work(commutes(build(), hamiltonian(Family[FAMILY], ParityData(N, M), gauged=False))),
        "commutator %s n=%d m=%d r=1" % ((FAMILY,) + BIG_PARITY): work(commutes(
            moser_integral(Family[FAMILY], big, 1), hamiltonian(Family[FAMILY], big, gauged=False))),
        **{"lax_check %s n=%d m=%d" % case: work(lax_holds(*case)) for case in LAX_CASES},
    }
    result["commands"] = {" ".join(argv): timed(lambda: quiet_run(cli.run, argv))
                          for argv in COMMANDS}
    result["builds"] = {}
    for argv in BUILD_COMMANDS:
        counts = counted(lambda: quiet_run(cli.run, argv), (WeylOp, "compose", once),
                         (weyl, "moser_L", once), (weyl, "_hamiltonian_parts", once))
        result["builds"][" ".join(argv)] = dict(zip(
            ("WeylOp.compose.calls", "moser_L.calls", "_hamiltonian_parts.calls"), counts))
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="the name the results are stored under")
    ap.add_argument("--out", required=True, help="the JSON file to update")
    ap.add_argument("--src", default=DEFAULT_SRC)
    args = ap.parse_args(argv)
    result = measure(os.path.abspath(args.src))
    store(args.out, args.label, result,
          benchmark="operator layer: the build of e*L^4e and its WeylOp.commutator with H, %s n=%d m=%d;"
                    " the build of e*L^4e, %s n=%d m=%d; [e*L^2e, H] at n=%d m=%d; lax_check %s"
                    % ((FAMILY, N, M) + RAT_B_BUILD[:3] + BIG_PARITY
                       + (", ".join("%s n=%d m=%d" % c for c in LAX_CASES),)),
          commands=[" ".join(argv) for argv in COMMANDS])
    print(json.dumps({args.label: result["layers"], "commands": result["commands"],
                      "builds": result["builds"]}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
