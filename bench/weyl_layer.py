"""Layer benchmark of the operator layer: building e*L^4 e and ``WeylOp.commutator``.

    python3 bench/weyl_layer.py --label NAME --out BENCH_10.json [--src DIR]

Times the build of the trigonometric-BC integral I = e*L^4 e
(``moser_integral``) and ``I.commutator(H)`` with the ungauged Hamiltonian
H at n = m = 1, ``harness.REPEATS`` (7) times each, and records the minimum
and the median; the commutator's I and H are built once, outside its
timing.  One extra run of each, not timed, counts the calls of
``WeylOp._compose``, the compositions of operators that the build makes,
and of ``coeffs.ParamPoly.__mul__``, the products of the coefficient ring
that the commutator makes.  The README request ``verify moser-integrals
--family trig-bc --n 1 --m 1 --r 1`` is timed as often.  Results are
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
COMMAND = ["verify", "moser-integrals", "--family", "trig-bc", "--n", "1", "--m", "1", "--r", "1",
           "--no-timing"]


def count_calls(cls, name: str, run) -> int:
    """Run ``run`` once with the calls of the method ``cls.name`` counted."""
    count = [0]
    original = getattr(cls, name)

    def wrapper(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    setattr(cls, name, wrapper)
    try:
        run()
    finally:
        setattr(cls, name, original)
    return count[0]


def measure(src: str) -> dict:
    os.environ.pop("DUNKLCMS_WORKERS", None)
    sys.path.insert(0, src)
    from dunklcms import cli, coeffs
    from dunklcms.finite_cms import ParityData
    from dunklcms.powersums import Family
    from dunklcms.weyl import WeylOp, hamiltonian, moser_integral

    parity = ParityData(N, M)

    def build():
        return moser_integral(Family[FAMILY], parity, R)

    I = build()
    H = hamiltonian(Family[FAMILY], parity, gauged=False)

    def check():
        if not I.commutator(H).is_zero():
            raise SystemExit("the integral does not commute with the Hamiltonian")

    compositions = count_calls(WeylOp, "_compose", build)
    products = count_calls(coeffs.ParamPoly, "__mul__", check)
    result = environment(src, coeffs.Rat)
    result["layers"] = {
        "build": {"WeylOp._compose.calls": compositions, **timed(build)},
        "commutator": {"ParamPoly.mul.calls": products, **timed(check)},
    }
    result["command"] = timed(lambda: quiet_run(cli.run, COMMAND))
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="the name the results are stored under")
    ap.add_argument("--out", required=True, help="the JSON file to update")
    ap.add_argument("--src", default=DEFAULT_SRC)
    args = ap.parse_args(argv)
    result = measure(os.path.abspath(args.src))
    store(args.out, args.label, result,
          benchmark="operator layer: the build of e*L^4e and its WeylOp.commutator with H, %s n=%d m=%d"
                    % (FAMILY, N, M),
          command=" ".join(COMMAND))
    print(json.dumps({args.label: result["layers"], "command": result["command"]}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
