"""Layer benchmark of the operator layer: ``WeylOp.commutator``.

    python3 bench/weyl_layer.py --label NAME --out BENCH_6.json [--src DIR]

Times ``I.commutator(H)`` for the trigonometric-BC integral I = e*L^4 e and
the ungauged Hamiltonian H at n = m = 1, ``harness.REPEATS`` (7) times, and
records the minimum and the median; I and H are built once, outside the
timing.  One extra run, not timed, counts the calls of
``coeffs.ParamPoly.__mul__``, the products of the coefficient ring that the
commutator makes.  The README request ``verify moser-integrals --family
trig-bc --n 1 --m 1 --r 1`` is timed as often.  Results are stored under
``--label`` in the JSON file ``--out``, next to the other labels already in
it; ``--src`` names the ``src`` directory whose ``dunklcms`` is measured
(default: the one of this checkout).  Everything runs in this process:
DUNKLCMS_WORKERS is cleared.

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


def count_products(ParamPoly, check) -> int:
    """Run ``check`` once with ParamPoly.__mul__ counted."""
    count = [0]
    original = ParamPoly.__mul__

    def wrapper(self, other):
        count[0] += 1
        return original(self, other)

    ParamPoly.__mul__ = wrapper
    try:
        check()
    finally:
        ParamPoly.__mul__ = original
    return count[0]


def measure(src: str) -> dict:
    os.environ.pop("DUNKLCMS_WORKERS", None)
    sys.path.insert(0, src)
    from dunklcms import cli, coeffs
    from dunklcms.finite_cms import ParityData
    from dunklcms.powersums import Family
    from dunklcms.weyl import hamiltonian, moser_integral

    parity = ParityData(N, M)
    I = moser_integral(Family[FAMILY], parity, R)
    H = hamiltonian(Family[FAMILY], parity, gauged=False)

    def check():
        if not I.commutator(H).is_zero():
            raise SystemExit("the integral does not commute with the Hamiltonian")

    products = count_products(coeffs.ParamPoly, check)
    result = environment(src, coeffs.Rat)
    result["layers"] = {"commutator": {"ParamPoly.mul.calls": products, **timed(check)}}
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
          benchmark="operator layer: WeylOp.commutator of e*L^4e and H, %s n=%d m=%d" % (FAMILY, N, M),
          command=" ".join(COMMAND))
    print(json.dumps({args.label: result["layers"], "command": result["command"]}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
