"""Layer benchmark of the x-polynomial layer: the finite Dunkl operators.

    python3 bench/finite_layer.py --label NAME --out BENCH_7.json [--src DIR]

Runs ``verify diagram --family trig-bc --kind heckdiag --N 3 --r 3`` once
in-process with ``finite_cms.finite_dunkl`` wrapped to capture its inputs,
then replays the captured calls ``harness.REPEATS`` (7) times, unwrapped, and
records the minimum and the median time of a full replay.  One extra replay,
not timed, counts the calls of ``MultiPoly.div_or_none`` that the operators
make.  The command itself is timed as often, unwrapped.  Results are stored
under ``--label`` in the JSON file ``--out``, next to the other labels
already in it; ``--src`` names the ``src`` directory whose ``dunklcms`` is
measured (default: the one of this checkout).  Everything runs in this
process: DUNKLCMS_WORKERS is cleared.

Only the standard library is used.  The inputs are those the measured
version produces; two versions whose operators agree capture the same ones.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from harness import DEFAULT_SRC, environment, quiet_run, store, timed

COMMAND = ["verify", "diagram", "--family", "trig-bc", "--kind", "heckdiag", "--N", "3", "--r", "3",
           "--no-timing"]


def capture(finite_cms, run) -> list:
    """Run the command with finite_dunkl wrapped; returns its argument tuples."""
    calls = []
    original = finite_cms.finite_dunkl

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    finite_cms.finite_dunkl = wrapper
    try:
        status = quiet_run(run, COMMAND)
    finally:
        finite_cms.finite_dunkl = original
    if status != 0:
        raise SystemExit("the captured command exited with %d" % status)
    return calls


def count_divisions(MultiPoly, replay) -> int:
    """Run ``replay`` once with MultiPoly.div_or_none counted."""
    count = [0]
    original = MultiPoly.div_or_none

    def wrapper(self, other):
        count[0] += 1
        return original(self, other)

    MultiPoly.div_or_none = wrapper
    try:
        replay()
    finally:
        MultiPoly.div_or_none = original
    return count[0]


def measure(src: str) -> dict:
    os.environ.pop("DUNKLCMS_WORKERS", None)
    sys.path.insert(0, src)
    from dunklcms import cli, coeffs, finite_cms

    calls = capture(finite_cms, cli.run)
    finite_dunkl = finite_cms.finite_dunkl

    def replay():
        for args in calls:
            finite_dunkl(*args)

    row = {"calls": len(calls), "div_or_none.calls": count_divisions(finite_cms.MultiPoly, replay)}
    row.update(timed(replay))
    result = environment(src, coeffs.Rat)
    result["layers"] = {"finite_dunkl": row}
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
          benchmark="x-polynomial layer: finite_dunkl on the trig-BC heckdiag N=3 r=3 inputs",
          command=" ".join(COMMAND))
    print(json.dumps({args.label: result["layers"], "command": result["command"]}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
