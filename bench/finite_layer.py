"""Layer benchmark of the x-polynomial layer: the powers of the finite Dunkl operators.

    python3 bench/finite_layer.py --label NAME --out BENCH_12.json [--src DIR]

Runs the trig-BC ``heckdiag`` and ``dcomm`` commands in ``COMMANDS`` once
in-process with ``finite_cms._finite_dunkl_power`` wrapped to capture its
inputs, then replays the captured calls ``harness.REPEATS`` (7) times,
unwrapped, and records the minimum and the median time of a full replay.
One extra replay, not timed, counts the calls of ``finite_cms._canonical``,
the canonical forms the operators make.  Each command is timed as often,
unwrapped.  Results are stored under ``--label`` in the JSON file ``--out``,
next to the other labels already in it; ``--src`` names the ``src``
directory whose ``dunklcms`` is measured (default: the one of this
checkout).  Everything runs in this process: DUNKLCMS_WORKERS is cleared.

Only the standard library is used.  The inputs are those the measured
version produces; two versions whose operators agree capture the same ones.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from harness import DEFAULT_SRC, environment, quiet_run, store, timed

COMMANDS = [
    ["verify", "diagram", "--family", "trig-bc", "--kind", "heckdiag", "--N", "3", "--r", "3", "--no-timing"],
    ["verify", "diagram", "--family", "trig-bc", "--kind", "dcomm", "--N", "4", "--i", "1", "--r", "3",
     "--no-timing"],
]


def capture(finite_cms, run) -> list:
    """Run the commands with _finite_dunkl_power wrapped; returns its argument tuples."""
    calls = []
    original = finite_cms._finite_dunkl_power

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    finite_cms._finite_dunkl_power = wrapper
    try:
        for command in COMMANDS:
            status = quiet_run(run, command)
            if status != 0:
                raise SystemExit("%s exited with %d" % (" ".join(command), status))
    finally:
        finite_cms._finite_dunkl_power = original
    return calls


def count_canonical(finite_cms, replay) -> int:
    """Run ``replay`` once with finite_cms._canonical counted."""
    count = [0]
    original = finite_cms._canonical

    def wrapper(*args):
        count[0] += 1
        return original(*args)

    finite_cms._canonical = wrapper
    try:
        replay()
    finally:
        finite_cms._canonical = original
    return count[0]


def measure(src: str) -> dict:
    os.environ.pop("DUNKLCMS_WORKERS", None)
    sys.path.insert(0, src)
    from dunklcms import cli, coeffs, finite_cms

    calls = capture(finite_cms, cli.run)
    power = finite_cms._finite_dunkl_power

    def replay():
        for args in calls:
            power(*args)

    row = {"calls": len(calls), "_canonical.calls": count_canonical(finite_cms, replay)}
    row.update(timed(replay))
    result = environment(src, coeffs.Rat)
    result["layers"] = {"_finite_dunkl_power": row}
    result["commands"] = {" ".join(command): timed(lambda: quiet_run(cli.run, command))
                          for command in COMMANDS}
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="the name the results are stored under")
    ap.add_argument("--out", required=True, help="the JSON file to update")
    ap.add_argument("--src", default=DEFAULT_SRC)
    args = ap.parse_args(argv)
    result = measure(os.path.abspath(args.src))
    store(args.out, args.label, result,
          benchmark="x-polynomial layer: _finite_dunkl_power on the trig-BC heckdiag N=3 r=3"
                    " and dcomm N=4 i=1 r=3 inputs",
          commands=[" ".join(command) for command in COMMANDS])
    print(json.dumps({args.label: result["layers"], "commands": result["commands"]}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
