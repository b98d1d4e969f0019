"""Layer benchmark of the x-polynomial layer: ``MultiPoly`` products and divisions.

    python3 bench/multipoly_layer.py --label NAME --out BENCH_4.json [--src DIR]

Runs ``verify lax --family trig-a --n 2 --m 2`` once in-process with
``MultiPoly.__mul__`` and ``MultiPoly.div_or_none`` wrapped to capture their
operands, then replays the captured calls ``harness.REPEATS`` (7) times, unwrapped,
and records the minimum and the median time of a full replay of each method.  It
also times the command itself, unwrapped, as often.  The numbers are stored
under ``--label`` in the JSON file ``--out``; other labels already in the file
are kept, so one file can hold two versions of the code measured on the same
machine.  ``--src`` names the ``src`` directory whose ``dunklcms`` is
measured (default: the one next to this script).

Only the standard library is used.  The captured calls are those the measured
version makes, so a version that makes fewer calls for the same command shows
it in ``calls`` as well as in the times.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from harness import DEFAULT_SRC, environment, quiet_run, store, timed

COMMAND = ["verify", "lax", "--family", "trig-a", "--n", "2", "--m", "2", "--no-timing"]


def capture(MultiPoly, run):
    """Run the command with both methods wrapped; returns their operand lists."""
    calls = {"__mul__": [], "div_or_none": []}
    originals = {name: getattr(MultiPoly, name) for name in calls}

    def wrapping(name):
        original, log = originals[name], calls[name]

        def wrapper(self, other):
            log.append((self, other))
            return original(self, other)
        return wrapper

    for name in calls:
        setattr(MultiPoly, name, wrapping(name))
    try:
        status = quiet_run(run, COMMAND)
    finally:
        for name, original in originals.items():
            setattr(MultiPoly, name, original)
    if status != 0:
        raise SystemExit("the captured command exited with %d" % status)
    return calls


def replay(method, pairs):
    def go():
        for a, b in pairs:
            method(a, b)
    return go


def measure(src: str) -> dict:
    sys.path.insert(0, src)
    from dunklcms import cli, coeffs
    from dunklcms.finite_cms import MultiPoly

    calls = capture(MultiPoly, cli.run)
    layers = {}
    for name, pairs in calls.items():
        method = getattr(MultiPoly, name)
        row = {"calls": len(pairs)}
        if name == "div_or_none":
            row["hits"] = sum(method(a, b) is not None for a, b in pairs)
        row.update(timed(replay(method, pairs)))
        layers["MultiPoly." + name] = row

    result = environment(src, coeffs.Rat)
    result["layers"] = layers
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
          benchmark="x-polynomial layer: MultiPoly.__mul__ and MultiPoly.div_or_none",
          command=" ".join(COMMAND))
    print(json.dumps({args.label: result["layers"], "command": result["command"]}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
