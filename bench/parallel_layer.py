"""Layer benchmark of the process layer: ``_parallel.ordered_map`` at 2 workers.

    python3 bench/parallel_layer.py --label NAME --out BENCH_17.json [--src DIR]

Measures two things with DUNKLCMS_WORKERS=2, ``harness.REPEATS`` (7) times
each, and records the minimum and the median:

* ``cold ordered_map``: in a fresh interpreter that has imported the
  ``dunklcms`` package, the time from before ``import dunklcms._parallel``
  to the return of the first ``ordered_map(abs, range(8))``, so the import
  of the module and of whatever it loads to distribute work is included;
  each repeat is its own interpreter, and the modules loaded by the call
  are recorded as well;
* the three parallel requests of ``perfbench``'s ``precheck`` workload,
  sampled at seed 1: ``lax`` (trigonometric A, n = m = 2),
  ``moser-integrals`` (rational A, n = 2, m = 1, r = 2, ``--basis-deg 4``)
  and ``commute-infinity`` (trigonometric BC, r = 1, s = 3, deg 4).  Each
  is timed ``cold``, as its first run in a fresh interpreter that has
  imported ``dunklcms.cli`` (as in a ``perfbench`` pass, where every
  request runs once), and ``warm``, repeated in this process after one run
  that is not timed.

Results are stored under ``--label`` in the JSON file ``--out``, next to the
other labels already in it; ``--src`` names the ``src`` directory whose
``dunklcms`` is measured (default: the one of this checkout).

Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from harness import DEFAULT_SRC, REPEATS, environment, quiet_run, store, timed

WORKERS = "2"
SEED = "1"
COMMANDS = [
    ["verify", "lax", "--family", "trig-a", "--n", "2", "--m", "2"],
    ["verify", "moser-integrals", "--family", "rat-a", "--n", "2", "--m", "1", "--r", "2",
     "--basis-deg", "4"],
    ["verify", "commute-infinity", "--family", "trig-bc", "--r", "1", "--s", "3", "--deg", "4"],
]
SAMPLED = ["--mode", "sampled", "--seed", SEED, "--no-timing"]

COLD_MAP = """
import sys, time
sys.path.insert(0, %(src)r)
import dunklcms
t0 = time.perf_counter()
from dunklcms import _parallel
out = _parallel.ordered_map(abs, range(8))
elapsed = time.perf_counter() - t0
assert out == list(range(8))
print(elapsed, _parallel.worker_count(),
      " ".join(m for m in ("concurrent.futures", "multiprocessing", "pickle") if m in sys.modules))
"""

COLD_REQUEST = """
import contextlib, io, sys, time
sys.path.insert(0, %(src)r)
from dunklcms import cli
with contextlib.redirect_stdout(io.StringIO()):
    t0 = time.perf_counter()
    code = cli.run(%(argv)r)
    elapsed = time.perf_counter() - t0
assert code == 0, code
print(elapsed)
"""


def fresh(code: str) -> list:
    """Run ``code`` in a fresh interpreter at 2 workers; its output's words."""
    env = dict(os.environ, DUNKLCMS_WORKERS=WORKERS)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=300, check=True)
    return done.stdout.split()


def summary(samples) -> dict:
    return {"min_s": min(samples), "median_s": statistics.median(samples)}


def measure(src: str) -> dict:
    os.environ["DUNKLCMS_WORKERS"] = WORKERS
    sys.path.insert(0, src)
    from dunklcms import cli, coeffs

    result = environment(src, coeffs.Rat)
    runs = [fresh(COLD_MAP % {"src": src}) for _ in range(REPEATS)]
    result["layers"] = {"cold ordered_map(abs, range(8))": {
        **summary([float(words[0]) for words in runs]),
        "workers": int(runs[0][1]), "modules_loaded": runs[0][2:]}}
    commands = {}
    for argv in COMMANDS:
        argv = argv + SAMPLED
        cold = [float(fresh(COLD_REQUEST % {"src": src, "argv": argv})[0]) for _ in range(REPEATS)]
        if quiet_run(cli.run, argv) != 0:
            raise SystemExit("%s did not verify" % " ".join(argv))
        commands[" ".join(argv)] = {"cold": summary(cold),
                                    "warm": timed(lambda: quiet_run(cli.run, argv))}
    result["commands"] = commands
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="the name the results are stored under")
    ap.add_argument("--out", required=True, help="the JSON file to update")
    ap.add_argument("--src", default=DEFAULT_SRC)
    args = ap.parse_args(argv)
    result = measure(os.path.abspath(args.src))
    store(args.out, args.label, result,
          benchmark="process layer at DUNKLCMS_WORKERS=%s: the first ordered_map(abs, range(8)) in a"
                    " fresh interpreter, import included; the parallel precheck requests, sampled"
                    " at seed %s, cold (first run in a fresh interpreter) and warm" % (WORKERS, SEED),
          commands=[" ".join(argv + SAMPLED) for argv in COMMANDS])
    print(json.dumps({args.label: result["layers"], "commands": result["commands"]}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
