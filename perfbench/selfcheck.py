"""Tracer self-check.

    python3 perfbench/selfcheck.py [--seed N] [WORKLOAD ...]

For each workload (all four by default) it makes two traced runs with the
same seed and requires that:

- both are correct, so traced verdicts equal the untraced ones and the
  frozen expectations;
- every count, ratio and peak agrees between the two runs;
- every boundary the layer table names for the workload reports calls, and
  the ``MultiPoly``/``WeylOp`` boundaries report none on ``infinity``;
- the contrasts in ``CONTRASTS`` hold: exact division mostly succeeds on
  ``finite`` and mostly fails on ``moser``, and the coefficient gcd is
  almost never a non-unit on ``infinity``.

A boundary left unwrapped, for instance a name re-imported into another
module, shows as zero calls. Exit code 0 means every check held.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

#: (workload, per-layer metric, "<" or ">", threshold)
CONTRASTS = [
    ("finite", "finite_cms.MultiPoly.div_or_none.hit_ratio", ">", 0.8),
    ("moser", "finite_cms.MultiPoly.div_or_none.hit_ratio", "<", 0.5),
    ("infinity", "coeffs.poly_gcd.nontrivial_ratio", "<", 0.01),
]


def traced(workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=os.path.dirname(HERE), capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*", default=["infinity", "finite", "moser", "precheck"])
    args = ap.parse_args(argv)
    problems = []
    for workload in args.workloads:
        (d1, r1), (d2, r2) = traced(workload, args.seed), traced(workload, args.seed)
        for d, r in ((d1, r1), (d2, r2)):
            if not r["correct"]:
                problems.append("%s: incorrect run: %s" % (workload, d["failures"]))
            if not d["tracer_checks_ok"]:
                problems.append("%s: %s" % (workload, d["tracer_checks"]))
        for name, m in r1["metrics"].items():
            deterministic = m["unit"] != "s" and name != "trace_overhead"
            if deterministic and m["value"] != r2["metrics"][name]["value"]:
                problems.append("%s: %s differs: %r then %r"
                                % (workload, name, m["value"], r2["metrics"][name]["value"]))
        for w, metric, op, threshold in CONTRASTS:
            value = r1["metrics"][metric]["value"]
            if w == workload and not (value < threshold if op == "<" else value > threshold):
                problems.append("%s: %s is %.4f, expected %s %s" % (w, metric, value, op, threshold))
        print("%s: checked, trace_overhead %.2f and %.2f, %s" % (
            workload, r1["metrics"]["trace_overhead"]["value"],
            r2["metrics"]["trace_overhead"]["value"],
            ", ".join("%s %.4f" % (m, r1["metrics"][m]["value"]) for w, m, _, _ in CONTRASTS
                      if w == workload)), flush=True)
    for p in problems:
        print("FAIL " + p)
    print("selfcheck: %s" % ("ok" if not problems else "%d problems" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
