"""The dunklcms benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout holding ``src/dunklcms``. Every pass of a
workload is a fresh interpreter (``pass_runner.py``), so imports and the
coefficient gcd cache start cold, as for every CLI user.

``--trace 0`` spawns a warm-up interpreter (not counted), half of
``SETUP_SPAWNS`` interpreters that stop when ready, passes until the next
pass would end after ``--seconds`` (at least one), and the other half of the
set-up interpreters. It reports medians over the passes of ``wall_ref_s``,
``slowest_request_ref_s`` and ``peak_rss_mb``, and the median ``setup_s``
over every spawn. A ``_ref_s`` time is the measured time multiplied by the
machine's speed while it ran, as sampled by ``pass_runner.SpeedProbe``: the
time at a fixed reference speed. The measured ``wall_s`` and
``slowest_request_s``, and ``fail_ratio``, go to the details.

``--trace 1`` runs one untraced and one traced pass with the same seed and
worker setting, and reports the per-layer metrics of ``tracer.py`` with
``trace_overhead``, the traced ``wall_ref_s`` over the untraced one. Spans
and per-request counts go to ``perfbench/out/``.

The last line of standard output is the result object; the line before it
holds the details: environment, per-request medians, negative controls,
``fail_ratio`` and tracer checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import layer_metrics  # noqa: E402

#: Interpreters per run that stop once ready; they sample set-up time.
SETUP_SPAWNS = 8
#: A run gives up after this long, so that it ends within three minutes.
DEADLINE_S = 170.0
#: DUNKLCMS_WORKERS for each workload; only precheck distributes work.
WORKERS = {"infinity": 1, "finite": 1, "moser": 1, "precheck": 2}

#: Boundaries each workload must reach in a traced run (the layer table in
#: README.md), and those it must leave idle.
REACHED = {
    "infinity": ["coeffs.ParamPoly.mul", "coeffs.ParamPoly.add", "coeffs.ParamRatio.add",
                 "coeffs.ParamRatio.mul", "coeffs.poly_gcd", "powersums.partial", "powersums.delta",
                 "powersums.reflect", "powersums.project_E",
                 "dunkl_infinity.InfDunkl.apply", "dunkl_infinity.InfDunkl.integral",
                 "dunkl_infinity.apply_closed_form_L2", "_parallel.ordered_map", "cli.run"],
    "finite": ["coeffs.ParamPoly.mul", "coeffs.ParamPoly.add", "coeffs.ParamRatio.add",
               "coeffs.ParamRatio.mul", "powersums.partial", "powersums.delta",
               "powersums.reflect", "powersums.project_E", "finite_cms.MultiPoly.mul", "finite_cms.MultiPoly.div_or_none",
               "finite_cms.finite_dunkl", "finite_cms.Hom.apply", "finite_cms.heckman_integral",
               "finite_cms.deformed_integral", "_parallel.ordered_map", "cli.run"],
    "moser": ["coeffs.ParamPoly.mul", "coeffs.ParamPoly.add", "coeffs.ParamRatio.add",
              "coeffs.ParamRatio.mul", "finite_cms.MultiPoly.mul", "finite_cms.MultiPoly.div_or_none",
              "weyl.WeylOp.compose", "weyl.RatFun.sum", "weyl.RatFun.mul", "weyl.moser_L",
              "weyl.hamiltonian", "weyl.moser_integral", "cli.run"],
    "precheck": ["coeffs.ParamPoly.mul", "coeffs.ParamPoly.add", "coeffs.ParamRatio.add",
                 "coeffs.ParamRatio.mul", "weyl.WeylOp.apply",
                 "weyl.RatFun.diff", "weyl.WeylOp.compose", "_parallel.ordered_map", "cli.run"],
}
IDLE = {
    "infinity": ["finite_cms.MultiPoly.mul", "finite_cms.MultiPoly.div_or_none",
                 "weyl.WeylOp.compose", "weyl.WeylOp.apply"],
}


class BenchError(RuntimeError):
    pass


def spawn(workload, seed, deadline, trace=False, setup_only=False):
    """One fresh interpreter. Returns (setup seconds, result or None)."""
    cmd = [sys.executable, os.path.join(HERE, "pass_runner.py"),
           "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, DUNKLCMS_WORKERS=str(WORKERS[workload]),
               PYTHONHASHSEED=str(seed % 2 ** 32))
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("a pass of %s ran past the deadline" % workload)
    ready = result = None
    for line in out.splitlines():
        if line.startswith("READY "):
            ready = float(line[6:])
        elif line.startswith("RESULT "):
            result = json.loads(line[7:])
    if proc.returncode != 0 or ready is None or (result is None and not setup_only):
        raise BenchError("pass_runner exited with %d for %s" % (proc.returncode, workload))
    return ready - t0, result


def _commit():
    """The checked-out commit, read from .git inside the checkout if present."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:])) as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return None


def environment(result):
    src = os.path.join(ROOT, "src", "dunklcms")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "rat_backend": result["env"]["rat_backend"],
        "dunklcms_workers": result["env"]["dunklcms_workers"],
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def request_summary(passes):
    """Per-request median latency and the verdict checks over all passes."""
    by_id = {}
    for res in passes:
        for row in res["requests"]:
            by_id.setdefault(row["id"], []).append(row)
    out = {}
    for rid, rows in by_id.items():
        out[rid] = {
            "median_s": statistics.median(r["latency_s"] for r in rows),
            "median_ref_s": statistics.median(r["latency_s"] * r["speed"] for r in rows),
            "status": rows[0]["status"],
            "checks": rows[0]["checks"],
            "control": rows[0]["control"],
            "failed": sum(not r["ok"] for r in rows),
        }
    return out


def failures(passes):
    rows = [row for res in passes for row in res["requests"]]
    return len(rows), [{"id": r["id"], "why": r["why"]} for r in rows if not r["ok"]]


def run_untraced(workload, seed, seconds, deadline):
    def setup_only():
        return [spawn(workload, seed, deadline, setup_only=True)[0] for _ in range(SETUP_SPAWNS // 2)]

    spawn(workload, seed, deadline, setup_only=True)  # warm-up: byte code, file cache
    # Half the set-up samples come before the passes and half after, so that
    # they span the run rather than one moment of the machine's speed.
    setups = setup_only()
    passes, durations = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        setup, result = spawn(workload, seed, deadline)
        durations.append(time.monotonic() - t0)
        setups.append(setup)
        passes.append(result)
        if time.monotonic() - start + statistics.median(durations) > seconds:
            break
    setups += setup_only()
    attempted, failed = failures(passes)

    def median(per_pass):
        return statistics.median(per_pass(p) for p in passes)

    def slowest(scaled):
        return lambda p: max(r["latency_s"] * (r["speed"] if scaled else 1.0) for r in p["requests"])

    metrics = {
        "wall_ref_s": {"value": median(lambda p: p["wall_s"] * p["speed"]), "unit": "s"},
        "slowest_request_ref_s": {"value": median(slowest(True)), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": median(lambda p: p["peak_rss_mb"]), "unit": "MB"},
    }
    detail = {
        "passes": len(passes),
        "setup_samples": len(setups),
        "summary": dict(metrics,
                        wall_s={"value": median(lambda p: p["wall_s"]), "unit": "s"},
                        slowest_request_s={"value": median(slowest(False)), "unit": "s"},
                        speed={"value": median(lambda p: p["speed"]), "unit": "ratio"},
                        fail_ratio={"value": len(failed) / attempted, "unit": "ratio"}),
    }
    return passes, attempted, failed, metrics, detail


def run_traced(workload, seed, deadline):
    _, plain = spawn(workload, seed, deadline)
    _, traced = spawn(workload, seed, deadline, trace=True)
    attempted, failed = failures([plain, traced])
    verdicts = [[(r["id"], r["status"], r["checks"], r["digest"]) for r in p["requests"]]
                for p in (plain, traced)]
    if verdicts[0] != verdicts[1]:
        failed.append({"id": "traced pass", "why": "traced verdicts differ from untraced ones"})
    trace = traced["trace"]
    totals = trace["totals"]
    absent = trace["absent"]
    metrics = layer_metrics(totals)
    metrics["trace_overhead"] = {"value": (traced["wall_s"] * traced["speed"])
                                          / (plain["wall_s"] * plain["speed"]), "unit": "ratio"}
    calls = {name: st[0] for name, st in totals.items()}
    checks = {
        "unreached": [b for b in REACHED.get(workload, []) if b not in absent and not calls.get(b)],
        "not_idle": [b for b in IDLE.get(workload, []) if calls.get(b)],
        "absent": absent,
    }
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", "trace_%s_%d.json" % (workload, seed))
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "spans_fields":
                   ["id", "name", "parent", "request", "start_s", "end_s"],
                   "spans": trace["spans"], "per_request": trace["per_request"]}, fh)
    detail = {
        "tracer_checks": checks,
        "tracer_checks_ok": not (checks["unreached"] or checks["not_idle"]),
        "untraced": {"wall_s": plain["wall_s"], "speed": plain["speed"]},
        "traced": {"wall_s": traced["wall_s"], "speed": traced["speed"]},
        "trace_file": os.path.relpath(path, ROOT),
        "workers_note": ("calls made in ordered_map worker processes are counted there and merged "
                         "item by item; their self time is busy time in the workers and overlaps "
                         "in wall time" if WORKERS[workload] > 1 else "serial run"),
    }
    # per-request latencies come from the untraced pass only
    return [plain], attempted, failed, metrics, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "dunklcms", "__init__.py")):
        print("run.py: no src/dunklcms in %s; run from a checkout of the repository" % ROOT,
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            passes, attempted, failed, metrics, detail = run_traced(args.workload, args.seed, deadline)
        else:
            passes, attempted, failed, metrics, detail = run_untraced(
                args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 1
    requests = request_summary(passes)
    detail.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "loop": "closed, one client, requests in-process",
        "environment": environment(passes[0]),
        "requests": requests,
        "negative_controls": {rid: r["status"] for rid, r in requests.items() if r["control"]},
        "failures": failed,
    })
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
