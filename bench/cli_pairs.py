"""Interleaved timing of CLI requests on two versions of ``dunklcms`` in one
process.

    python3 bench/cli_pairs.py --parent DIR [--change DIR] --out BENCH_28.json [--pairs 15]

``--parent`` and ``--change`` name ``src`` directories (``--change``
defaults to the one of this checkout).  Both ``dunklcms`` packages are
imported into this process, under the module names ``dunklcms_parent`` and
``dunklcms_change``, with DUNKLCMS_WORKERS cleared, so every request runs
serially here.  Each request's ``--no-timing`` text and JSON reports are
compared first; if they differ the script exits 1 and stores nothing.  Then
each request is timed ``--pairs`` times on each side, one run per side and
pair, the side that runs first alternating from pair to pair, so that the
drift of a shared machine falls on both sides alike (timing each side in a
process of its own could not resolve a difference of a few percent).
Each side's median and quartiles, and the number of pairs in which the
change ran faster, are stored under the label ``interleaved`` of the JSON
file ``--out`` (``harness.store``), with the work of one untimed run of
each request on each side: the calls of the functions in ``COUNTED``
(``ordered_map`` through every module that imports it).

Only the standard library is used.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import io
import json
import os
import statistics
import sys
import time

from harness import DEFAULT_SRC, environment, quiet_run, store

REQUESTS = [
    ["verify", "deformed", "--n", "2", "--m", "2", "--r", "4"],
    ["verify", "degenerate-k1", "--n", "1", "--m", "1", "--r", "3"],
    ["verify", "degenerate-k1", "--n", "2", "--m", "1", "--r", "3"],
    ["verify", "degenerate-k1", "--n", "2", "--m", "2", "--r", "2"],
    ["verify", "diagram", "--family", "rat-a", "--kind", "intrat", "--n", "2", "--m", "1", "--r", "3"],
    ["verify", "diagram", "--family", "rat-a", "--kind", "propcomm", "--n", "2", "--m", "1", "--r", "3"],
    ["verify", "diagram", "--family", "trig-bc", "--kind", "heckdiag", "--N", "3", "--r", "3"],
    *[["verify", "diagram", "--family", f, "--kind", "dcomm", "--N", "4", "--i", "1", "--r", "3"]
      for f in ("trig-bc", "rat-b")],
    ["verify", "moser-integrals", "--family", "rat-a", "--n", "2", "--m", "1", "--r", "2",
     "--basis-deg", "4", "--mode", "sampled", "--seed", "1"],
    ["verify", "closed-form", "--family", "trig-bc", "--deg", "8"],
    # the sampled requests of the benchmark's precheck workload at seed 1
    ["verify", "commute-infinity", "--family", "trig-bc", "--r", "1", "--s", "3", "--deg", "4",
     "--mode", "sampled", "--seed", "1"],
    ["verify", "closed-form", "--family", "trig-bc", "--deg", "8", "--mode", "sampled", "--seed", "1"],
]
SIDES = ("parent", "change")
#: The calls counted per request: (label, module, attribute path).
COUNTED = [("RatFun.diff", "weyl", "RatFun.diff"), ("RatFun.sum", "weyl", "RatFun.sum"),
           ("WeylOp.apply", "weyl", "WeylOp.apply"), ("Hom.apply", "finite_cms", "Hom.apply"),
           ("MultiPoly.mul", "finite_cms", "MultiPoly.__mul__"),
           ("_finite_dunkl_power", "finite_cms", "_finite_dunkl_power"),
           *[("ordered_map", module, "ordered_map") for module in ("dunkl_infinity", "finite_cms", "weyl")]]


def load(name: str, src: str):
    """The package ``src/dunklcms`` imported as ``name``: its modules import
    one another relatively, so they all land under ``name``."""
    path = os.path.join(src, "dunklcms")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(path, "__init__.py"), submodule_search_locations=[path])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(name + ".cli")
    return package


def reports(cli, argv) -> str:
    """The request's ``--no-timing`` text and JSON reports."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        for fmt in ("text", "json"):
            cli.run(argv + ["--format", fmt, "--no-timing"])
    return buf.getvalue()


def once(cli, argv) -> float:
    gc.collect()
    t0 = time.perf_counter()
    quiet_run(cli.run, argv + ["--no-timing"])
    return time.perf_counter() - t0


def counts(package, argv) -> dict:
    """The calls of each ``COUNTED`` function in one run of the request."""
    totals = dict.fromkeys((label for label, _, _ in COUNTED), 0)
    patched = []  # (owner, name, the attribute it held)
    for label, module, path in COUNTED:
        *owners, name = path.split(".")
        owner = getattr(package, module)
        for attr in owners:
            owner = getattr(owner, attr)
        raw = vars(owner)[name]
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw

        def counting(*args, _fn=fn, _label=label, **kwargs):
            totals[_label] += 1
            return _fn(*args, **kwargs)

        patched.append((owner, name, raw))
        setattr(owner, name, staticmethod(counting) if isinstance(raw, staticmethod) else counting)
    try:
        quiet_run(package.cli.run, argv + ["--no-timing"])
    finally:
        for owner, name, raw in reversed(patched):
            setattr(owner, name, raw)
    return totals


def summary(samples) -> dict:
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return {"median_s": statistics.median(samples), "q1_s": q1, "q3_s": q3}


def measure(clis: dict, pairs: int) -> dict:
    result = {}
    for argv in REQUESTS:
        times = {side: [] for side in SIDES}
        for k in range(pairs):
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                times[side].append(once(clis[side], argv))
        wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
        result[" ".join(argv)] = {**{side: summary(times[side]) for side in SIDES}, "change_wins": wins}
    return result


def work(packages: dict) -> dict:
    return {" ".join(argv): {side: counts(packages[side], argv) for side in SIDES} for argv in REQUESTS}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="the src directory of the parent version")
    ap.add_argument("--change", default=DEFAULT_SRC, help="the src directory of the changed version")
    ap.add_argument("--out", required=True, help="the JSON file to update")
    ap.add_argument("--pairs", type=int, default=15)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    os.environ.pop("DUNKLCMS_WORKERS", None)
    srcs = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    packages = {side: load("dunklcms_" + side, srcs[side]) for side in SIDES}
    clis = {side: packages[side].cli for side in SIDES}
    differ = [" ".join(a) for a in REQUESTS if reports(clis["parent"], a) != reports(clis["change"], a)]
    if differ:
        print("reports differ: %s" % "; ".join(differ), file=sys.stderr)
        return 1
    result = {side: environment(srcs[side], packages[side].coeffs.Rat) for side in SIDES}
    for side in SIDES:
        del result[side]["repeats"]
    result["pairs"] = args.pairs
    result["requests"] = measure(clis, args.pairs)
    result["calls"] = work(packages)
    store(args.out, "interleaved", result,
          benchmark="CLI requests timed in one process on two versions, the first side alternating",
          commands=[" ".join(a) for a in REQUESTS])
    print(json.dumps({"requests": result["requests"], "calls": result["calls"]}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
