"""Shared helpers of the layer benchmarks in this directory.

``timed`` takes the minimum and median of ``REPEATS`` runs, ``environment``
names the machine and the measured source, ``quiet_run`` runs a CLI command
with its report discarded, and ``store`` merges one labelled result into a
``BENCH_*.json`` file, keeping the other labels, so one file can hold two
versions of the code measured on the same machine.  ``finite_kernel`` names
the finite Dunkl kernel of the measured version.
"""

from __future__ import annotations

import gc
import glob
import hashlib
import json
import os
import platform
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_SRC = os.path.join(ROOT, "src")
REPEATS = 7


def finite_kernel(finite_cms) -> str:
    """The name of the finite Dunkl kernel in the measured ``finite_cms``:
    ``_finite_dunkl_power`` in a version that has that second entry point,
    ``finite_dunkl`` otherwise.  Both count every kernel call."""
    return "_finite_dunkl_power" if hasattr(finite_cms, "_finite_dunkl_power") else "finite_dunkl"


def timed(fn) -> dict:
    samples = []
    for _ in range(REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return {"min_s": min(samples), "median_s": statistics.median(samples)}


def quiet_run(run, argv) -> int:
    """``run(argv)`` with standard output sent to the null device."""
    with open(os.devnull, "w") as sink:
        stdout, sys.stdout = sys.stdout, sink
        try:
            return run(argv)
        finally:
            sys.stdout = stdout


def environment(src: str, Rat) -> dict:
    """The machine, the Python version, the rational backend and a digest of
    ``src/dunklcms/*.py``."""
    sources = sorted(glob.glob(os.path.join(src, "dunklcms", "*.py")))
    digest = hashlib.sha256(b"".join(open(p, "rb").read() for p in sources)).hexdigest()
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "machine": {"platform": platform.platform(), "machine": platform.machine(),
                    "cpus": os.cpu_count(), "cpus_usable": usable},
        "python": platform.python_version(),
        "rat_backend": "%s.%s" % (Rat.__module__, Rat.__qualname__),
        "source_sha256": digest,
        "repeats": REPEATS,
    }


def store(path: str, label: str, result: dict, **header):
    """Put ``result`` under ``runs[label]`` of the JSON file ``path``, with the
    top-level ``header`` fields; other labels already in the file are kept."""
    data = {}
    if os.path.exists(path):
        with open(path) as fh:
            data = json.load(fh)
    data.update(header)
    data.setdefault("runs", {})[label] = result
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
