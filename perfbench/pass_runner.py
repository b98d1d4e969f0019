"""One pass of a workload in a fresh interpreter.

    python3 perfbench/pass_runner.py --workload NAME --seed N [--trace] [--setup-only]

It imports ``dunklcms`` from ``src/`` next to this directory, builds the CLI
parser and generates the requests, then prints ``READY <monotonic time>``:
``run.py`` takes set-up time from its spawn to that moment (both clocks are
the system-wide CLOCK_MONOTONIC). Then it sends every request once, in the
seeded order, from one client in a closed loop, checks each verdict against
``expected.json`` after the timed loop, and prints ``RESULT <json>``.

While the requests run, ``SpeedProbe`` samples how fast the machine is, so
that ``run.py`` can report times at a fixed reference speed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


#: How often the speed probe samples, and the CPU time of one sample at the
#: reference speed: its median on the 2-CPU x86_64 machine (Python 3.11.7)
#: where the benchmark was written.
PROBE_PERIOD_S = 0.02
PROBE_REF_S = 4.5e-4
#: The two polynomials each sample multiplies: 8 terms each in three
#: variables, exponent tuples as keys and Fraction coefficients.
_P = [((i % 4, i // 4 % 2, i // 8), Fraction(i + 1, i % 7 + 1)) for i in range(8)]
_Q = [((i % 2, i // 2 % 4, i // 8), Fraction(2 * i + 3, i % 5 + 2)) for i in range(8)]


class SpeedProbe:
    """Samples the machine's speed while the requests run.

    The speed of a shared machine drifts by tens of percent within seconds,
    so one pass timed against another mostly measures the machine. Every
    ``PROBE_PERIOD_S`` a timer signal does a fixed piece of the work
    ``coeffs`` does, a sum of fractions with growing denominators and a
    product of two sparse polynomials, and adds the CPU time this took to
    ``spent``. ``speed()`` is ``PROBE_REF_S`` over the mean sample, so a time
    multiplied by it is the time at the reference speed. The samples' own
    time is taken out of the latencies.
    """

    def __init__(self):
        self.spent = 0.0
        self.samples = 0

    def sample(self, *_):
        t0 = time.thread_time()
        total = Fraction(0)
        for i in range(1, 33):
            total += Fraction(i, i + 1)
        product = {}
        for ka, ca in _P:
            for kb, cb in _Q:
                key = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
                old = product.get(key)
                product[key] = ca * cb if old is None else old + ca * cb
        self.spent += time.thread_time() - t0
        self.samples += 1

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, samples=0, spent=0.0):
        """The speed over the samples taken since ``samples`` and ``spent``."""
        return PROBE_REF_S * (self.samples - samples) / (self.spent - spent)


def run_requests(reqs, tracer=None):
    """Send each request once. Returns the seconds from the first request to
    the last verdict, [(request, verdict, digest, latency, speed)] and the
    speed over the whole pass, as ``SpeedProbe.speed()``."""
    out = []
    with SpeedProbe() as probe:
        first, probed = time.perf_counter(), probe.spent
        for req in reqs:
            if tracer is not None:
                tracer.begin_request(req.id)
            n0, s0 = probe.samples, probe.spent
            probe.sample()  # so that a request shorter than the period has one
            t0, p0 = time.perf_counter(), probe.spent
            try:
                verdict, digest = req.run()
            except Exception as exc:  # noqa: BLE001 - a raised request is a failed one
                verdict, digest = None, "%s: %s" % (type(exc).__name__, exc)
            latency = time.perf_counter() - t0 - (probe.spent - p0)
            if tracer is not None:
                tracer.end_request()
            out.append((req, verdict, digest, latency, probe.speed(n0, s0)))
        wall = time.perf_counter() - first - (probe.spent - probed)
    return wall, out, probe.speed()


def check(workload, results, expected):
    """Compare each verdict with its frozen expectation."""
    rows = []
    for req, verdict, digest, latency, speed in results:
        exp = expected[workload].get(req.id)
        if verdict is None:
            why = "raised " + digest
        elif exp is None:
            why = "no frozen expectation"
        elif verdict.status != exp["status"]:
            why = "status %s, expected %s" % (verdict.status, exp["status"])
        elif verdict.checks != exp["checks"]:
            why = "%d checks, expected %d" % (verdict.checks, exp["checks"])
        elif digest != (req.reference() if req.reference else exp["digest"]):
            why = "value digest differs"
        else:
            why = ""
        rows.append({
            "id": req.id,
            "control": req.control,
            "status": verdict.status if verdict else "raised",
            "checks": verdict.checks if verdict else 0,
            "digest": digest,
            "latency_s": latency,
            "speed": speed,
            "ok": not why,
            "why": why,
        })
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from dunklcms import cli, coeffs
    import workloads

    cli.build_parser()
    reqs = workloads.requests(args.workload, args.seed)
    print("READY %r" % time.monotonic(), flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.install(extra_modules=[workloads])
    wall, results, speed = run_requests(reqs, tracer)
    trace = None
    if tracer is not None:
        trace = {
            "totals": tracer.totals(),
            "per_request": tracer.per_request(),
            "spans": tracer.spans,
            "absent": tracer.absent,
        }
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    rows = check(args.workload, results, expected)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out = {
        "wall_s": wall,
        "speed": speed,
        "peak_rss_mb": rss_kb / 1024.0,
        "requests": rows,
        "env": {
            "python": platform.python_version(),
            "rat_backend": "%s.%s" % (coeffs.Rat.__module__, coeffs.Rat.__qualname__),
            "dunklcms_workers": os.environ.get("DUNKLCMS_WORKERS"),
        },
    }
    if trace is not None:
        out["trace"] = trace
    print("RESULT " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
