"""Freeze the expected verdicts in ``expected.json`` from the code under test.

    python3 perfbench/freeze.py

Each request runs once, in-process, serially. A request whose values depend
on the seed (the sampled negative control) is frozen without a digest; the
benchmark recomputes its reference after timing instead.
"""

import json
import os
import sys

from pass_runner import HERE, ROOT, run_requests

sys.path.insert(0, os.path.join(ROOT, "src"))
import workloads  # noqa: E402


def main():
    expected = {}
    for name in workloads.WORKLOADS:
        _, results, _ = run_requests(workloads.requests(name, 0))
        expected[name] = {
            req.id: {"status": verdict.status, "checks": verdict.checks,
                     "digest": None if req.reference else digest}
            for req, verdict, digest, _, _ in results
        }
        print(name, {req.id: verdict.status for req, verdict, _, _, _ in results}, file=sys.stderr)
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
