"""Layer benchmark of the x-polynomial layer: the powers of the finite Dunkl
operators, the Heckman integrals and the substitution homomorphism.

    python3 bench/finite_layer.py --label NAME --out BENCH_27.json [--src DIR]

Runs the trig-BC ``heckdiag`` and ``dcomm`` commands in ``COMMANDS`` once
in-process with the finite kernel, ``finite_cms.heckman_integral`` and
``finite_cms.Hom.apply`` wrapped to capture their inputs, then replays each
layer's captured calls ``harness.REPEATS`` (7) times, unwrapped, and records
the minimum and the median time of a full replay.  The kernel is
``finite_cms.finite_dunkl``, or ``_finite_dunkl_power`` in a version that
still has that second entry point (``harness.finite_kernel``); its row is
named ``finite_dunkl`` either way:

* ``finite_dunkl``: every kernel call, of both commands;
* ``heckman_integral``: the integrals of ``heckdiag``, each making its own
  kernel calls, so a version that makes fewer of them shows its gain here
  and not in the kernel row;
* ``Hom.apply``: the applications of each ``Hom`` the commands built, on a
  fresh ``Hom`` per replay, so every replay builds the images a request
  builds.

One extra replay of each layer, not timed, counts its work: the canonical
forms (``finite_cms._canonical`` calls) of the kernel, the kernel calls of
the integrals and the ``MultiPoly`` products of the applications.  Each
command is timed as often, unwrapped.  Results are stored under ``--label``
in the JSON file ``--out``, next to the other labels already in it;
``--src`` names the ``src`` directory whose ``dunklcms`` is measured
(default: the one of this checkout).  Everything runs in this process:
DUNKLCMS_WORKERS is cleared.

Only the standard library is used.  The inputs are those the measured
version produces; two versions whose operators agree capture the same
integrals and applications.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from harness import DEFAULT_SRC, environment, finite_kernel, quiet_run, store, timed

COMMANDS = [
    ["verify", "diagram", "--family", "trig-bc", "--kind", "heckdiag", "--N", "3", "--r", "3", "--no-timing"],
    ["verify", "diagram", "--family", "trig-bc", "--kind", "dcomm", "--N", "4", "--i", "1", "--r", "3",
     "--no-timing"],
]


def wrapped(owner, name: str, before):
    """Replace ``owner.name`` by a wrapper that calls ``before(*args)`` first;
    returns the function that restores the original."""
    original = vars(owner)[name]

    def wrapper(*args):
        before(*args)
        return original(*args)

    setattr(owner, name, wrapper)
    return lambda: setattr(owner, name, original)


def capture(finite_cms, run) -> list:
    """Run the commands with the measured layers wrapped; returns the
    argument tuples of the kernel and of the integrals, and for each ``Hom``
    its (family, parity, i) and the elements it was applied to."""
    calls = {finite_kernel(finite_cms): [], "heckman_integral": []}
    homs = {}

    def applied(hom, f):
        # keyed by the Hom itself, which keeps it alive, so no later Hom
        # takes its place
        homs.setdefault(hom, ((hom.family, hom.parity, hom.i), []))[1].append(f)

    restore = [wrapped(finite_cms, name, lambda *args, _calls=calls[name]: _calls.append(args))
               for name in calls]
    restore.append(wrapped(finite_cms.Hom, "apply", applied))
    try:
        for command in COMMANDS:
            status = quiet_run(run, command)
            if status != 0:
                raise SystemExit("%s exited with %d" % (" ".join(command), status))
    finally:
        for undo in reversed(restore):
            undo()
    return [*calls.values(), list(homs.values())]


def count(owner, name: str, replay) -> int:
    """Run ``replay`` once with ``owner.name`` counted."""
    n = [0]

    def counting(*args):
        n[0] += 1

    undo = wrapped(owner, name, counting)
    try:
        replay()
    finally:
        undo()
    return n[0]


def measure(src: str) -> dict:
    os.environ.pop("DUNKLCMS_WORKERS", None)
    sys.path.insert(0, src)
    from dunklcms import cli, coeffs, finite_cms

    name = finite_kernel(finite_cms)
    kernel_calls, integrals, homs = capture(finite_cms, cli.run)

    def kernel():
        for args in kernel_calls:
            getattr(finite_cms, name)(*args)

    def heckman():
        for args in integrals:
            finite_cms.heckman_integral(*args)

    def apply():
        for args, elements in homs:
            hom = finite_cms.Hom(*args)
            for f in elements:
                hom.apply(f)

    layers = {
        "finite_dunkl": {"calls": len(kernel_calls),
                         "_canonical.calls": count(finite_cms, "_canonical", kernel)},
        "heckman_integral": {"calls": len(integrals),
                             "finite_dunkl.calls": count(finite_cms, name, heckman)},
        "Hom.apply": {"homs": len(homs), "calls": sum(len(elements) for _, elements in homs),
                      "MultiPoly.mul.calls": count(finite_cms.MultiPoly, "__mul__", apply)},
    }
    for row, replay in (("finite_dunkl", kernel), ("heckman_integral", heckman), ("Hom.apply", apply)):
        layers[row].update(timed(replay))
    result = environment(src, coeffs.Rat)
    result["layers"] = layers
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
          benchmark="x-polynomial layer: finite_dunkl, heckman_integral and Hom.apply on the"
                    " trig-BC heckdiag N=3 r=3 and dcomm N=4 i=1 r=3 inputs",
          commands=[" ".join(command) for command in COMMANDS])
    print(json.dumps({args.label: result["layers"], "commands": result["commands"]}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
