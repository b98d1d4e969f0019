"""The benchmark's workloads: fixed sets of verification requests.

Each request is sent in-process through a public entry point, either
``dunklcms.cli.run(argv)`` or, where the CLI has no command, a library call.
Library functions are looked up on their module at call time, so the
tracer's rebound wrappers see every call.

The workload seed sets the request order in every workload and the sampled
parameter point in ``precheck``; the symbolic instances stay fixed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable, Optional

from dunklcms import cli, coeffs, dunkl_infinity, finite_cms, weyl
from dunklcms.powersums import Family, LambdaElem

_EXIT = {"verified": 0, "falsified": 1, "error": 2}


@dataclass(frozen=True)
class Verdict:
    status: str
    checks: int
    values: tuple = ()

    def digest(self, counterexamples=()) -> str:
        payload = json.dumps([self.status, self.checks, list(counterexamples), list(self.values)],
                             sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Request:
    id: str
    run: Callable[[], tuple]  # -> (Verdict, digest)
    control: bool = False
    #: recomputes, after timing, the digest a seed-dependent request must give
    reference: Optional[Callable[[], str]] = None


def _cli(argv, extra=()):
    """A CLI request, named by ``argv``; ``extra`` arguments, such as the
    sampled-mode seed, are passed but left out of the name.

    The digest covers status, checks, counterexamples and, for ``generate``,
    the computed notes. ``stats`` and ``timing_ms`` are left out on purpose:
    counters may be added there without changing a verdict.
    """
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run([*argv, *extra, "--format", "json", "--no-timing"])
        report = json.loads(buf.getvalue())
        status = report["status"]
        if _EXIT.get(status) != code:
            status = "exit %d with status %s" % (code, status)
        values = tuple(report["notes"]) if argv[0] == "generate" else ()
        verdict = Verdict(status, report["checks"], values)
        return verdict, verdict.digest(report["counterexamples"])
    return Request(" ".join(argv), run)


def _lib(name, fn, control=False, reference=None):
    def run():
        verdict = fn()
        return verdict, verdict.digest()
    return Request("lib " + name, run, control, reference)


def _status(ok: bool) -> str:
    return "verified" if ok else "falsified"


# -- library requests ------------------------------------------------------------


def _closed_form_vs_fourth_integral():
    # The trig-BC closed form is E.D^2; E.D^4 is a different operator.
    f = LambdaElem.p(2)
    res = (dunkl_infinity.apply_closed_form_L2(Family.TRIG_BC, f)
           - dunkl_infinity.integral_L(Family.TRIG_BC, 2, f))
    return Verdict(_status(res.is_zero()), 1, (res.text(),))


def _noncommuting_finite_dunkl():
    # Acceptance criterion 8: trig-A at N=3 and trig-BC at N=2 do not commute.
    fd = finite_cms.finite_dunkl
    MultiPoly = finite_cms.MultiPoly
    cases = [
        (Family.TRIG_A, 3, MultiPoly.var(3, 2)),
        (Family.TRIG_BC, 2, MultiPoly.var(2, 0, -2) * MultiPoly.var(2, 1, -2)),
    ]
    values, all_commute = [], True
    for family, N, f in cases:
        ab = fd(family, N, 0, fd(family, N, 1, f))
        ba = fd(family, N, 1, fd(family, N, 0, f))
        all_commute = all_commute and ab == ba
        values.append((ab - ba).text())
    return Verdict(_status(all_commute), len(cases), tuple(values))


def _integral_vs_hamiltonian_trig_bc():
    factor, const, residual = weyl.integral_vs_hamiltonian(Family.TRIG_BC, finite_cms.ParityData(1, 1))
    return Verdict(_status(residual.is_zero()), 1, (factor.text(), const.text()))


def _rat_b_integral_commutes_symbolically():
    parity = finite_cms.ParityData(1, 1)
    rep = weyl.commute_check(weyl.moser_integral(Family.RAT_B, parity, 1),
                             weyl.hamiltonian(Family.RAT_B, parity, gauged=False), "symbolic")
    return Verdict(_status(rep.ok), 1, tuple(text for _, text in rep.counterexamples))


def _hamiltonian_vs_partial(bindings=None):
    # [H, d/dx1] is not zero: the moser workload's negative control.
    H = weyl.hamiltonian(Family.RAT_A, finite_cms.ParityData(1, 1))
    if bindings:
        H = H.substitute(bindings)
    rep = weyl.commute_check(H, weyl.WeylOp.partial(2, 0))
    return Verdict(_status(rep.ok), 1, tuple(text for _, text in rep.counterexamples))


def sampled_k(seed: int) -> dict:
    """A seeded rational value of k, drawn as the CLI's sampled mode draws."""
    rng = random.Random(seed)
    return {"k": coeffs.const(coeffs.Rat(rng.randint(2, 10 ** 6), rng.randint(1, 97)))}


def _sampled_control_reference(seed):
    # The symbolic commutator, substituted afterwards, must give the same text.
    bindings = sampled_k(seed)
    H = weyl.hamiltonian(Family.RAT_A, finite_cms.ParityData(1, 1))
    res = H.commutator(weyl.WeylOp.partial(2, 0)).substitute(bindings)
    return Verdict("falsified", 1, (res.text(),)).digest()


# -- the workloads -----------------------------------------------------------------

_FOUR = ("rat-a", "trig-a", "rat-b", "trig-bc")


def _infinity(seed):
    return [
        *[_cli(["verify", "closed-form", "--family", f, "--deg", "8"]) for f in _FOUR],
        _cli(["verify", "commute-infinity", "--family", "rat-a", "--r", "2", "--s", "3", "--deg", "6"]),
        _cli(["verify", "commute-infinity", "--family", "trig-a", "--r", "2", "--s", "3", "--deg", "6"]),
        _cli(["verify", "commute-infinity", "--family", "rat-b", "--r", "1", "--s", "3", "--deg", "4"]),
        _cli(["verify", "commute-infinity", "--family", "trig-bc", "--r", "1", "--s", "3", "--deg", "4"]),
        _cli(["generate", "integral", "--family", "trig-bc", "--r", "4", "--deg", "4"]),
        _lib("closed-form trig-bc p2 vs E.D^4", _closed_form_vs_fourth_integral, control=True),
    ]


def _finite(seed):
    return [
        *[_cli(["verify", "diagram", "--family", f, "--kind", "dcomm", "--N", "4", "--i", "1", "--r", "3"])
          for f in _FOUR],
        *[_cli(["verify", "diagram", "--family", f, "--kind", "heckdiag", "--N", "3", "--r", "3"])
          for f in _FOUR],
        *[_cli(["verify", "diagram", "--family", "rat-a", "--kind", kind, "--n", "2", "--m", "1", "--r", "3"])
          for kind in ("propcomm", "intrat")],
        _cli(["verify", "deformed", "--n", "2", "--m", "2", "--r", "4"]),
        _cli(["verify", "degenerate-k1", "--n", "1", "--m", "1", "--r", "3"]),
        _lib("finite_dunkl trig-a N=3, trig-bc N=2 commute", _noncommuting_finite_dunkl, control=True),
    ]


def _moser(seed):
    return [
        _cli(["verify", "lax", "--family", "rat-a", "--n", "2", "--m", "2"]),
        _cli(["verify", "lax", "--family", "trig-a", "--n", "2", "--m", "2"]),
        _cli(["verify", "lax", "--family", "trig-a", "--n", "3", "--m", "1"]),
        *[_cli(["verify", "moser-integrals", "--family", f, "--n", "2", "--m", "1", "--r", "3"])
          for f in ("rat-a", "trig-a")],
        _lib("integral_vs_hamiltonian trig-bc 1 1", _integral_vs_hamiltonian_trig_bc),
        _lib("commute_check rat-b e*L^2e H 1 1 symbolic", _rat_b_integral_commutes_symbolically),
        _lib("commute_check rat-a H d/dx1 1 1", _hamiltonian_vs_partial, control=True),
    ]


def _precheck(seed):
    seeded = ["--seed", str(seed)]
    return [
        _cli(["verify", "commute-infinity", "--family", "trig-bc", "--r", "1", "--s", "3", "--deg", "4",
              "--mode", "sampled"], seeded),
        _cli(["verify", "closed-form", "--family", "trig-bc", "--deg", "8", "--mode", "sampled"], seeded),
        _cli(["verify", "lax", "--family", "trig-a", "--n", "2", "--m", "2", "--mode", "sampled"], seeded),
        _cli(["verify", "moser-integrals", "--family", "rat-b", "--n", "1", "--m", "1", "--r", "1",
              "--mode", "sampled"], seeded),
        _cli(["verify", "moser-integrals", "--family", "rat-a", "--n", "2", "--m", "1", "--r", "2",
              "--basis-deg", "4", "--mode", "sampled"], seeded),
        _lib("commute_check rat-a H d/dx1 1 1 sampled",
             lambda: _hamiltonian_vs_partial(sampled_k(seed)), control=True,
             reference=lambda: _sampled_control_reference(seed)),
    ]


WORKLOADS = {"infinity": _infinity, "finite": _finite, "moser": _moser, "precheck": _precheck}


def requests(workload: str, seed: int) -> list:
    """The workload's requests in the order the seed sets."""
    reqs = WORKLOADS[workload](seed)
    random.Random(seed).shuffle(reqs)
    return reqs

