"""Command-line front end: every verification as a deterministic report.

Commands mirror the library checks:

    dunklcms verify closed-form      --family rat-a --deg 8
    dunklcms verify commute-infinity --family rat-a --r 2 --s 3 --deg 6
    dunklcms verify diagram          --family rat-b --kind dcomm --N 3 --r 2
    dunklcms verify deformed         --n 2 --m 1 --r 3
    dunklcms verify lax              --family trig-a --n 1 --m 1
    dunklcms verify moser-integrals  --family rat-b --n 1 --m 1 --r 2
    dunklcms verify degenerate-k1    --n 1 --m 1 --r 3
    dunklcms generate integral       --family trig-a --r 2 --deg 4

Reports are emitted as text or stable-keyed JSON; exit code 0 means verified,
1 falsified, 2 error.  ``--mode sampled --seed S`` decides each check at
seeded random rational parameter values, as a precheck; symbolic mode is the
ground truth, and ``--seed`` without ``--mode sampled`` is an error.
``moser-integrals`` decides [e*L^re, H] = 0 on the symbolic commutator for
every family; ``--basis-deg D`` checks it instead on the monomials of degree
<= D, an independent route.  Guard rails cap sizes to desk scale unless
``--unsafe``.

Each command is declared once, in ``_COMMANDS``: its help, its handler and
its own options, which ``build_parser`` follows with the common ones.  A
handler is a thin call into the library: it validates the request, calls
the check (``finite_cms.deformed_check`` and ``weyl.degenerate_k1_check``
for the two corollaries of rational A) and records its results.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import random
import sys
import time
from dataclasses import dataclass, field

from .coeffs import SYMBOLS, Rat, const
from .dunkl_infinity import (
    closed_form_L2,
    commutator_on_basis,
    integral_L,
    pmono_basis,
)
from .finite_cms import (DIAGRAM_KINDS, DiagramResult, ParityData, deformed_check, diagram_check,
                         standard_testset)
from .powersums import Family, LambdaElem, pmono_text
from .weyl import commute_checks, degenerate_k1_check, lax_check, moser_integrals

FAMILIES = {f.value: f for f in Family}

#: Desk-scale guard rails; --unsafe lifts them.
LIMITS = {
    "deg": 10,
    "digits": 100,
    "N": 5,
    "nm": 4,
    "r": 6,
}

#: The cost cap of trig-BC ``moser-integrals``, on (n + m - 1) * r in every
#: mode; --unsafe lifts it.  Symbolic, on 2 CPUs, a request took at most 3 s
#: within it, 15 s at (n + m, r) = (2, 3) and minutes at (3, 2) and (4, 1).
TRIG_BC_MOSER_COST = 2

#: The smallest values inside the domain of a request; --unsafe keeps them.
MINIMUM = {
    "deg": 0,
    "N": 1,
    "nm": 1,
    "r": 1,
}


class InvalidRequest(ValueError):
    """Request fails validation; reported with exit code 2."""


@dataclass
class Report:
    command: str
    request: dict
    status: str = "verified"
    counterexamples: list = field(default_factory=list)
    checks: int = 0
    notes: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    timing_ms: float = 0.0

    def record(self, ok: bool, label: str, lhs: str = "", rhs: str = ""):
        self.checks += 1
        if not ok:
            self.status = "falsified"
            self.counterexamples.append({"input": label, "lhs": lhs, "rhs": rhs})

    def record_results(self, results):
        """``record`` of each of the library's ``DiagramResult`` values."""
        for res in results:
            self.record(res.ok, res.label, res.lhs, res.rhs)

    def observe_terms(self, obj):
        """Track the largest term count seen, a rough cost statistic."""
        terms = getattr(obj, "terms", None)
        if terms is None:
            return
        n = len(terms)
        if n > self.stats.get("max_terms", 0):
            self.stats["max_terms"] = n

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "request": {k: self.request[k] for k in sorted(self.request)},
            "status": self.status,
            "checks": self.checks,
            "counterexamples": self.counterexamples,
            "notes": self.notes,
            "stats": {k: self.stats[k] for k in sorted(self.stats)},
            "timing_ms": self.timing_ms,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def to_text(self) -> str:
        lines = ["%s: %s (%d checks)" % (self.command, self.status, self.checks)]
        for note in self.notes:
            lines.append("  note: %s" % note)
        for ce in self.counterexamples:
            lines.append("  counterexample %s" % ce["input"])
            if ce["lhs"] or ce["rhs"]:
                lines.append("    lhs: %s" % ce["lhs"])
                lines.append("    rhs: %s" % ce["rhs"])
        for key in sorted(self.stats):
            lines.append("  %s: %s" % (key, self.stats[key]))
        lines.append("  timing_ms: %s" % self.timing_ms)
        return "\n".join(lines)


def report_emit(report: Report, fmt: str = "text") -> str:
    return report.to_json() if fmt == "json" else report.to_text()


def _family(value: str) -> Family:
    try:
        return FAMILIES[value]
    except KeyError:
        raise InvalidRequest("unknown family %r (choose from %s)" % (value, sorted(FAMILIES)))


def _sample_bindings(family: Family, seed: int) -> dict:
    """Seeded random rational values for the family's free parameters."""
    rng = random.Random(seed)

    def draw():
        return const(Rat(rng.randint(2, 10 ** 6), rng.randint(1, 97)))

    return {name: draw() for name in family.symbols}


def _explicit_bindings(args, family: Family) -> dict:
    """Parse --param name=value assignments into exact rational bindings: an
    integer, a/b or a plain decimal.  A value in exponent notation, or one
    with more than LIMITS["digits"] digits unless --unsafe, is refused before
    it is parsed: a string as short as 1e10000000 expands to an integer of
    ten million digits, and the powers of a long value outgrow the integer
    conversions of the report texts."""
    out = {}
    for item in args.param or ():
        name, _, value = item.partition("=")
        if name not in SYMBOLS or not value:
            raise InvalidRequest("bad --param %r (expected e.g. k=3/2)" % item)
        if name not in family.symbols:
            raise InvalidRequest("bad --param %r: family %s has the parameters %s"
                                 % (item, family.value, ", ".join(family.symbols)))
        if name in out:
            raise InvalidRequest("bad --param %r: %s is bound more than once" % (item, name))
        if "e" in value.lower():
            raise InvalidRequest("bad --param value %r: exponent notation is not accepted"
                                 " (expected an integer, a/b or a decimal)" % value)
        digits = sum(ch.isdigit() for ch in value)
        if digits > LIMITS["digits"] and not args.unsafe:
            raise InvalidRequest("bad --param %s=...: %d digits exceed the desk-scale cap %d"
                                 " (pass --unsafe to override)" % (name, digits, LIMITS["digits"]))
        try:
            out[name] = const(Rat(value))
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidRequest("bad --param value %r: %s" % (value, exc))
    return out


def _bindings(args, family: Family):
    """Numeric bindings for this run: sampled values, explicit ones, or none."""
    bindings = {}
    if args.mode == "sampled":
        bindings.update(_sample_bindings(family, args.seed))
    bindings.update(_explicit_bindings(args, family))
    return bindings or None


def _symbolic_only(args):
    """Reject --mode sampled and --param for a check that has no numeric route."""
    if args.mode == "sampled":
        raise InvalidRequest("--mode sampled is not supported: this check is symbolic only")
    if args.param:
        raise InvalidRequest("--param is not supported: this check is symbolic only")


def _guard(args, **vals):
    for key, v in vals.items():
        if v is None:
            continue
        if v < MINIMUM[key]:
            raise InvalidRequest("%s=%d is below the minimum %d" % (key, v, MINIMUM[key]))
        if v > LIMITS[key] and not getattr(args, "unsafe", False):
            raise InvalidRequest(
                "%s=%d exceeds the desk-scale cap %d (pass --unsafe to override)"
                % (key, v, LIMITS[key])
            )


def _parity(args) -> ParityData:
    """The particle numbers --n and --m, as ``ParityData`` checks them."""
    try:
        return ParityData(args.n, args.m)
    except ValueError as exc:
        raise InvalidRequest(str(exc))


# -- verify subcommands -------------------------------------------------------


def _verify_closed_form(args, report):
    family = _family(args.family)
    _guard(args, deg=args.deg)
    bindings = _bindings(args, family)
    r = 1 if family.even_integrals else 2
    # exact on every basis monomial: none has degree above max(deg, 1)
    closed_form = closed_form_L2(family, max(args.deg, 1))
    for m in pmono_basis(args.deg, args.deg):
        f = LambdaElem.monomial(m)
        lhs, rhs = closed_form.apply(f), integral_L(family, r, f)
        # canonical coefficients: structural equality is equality of values
        ok = lhs == rhs
        if bindings:
            rhs = rhs.substitute(bindings)
            if not ok:  # the sides may still agree at the point
                lhs = lhs.substitute(bindings)
                ok = lhs == rhs
        report.observe_terms(rhs)
        report.record_results([DiagramResult.compared(pmono_text(m), ok, lhs, rhs)])


def _verify_commute_infinity(args, report):
    family = _family(args.family)
    _guard(args, deg=args.deg, r=max(args.r, args.s))
    _guard(args, r=min(args.r, args.s))
    if args.r == args.s:
        raise InvalidRequest("r = s = %d: [L^(r), L^(s)] vanishes by construction" % args.r)
    if args.pwindow is not None and args.pwindow < 1:
        raise InvalidRequest("pwindow=%d is below the minimum 1" % args.pwindow)
    bindings = _bindings(args, family)
    for m, residual in commutator_on_basis(family, args.r, args.s, args.deg, args.pwindow or args.deg):
        if bindings:
            residual = residual.substitute(bindings)
        report.observe_terms(residual)
        report.record(residual.is_zero(), pmono_text(m), residual.text(), "0")


def _verify_diagram(args, report):
    _symbolic_only(args)
    family = _family(args.family)
    kind = args.kind
    deformed, indexed, _ = DIAGRAM_KINDS[kind]
    unused = [o for o in (("--N",) if deformed else ("--n", "--m")) if getattr(args, o[2:]) is not None]
    if args.i != 1 and not indexed:
        unused.append("--i")
    if unused:
        raise InvalidRequest("%s: not used by kind %s" % (" and ".join(unused), kind))
    _guard(args, N=args.N, r=args.r)
    if not deformed:
        if args.N is None:
            raise InvalidRequest("--N is required for kind %s" % kind)
        parity = ParityData(args.N, 0)
    else:
        if args.n is None or args.m is None:
            raise InvalidRequest("--n and --m are required for kind %s" % kind)
        _guard(args, nm=args.n + args.m)
        parity = _parity(args)
    if indexed and not 1 <= args.i <= parity.size:
        raise InvalidRequest("--i %d is not an index in 1..%d" % (args.i, parity.size))
    testset = standard_testset(with_x=(kind == "dcomm"))
    rep = diagram_check(kind, family, testset, args.r, parity=parity, i=args.i - 1)
    report.notes.append(rep.detail)
    report.record_results(rep.results)


def _verify_deformed(args, report):
    _symbolic_only(args)
    _guard(args, nm=args.n + args.m, r=args.r)
    report.record_results(deformed_check(_parity(args), args.r))


def _verify_lax(args, report):
    family = _family(args.family)
    if family not in (Family.RAT_A, Family.TRIG_A):
        raise InvalidRequest("lax verification applies to rat-a and trig-a")
    _guard(args, nm=args.n + args.m)
    parity = _parity(args)
    bindings = _bindings(args, family)
    if bindings:
        report.notes.append("numeric bindings %s" % {k: v.text() for k, v in sorted(bindings.items())})
    for res in lax_check(family, parity, bindings).results:
        report.record(res.ok, "entry (%d,%d)" % (res.i + 1, res.j + 1), res.residual, "0")


def _verify_moser_integrals(args, report):
    family = _family(args.family)
    _guard(args, nm=args.n + args.m, r=args.r, deg=args.basis_deg)
    cost = (args.n + args.m - 1) * args.r
    if family is Family.TRIG_BC and cost > TRIG_BC_MOSER_COST and not args.unsafe:
        raise InvalidRequest(
            "trig-bc moser-integrals with (n+m-1)*r = %d exceeds the desk-scale cap %d: such a"
            " request can run for minutes (pass --unsafe to override)" % (cost, TRIG_BC_MOSER_COST))
    parity = _parity(args)
    H, integrals, (factor, cst, residual) = moser_integrals(family, parity, args.r, _bindings(args, family))
    if args.basis_deg is None:
        reps, how = commute_checks(integrals, H, "symbolic"), "symbolic"
    else:
        reps = commute_checks(integrals, H, "basis", deg=args.basis_deg)
        how = "basis deg %d" % args.basis_deg
    for r, rep in enumerate(reps, 1):
        report.record(rep.ok, "[e*L^%de, H] %s" % (r, how),
                      rep.counterexamples[0][1] if rep.counterexamples else "", "0")
    ok = residual.is_zero() and cst.is_scalar()
    report.record(ok, "e*L^2e = %s*H + const" % factor.text(), cst.text(), "scalar")
    report.notes.append("hamiltonian factor %s, additive constant %s" % (factor.text(), cst.text()))


def _verify_degenerate_k1(args, report):
    _symbolic_only(args)
    _guard(args, nm=args.n + args.m, r=args.r)
    report.record_results(degenerate_k1_check(_parity(args), args.r))


def _generate_integral(args, report):
    _symbolic_only(args)
    family = _family(args.family)
    _guard(args, deg=args.deg, r=args.r)
    if family.even_integrals:
        if args.r % 2:
            raise InvalidRequest("family %s has even-indexed integrals; --r must be even" % family.value)
        r = args.r // 2
    else:
        r = args.r
    if args.r == 2:
        report.notes.append("closed form: %s" % closed_form_L2(family, args.deg).text())
    for m in pmono_basis(args.deg, args.deg):
        val = integral_L(family, r, LambdaElem.monomial(m))
        report.notes.append("%s -> %s" % (pmono_text(m), val.text()))
        report.checks += 1


# -- argument parsing ----------------------------------------------------------


def _int(default=None, **kwargs) -> dict:
    """The keywords of an int option."""
    return dict(type=int, default=default, **kwargs)


_FAMILY = ("--family", dict(required=True))
_NM = [("--n", _int(required=True)), ("--m", _int(required=True))]

#: The options every command takes, after its own.
_COMMON = [
    ("--format", dict(choices=("text", "json"), default="text")),
    ("--mode", dict(choices=("symbolic", "sampled"), default="symbolic")),
    ("--seed", _int(help="the seed of --mode sampled (default 0)")),
    ("--unsafe", dict(action="store_true", help="lift desk-scale caps")),
    ("--param", dict(action="append", metavar="NAME=VALUE",
                     help="bind a parameter to an exact rational, e.g. k=3/2")),
    ("--no-timing", dict(action="store_true", help="zero the timing field for byte-stable reports")),
]

_GROUPS = {"verify": "machine-verify an identity", "generate": "print operators and integral actions"}

#: Every command, in --help order: (group, command) -> (help, handler, its
#: own options as (name, add_argument keywords)).
_COMMANDS = {
    ("verify", "closed-form"): ("explicit second integral vs E.D^2", _verify_closed_form,
                                [_FAMILY, ("--deg", _int(6))]),
    ("verify", "commute-infinity"): (
        "[L^(r), L^(s)] = 0 on the monomial basis", _verify_commute_infinity,
        [_FAMILY, ("--r", _int(2)), ("--s", _int(3)), ("--deg", _int(4)), ("--pwindow", _int())]),
    ("verify", "diagram"): (
        "commutative-diagram checks", _verify_diagram,
        [_FAMILY, ("--kind", dict(choices=tuple(DIAGRAM_KINDS), default="dcomm")),
         ("--N", _int()), ("--n", _int()), ("--m", _int()),
         ("--i", _int(1, help="distinguished index, 1-based")), ("--r", _int(1))]),
    ("verify", "deformed"): ("deformed recursion and integrals (rational A)", _verify_deformed,
                             _NM + [("--r", _int(3))]),
    ("verify", "lax"): ("[L,H] = [L,M] entrywise", _verify_lax, [_FAMILY] + _NM),
    ("verify", "moser-integrals"): (
        "[e*L^re, H] = 0 and e*L^2e vs H", _verify_moser_integrals,
        [_FAMILY] + _NM + [("--r", _int(2)), ("--basis-deg", _int(
            help="check [e*L^re, H] = 0 on the monomials of degree <= this, an "
                 "independent route to the symbolic commutator (the default)"))]),
    ("verify", "degenerate-k1"): ("k=1 reduction to the undeformed system", _verify_degenerate_k1,
                                  _NM + [("--r", _int(3))]),
    ("generate", "integral"): ("action of the integral on the monomial basis", _generate_integral,
                               [_FAMILY, ("--r", _int(2)), ("--deg", _int(4))]),
}

_HANDLERS = {key: handler for key, (_, handler, _) in _COMMANDS.items()}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process from ``_COMMANDS`` and
    shared: callers such as ``run`` only read it and must not change it."""
    top = argparse.ArgumentParser(prog="dunklcms", description=__doc__.splitlines()[0])
    groups = top.add_subparsers(dest="group", required=True)
    commands = {group: groups.add_parser(group, help=text).add_subparsers(dest="command", required=True)
                for group, text in _GROUPS.items()}
    for (group, command), (text, _, options) in _COMMANDS.items():
        p = commands[group].add_parser(command, help=text)
        for name, kwargs in options + _COMMON:
            p.add_argument(name, **kwargs)
    return top


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    seeded = args.seed is not None
    if not seeded:
        args.seed = 0
    handler = _HANDLERS[(args.group, args.command)]
    request = {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("group", "command", "format", "no_timing") and v is not None
    }
    report = Report(command="%s %s" % (args.group, args.command), request=request)
    t0 = time.perf_counter()
    try:
        if seeded and args.mode != "sampled":
            raise InvalidRequest("--seed is only used with --mode sampled")
        handler(args, report)
        if not report.checks:
            raise InvalidRequest("the request leaves nothing to check")
    except InvalidRequest as exc:
        report.status = "error"
        report.notes.append(str(exc))
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        report.status = "error"
        report.notes.append("%s: %s" % (type(exc).__name__, exc))
    report.timing_ms = 0.0 if args.no_timing else round((time.perf_counter() - t0) * 1000.0, 3)
    try:
        print(report_emit(report, args.format))
        sys.stdout.flush()
    except OSError as exc:  # a report that cannot be written is an error, not a verdict
        if exc.errno == errno.EPIPE:  # so that the interpreter's final flush does not raise
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("dunklcms: cannot write the report: %s" % exc, file=sys.stderr)
        return 2
    return {"verified": 0, "falsified": 1, "error": 2}[report.status]


def main():  # console entry point
    sys.exit(run())


if __name__ == "__main__":
    main()
