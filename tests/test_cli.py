import argparse
import contextlib
import errno
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklcms import _parallel, cli, finite_cms, weyl
from dunklcms.cli import Report, build_parser, report_emit, run
from dunklcms.coeffs import ExponentOverflow, K, Rat, const
from dunklcms.dunkl_infinity import InfDunkl
from dunklcms.finite_cms import Hom, MultiPoly, ParityData
from dunklcms.powersums import Family, LambdaElem, pmono_text
from dunklcms.weyl import RatFun, integral_hamiltonian_factor, integral_vs_hamiltonian


def _raise_value_error_on_3(x):
    if x == 3:
        raise ValueError("item 3")
    return x


def _raise_overflow_on_3(x):
    if x == 3:
        raise ExponentOverflow("item 3")
    return x


def _exit_on_3(x):
    if x == 3:
        os._exit(3)
    return x


class Unpicklable(Exception):
    """Pickles, but cannot be rebuilt: ``args`` lacks the second argument."""

    def __init__(self, text, extra):
        super().__init__(text)


def _raise_unpicklable_on_3(x):
    if x == 3:
        raise Unpicklable("item 3", None)
    return x


def run_cli(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestVerifyCommands:
    def test_lax_verified(self, capsys):
        code, out = run_cli(capsys, "verify", "lax", "--family", "rat-a", "--n", "1", "--m", "1")
        assert code == 0
        assert "verified (4 checks)" in out

    def test_closed_form_json(self, capsys):
        code, out = run_cli(
            capsys, "verify", "closed-form", "--family", "trig-a", "--deg", "3",
            "--format", "json", "--no-timing",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "verified"
        assert payload["counterexamples"] == []
        assert payload["timing_ms"] == 0.0
        # stable keys round-trip
        assert json.loads(json.dumps(payload, sort_keys=True)) == payload

    def test_commute_infinity(self, capsys):
        code, out = run_cli(
            capsys, "verify", "commute-infinity", "--family", "rat-b",
            "--r", "1", "--s", "2", "--deg", "2",
        )
        assert code == 0

    def test_diagram(self, capsys):
        code, out = run_cli(
            capsys, "verify", "diagram", "--family", "trig-bc", "--kind", "dcomm",
            "--N", "2", "--r", "1",
        )
        assert code == 0

    def test_deformed(self, capsys):
        code, out = run_cli(capsys, "verify", "deformed", "--n", "1", "--m", "1", "--r", "2")
        assert code == 0

    def test_moser_integrals_sampled(self, capsys):
        code, out = run_cli(
            capsys, "verify", "moser-integrals", "--family", "rat-a",
            "--n", "1", "--m", "1", "--r", "2", "--mode", "sampled", "--seed", "7",
        )
        assert code == 0

    def test_degenerate_k1(self, capsys):
        code, out = run_cli(capsys, "verify", "degenerate-k1", "--n", "1", "--m", "1", "--r", "1")
        assert code == 0

    def test_explicit_parameter_binding(self, capsys):
        code, out = run_cli(
            capsys, "verify", "closed-form", "--family", "rat-b", "--deg", "3",
            "--param", "k=1", "--param", "q=2/3", "--format", "json", "--no-timing",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["request"]["param"] == ["k=1", "q=2/3"]

    def test_bad_parameter_binding(self, capsys):
        code, out = run_cli(capsys, "verify", "closed-form", "--family", "rat-a",
                            "--param", "z=1")
        assert code == 2

    def test_generate_integral_matches_known_action(self, capsys):
        code, out = run_cli(
            capsys, "generate", "integral", "--family", "trig-a", "--r", "2", "--deg", "2"
        )
        assert code == 0
        assert "closed form:" in out
        # the degree-1 action: (1+k) p1 - k p0 p1
        assert "p1 -> -1*k/1 * p0*p1 + (k+1)/1 * p1" in out


class TestSampledFailures:
    def test_sampled_commute_infinity_reports_residual_at_point(self, capsys, monkeypatch):
        real = cli.commutator_on_basis
        forced = LambdaElem.p(1).scale(K)
        seen = []

        def broken(*args):
            results = real(*args)
            seen.append(results[1][0])
            results[1] = (results[1][0], forced)
            return results

        monkeypatch.setattr(cli, "commutator_on_basis", broken)
        code, out = run_cli(
            capsys, "verify", "commute-infinity", "--family", "trig-a", "--r", "2", "--s", "3",
            "--deg", "3", "--mode", "sampled", "--seed", "11", "--format", "json", "--no-timing",
        )
        payload = json.loads(out)
        at_point = forced.substitute(cli._sample_bindings(Family.TRIG_A, 11))
        assert code == 1 and payload["status"] == "falsified"
        assert payload["counterexamples"] == [
            {"input": pmono_text(seen[0]), "lhs": at_point.text(), "rhs": "0"}]
        assert at_point.text() != forced.text()

    def test_bound_closed_form_reports_both_sides_at_point(self, capsys, monkeypatch):
        real = cli.integral_L
        extra = LambdaElem.p(0).scale(K)

        def broken(family, r, f):
            out = real(family, r, f)
            return out + extra if f == LambdaElem.p(2) else out

        monkeypatch.setattr(cli, "integral_L", broken)
        code, out = run_cli(
            capsys, "verify", "closed-form", "--family", "rat-a", "--deg", "3",
            "--param", "k=3/2", "--format", "json", "--no-timing",
        )
        payload = json.loads(out)
        bindings = {"k": const(Rat(3, 2))}
        f = LambdaElem.p(2)
        assert code == 1 and payload["checks"] == 7
        assert payload["counterexamples"] == [{
            "input": "p2",
            "lhs": real(Family.RAT_A, 2, f).substitute(bindings).text(),
            "rhs": broken(Family.RAT_A, 2, f).substitute(bindings).text(),
        }]


class TestClosedFormVerdicts:
    """``verify closed-form`` compares the canonical sides; with bindings it
    substitutes the closed form's side only where the symbolic sides differ.
    ``cli.integral_L`` is perturbed on p2 by ``extra``."""

    @staticmethod
    def _perturbed(monkeypatch, extra):
        real = cli.integral_L

        def broken(family, r, f):
            out = real(family, r, f)
            return out + extra if f == LambdaElem.p(2) else out

        monkeypatch.setattr(cli, "integral_L", broken)

    def _falsified(self, capsys, *argv):
        code, out = run_cli(capsys, "verify", "closed-form", "--deg", "3", *argv,
                            "--format", "json", "--no-timing")
        payload = json.loads(out)
        assert code == 1 and payload["checks"] == 7
        return payload["counterexamples"]

    def test_symbolic_counterexample_pins_both_sides(self, capsys, monkeypatch):
        self._perturbed(monkeypatch, LambdaElem.p(0).scale(K))
        assert self._falsified(capsys, "--family", "rat-a") == [{
            "input": "p2",
            "lhs": "(2*k+2)/1 * p0 + -2*k/1 * p0^2",
            "rhs": "(3*k+2)/1 * p0 + -2*k/1 * p0^2",
        }]

    def test_sampled_counterexample_pins_both_sides_at_point(self, capsys, monkeypatch):
        self._perturbed(monkeypatch, LambdaElem.p(0).scale(K))
        assert self._falsified(capsys, "--family", "rat-a", "--mode", "sampled", "--seed", "3") == [{
            "input": "p2",
            "lhs": "(249601/38)/1 * p0 + (-249525/38)/1 * p0^2",
            "rhs": "(748727/76)/1 * p0 + (-249525/38)/1 * p0^2",
        }]

    def test_difference_that_vanishes_at_the_point_verifies(self, capsys, monkeypatch):
        # nonzero symbolically, so the closed form's side is substituted too
        self._perturbed(monkeypatch, LambdaElem.p(0).scale(K - const(Rat(3, 2))))
        code, out = run_cli(capsys, "verify", "closed-form", "--family", "rat-a", "--deg", "3",
                            "--param", "k=3/2", "--format", "json", "--no-timing")
        payload = json.loads(out)
        assert code == 0 and payload["status"] == "verified" and payload["checks"] == 7
        assert self._falsified(capsys, "--family", "rat-a")[0]["rhs"] == \
            "(3*k+(1/2))/1 * p0 + -2*k/1 * p0^2"

    def test_no_element_subtraction(self, capsys, monkeypatch):
        calls = []
        real = LambdaElem.__sub__

        def counting(self, other):
            calls.append(other)
            return real(self, other)

        monkeypatch.setattr(LambdaElem, "__sub__", counting)
        code, out = run_cli(capsys, "verify", "closed-form", "--family", "trig-bc", "--deg", "8",
                            "--no-timing")
        assert code == 0 and "verified (67 checks)" in out
        assert calls == []


class TestErrorsAndGuards:
    def test_unknown_family_is_error(self, capsys):
        code, out = run_cli(capsys, "verify", "closed-form", "--family", "nope")
        assert code == 2
        assert "error" in out

    def test_guard_rails(self, capsys):
        code, out = run_cli(capsys, "verify", "closed-form", "--family", "rat-a", "--deg", "30")
        assert code == 2
        assert "desk-scale" in out

    def test_unsafe_lifts_guard(self, capsys):
        code, out = run_cli(
            capsys, "verify", "commute-infinity", "--family", "rat-a",
            "--r", "1", "--s", "2", "--deg", "11", "--unsafe",
        )
        assert code == 0

    def test_generate_odd_power_rejected_for_even_families(self, capsys):
        code, out = run_cli(capsys, "generate", "integral", "--family", "rat-b", "--r", "3")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("verify", "lax", "--family", "rat-a", "--n", "0", "--m", "0"),
        ("verify", "lax", "--family", "rat-a", "--n", "0", "--m", "0", "--mode", "sampled"),
        ("verify", "deformed", "--n", "-1", "--m", "1", "--r", "1"),
        ("verify", "moser-integrals", "--family", "rat-a", "--n", "1", "--m", "1", "--r", "0"),
        ("verify", "moser-integrals", "--family", "rat-a", "--n", "1", "--m", "1", "--r", "1",
         "--basis-deg", "-1"),
        ("verify", "degenerate-k1", "--n", "1", "--m", "-1", "--r", "1"),
        ("generate", "integral", "--family", "rat-a", "--r", "-2"),
        ("generate", "integral", "--family", "rat-b", "--r", "0"),
        ("verify", "closed-form", "--family", "rat-a", "--deg", "-1"),
        ("verify", "commute-infinity", "--family", "rat-a", "--r", "2", "--s", "3", "--deg", "-1"),
        ("verify", "commute-infinity", "--family", "rat-a", "--r", "0", "--s", "3"),
        # both halves of each residual read the same table entry
        ("verify", "commute-infinity", "--family", "rat-a", "--r", "2", "--s", "2", "--deg", "2"),
        ("verify", "commute-infinity", "--family", "rat-a", "--r", "2", "--s", "3", "--pwindow", "-1"),
        ("verify", "diagram", "--family", "rat-a", "--kind", "dcomm", "--N", "0", "--r", "1"),
        ("verify", "diagram", "--family", "rat-a", "--kind", "heckdiag", "--N", "0", "--r", "1"),
        ("verify", "diagram", "--family", "rat-a", "--kind", "dcomm", "--N", "2", "--i", "5"),
        ("verify", "diagram", "--family", "rat-a", "--kind", "dcomm", "--N", "2", "--i", "0"),
        ("verify", "diagram", "--family", "rat-a", "--kind", "propcomm", "--n", "1", "--m", "1",
         "--i", "3"),
        ("verify", "diagram", "--family", "rat-a", "--kind", "intrat", "--n", "0", "--m", "0"),
    ])
    def test_out_of_domain_requests_are_errors(self, capsys, argv):
        code, out = run_cli(capsys, *argv, "--format", "json", "--no-timing")
        payload = json.loads(out)
        assert (code, payload["status"]) == (2, "error"), payload
        assert not any(note.startswith(("IndexError", "ValueError")) for note in payload["notes"])

    @pytest.mark.parametrize("argv, option", [
        (("verify", "diagram", "--family", "rat-a", "--kind", "dcomm", "--N", "3", "--param", "k=0"),
         "--param"),
        (("verify", "diagram", "--family", "rat-a", "--kind", "dcomm", "--N", "2", "--mode", "sampled"),
         "--mode sampled"),
        (("verify", "deformed", "--n", "1", "--m", "1", "--r", "1", "--param", "k=2"), "--param"),
        (("verify", "deformed", "--n", "1", "--m", "1", "--r", "1", "--mode", "sampled"),
         "--mode sampled"),
        (("verify", "degenerate-k1", "--n", "1", "--m", "1", "--r", "1", "--param", "k=5"), "--param"),
        (("verify", "degenerate-k1", "--n", "1", "--m", "1", "--r", "1", "--mode", "sampled"),
         "--mode sampled"),
        (("generate", "integral", "--family", "rat-a", "--r", "2", "--deg", "2", "--param", "k=1"),
         "--param"),
        (("generate", "integral", "--family", "rat-a", "--r", "2", "--deg", "2", "--mode", "sampled"),
         "--mode sampled"),
        # a symbol bound twice, to different values or to the same one
        (("verify", "lax", "--family", "trig-a", "--n", "1", "--m", "1", "--param", "k=2",
          "--param", "k=3"), "--param 'k=3'"),
        (("verify", "moser-integrals", "--family", "trig-bc", "--n", "1", "--m", "0", "--r", "1",
          "--mode", "sampled", "--param", "p=2", "--param", "q=1", "--param", "p=2"), "--param 'p=2'"),
        # a symbol the family's operators do not have
        (("verify", "closed-form", "--family", "rat-a", "--deg", "2", "--param", "q=1"), "--param 'q=1'"),
        (("verify", "lax", "--family", "trig-a", "--n", "1", "--m", "1", "--param", "s=1"),
         "--param 's=1'"),
        (("verify", "commute-infinity", "--family", "rat-b", "--r", "1", "--s", "2", "--deg", "2",
          "--param", "p=1"), "--param 'p=1'"),
        (("verify", "moser-integrals", "--family", "trig-bc", "--n", "1", "--m", "0", "--r", "1",
          "--param", "k=2", "--param", "r=1"), "--param 'r=1'"),
        # a seed without sampled mode, on a symbolic-only check and on one that can sample
        (("verify", "diagram", "--family", "rat-a", "--kind", "dcomm", "--N", "2", "--seed", "3"),
         "--seed"),
        (("verify", "lax", "--family", "rat-a", "--n", "1", "--m", "1", "--seed", "5"), "--seed"),
        # a size or index the diagram kind does not read
        (("verify", "diagram", "--family", "rat-a", "--kind", "heckdiag", "--N", "2", "--i", "2"), "--i"),
        (("verify", "diagram", "--family", "rat-a", "--kind", "heckdiag", "--N", "2", "--n", "1"), "--n"),
        (("verify", "diagram", "--family", "rat-a", "--kind", "dcomm", "--N", "2", "--n", "5", "--m", "3"),
         "--n and --m"),
        (("verify", "diagram", "--family", "rat-a", "--kind", "intrat", "--n", "1", "--m", "1", "--N", "7"),
         "--N"),
        (("verify", "diagram", "--family", "rat-a", "--kind", "intrat", "--n", "1", "--m", "1", "--i", "2"),
         "--i"),
        (("verify", "diagram", "--family", "rat-a", "--kind", "propcomm", "--n", "1", "--m", "1",
          "--N", "2"), "--N"),
    ])
    def test_options_a_check_would_ignore_are_errors(self, capsys, argv, option):
        code, out = run_cli(capsys, *argv, "--format", "json", "--no-timing")
        payload = json.loads(out)
        assert (code, payload["status"], payload["checks"]) == (2, "error", 0), payload
        assert any(option in note for note in payload["notes"]), payload

    def test_param_in_exponent_notation_is_refused(self, capsys):
        # parsed, 1e200000 failed later, on the 200,001-digit text of the bound value
        code, out = run_cli(capsys, "verify", "lax", "--family", "trig-a", "--n", "1", "--m", "1",
                            "--param", "k=1e200000", "--format", "json", "--no-timing")
        payload = json.loads(out)
        assert (code, payload["status"], payload["checks"]) == (2, "error", 0), payload
        assert any("--param" in note and "1e200000" in note for note in payload["notes"]), payload

    def test_huge_exponent_is_refused_before_parsing(self, capsys, monkeypatch):
        # parsing 1e999999999 as a Fraction would not finish
        monkeypatch.setattr(cli, "Rat", lambda value: pytest.fail("%r was parsed" % value))
        code, out = run_cli(capsys, "verify", "moser-integrals", "--family", "rat-a", "--n", "1",
                            "--m", "1", "--r", "1", "--param", "k=1e999999999",
                            "--format", "json", "--no-timing")
        assert code == 2 and "bad --param value" in json.loads(out)["notes"][0]

    def test_long_param_value_is_refused_before_parsing(self, capsys, monkeypatch):
        # parsed, 1/<3,000 nines> ran a check, then failed on the integer
        # conversion of the constant's text, past Python's 4,300 digits
        monkeypatch.setattr(cli, "Rat", lambda value: pytest.fail("%r was parsed" % value[:20]))
        monkeypatch.setattr(cli, "commute_checks", lambda *a, **kw: pytest.fail("a check ran"))
        code, out = run_cli(capsys, "verify", "moser-integrals", "--family", "trig-bc", "--n", "1",
                            "--m", "1", "--r", "1", "--param", "k=1/" + "9" * 3000,
                            "--format", "json", "--no-timing")
        payload = json.loads(out)
        assert (code, payload["status"], payload["checks"]) == (2, "error", 0), payload
        assert payload["notes"] == ["bad --param k=...: 3001 digits exceed the desk-scale cap 100"
                                    " (pass --unsafe to override)"]

    @pytest.mark.parametrize("value, extra", [("1/" + "9" * 99, ()), ("1/" + "9" * 100, ("--unsafe",))])
    def test_param_value_at_the_digit_cap_verifies(self, capsys, value, extra):
        # 100 digits are within the cap; --unsafe lifts it
        code, out = run_cli(capsys, "verify", "moser-integrals", "--family", "trig-bc", "--n", "1",
                            "--m", "1", "--r", "1", "--param", "k=" + value, *extra,
                            "--format", "json", "--no-timing")
        assert code == 0, out

    @pytest.mark.parametrize("value", ["2", "3/2", "1.5", "-0.25"])
    def test_param_forms_that_stay_accepted(self, capsys, value):
        code, out = run_cli(capsys, "verify", "lax", "--family", "trig-a", "--n", "1", "--m", "1",
                            "--param", "k=" + value, "--format", "json", "--no-timing")
        assert (code, json.loads(out)["status"]) == (0, "verified")

    @pytest.mark.parametrize("extra", [(), ("--mode", "sampled"), ("--param", "k=2")])
    def test_lax_size_cap_holds_in_every_mode(self, capsys, extra):
        base = ("verify", "lax", "--family", "rat-a", "--n", "5", "--m", "0", *extra,
                "--format", "json", "--no-timing")
        code, out = run_cli(capsys, *base)
        assert code == 2 and "desk-scale cap" in json.loads(out)["notes"][0]
        if extra:
            assert run_cli(capsys, *base, "--unsafe")[0] == 0

    @pytest.mark.parametrize("mode", ["symbolic", "sampled"])
    def test_request_without_a_seed_echoes_seed_zero(self, capsys, mode):
        base = ("verify", "lax", "--family", "rat-a", "--n", "1", "--m", "1", "--mode", mode,
                "--format", "json", "--no-timing")
        code, out = run_cli(capsys, *base)
        assert code == 0 and json.loads(out)["request"]["seed"] == 0
        if mode == "sampled":  # the default seed is seed 0
            assert run_cli(capsys, *base, "--seed", "0")[1] == out

    def test_smallest_requests_still_verify(self, capsys):
        for argv in (
            ("verify", "lax", "--family", "rat-a", "--n", "1", "--m", "0"),
            ("verify", "closed-form", "--family", "rat-a", "--deg", "0"),
            ("verify", "diagram", "--family", "rat-a", "--kind", "dcomm", "--N", "2", "--i", "2"),
        ):
            code, out = run_cli(capsys, *argv)
            assert code == 0, out

    def test_report_without_checks_is_an_error(self, capsys, monkeypatch):
        from dunklcms import cli

        monkeypatch.setitem(cli._HANDLERS, ("verify", "lax"), lambda args, report: None)
        code, out = run_cli(capsys, "verify", "lax", "--family", "rat-a", "--n", "1", "--m", "1")
        assert code == 2
        assert "error (0 checks)" in out and "nothing to check" in out

    def test_basis_degree_zero_is_honoured(self, capsys, monkeypatch):
        from dunklcms import cli

        calls = []
        real = cli.commute_checks

        def spy(As, B, mode="symbolic", deg=4):
            calls.append((mode, deg))
            return real(As, B, mode, deg)

        monkeypatch.setattr(cli, "commute_checks", spy)
        code, out = run_cli(capsys, "verify", "moser-integrals", "--family", "rat-a", "--n", "1",
                            "--m", "1", "--r", "1", "--basis-deg", "0")
        assert code == 0
        assert calls == [("basis", 0)]

    @pytest.mark.parametrize("family, extra, calls, label", [
        ("trig-bc", (), [("symbolic", 4)], "[e*L^1e, H] symbolic"),
        ("rat-b", (), [("symbolic", 4)], "[e*L^1e, H] symbolic"),
        ("rat-b", ("--basis-deg", "2"), [("basis", 2)], "[e*L^1e, H] basis deg 2"),
    ])
    def test_moser_integrals_route_and_label(self, capsys, monkeypatch, family, extra, calls, label):
        # symbolic for every family unless --basis-deg asks for the basis
        # route, one call for all the integrals of a request; the verdict is
        # then forced to show the check's label
        seen = []
        real = cli.commute_checks

        def spy(As, B, mode="symbolic", deg=4):
            seen.append((mode, deg))
            reps = real(As, B, mode, deg)
            assert [rep.ok for rep in reps] == [True]
            return [type(rep)(rep.mode, False, [("operator", "forced")]) for rep in reps]

        monkeypatch.setattr(cli, "commute_checks", spy)
        code, out = run_cli(capsys, "verify", "moser-integrals", "--family", family, "--n", "1",
                            "--m", "1", "--r", "1", *extra, "--format", "json", "--no-timing")
        assert code == 1
        assert seen == calls
        payload = json.loads(out)
        assert payload["checks"] == 2
        assert [ce["input"] for ce in payload["counterexamples"]] == [label]

    @pytest.mark.parametrize("n, m, r", [(2, 0, 3), (2, 1, 2), (1, 2, 2), (4, 0, 1), (2, 2, 1)])
    @pytest.mark.parametrize("mode", [(), ("--mode", "sampled")])
    def test_trig_bc_moser_integrals_cost_cap(self, capsys, monkeypatch, n, m, r, mode):
        # (n + m - 1) r > 2 is refused in both modes before anything is built
        monkeypatch.setattr(cli, "moser_integrals", None)
        code, out = run_cli(capsys, "verify", "moser-integrals", "--family", "trig-bc", "--n", str(n),
                            "--m", str(m), "--r", str(r), *mode, "--format", "json", "--no-timing")
        payload = json.loads(out)
        assert (code, payload["status"]) == (2, "error")
        assert payload["notes"] == ["trig-bc moser-integrals with (n+m-1)*r = %d exceeds the desk-scale"
                                    " cap 2: such a request can run for minutes (pass --unsafe to override)"
                                    % ((n + m - 1) * r)]

    def test_unsafe_lifts_the_trig_bc_moser_integrals_cost_cap(self, capsys, monkeypatch):
        seen = []

        def stub(family, parity, r, bindings):
            seen.append((family, parity.n, parity.m, r))
            raise RuntimeError("stub build")

        monkeypatch.setattr(cli, "moser_integrals", stub)
        argv = ("verify", "moser-integrals", "--family", "trig-bc", "--n", "2", "--m", "1",
                "--format", "json", "--no-timing")
        code, out = run_cli(capsys, *argv, "--unsafe")
        assert (code, json.loads(out)["notes"]) == (2, ["RuntimeError: stub build"])
        assert seen == [(Family.TRIG_BC, 2, 1, 2)]
        # the other families and the requests inside the cap do not meet it
        for family, n, m, r in (("rat-a", 2, 1, 3), ("trig-a", 3, 1, 2), ("trig-bc", 1, 1, 2),
                                ("trig-bc", 1, 0, 6), ("trig-bc", 3, 0, 1)):
            run_cli(capsys, "verify", "moser-integrals", "--family", family, "--n", str(n),
                    "--m", str(m), "--r", str(r), "--no-timing")
        assert len(seen) == 6


def _report_to(stdout, *argv):
    """A fresh interpreter's ``dunklcms`` run with ``stdout`` as its stdout."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    return subprocess.run([sys.executable, "-m", "dunklcms.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, text=True, timeout=120)


class TestUnwritableReport:
    """A verified check whose report cannot be written exits 2 (error), never
    1 (falsified), with a one-line note on stderr and no traceback."""

    ARGV = ("verify", "lax", "--family", "rat-a", "--n", "1", "--m", "1")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device(self):
        with open("/dev/full", "w") as full:
            done = _report_to(full, *self.ARGV)
        assert done.returncode == 2
        assert done.stderr.splitlines() == ["dunklcms: cannot write the report: [Errno %d] %s"
                                            % (errno.ENOSPC, os.strerror(errno.ENOSPC))]

    def test_pipe_with_its_read_end_closed(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = _report_to(write_end, *self.ARGV)
        finally:
            os.close(write_end)
        assert done.returncode == 2
        assert done.stderr.splitlines() == ["dunklcms: cannot write the report: [Errno %d] %s"
                                            % (errno.EPIPE, os.strerror(errno.EPIPE))]

    def test_written_report_exits_by_its_status(self):
        done = _report_to(subprocess.PIPE, *self.ARGV, "--no-timing")
        assert (done.returncode, done.stderr) == (0, "")
        assert "verified" in done.stdout


class TestMoserIntegralBindings:
    """The last check of ``moser-integrals`` runs at the bound parameter point."""

    def test_param_reports_the_constant_at_that_point(self, capsys):
        # symbolically the constant is -(k + 1)/4, which is -5/8 at k = 3/2
        code, out = run_cli(capsys, "verify", "moser-integrals", "--family", "trig-a", "--n", "1",
                            "--m", "1", "--r", "1", "--param", "k=3/2", "--format", "json",
                            "--no-timing")
        assert code == 0
        assert json.loads(out)["notes"] == ["hamiltonian factor 1/1, additive constant (-5/8)/1"]

    @pytest.mark.parametrize("family, n, m", [("trig-a", 2, 1), ("rat-b", 1, 1), ("trig-bc", 2, 0)])
    def test_sampled_verdicts_and_check_counts_are_unchanged(self, capsys, family, n, m):
        args = ("verify", "moser-integrals", "--family", family, "--n", str(n), "--m", str(m),
                "--r", "2", "--format", "json", "--no-timing")
        _, symbolic = run_cli(capsys, *args)
        _, sampled = run_cli(capsys, *args, "--mode", "sampled", "--seed", "5")
        symbolic, sampled = json.loads(symbolic), json.loads(sampled)
        assert symbolic["status"] == sampled["status"] == "verified"
        assert symbolic["checks"] == sampled["checks"] == 3
        # the sampled constant is the symbolic one at the sampled point
        parity = ParityData(n, m)
        bindings = cli._sample_bindings(Family(family), 5)
        _, cst, _ = integral_vs_hamiltonian(Family(family), parity)
        factor = integral_hamiltonian_factor(Family(family)).text()
        assert sampled["notes"] == ["hamiltonian factor %s, additive constant %s"
                                    % (factor, cst.substitute(bindings).text())]


class TestMoserOneBuild:
    """``moser-integrals`` builds L, H and the row e*L once, at the request's
    parameter point, and takes every order of e*L^re from one row iteration."""

    @pytest.mark.parametrize("family, n, m, r, compositions", [
        ("rat-a", 2, 1, 3, 21),  # 18 for the row iteration, 3 for H; 42 when each order was rebuilt
        ("trig-bc", 1, 1, 1, 18),  # 16 and 2; 36
    ])
    def test_one_build_per_request(self, capsys, monkeypatch, family, n, m, r, compositions):
        calls = {"compose": 0, "moser_L": 0, "_hamiltonian_parts": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(weyl.WeylOp, "compose", counting("compose", weyl.WeylOp.compose))
        for name in ("moser_L", "_hamiltonian_parts"):
            monkeypatch.setattr(weyl, name, counting(name, getattr(weyl, name)))
        code, out = run_cli(capsys, "verify", "moser-integrals", "--family", family, "--n", str(n),
                            "--m", str(m), "--r", str(r), "--no-timing")
        assert code == 0, out
        assert calls["compose"] <= compositions, calls
        assert (calls["moser_L"], calls["_hamiltonian_parts"]) == (1, 1), calls

    @pytest.mark.parametrize("family", ["rat-a", "trig-a"])
    @pytest.mark.parametrize("n, m, status, checks", [(1, 1, "verified", 3), (2, 1, "verified", 3),
                                                      (1, 2, "error", 0)])
    def test_k_zero_outcomes(self, capsys, family, n, m, status, checks):
        # the weights k^-p(i) of e* cancel inside the row e*L, so k = 0 stays
        # inside the domain of L and e*L; at (1, 2) H has the pair coupling
        # 2 (1/k + 1) of two particles of the second species
        code, out = run_cli(capsys, "verify", "moser-integrals", "--family", family, "--n", str(n),
                            "--m", str(m), "--param", "k=0", "--format", "json", "--no-timing")
        payload = json.loads(out)
        assert (code, payload["status"], payload["checks"]) == ({"verified": 0, "error": 2}[status],
                                                                status, checks), payload
        if status == "error":
            assert payload["notes"] == ["DenominatorVanishes: denominator vanishes under substitution"]


class TestDeformedWork:
    """The deformed recursion divides each pair's difference once per level."""

    def test_each_pair_divided_once(self, capsys, monkeypatch):
        # (d_i - d_j)/(x_i - x_j) is symmetric in i and j: 120 divisions at
        # (2, 2), r = 4, when each ordered pair divided its own difference
        monkeypatch.delenv("DUNKLCMS_WORKERS", raising=False)
        calls = []
        original = finite_cms._root_quotient
        monkeypatch.setattr(finite_cms, "_root_quotient", lambda g, f: calls.append(1) or original(g, f))
        code, out = run_cli(capsys, "verify", "deformed", "--n", "2", "--m", "2", "--r", "4", "--no-timing")
        assert code == 0, out
        assert len(calls) <= 60


class TestDegenerateK1Work:
    """``verify degenerate-k1`` forms each image and each k = 1 Heckman
    integral once, for both of its routes."""

    def test_each_reference_once(self, capsys, monkeypatch):
        # the recursion route and the Moser route compare with the same k = 1
        # Heckman integral of the same image: 4 images and R x 4 integrals at
        # R = 3, where forming them per check made 24 of each
        calls = {"heckman_integral": 0, "Hom.apply": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(weyl, "heckman_integral", counting("heckman_integral", weyl.heckman_integral))
        monkeypatch.setattr(Hom, "apply", counting("Hom.apply", Hom.apply))
        code, out = run_cli(capsys, "verify", "degenerate-k1", "--n", "1", "--m", "1", "--r", "3",
                            "--no-timing")
        assert code == 0, out
        assert "verified (24 checks)" in out
        assert calls == {"heckman_integral": 12, "Hom.apply": 4}, calls


#: The README's CLI examples with a sha256 prefix of their verdict: status,
#: checks, counterexamples and notes, as ``perfbench``'s ``Verdict.digest``
#: hashes them; ``stats`` and ``timing_ms`` are left out, so that counters
#: may be added without changing a verdict.
README_VERDICTS = [
    ("verify closed-form --family rat-a --deg 8", "1b1e9eb69d5d564d"),
    ("verify commute-infinity --family trig-a --r 2 --s 3 --deg 6", "a65039dcf19cb264"),
    ("verify diagram --family rat-b --kind dcomm --N 3 --i 1 --r 2", "382ea9200e205324"),
    ("verify deformed --n 2 --m 1 --r 3", "7d3e227252a6bb8c"),
    ("verify lax --family trig-a --n 1 --m 1", "d3a71e7556c6b1b8"),
    ("verify moser-integrals --family trig-bc --n 1 --m 1 --r 1", "a97eb36001cf58f6"),
    ("verify degenerate-k1 --n 1 --m 1 --r 3", "c61f2d1da2801a74"),
    ("generate integral --family trig-a --r 2 --deg 4", "2e5ee1df1ba2f576"),
]


class TestDeterminism:
    @pytest.mark.parametrize("command, digest", README_VERDICTS)
    def test_readme_examples_keep_their_verdicts(self, capsys, command, digest):
        code, out = run_cli(capsys, *command.split(), "--format", "json", "--no-timing")
        p = json.loads(out)
        verdict = json.dumps([p["status"], p["checks"], p["counterexamples"], p["notes"]],
                             sort_keys=True, separators=(",", ":"))
        assert code == 0
        assert hashlib.sha256(verdict.encode()).hexdigest()[:16] == digest

    def test_byte_identical_reports(self, capsys):
        args = (
            "verify", "commute-infinity", "--family", "trig-a", "--r", "2", "--s", "3",
            "--deg", "3", "--mode", "sampled", "--seed", "11",
            "--format", "json", "--no-timing",
        )
        _, out1 = run_cli(capsys, *args)
        _, out2 = run_cli(capsys, *args)
        assert out1 == out2

    def test_seed_changes_sampled_values(self, capsys):
        base = ("verify", "lax", "--family", "rat-a", "--n", "1", "--m", "1",
                "--mode", "sampled", "--format", "json", "--no-timing")
        _, out1 = run_cli(capsys, *base, "--seed", "1")
        _, out2 = run_cli(capsys, *base, "--seed", "2")
        assert json.loads(out1)["status"] == json.loads(out2)["status"] == "verified"
        assert out1 != out2


class TestWorkerPool:
    def test_worker_count_does_not_change_output(self, capsys, monkeypatch):
        args = ("verify", "commute-infinity", "--family", "rat-a", "--r", "2", "--s", "3",
                "--deg", "4", "--format", "json", "--no-timing")
        _, serial = run_cli(capsys, *args)
        monkeypatch.setenv("DUNKLCMS_WORKERS", "2")
        _, parallel = run_cli(capsys, *args)
        assert serial == parallel

    def test_basis_mode_with_workers_matches_serial(self, capsys, monkeypatch):
        # the operators reach the workers through the fork; the residuals
        # come back pickled
        args = ("verify", "moser-integrals", "--family", "rat-b", "--n", "1", "--m", "1",
                "--r", "1", "--basis-deg", "2", "--format", "json", "--no-timing")
        _, serial = run_cli(capsys, *args)
        monkeypatch.setenv("DUNKLCMS_WORKERS", "2")
        _, parallel = run_cli(capsys, *args)
        assert serial == parallel
        assert json.loads(serial)["status"] == "verified"

    def test_worker_count_is_clamped(self, monkeypatch):
        monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 3)
        for value, expected in (("100000", 3), ("2", 2), ("0", 1), ("-5", 1), ("lots", 1)):
            monkeypatch.setenv("DUNKLCMS_WORKERS", value)
            assert _parallel.worker_count() == expected
        monkeypatch.delenv("DUNKLCMS_WORKERS")
        assert _parallel.worker_count() == 1
        monkeypatch.undo()
        monkeypatch.setenv("DUNKLCMS_WORKERS", "100000")
        assert 1 <= _parallel.worker_count() <= _parallel._usable_cpus()

    def test_pool_is_no_larger_than_the_items(self, monkeypatch):
        forks = []
        real_fork = _parallel.os.fork

        def counting_fork():
            pid = real_fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(_parallel.os, "fork", counting_fork)
        monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 64)
        monkeypatch.setenv("DUNKLCMS_WORKERS", "100000")
        assert _parallel.ordered_map(abs, [-1, 2, -3]) == [1, 2, 3]
        assert len(forks) == 3
        assert _parallel.ordered_map(abs, [-4]) == [4]
        assert len(forks) == 3
        # uneven strided shares come back in input order; the function
        # reaches the children through the fork, so it need not pickle
        monkeypatch.setenv("DUNKLCMS_WORKERS", "2")
        assert _parallel.ordered_map(lambda x: x * x, range(-3, 4)) == [9, 4, 1, 0, 1, 4, 9]
        assert len(forks) == 5

    @pytest.mark.parametrize("fn, error", [
        (_raise_value_error_on_3, ValueError),
        (_raise_overflow_on_3, ExponentOverflow),
        (_exit_on_3, RuntimeError),
        (_raise_unpicklable_on_3, RuntimeError),
    ])
    def test_worker_failures_reach_the_parent(self, monkeypatch, fn, error):
        monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 2)
        monkeypatch.setenv("DUNKLCMS_WORKERS", "2")
        with pytest.raises(error) as caught:
            _parallel.ordered_map(fn, range(6))
        if fn is _raise_unpicklable_on_3:
            assert "Unpicklable('item 3')" in str(caught.value)
        with pytest.raises(ChildProcessError):  # every child was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_without_fork_every_map_is_serial(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        monkeypatch.setenv("DUNKLCMS_WORKERS", "2")
        monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 4)
        assert _parallel.worker_count() == 1
        assert _parallel.ordered_map(abs, [-1, 2, -3]) == [1, 2, 3]

    @pytest.mark.parametrize("extra", [(), ("--mode", "sampled", "--seed", "3")])
    def test_lax_with_workers_matches_serial(self, capsys, monkeypatch, extra):
        args = ("verify", "lax", "--family", "trig-a", "--n", "2", "--m", "2", *extra,
                "--format", "json", "--no-timing")
        _, serial = run_cli(capsys, *args)
        monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 2)
        monkeypatch.setenv("DUNKLCMS_WORKERS", "2")
        _, parallel = run_cli(capsys, *args)
        assert serial == parallel
        assert json.loads(serial)["status"] == "verified"

    def test_serial_run_does_not_import_the_pool(self):
        # a fresh interpreter: a request that reaches ordered_map loads
        # neither concurrent.futures nor multiprocessing, serial or forked
        argv = ["verify", "commute-infinity", "--family", "rat-a", "--r", "2", "--s", "3",
                "--deg", "4", "--no-timing"]
        code = ("import contextlib, io, sys\n"
                "from dunklcms import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    status = cli.run(%r)\n"
                "print(status, 'dunklcms._parallel' in sys.modules,\n"
                "      'concurrent.futures' in sys.modules, 'multiprocessing' in sys.modules)" % argv)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        for workers in (None, "2"):
            env.pop("DUNKLCMS_WORKERS", None)
            if workers:
                env["DUNKLCMS_WORKERS"] = workers
            done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, timeout=120, check=True)
            assert done.stdout.split() == ["0", "True", "False", "False"], workers


def count_text_calls(monkeypatch) -> list:
    """Record every ``text()`` of an x-polynomial or a rational function."""
    calls = []
    for cls in (MultiPoly, RatFun):
        original = cls.text

        def counting(self, original=original):
            calls.append(type(self).__name__)
            return original(self)
        monkeypatch.setattr(cls, "text", counting)
    return calls


def bumped(fn, c):
    """``fn`` with the constant c added to its polynomial result."""
    def wrapper(*args):
        out = fn(*args)
        return out + MultiPoly.const(out.nvars, const(c))
    return wrapper


class TestCounterexampleText:
    """The sides' text is built for counterexamples only, and is the same."""

    @pytest.mark.parametrize("argv", [
        ["verify", "diagram", "--family", "rat-a", "--kind", "heckdiag", "--N", "2", "--r", "2"],
        ["verify", "diagram", "--family", "trig-bc", "--kind", "dcomm", "--N", "2", "--r", "1"],
        ["verify", "diagram", "--family", "rat-a", "--kind", "intrat", "--n", "1", "--m", "1"],
        ["verify", "deformed", "--n", "1", "--m", "1", "--r", "2"],
        ["verify", "degenerate-k1", "--n", "1", "--m", "1", "--r", "1"],
    ])
    def test_verified_requests_build_no_text(self, capsys, monkeypatch, argv):
        calls = count_text_calls(monkeypatch)
        code, _ = run_cli(capsys, *argv)
        assert code == 0
        assert calls == []

    def test_falsified_diagram_shows_both_sides(self, capsys, monkeypatch):
        real = finite_cms.heckman_integral
        monkeypatch.setattr(finite_cms, "heckman_integral", bumped(real, 1))
        code, out = run_cli(capsys, "verify", "diagram", "--family", "rat-a", "--kind", "heckdiag",
                            "--N", "2", "--r", "1", "--format", "json", "--no-timing")
        payload = json.loads(out)
        assert code == 1 and payload["checks"] == 3
        hom = Hom(Family.RAT_A, ParityData(2, 0))
        op = InfDunkl(Family.RAT_A)
        expected = []
        for label, f in finite_cms.standard_testset(with_x=False):
            f = f.to_lambda()
            rhs = real(Family.RAT_A, 2, 1, hom.apply(f)) + MultiPoly.const(2, const(1))
            expected.append({"input": label, "lhs": hom.apply(op.integral(1, f)).text(), "rhs": rhs.text()})
        assert payload["counterexamples"] == expected

    def test_falsified_deformed_commutator_shows_both_sides(self, capsys, monkeypatch):
        real = finite_cms.deformed_integral
        broken = bumped(real, 1)
        monkeypatch.setattr(finite_cms, "deformed_integral", lambda parity, r, f: broken(parity, r, f)
                            if r == 3 else real(parity, r, f))
        code, out = run_cli(capsys, "verify", "deformed", "--n", "1", "--m", "1", "--r", "1",
                            "--format", "json", "--no-timing")
        payload = json.loads(out)
        assert code == 1
        parity = finite_cms.ParityData(1, 1)
        g = Hom(Family.RAT_A, parity).apply(LambdaElem.p(1))
        lhs = real(parity, 2, broken(parity, 3, g))
        rhs = broken(parity, 3, real(parity, 2, g))
        assert lhs != rhs
        assert {"input": "[L2,L3] on p1", "lhs": lhs.text(), "rhs": rhs.text()} in payload["counterexamples"]

    def test_falsified_degenerate_reduction_shows_both_sides(self, capsys, monkeypatch):
        monkeypatch.setattr(weyl, "heckman_integral", bumped(weyl.heckman_integral, 1))
        code, out = run_cli(capsys, "verify", "degenerate-k1", "--n", "1", "--m", "1", "--r", "1",
                            "--format", "json", "--no-timing")
        payload = json.loads(out)
        assert code == 1 and payload["checks"] == 8
        by_input = {ce["input"]: ce for ce in payload["counterexamples"]}
        assert set(by_input) == {"%s r=1 %s" % (kind, label) for kind in ("recursion", "moser")
                                 for label in ("p1", "p2", "p3", "p1*p2")}
        # p1 -> x1 + x2, whose first integral is 2 on both routes, one of
        # them bumped to 3
        assert by_input["recursion r=1 p1"]["lhs"] == "2/1"
        assert by_input["recursion r=1 p1"]["rhs"] == "3/1"
        assert by_input["moser r=1 p1"]["rhs"] == "3/1"
        assert by_input["moser r=1 p1"]["lhs"] == RatFun(MultiPoly.const(2, const(2))).text()


class TestReportShape:
    def test_parser_is_built_once_and_keeps_no_state(self, capsys):
        assert build_parser() is build_parser()
        code, _ = run_cli(capsys, "verify", "diagram", "--family", "rat-a", "--N", "2")
        assert code == 0
        # a later request does not see the earlier --N
        code, out = run_cli(capsys, "verify", "diagram", "--family", "rat-a")
        assert code == 2 and "--N is required" in out

    def test_falsified_report_emission(self):
        rep = Report(command="verify demo", request={"family": "rat-a"})
        rep.record(False, "p1", "1", "0")
        assert rep.status == "falsified"
        payload = json.loads(rep.to_json())
        assert payload["status"] == "falsified"
        assert payload["counterexamples"][0] == {"input": "p1", "lhs": "1", "rhs": "0"}
        text = report_emit(rep, "text")
        assert "counterexample p1" in text

    def test_timing_nonnegative(self, capsys):
        code, out = run_cli(
            capsys, "verify", "lax", "--family", "rat-a", "--n", "1", "--m", "1",
            "--format", "json",
        )
        assert json.loads(out)["timing_ms"] >= 0

    def test_parser_covers_documented_commands(self):
        parser = build_parser()
        for argv in (
            ["verify", "closed-form", "--family", "rat-a"],
            ["verify", "commute-infinity", "--family", "rat-a"],
            ["verify", "diagram", "--family", "rat-a"],
            ["verify", "deformed", "--n", "1", "--m", "1"],
            ["verify", "lax", "--family", "rat-a", "--n", "1", "--m", "1"],
            ["verify", "moser-integrals", "--family", "rat-a", "--n", "1", "--m", "1"],
            ["verify", "degenerate-k1", "--n", "1", "--m", "1"],
            ["generate", "integral", "--family", "rat-a"],
        ):
            parser.parse_args(argv)

    def test_parser_options_are_frozen(self):
        # the structured option table of every subcommand, in --help order;
        # help texts are compared as strings, not as formatted output, which
        # depends on the Python version and the terminal width
        def subparsers(parser):
            action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
            helps = {c.dest: c.help for c in action._choices_actions}
            return [(name, helps[name], p) for name, p in action.choices.items()]

        table = [
            (group, group_help, command, command_help,
             [(a.option_strings, a.dest, a.default, getattr(a.type, "__name__", None), a.required,
               a.choices, a.help, a.metavar, type(a).__name__)
              for a in cp._actions if not isinstance(a, argparse._HelpAction)])
            for group, group_help, gp in subparsers(build_parser())
            for command, command_help, cp in subparsers(gp)
        ]
        assert table == FROZEN_PARSER


def _store(option, default=None, type_name="int", required=False, choices=None, help=None):
    return (["--" + option], option.replace("-", "_"), default, type_name, required, choices, help,
            None, "_StoreAction")


#: The six options every subcommand takes, after its own.
_COMMON_OPTIONS = [
    _store("format", "text", None, choices=("text", "json")),
    _store("mode", "symbolic", None, choices=("symbolic", "sampled")),
    _store("seed", help="the seed of --mode sampled (default 0)"),
    (["--unsafe"], "unsafe", False, None, False, None, "lift desk-scale caps", None, "_StoreTrueAction"),
    (["--param"], "param", None, None, False, None, "bind a parameter to an exact rational, e.g. k=3/2",
     "NAME=VALUE", "_AppendAction"),
    (["--no-timing"], "no_timing", False, None, False, None,
     "zero the timing field for byte-stable reports", None, "_StoreTrueAction"),
]
_FAMILY_OPTION = _store("family", type_name=None, required=True)
_VERIFY = ("verify", "machine-verify an identity")

#: Every subcommand's options in --help order, with their defaults and help
#: texts; a change to any of them shows here.
FROZEN_PARSER = [
    (*_VERIFY, "closed-form", "explicit second integral vs E.D^2",
     [_FAMILY_OPTION, _store("deg", 6)] + _COMMON_OPTIONS),
    (*_VERIFY, "commute-infinity", "[L^(r), L^(s)] = 0 on the monomial basis",
     [_FAMILY_OPTION, _store("r", 2), _store("s", 3), _store("deg", 4), _store("pwindow")]
     + _COMMON_OPTIONS),
    (*_VERIFY, "diagram", "commutative-diagram checks",
     [_FAMILY_OPTION, _store("kind", "dcomm", None, choices=("dcomm", "heckdiag", "propcomm", "intrat")),
      _store("N"), _store("n"), _store("m"), _store("i", 1, help="distinguished index, 1-based"),
      _store("r", 1)] + _COMMON_OPTIONS),
    (*_VERIFY, "deformed", "deformed recursion and integrals (rational A)",
     [_store("n", required=True), _store("m", required=True), _store("r", 3)] + _COMMON_OPTIONS),
    (*_VERIFY, "lax", "[L,H] = [L,M] entrywise",
     [_FAMILY_OPTION, _store("n", required=True), _store("m", required=True)] + _COMMON_OPTIONS),
    (*_VERIFY, "moser-integrals", "[e*L^re, H] = 0 and e*L^2e vs H",
     [_FAMILY_OPTION, _store("n", required=True), _store("m", required=True), _store("r", 2),
      _store("basis-deg", help="check [e*L^re, H] = 0 on the monomials of degree <= this, an "
                               "independent route to the symbolic commutator (the default)")]
     + _COMMON_OPTIONS),
    (*_VERIFY, "degenerate-k1", "k=1 reduction to the undeformed system",
     [_store("n", required=True), _store("m", required=True), _store("r", 3)] + _COMMON_OPTIONS),
    ("generate", "print operators and integral actions", "integral",
     "action of the integral on the monomial basis",
     [_FAMILY_OPTION, _store("r", 2), _store("deg", 4)] + _COMMON_OPTIONS),
]


# values outside the domain are drawn less often than those inside
_FAMILY = st.sampled_from(["rat-a", "trig-a", "rat-b", "trig-bc", "nope"])
_SIZE = st.sampled_from([1, 2, 1, 2, 0, -1])
#: moser-integrals at r = 2, or on the basis of degree 1, takes seconds on
#: trig BC, so its sizes stop lower
_SMALL = st.sampled_from([1, 1, 0, -1])

#: The options of each subcommand; a drawn None leaves the option out.
_OPTIONS = {
    ("verify", "closed-form"): {"--family": _FAMILY, "--deg": _SIZE},
    ("verify", "commute-infinity"): {"--family": _FAMILY, "--r": _SIZE, "--s": _SIZE, "--deg": _SIZE,
                                     "--pwindow": st.none() | _SIZE},
    ("verify", "diagram"): {"--family": _FAMILY,
                            "--kind": st.sampled_from(["dcomm", "heckdiag", "propcomm", "intrat"]),
                            "--N": st.none() | _SIZE, "--n": st.none() | _SIZE, "--m": st.none() | _SIZE,
                            "--i": _SIZE, "--r": _SIZE},
    ("verify", "deformed"): {"--n": _SIZE, "--m": _SIZE, "--r": _SIZE},
    ("verify", "lax"): {"--family": _FAMILY, "--n": _SIZE, "--m": _SIZE},
    ("verify", "moser-integrals"): {"--family": _FAMILY, "--n": _SMALL, "--m": _SMALL, "--r": _SMALL,
                                    "--basis-deg": st.none() | st.integers(-1, 0)},
    ("verify", "degenerate-k1"): {"--n": _SIZE, "--m": _SIZE, "--r": _SIZE},
    ("generate", "integral"): {"--family": _FAMILY, "--r": _SIZE, "--deg": _SIZE},
}


@st.composite
def cli_requests(draw):
    """An argv in the capped space; an unknown mode is argparse's to reject."""
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    options = {**_OPTIONS[command],
               "--mode": st.sampled_from(["symbolic", "symbolic", "sampled", "sampled", "modular"]),
               "--seed": st.none() | st.integers(0, 3)}
    argv = list(command)
    for name, values in options.items():
        value = draw(values)
        if value is not None:
            argv += [name, str(value)]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        name = draw(st.sampled_from(["k", "p", "q", "r", "s", "z", ""]))
        argv += ["--param", name + "=" + draw(st.sampled_from(["0", "1", "3/2", "-2", "", "x"]))]
    return argv


class TestCliProperty:
    @settings(max_examples=60, deadline=None)
    @given(argv=cli_requests())
    def test_exit_code_and_status_agree(self, argv):
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = run(argv + ["--format", "json", "--no-timing"])
        except SystemExit as exc:  # argparse's own rejection
            assert exc.code == 2 and "modular" in argv, argv
            return
        assert code in (0, 1, 2), argv
        assert {"verified": 0, "falsified": 1, "error": 2}[json.loads(out.getvalue())["status"]] == code, argv
