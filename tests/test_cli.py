import argparse
import hashlib
import json
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import unitred.cli as cli
from unitred.cli import build_parser, main, run
from unitred.errors import (
    BudgetError,
    ConductorError,
    DegreeError,
    FieldMismatchError,
    NotTotallyPositiveError,
    VerificationError,
)
from unitred.serialize import dumps_canonical
from unitred.witness import Eq4Report


def test_classify_text_and_payload():
    res = run(["classify", "15"])
    assert res.exit_code == 0
    assert "StronglyUR" in res.text
    assert res.payload["kind"] == "classification"
    assert res.payload["verdict"] == "StronglyUR"
    assert res.json_out is False


def test_json_flag_sets_json_out():
    res = run(["classify", "15", "--json"])
    assert res.exit_code == 0
    assert res.json_out is True


def test_bad_conductor_is_exit_2():
    res = run(["classify", "6"])
    assert res.exit_code == 2
    assert "6" in res.error


def test_field_summary():
    res = run(["field", "16"])
    assert res.exit_code == 0
    assert "degree 8" in res.text


def test_table1_row_count():
    res = run(["table1"])
    assert res.exit_code == 0
    assert len(res.payload["rows"]) == 6
    by_n = {r["N"]: r for r in res.payload["rows"]}
    assert by_n[8]["eta"] == "2"
    assert by_n[15]["disc_abs"] == "1265625"


def test_eta_text():
    res = run(["eta", "15"])
    assert res.exit_code == 0
    assert res.payload["value"] == "16"
    assert res.payload["evidence"]["prime"] == 2


def test_shortest_pads_short_element_text():
    # "2" parses as the constant 2 with zero padding up to the degree
    res = run(["shortest", "5", "-a", "2"])
    assert res.exit_code == 0
    assert res.payload["kind"] == "shortest"
    assert res.payload["mu"] == "8"


def test_shortest_rejects_indefinite_form():
    res = run(["shortest", "8", "-a", "0,1,0,0"])  # zeta_8 is not totally real
    assert res.exit_code == 2


@pytest.mark.parametrize("command", ["shortest", "mustar", "reduced"])
def test_element_that_is_not_totally_positive_is_exit_2(command, capsys):
    assert main([command, "5", "-a", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "trace form of <K_5: -1> is indefinite (pivot -4 at index 0)\n"


def test_mustar_and_reduced_roundtrip():
    res = run(["mustar", "5", "-a", "1,0,-1,-1"])
    assert res.exit_code == 0
    assert res.payload["value"] == "4"
    assert res.payload["evidence"]["trace"] == "6"
    res2 = run(["reduced", "5", "-a", "1,0,-1,-1"])
    assert res2.exit_code == 0
    assert res2.payload["value"] is False
    assert "NOT reduced" in res2.text


def test_reduced_text_when_a_is_reduced():
    # the witness at 16: eight non-units, and no unit, lie below Tr(a) = 16
    res = run(["reduced", "16", "-a", "2,-3/2,1,-1/2,0,1/2,-1,3/2"])
    assert res.exit_code == 0
    assert res.payload["value"] is True
    assert res.text == (
        "a is reduced over K_16: no unit goes below Tr(a) = 16 (8 non-unit vectors do)"
    )


def test_bad_element_text_is_exit_2():
    res = run(["mustar", "5", "-a", "1,zebra"])
    assert res.exit_code == 2
    res2 = run(["mustar", "5", "-a", "1,2,3,4,5,6,7"])
    assert res2.exit_code == 2


def test_witness_verify_16_ok():
    res = run(["witness", "16", "--verify"])
    assert res.exit_code == 0
    assert res.payload["status"] == "verified"
    assert res.payload["mu_a"] == "8"
    assert res.payload["ratio"] == "2"


def test_witness_49_refused_exit_3():
    res = run(["witness", "49", "--verify"])
    assert res.exit_code == 3
    assert "dimension 42 exceeds" in res.error


def test_witness_budget_partial_exit_3_with_payload():
    res = run(["witness", "27", "--verify", "--budget", "2000"])
    assert res.exit_code == 3
    assert res.json_out is True
    assert res.payload["status"] == "budget_exceeded"
    assert res.payload["trace_a"] == "54"
    assert "mu_a" not in res.payload


def test_real_witness_quoted_form_disagreement_is_reported():
    res = run(["real", "witness", "32", "--verify"])
    assert res.exit_code == 0
    assert "matches" in res.text
    res2 = run(["real", "witness", "25", "--verify"])
    assert res2.exit_code == 0
    assert "DISAGREES with" in res2.text


@pytest.mark.parametrize("argv", [["real", "witness", "4", "--verify"], ["real", "witness", "8"]])
def test_real_witness_error_names_the_conductor(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"2-power real witness needs 2^n with n >= 4, got {argv[2]}\n"


def test_real_classify():
    res = run(["real", "classify", "32"])
    assert res.exit_code == 0
    assert res.payload["verdict"] == "NotUR"


def test_bare_real_is_exit_2():
    res = run(["real"])
    assert res.exit_code == 2


def test_missing_command_is_exit_2():
    res = run([])
    assert res.exit_code == 2


def test_unknown_command_raises_systemexit_2():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate", "5"])
    assert exc.value.code == 2


def test_check_eq4_needs_divisible_pair():
    res = run(["check-eq4", "5", "12"])
    assert res.exit_code == 2
    res2 = run(["check-eq4", "3", "9", "--trials", "5"])
    assert res2.exit_code == 0
    assert res2.payload["trials"] == 5
    assert res2.payload["passed"] is True


def test_check_eq4_refuses_before_building_a_field():
    # divisibility is tested first: a refused pair builds neither field and
    # takes no slot in make_field's cache (K_19996 alone takes seconds)
    before = cli.make_field.cache_info()
    for small, big in (("3", "19996"), ("3", "19994"), ("12", "19996")):
        res = run(["check-eq4", small, big])
        assert res.exit_code == 2
        assert res.error == f"{small} does not divide {big}"
        assert cli.make_field.cache_info() == before


def test_check_eq4_failure_reports_the_counterexample(monkeypatch):
    trials = []

    def fails_third(a, y):  # lhs != rhs from the third trial on
        trials.append(None)
        rhs = Fraction(1 if len(trials) < 3 else 2)
        return Eq4Report(a.ctx.conductor, y.ctx.conductor, Fraction(1), rhs, 3)

    monkeypatch.setattr(cli, "eq4_check", fails_third)
    res = run(["check-eq4", "3", "9", "--seed", "5"])
    assert res.exit_code == 1
    assert res.json_out is True  # forced on without --json
    assert res.error == "trace-lift identity FAILED at trial 2 (K_3 -> K_9, seed 5)"
    assert res.payload == {
        "kind": "eq4_trials",
        "conductor_small": 3,
        "conductor_big": 9,
        "trials": 25,
        "seed": 5,
        "passed": False,
        "failed_at": 2,
        "counterexample": {
            "kind": "trace_lift_identity",
            "conductor_low": 3,
            "conductor_high": 9,
            "lhs": "1",
            "rhs": "2",
            "components": 3,
            "passed": False,
        },
    }


@pytest.mark.parametrize(
    "exc, code, err",
    [
        (ConductorError("bad conductor"), 2, "bad conductor"),
        (FieldMismatchError("fields differ"), 2, "fields differ"),
        (NotTotallyPositiveError("not positive"), 2, "not positive"),
        (ValueError("singular system"), 2, "singular system"),
        (ValueError("bad value"), 2, "bad value"),
        (ZeroDivisionError("inverse of zero"), 2, "inverse of zero"),
        (DegreeError("degree out of reach"), 3, "degree out of reach"),
        (
            BudgetError("enumeration exceeded node cap 7", nodes=8, results=2),
            3,
            "budget exceeded: enumeration exceeded node cap 7 (nodes 8, results 2); "
            "raise --budget to retry",
        ),
        (VerificationError("chain broke"), 1, "verification failed: chain broke"),
    ],
)
def test_library_errors_map_to_exit_codes(monkeypatch, capsys, exc, code, err):
    def raises(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_eta", raises)
    assert main(["eta", "5"]) == code
    out, got = capsys.readouterr()
    assert out == ""
    assert got == err + "\n"


def test_delta_bound_value():
    res = run(["delta-bound", "25"])
    assert res.exit_code == 0
    assert res.payload["value"] == "5/2"


def test_l75_pass():
    res = run(["l75", "3"])
    assert res.exit_code == 0
    assert res.payload["passed"] is True
    assert res.payload["min_margin"] == 0
    assert res.payload["zero_at_m_zero"] is True


def test_l75_defaults_finish_and_pass():
    # zero counts and wall margins of the default box (radius p); the bound
    # fails if the scan goes back to visiting every point (l75 7 alone then
    # takes about 15 s)
    start = time.perf_counter()
    for p, zeros, wall in ((3, 6, 72), (5, 120, 1100), (7, 5040, 6468)):
        res = run(["l75", str(p)])
        assert res.exit_code == 0
        assert f"box {p}: PASS" in res.text
        assert res.payload["zero_margin_count"] == zeros
        assert res.payload["boundary_min_margin"] == wall
    assert time.perf_counter() - start < 10


def test_seeded_payload_is_byte_deterministic():
    a = run(["check-eq4", "3", "9", "--seed", "77", "--json"])
    b = run(["check-eq4", "3", "9", "--seed", "77", "--json"])
    assert a.exit_code == b.exit_code == 0
    assert dumps_canonical(a.payload) == dumps_canonical(b.payload)
    c = run(["check-eq4", "3", "9", "--seed", "78", "--json"])
    assert dumps_canonical(c.payload) != dumps_canonical(a.payload)


def test_sweep_lines_parse_and_respect_divisor_rule():
    res = run(["sweep", "3..30"])
    assert res.exit_code == 0
    lines = res.text.strip().splitlines()
    seen = {}
    for line in lines:
        rec = json.loads(line)
        n = rec["conductor"]
        seen[n] = rec["verdict"]
        assert n % 4 != 2 and n > 1
    assert seen[15] == "StronglyUR"
    assert seen[8] == "WeaklyUR"
    assert seen[16] == "NotUR"
    assert seen[24] == "Unknown"
    assert 6 not in seen and 10 not in seen
    # no conductor with a non-UR divisor may come out UR
    bad = (16, 25, 27, 13, 17, 19, 23, 29)
    for n, verdict in seen.items():
        if any(n % d == 0 for d in bad):
            assert verdict == "NotUR", n


def test_sweep_to_5000_runs_in_bounded_memory():
    # building and caching a field context per conductor, when each held an
    # N x phi(N) table, took sweep 3..1200 past 2 GB.  The child caps its own
    # address space, so such a regression fails here instead of exhausting memory
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import contextlib, io, resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "from unitred.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    rc = main(['sweep', '3..5000'])\n"
        "with open('/proc/self/status') as f:  # VmHWM: this process's own peak, reset by exec\n"
        "    hwm = next(ln.split()[1] for ln in f if ln.startswith('VmHWM:'))\n"
        "print(rc, len(out.getvalue().splitlines()), hwm)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    rc, lines, max_rss_kb = map(int, proc.stdout.split())
    assert rc == 0
    assert lines == 3749  # the canonical conductors in 3..5000
    assert max_rss_kb < 100 * 1024


def _witness_commands():
    # every error path (ConductorError, ValueError, DegreeError), both budget
    # stops, the closed-form delta bounds and the trace-lift identity on the
    # perfbench pairs
    modes = ([], ["--json"], ["--verify"], ["--verify", "--json"])
    cmds = []
    for n in (1, 3, 4, 5, 7, 8, 9, 11, 12, 13, 16, 25, 27, 32, 49):
        cmds += [["witness", str(n), *m] for m in modes]
    for n in (5, 7, 8, 9, 11, 12, 13, 16, 23, 25, 27, 32, 49, 64):
        cmds += [["real", "witness", str(n), *m] for m in modes]
    for j in ([], ["--json"]):
        cmds.append(["witness", "27", "--verify", "--budget", "1500", *j])
        cmds.append(["real", "witness", "64", "--verify", "--budget", "2000", *j])
    for n in (0, 1, 2, 8, 15, 16, 22, 23, 25, 27, 49, 64, 81, 97, 121, 1024):
        cmds += [["delta-bound", str(n)], ["delta-bound", str(n), "--json"]]
    for n, m in ((5, 25), (8, 32), (9, 27), (7, 49), (15, 45), (3, 81)):
        cmds.append(["check-eq4", str(n), str(m), "--seed", "7", "--json"])
    return cmds


def test_witness_commands_are_byte_identical(capsys):
    # sha256 of [exit code, stdout, stderr] as JSON, per command; the JSON
    # carries nodes_visited, so a scan that visits one node more fails here
    path = Path(__file__).with_name("witness_cli_digests.json")
    expected = json.loads(path.read_text(encoding="utf-8"))
    got = {}
    for argv in _witness_commands():
        code = main(argv)
        out, err = capsys.readouterr()
        blob = json.dumps([code, out, err]).encode()
        got[" ".join(argv)] = hashlib.sha256(blob).hexdigest()
    assert len(got) == 158
    assert got.keys() == expected.keys()
    assert [cmd for cmd in got if got[cmd] != expected[cmd]] == []


# every option of every leaf command, -h aside; --budget sits only on the
# commands that enumerate and --seed only on the one that draws at random
OPTIONS = {
    "field": ["--json"],
    "table1": ["--json"],
    "classify": ["--json"],
    "real classify": ["--json"],
    "real witness": ["--json", "--budget", "--verify"],
    "shortest": ["--json", "--budget", "-a/--element"],
    "mustar": ["--json", "--budget", "-a/--element"],
    "reduced": ["--json", "--budget", "-a/--element"],
    "eta": ["--json"],
    "witness": ["--json", "--budget", "--verify"],
    "delta-bound": ["--json"],
    "check-eq4": ["--json", "--trials", "--seed"],
    "l75": ["--json", "--box"],
    "sweep": [],
}


def _leaves(parser, path=()):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), parser
    for action in subs:
        for name, child in action.choices.items():
            yield from _leaves(child, (*path, name))


def test_each_command_has_exactly_the_options_it_reads():
    got = {
        name: [
            "/".join(a.option_strings)
            for a in p._actions
            if a.option_strings and not isinstance(a, argparse._HelpAction)
        ]
        for name, p in _leaves(build_parser())
    }
    assert got == OPTIONS
    assert sum(map(len, got.values())) == 26


@pytest.mark.parametrize(
    "argv", [["field", "5", "--seed", "1"], ["sweep", "3..5", "--json"]]
)
def test_an_option_the_command_does_not_read_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["witness", "16", "--budget", "1"], ["real", "witness", "64", "--budget", "1", "--json"]]
)
def test_budget_without_verify_is_a_usage_error(argv, capsys):
    # the witness commands enumerate only under --verify, so a budget alone
    # would be ignored; with --verify the same budget stops the scan
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "--budget needs --verify" in capsys.readouterr().err
    res = run([*argv, "--verify"])
    assert res.exit_code == 3
    assert res.payload["status"] == "budget_exceeded"


def _readme_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()]


def test_readme_commands_run(capsys):
    cmds = _readme_commands()
    assert len(cmds) >= 10
    for argv in cmds:
        assert main(argv) == 0, argv
        capsys.readouterr()
