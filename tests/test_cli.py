import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gspurify
from gspurify.analysis import QUANTITIES
from gspurify.cli import (
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_ORACLE,
    EXIT_PIPE,
    EXIT_USAGE,
    MAX_ROUNDS,
    READS,
    Scenario,
    run_command,
)


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_purify_already_converged(capsys, tmp_path):
    out = tmp_path / "trace.csv"
    code, _, _ = run(capsys, "purify", "--graph", "path", "--n", "4",
                     "--family", "rho-a", "--param", "1.0", "--p", "1", "--out", str(out))
    assert code == EXIT_OK
    text = out.read_text()
    assert "# verdict,converged" in text
    assert text.splitlines()[0] == "round,protocol,F_before,F_after,p_succ,cumulative_expected_cost"
    assert len([ln for ln in text.splitlines() if ln and not ln.startswith(("#", "round"))]) == 0


def test_purify_trace_and_dump(capsys, tmp_path):
    out = tmp_path / "trace.csv"
    dump = tmp_path / "state.csv"
    code, _, _ = run(capsys, "purify", "--graph", "ghz", "--n", "3",
                     "--family", "rho-a", "--param", "0.7", "--schedule", "P1",
                     "--out", str(out), "--dump-final", str(dump))
    assert code == EXIT_OK
    assert "# verdict,converged" in out.read_text()
    assert dump.read_text().startswith("index,a_part,b_part,lambda")


@pytest.mark.parametrize("source", ["flag", "scenario"])
def test_purify_refuses_seed(capsys, tmp_path, source):
    # Every run but oracle-check's is deterministic, so there is no seed to
    # give: argparse refuses the flag, the scenario reader the key.
    scenario = tmp_path / "sc.json"
    scenario.write_text(json.dumps({"seed": 5}))
    given, named = (("--seed", "5"), "--seed") if source == "flag" else (("--scenario", str(scenario)), "seed")
    for command in (("purify", "--r-max", "1"), ("threshold", "--quantity", "fmax"),
                    ("scan", "--quantity", "fmax"), ("compare-bepp",)):
        code, out, err = run(capsys, *command, "--graph", "path", "--n", "4", *given)
        assert code == EXIT_USAGE
        assert out == "" and named in err
    # Also at what was its default.
    code, out, err = run(capsys, "purify", "--graph", "path", "--n", "4", "--r-max", "1", "--seed", "0")
    assert code == EXIT_USAGE
    assert out == "" and "--seed" in err


def test_threshold_restricted_ghz5(capsys):
    code, out, _ = run(capsys, "threshold", "--graph", "ghz", "--n", "5",
                       "--family", "restricted-bitflip", "--quantity", "pmin")
    assert code == EXIT_OK
    header, row = out.strip().splitlines()
    assert header.startswith("graph_kind,N,family,p,quantity,value")
    cells = row.split(",")
    assert cells[0] == "ghz" and cells[1] == "5" and cells[4] == "pmin"
    assert abs(float(cells[5]) - 0.840896) < 1e-3


def test_threshold_without_purified_fixed_point_exits_numeric(capsys):
    # GHZ-3's P1-only fixed point decays at p < 1, so there is no f_min to
    # climb to; the run names p and prints no row.
    code, out, err = run(capsys, "threshold", "--graph", "ghz", "--n", "3", "--family", "rho-a",
                         "--quantity", "fmin", "--p", "0.99")
    assert code == EXIT_NUMERIC
    assert out == "" and "at p=0.99 " in err and "failure plateau" in err


@pytest.mark.parametrize("argv", [
    ("threshold", "--family", "rho-q", "--quantity", "fmax", "--p", "0.9"),
    ("compare-bepp", "--p", "0.9297391"),
], ids=["threshold-fmax", "compare-bepp"])
def test_fmax_on_failure_plateau_exits_numeric(capsys, argv):
    # Path-4 from the pure target settles on the uniform state (F = 1/16)
    # at these p; that plateau is no stationary fidelity to print.
    code, out, err = run(capsys, *argv, "--graph", "path", "--n", "4")
    assert code == EXIT_NUMERIC
    assert out == "" and "failure plateau" in err


def _point(line, command):
    """(N, p) of a `# refused` line or a row (compare-bepp runs path-4)."""
    cells = line.split(",")
    if line.startswith("# refused,"):
        return int(cells[1].removeprefix("N=")), float(cells[2].removeprefix("p="))
    return (4, float(cells[0])) if command == "compare-bepp" else (int(cells[1]), float(cells[3]))


@pytest.mark.parametrize("argv,n_values,p_values,refused", [
    (("scan", "--graph", "path", "--n", "4", "--p-grid", "0.92:0.96:0.02", "--quantity", "fmax",
      "--family", "rho-q"), (4,), (0.92, 0.94, 0.96), {(4, 0.92)}),
    (("compare-bepp", "--graph", "path", "--n", "4", "--p-grid", "0.90:1.0:0.02"), (4,),
     (0.9, 0.92, 0.94, 0.96, 0.98, 1.0), {(4, 0.9), (4, 0.92)}),
    (("scan", "--graph", "path", "--n-grid", "4:8:2", "--p-grid", "0.90:1.0:0.05", "--quantity", "fmax",
      "--family", "rho-q"), (4, 6, 8), (0.9, 0.95, 1.0), {(4, 0.9), (6, 0.9), (8, 0.9)}),
], ids=["scan-p-grid", "compare-bepp", "scan-n-and-p-grid"])
def test_sweep_runs_past_refused_points(capsys, argv, n_values, p_values, refused):
    # Each point of a sweep runs on its own: a refused point becomes a
    # `# refused` line in grid order and a numerical-failure line on stderr,
    # every other point prints the row its single-point run prints, and the
    # run exits 3.
    code, out, err = run(capsys, *argv)
    assert code == EXIT_NUMERIC
    command = argv[0]
    lines = out.splitlines()[1:] if command == "scan" else out.splitlines()  # past scan's version stamp
    assert lines[0].startswith("p,f_max_mepp,bepp_bound" if command == "compare-bepp" else "graph_kind,N,")
    body = lines[1:]
    assert [_point(ln, command) for ln in body] == [(n, p) for n in n_values for p in p_values]
    refusals = [ln for ln in body if ln.startswith("# refused,")]
    assert {_point(ln, command) for ln in refusals} == refused and len(refusals) == len(refused)
    # stderr holds the same refusals, as a single-point run words its one.
    assert err == "".join(f"gspurify: numerical failure: {ln.split(',', 3)[3]}\n" for ln in refusals)
    rows = [ln for ln in body if not ln.startswith("#")]
    for row in rows:
        n, p = _point(row, command)
        if command == "compare-bepp":
            single = ("compare-bepp", "--graph", "path", "--n", str(n), "--p", repr(p))
        else:
            single = ("threshold", "--graph", "path", "--n", str(n), "--family", "rho-q", "--quantity", "fmax",
                      "--p", repr(p))
        code, single_out, _ = run(capsys, *single)
        assert code == EXIT_OK and single_out.splitlines()[1] == row


@pytest.mark.parametrize("p,sides", [("0.9", ["f_max", "bepp_bound"]), ("0.93", ["f_max"])])
def test_compare_bepp_refusal_names_each_side_that_refused(capsys, p, sides):
    # Both sides run at each point, so a refusal says which of them found no
    # fixed point: at 0.93 the bipartite recurrence still settles.
    code, out, err = run(capsys, "compare-bepp", "--graph", "path", "--n", "4", "--p", p)
    assert (code, out) == (EXIT_NUMERIC, "")
    assert err.startswith("gspurify: numerical failure: ") and err.count("\n") == 1
    assert [side for side in ("f_max", "bepp_bound") if f"{side}: " in err] == sides


def test_sweep_with_out_writes_its_refused_lines(capsys, tmp_path):
    out = tmp_path / "bepp.csv"
    code, stdout, _ = run(capsys, "compare-bepp", "--graph", "path", "--n", "4", "--p-grid", "0.92:0.94:0.02",
                          "--out", str(out))
    assert (code, stdout) == (EXIT_NUMERIC, "")
    lines = out.read_text().splitlines()
    assert lines[0] == "p,f_max_mepp,bepp_bound"
    assert lines[1].startswith("# refused,N=4,p=0.92000000000000004,f_max: ")
    assert lines[2].startswith("0.93999999999999995,") and len(lines) == 3
    # No point gave a row: nothing is written.
    code, _, _ = run(capsys, "compare-bepp", "--graph", "path", "--n", "4", "--p-grid", "0.90:0.92:0.02",
                     "--out", str(tmp_path / "none.csv"))
    assert code == EXIT_NUMERIC and not (tmp_path / "none.csv").exists()


def test_compare_bepp_dominates(capsys):
    code, out, _ = run(capsys, "compare-bepp", "--graph", "path", "--n", "4",
                       "--p-grid", "0.96:1.0:0.01")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "p,f_max_mepp,bepp_bound"
    assert len(lines) == 6
    for ln in lines[1:]:
        _, fm, bb = (float(x) for x in ln.split(","))
        assert fm >= bb - 1e-12


def test_scan_deterministic(capsys):
    args = ("scan", "--graph", "ghz", "--n-grid", "2:3", "--family", "rho-a",
            "--quantity", "fmin", "--p", "1")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == EXIT_OK
    lines1 = out1.splitlines()
    assert lines1[0].startswith("# gspurify")  # version stamp
    # bodies are byte-identical, version stamp excluded from the comparison
    assert out1.splitlines()[1:] == out2.splitlines()[1:]
    assert len(out1.strip().splitlines()) == 4


def test_oracle_mismatch_exit_code(capsys, monkeypatch):
    import gspurify.cli as cli
    from gspurify.selfcheck import CheckResult

    monkeypatch.setattr(cli, "run_equivalence_suite",
                        lambda seed=0, full=True: [CheckResult("forced", 1.0, 1e-10)])
    code, out, _ = run(capsys, "oracle-check", "--quick")
    assert code == EXIT_ORACLE
    assert "MISMATCH" in out


def test_usage_errors(capsys):
    code, _, _ = run(capsys, "no-such-command")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "purify", "--graph", "path", "--n", "4", "--p", "1.2")
    assert code == EXIT_USAGE
    assert "p=1.2" in err
    code, _, _ = run(capsys, "threshold", "--graph", "path", "--n", "4")
    assert code == EXIT_USAGE


def test_odd_cycle_graph_file_with_context(capsys, tmp_path):
    gf = tmp_path / "triangle.txt"
    gf.write_text("3 3\n0 1\n1 2\n2 0\n")
    code, _, err = run(capsys, "purify", "--graph", "file", "--graph-file", str(gf))
    assert code == EXIT_USAGE
    assert "odd cycle" in err


def test_numeric_failure_exit(capsys):
    # heavy gate noise collapses the fixed points
    code, _, err = run(capsys, "compare-bepp", "--graph", "path", "--n", "4", "--p", "0.7")
    assert code == EXIT_NUMERIC
    assert "numerical failure" in err


def test_oracle_check_quick(capsys):
    code, out, _ = run(capsys, "oracle-check", "--quick", "--seed", "1")
    assert code == EXIT_OK
    assert "MISMATCH" not in out
    assert "P1 vs dense" in out


def test_scenario_defaults():
    sc = Scenario()
    assert sc.schedule == "P1P2"
    assert sc.eps == 1e-6 and sc.tol == 1e-12 and sc.r_max == 200
    sc.validate()


def test_scenario_roundtrip(capsys, tmp_path):
    # Every field a command reads makes the same run from a scenario file as
    # from its flag. The scenarios of a command together set each field it
    # reads; each sets only fields its graph kind and grids leave read.
    p4 = tmp_path / "p4.txt"
    p4.write_text("4 3\n0 1\n1 2\n2 3\n")
    out = tmp_path / "out.csv"
    grid = {"graph": "grid", "n": 4, "rows": 2, "cols": 2}
    from_file = {"graph": "file", "graph_file": str(p4), "out": str(out)}
    scenarios = {
        "purify": [{"graph": "ghz", "n": 5, "family": "rho-x", "param": 0.8, "p": 0.97},
                   {**grid, "family": "rho-q", "param": 0.9, "p": 0.98, "f_m": 0.01, "schedule": "P1",
                    "eps": 1e-5, "tol": 1e-10, "r_max": 3},
                   {**from_file, "r_max": 2}],
        "threshold": [{**grid, "family": "rho-q", "p": 0.98, "quantity": "fmax"},
                      {**from_file, "family": "rho-x", "p": 0.99, "quantity": "fmax"}],
        "scan": [{"graph": "path", "n_grid": "3:4", "family": "rho-q", "p_grid": "0.97:0.98:0.01",
                  "quantity": "fmax"},
                 {**grid, "family": "rho-q", "p": 0.98, "quantity": "fmax"},
                 {**from_file, "family": "rho-q", "p": 0.98, "quantity": "fmax"}],
        "compare-bepp": [{**grid, "p": 0.97}, {**from_file, "p_grid": "0.97:0.98:0.01"}],
    }
    assert set(scenarios) == set(READS)
    f = tmp_path / "scenario.json"
    for command, cases in scenarios.items():
        assert set().union(*cases) == set(READS[command]), command
        for fields in cases:
            f.write_text(json.dumps(fields))
            flags = [a for key, value in fields.items() for a in (f"--{key.replace('_', '-')}", str(value))]
            runs = []
            for given in (("--scenario", str(f)), flags):
                code, stdout, err = run(capsys, command, *given)
                runs.append((code, stdout, err, out.read_text() if out.exists() else None))
                out.unlink(missing_ok=True)
            assert runs[0][0] == EXIT_OK and (runs[0][1] or runs[0][3]), (command, fields)
            assert runs[0] == runs[1], (command, fields)


@pytest.mark.parametrize("given,named", [
    (("--graph", "torus"), "unknown graph kind 'torus'"),
    (("--family", "rho-z"), "unknown family 'rho-z'"),
    (("--quantity", "pmax"), "unknown quantity 'pmax'"),
], ids=["graph", "family", "quantity"])
def test_unknown_names_refused_alike_from_flag_and_file(capsys, tmp_path, given, named):
    # One rule refuses an unknown graph kind, family or quantity, whether a
    # flag or a scenario file names it.
    f = tmp_path / "scenario.json"
    f.write_text(json.dumps({given[0].removeprefix("--"): given[1]}))
    for source in (given, ("--scenario", str(f))):
        code, out, err = run(capsys, "threshold", *source)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"gspurify: {named}\n"


def test_scenario_validation(capsys, tmp_path):
    # Each file is refused with usage exit 2 and a message naming the fault.
    f = tmp_path / "scenario.json"
    for text, named in (('{"graph": "torus"}', "unknown graph kind 'torus'"),
                        ('{"p": 1.5}', "p=1.5 outside"),
                        ('{"unknown_key": 1}', "unknown scenario keys ['unknown_key']"),
                        ("{not json", ":1:"),
                        ('{"schedule": "P3"}', "schedule 'P3'"),
                        ('{"n": "4"}', "n must be int"),
                        ('{"r_max": true}', "r_max must be int"),
                        ("[1, 2]", "must be a JSON object")):
        f.write_text(text)
        code, out, err = run(capsys, "purify", "--scenario", str(f))
        assert (code, out) == (EXIT_USAGE, ""), text
        assert named in err, text
    # A null field is not given.
    f.write_text(json.dumps({"p": 1, "rows": None}))
    code, out, _ = run(capsys, "purify", "--scenario", str(f))
    assert code == EXIT_OK and out


def test_scenario_file_with_flag_override(capsys, tmp_path):
    f = tmp_path / "sc.json"
    f.write_text(json.dumps({"graph": "ghz", "n": 3, "family": "rho-a", "param": 0.7, "schedule": "P1"}))
    out = tmp_path / "trace.csv"
    code, _, _ = run(capsys, "purify", "--scenario", str(f), "--param", "1.0", "--out", str(out))
    assert code == EXIT_OK
    # flag override: param 1.0 converges in zero rounds
    assert "# verdict,converged" in out.read_text()
    assert "# expected_cost,1" in out.read_text()


@pytest.mark.parametrize("argv,named", [
    (("purify", "--graph", "path", "--n", "40"), "exceed the limit"),
    (("scan", "--graph", "path", "--n-grid", "4:40:36", "--quantity", "fmax", "--p", "1"), "exceed the limit"),
    (("threshold", "--graph", "file", "--graph-file", "{path25}", "--quantity", "fmax", "--p", "1"),
     "exceed the limit"),
    (("purify", "--graph", "grid", "--n", "7"), "cannot hold"),
    (("purify", "--scenario", "{scenario}"), "n must be int"),
    (("purify", "--param", "1.5"), "param=1.5"),
    (("purify", "--param", "-0.1"), "param=-0.1"),
    (("purify", "--family", "rho-a", "--param", "nan"), "param=nan"),
    (("purify", "--eps", "1.5"), "eps=1.5"),
    (("purify", "--tol", "-1"), "tol=-1"),
    (("purify", "--tol", "nan"), "tol=nan"),
    (("purify", "--tol", "inf"), "tol=inf"),
    (("compare-bepp", "--graph", "path", "--n", "4", "--p-grid", "0.98:1.2:0.1"), "p=1.08"),
    (("scan", "--graph", "path", "--quantity", "fmax", "--p-grid", "0:0.5"), "p=0"),
    # Long grids are refused before they are built further; unchecked, the
    # first would hold 2e9 sizes and the second 5e11 p values.
    (("scan", "--graph", "path", "--quantity", "fmax", "--p", "1", "--n-grid", "4:2000000000"),
     "more than 1000 points"),
    (("compare-bepp", "--graph", "path", "--n", "4", "--p-grid", "0.5:1:1e-12"), "more than 1000 points"),
    # default_rng refuses a negative seed; refused here before any check runs.
    (("oracle-check", "--seed", "-1"), "seed=-1"),
], ids=["n-cap", "n-grid-cap", "graph-file-cap", "grid-rows-mismatch", "scenario-field-type",
        "param-above-1", "param-negative", "param-nan", "eps-above-1", "tol-negative", "tol-nan", "tol-inf",
        "p-grid-above-1", "p-grid-at-0", "n-grid-huge", "p-grid-huge", "oracle-seed-negative"])
def test_bad_input_exits_usage(capsys, tmp_path, argv, named):
    # Each is a usage error, refused before any state is built or any
    # search runs; none is a numerical failure.
    path25 = tmp_path / "path25.txt"
    path25.write_text("25 24\n" + "".join(f"{k} {k + 1}\n" for k in range(24)))
    scenario = tmp_path / "sc.json"
    scenario.write_text(json.dumps({"n": "4"}))
    argv = [a.format(path25=path25, scenario=scenario) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""  # refused before any scan row is computed
    assert err.startswith("gspurify: ") and named in err


@pytest.mark.parametrize("source", ["flag", "scenario"])
def test_r_max_capped(capsys, tmp_path, source):
    # A purify trace keeps one row per round, so the round budget is bounded:
    # with --tol 0 an unbounded --r-max grows the trace until memory runs out.
    scenario = tmp_path / "sc.json"
    scenario.write_text(json.dumps({"r_max": MAX_ROUNDS + 1}))
    given = ("--r-max", str(MAX_ROUNDS + 1)) if source == "flag" else ("--scenario", str(scenario))
    code, out, err = run(capsys, "purify", "--graph", "path", "--n", "4", "--tol", "0", *given)
    assert code == EXIT_USAGE
    assert out == "" and f"r-max={MAX_ROUNDS + 1}" in err
    code, out, _ = run(capsys, "purify", "--graph", "path", "--n", "4", "--r-max", str(MAX_ROUNDS))
    assert code == EXIT_OK and "# verdict,converged" in out


@pytest.mark.parametrize("command", [
    ("threshold", "--quantity", "fmax"),
    ("scan", "--quantity", "fmax"),
    ("compare-bepp",),
], ids=["threshold", "scan", "compare-bepp"])
@pytest.mark.parametrize("source", ["flag", "scenario"])
def test_measurement_flips_refused_outside_purify(capsys, tmp_path, command, source):
    # These commands model perfect measurements; a flip rate must not be
    # dropped silently.
    scenario = tmp_path / "sc.json"
    scenario.write_text(json.dumps({"graph": "path", "n": 4, "p": 0.97, "f_m": 0.05}))
    given = ("--f-m", "0.05") if source == "flag" else ("--scenario", str(scenario))
    code, out, err = run(capsys, *command, "--graph", "path", "--n", "4", "--p", "0.97", *given)
    assert code == EXIT_USAGE
    assert out == "" and "--f-m" in err
    # Also at its default: these commands do not read a flip rate at all.
    code, out, err = run(capsys, *command, "--graph", "path", "--n", "4", "--p", "0.97", "--f-m", "0")
    assert code == EXIT_USAGE
    assert out == "" and "--f-m" in err


UNUSED_FLAGS = {  # flag -> (a non-default value, the same as a scenario, the default)
    "--schedule": ("P1", {"schedule": "P1"}, "P1P2"),
    "--r-max": ("1", {"r_max": 1}, "200"),
    "--eps": ("0.3", {"eps": 0.3}, "1e-6"),
    "--tol": ("0.5", {"tol": 0.5}, "1e-12"),
    "--param": ("0.5", {"param": 0.5}, "0.9"),
}


@pytest.mark.parametrize("flag", UNUSED_FLAGS)
@pytest.mark.parametrize("source", ["flag", "scenario"])
def test_unused_fields_refused_outside_purify(capsys, tmp_path, flag, source):
    # threshold, scan and compare-bepp fix their own schedule, stop rule
    # and input state; a value they would ignore is refused instead,
    # at the default as well as away from it.
    value, fields, default = UNUSED_FLAGS[flag]
    scenario = tmp_path / "sc.json"
    scenario.write_text(json.dumps(fields))
    given = (flag, value) if source == "flag" else ("--scenario", str(scenario))
    for command in (("threshold", "--quantity", "fmax"), ("scan", "--quantity", "fmax"), ("compare-bepp",)):
        code, out, err = run(capsys, *command, "--graph", "path", "--n", "4", "--p", "0.97", *given)
        assert code == EXIT_USAGE
        assert out == "" and flag in err
    code, out, err = run(capsys, "compare-bepp", "--graph", "path", "--n", "4", "--p", "0.97", flag, default)
    assert code == EXIT_USAGE
    assert out == "" and flag in err


@pytest.mark.parametrize("argv,named", [
    (("compare-bepp", "--family", "rho-x"), "--family"),
    (("compare-bepp", "--quantity", "fmax"), "--quantity"),
    (("compare-bepp", "--n-grid", "4:5"), "--n-grid"),
    (("threshold", "--quantity", "fmax", "--p-grid", "0.96:0.97:0.01"), "--p-grid"),
    (("threshold", "--quantity", "fmax", "--n-grid", "4:5"), "--n-grid"),
    (("purify", "--quantity", "fmax"), "--quantity"),
    (("purify", "--p-grid", "0.96:0.97:0.01"), "--p-grid"),
    (("purify", "--n-grid", "4:5"), "--n-grid"),
    (("purify", "--family", "restricted-bitflip"), "--family"),
    (("purify", "--scenario", "{scenario}"), "--n-grid"),
    (("threshold", "--scenario", "{bogus}"), "unknown quantity 'bogus'"),
    (("threshold", "--quantity", "fmin", "--family", "rho-q"), "--family"),
    (("threshold", "--quantity", "qmin", "--family", "rho-x"), "--family"),
    (("threshold", "--quantity", "pmin", "--family", "rho-a"), "--family"),
    (("threshold", "--quantity", "fmax", "--family", "rho-a"), "--family"),
    (("scan", "--quantity", "fmax", "--family", "restricted-bitflip"), "--family"),
    (("threshold", "--quantity", "fmax", "--graph", "file", "--graph-file", "{dup}"), "appears more than once"),
], ids=["bepp-family", "bepp-quantity", "bepp-n-grid", "threshold-p-grid", "threshold-n-grid",
        "purify-quantity", "purify-p-grid", "purify-n-grid", "purify-restricted", "purify-scenario-n-grid",
        "scenario-unknown-quantity", "fmin-rho-q", "qmin-rho-x", "pmin-rho-a", "fmax-rho-a",
        "scan-fmax-restricted", "duplicate-edge"])
def test_inputs_a_command_does_not_read_exit_usage(capsys, tmp_path, argv, named):
    # Each command reads a fixed set of fields and each quantity a fixed set
    # of families; anything else is refused before any work, not ignored or
    # reported as a numerical failure.
    scenario = tmp_path / "sc.json"
    scenario.write_text(json.dumps({"n_grid": "4:5"}))
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"quantity": "bogus"}))
    dup = tmp_path / "dup.txt"
    dup.write_text("3 3\n0 1\n1 2\n1 0\n")
    argv = [a.format(scenario=scenario, bogus=bogus, dup=dup) for a in argv]
    code, out, err = run(capsys, *argv, "--p", "0.97")
    assert code == EXIT_USAGE
    assert out == "" and named in err


@pytest.mark.parametrize("argv,named", [
    (("compare-bepp", "--graph", "path", "--n", "4", "--rows", "3", "--cols", "9"), "--rows"),
    (("compare-bepp", "--graph", "file", "--graph-file", "{p4}", "--n", "9"), "--n"),
    (("compare-bepp", "--graph", "path", "--n", "4", "--graph-file", "{p4}"), "--graph-file"),
    (("scan", "--graph", "file", "--graph-file", "{p4}", "--n-grid", "4:6", "--quantity", "fmax", "--p", "1"),
     "--n-grid"),
    (("compare-bepp", "--graph", "path", "--n", "4", "--p", "0.5", "--p-grid", "0.97:0.97"), "--p"),
    (("scan", "--graph", "path", "--n", "5", "--n-grid", "4:6", "--quantity", "fmax", "--p", "1"), "--n"),
    (("scan", "--scenario", "{n_and_grid}", "--quantity", "fmax", "--p", "1"), "--n"),
    (("compare-bepp", "--scenario", "{p_and_grid}"), "--p"),
], ids=["path-rows-cols", "file-n", "path-graph-file", "file-n-grid", "p-with-p-grid", "n-with-n-grid",
        "scenario-n-with-n-grid", "scenario-p-with-p-grid"])
def test_fields_the_graph_or_grid_leaves_unread_exit_usage(capsys, tmp_path, argv, named):
    # A graph kind reads only its own graph fields and a grid replaces its
    # single point; a value the run would ignore is refused, not dropped.
    p4 = tmp_path / "p4.txt"
    p4.write_text("4 3\n0 1\n1 2\n2 3\n")
    n_and_grid = tmp_path / "n.json"
    n_and_grid.write_text(json.dumps({"graph": "path", "n": 5, "n_grid": "4:6"}))
    p_and_grid = tmp_path / "p.json"
    p_and_grid.write_text(json.dumps({"graph": "path", "p": 0.5, "p_grid": "0.97:0.97"}))
    argv = [a.format(p4=p4, n_and_grid=n_and_grid, p_and_grid=p_and_grid) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == "" and f"use {named} (" in err
    code, out, _ = run(capsys, "compare-bepp", "--graph", "file", "--graph-file", str(p4), "--p-grid", "0.97:0.97")
    assert code == EXIT_OK and out


@pytest.mark.parametrize("argv,named", [
    (("threshold", "--p", "0.5"), "--p"),
    (("scan", "--p-grid", "0.5:0.7:0.1"), "--p-grid"),
    (("threshold", "--scenario", "{p}"), "--p"),
    (("scan", "--scenario", "{p_grid}"), "--p-grid"),
], ids=["threshold-p", "scan-p-grid", "scenario-p", "scenario-p-grid"])
def test_pmin_refuses_p(capsys, tmp_path, argv, named):
    # p_min picks its own p values; a given p would be ignored, and a p grid
    # would repeat one search per point.
    for key, value in (("p", 0.5), ("p_grid", "0.5:0.7:0.1")):
        (tmp_path / f"{key}.json").write_text(json.dumps({key: value}))
    argv = [a.format(p=tmp_path / "p.json", p_grid=tmp_path / "p_grid.json") for a in argv]
    code, out, err = run(capsys, *argv, "--graph", "ghz", "--n", "3", "--family", "restricted-bitflip",
                         "--quantity", "pmin")
    assert code == EXIT_USAGE
    assert out == "" and f"--quantity pmin does not use {named} (" in err


@pytest.mark.parametrize("argv,named", [
    (("scan", "--n-grid", "4:6", "--quantity", "fmax", "--p", "1"), "--n-grid"),
    (("compare-bepp", "--n", "10", "--p", "0.97"), "--n 10"),
    (("compare-bepp", "--scenario", "{n10}", "--p", "0.97"), "--n 10"),
], ids=["n-grid", "n", "scenario-n"])
def test_grid_with_cols_refuses_other_sizes(capsys, tmp_path, argv, named):
    # --rows and --cols fix the grid; --n may only restate its size.
    n10 = tmp_path / "n10.json"
    n10.write_text(json.dumps({"n": 10}))
    argv = [a.format(n10=n10) for a in argv]
    code, out, err = run(capsys, *argv, "--graph", "grid", "--rows", "2", "--cols", "3")
    assert code == EXIT_USAGE
    assert out == "" and named in err
    scenario = tmp_path / "grid.json"
    scenario.write_text(json.dumps({"graph": "grid", "n": 6, "rows": 2, "cols": 3, "p": 0.97}))
    code, out, _ = run(capsys, "compare-bepp", "--scenario", str(scenario))
    assert code == EXIT_OK and out


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_table(header: str) -> dict[str, list[list[str]]]:
    """The README table under the given header row: first cell -> per other
    cell, the backquoted names in it (or the bare cell)."""
    lines = README.read_text().splitlines()
    start = next(i for i, ln in enumerate(lines) if ln.startswith(header))
    rows = {}
    for ln in lines[start + 2:]:
        if not ln.startswith("|"):
            break
        first, *rest = (cell.strip() for cell in ln.strip("|").split("|"))
        rows[first.strip("`")] = [re.findall(r"`([^`]+)`", cell) or [cell] for cell in rest]
    return rows


def test_readme_cli_tables_match_the_code():
    # The README's command table and quantity table are the CLI's input
    # contract for readers; they must say what READS and QUANTITIES say.
    text = " ".join(README.read_text().split())
    every = re.search(r"Every command reads (.*?); besides those:", text).group(1)
    every = [flag.removeprefix("--").replace("-", "_") for flag in re.findall(r"`(--[a-z-]+)`", every)]
    commands = _readme_table("| command")
    assert set(commands) == set(READS)
    for command, (flags,) in commands.items():
        assert every + [flag.removeprefix("--").replace("-", "_") for flag in flags] == list(READS[command])
    quantities = _readme_table("| quantity")
    assert set(quantities) == set(QUANTITIES)
    for name, (families, (tolerance,), (reads_p,)) in quantities.items():
        assert families == [f.value for f in QUANTITIES[name].families], name
        assert float(tolerance) == QUANTITIES[name].tolerance, name
        assert reads_p == ("yes" if QUANTITIES[name].reads_p else "no"), name


@pytest.mark.parametrize("argv,path", [
    (("threshold", "--quantity", "fmax", "--graph", "file", "--graph-file", "{missing}"), "{missing}"),
    (("threshold", "--quantity", "fmax", "--graph", "file", "--graph-file", "{tmp}"), "{tmp}"),
    (("threshold", "--quantity", "fmax", "--graph", "file", "--graph-file", "{latin}"), "{latin}"),
    (("purify", "--scenario", "{binary}"), "{binary}"),
    (("purify", "--r-max", "1", "--out", "{nodir}"), "{nodir}"),
    (("purify", "--r-max", "1", "--dump-final", "{nodir}"), "{nodir}"),
], ids=["graph-file-missing", "graph-file-directory", "graph-file-non-ascii", "scenario-non-utf8",
        "out-no-directory", "dump-final-no-directory"])
def test_unusable_files_exit_usage(capsys, tmp_path, argv, path):
    latin = tmp_path / "latin.txt"
    latin.write_bytes("2 1\n0 1 # café\n".encode("latin-1"))
    binary = tmp_path / "sc.json"
    binary.write_bytes(b'{"graph": "path\xff"}')
    names = {"missing": tmp_path / "missing.txt", "tmp": tmp_path, "latin": latin, "binary": binary,
             "nodir": tmp_path / "no-such-dir" / "out.csv"}
    argv = [a.format(**names) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == "" and path.format(**names) in err
    assert not (tmp_path / "no-such-dir").exists()


def test_huge_graph_file_header_exits_at_once(capsys, tmp_path):
    gf = tmp_path / "huge.txt"
    gf.write_text("10000000 0\n")
    t0 = time.perf_counter()
    code, out, err = run(capsys, "threshold", "--graph", "file", "--graph-file", str(gf),
                         "--quantity", "fmax", "--p", "1")
    assert time.perf_counter() - t0 < 1.0  # refused from the header, nothing built
    assert code == EXIT_USAGE
    assert out == "" and "exceed the limit" in err


def test_scan_grid_with_rows_and_cols(capsys):
    code, out, _ = run(capsys, "scan", "--graph", "grid", "--rows", "2", "--cols", "3",
                       "--quantity", "fmax", "--p", "1")
    assert code == EXIT_OK
    assert out.splitlines()[2].startswith("grid,6,")


def test_module_entry_point():
    src = str(Path(gspurify.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-m", "gspurify.cli", "purify", "--r-max", "1"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == EXIT_OK
    lines = proc.stdout.splitlines()
    assert lines[0] == "round,protocol,F_before,F_after,p_succ,cumulative_expected_cost"
    assert lines[1].startswith("1,P1,")
    assert "# verdict,max-rounds" in lines


@pytest.mark.parametrize("argv,named", [
    (("compare-bepp", "--graph", "path", "--n", "4", "--p", "1", "--p-grid", "0.97:0.97"), "--p"),
    (("compare-bepp", "--graph", "file", "--graph-file", "{p4}", "--n", "4"), "--n"),
    (("compare-bepp", "--scenario", "{p_default_and_grid}"), "--p"),
    (("compare-bepp", "--graph", "grid", "--rows", "2", "--cols", "3", "--n", "4", "--p", "0.97"), "--n 4"),
], ids=["p-default-with-p-grid", "file-n-default", "scenario-p-default-with-p-grid", "grid-n-default"])
def test_fields_given_at_their_default_are_refused_where_unread(capsys, tmp_path, argv, named):
    # What a graph kind or a grid leaves unread is refused when given at
    # all, also at the value the run would have had anyway.
    p4 = tmp_path / "p4.txt"
    p4.write_text("4 3\n0 1\n1 2\n2 3\n")
    scenario = tmp_path / "p.json"
    scenario.write_text(json.dumps({"graph": "path", "p": 1.0, "p_grid": "0.97:0.97"}))
    argv = [a.format(p4=p4, p_default_and_grid=scenario) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == "" and named in err


@pytest.mark.parametrize("command,quantity,p_cell", [
    ("threshold", "pmin", ""),
    ("scan", "pmin", ""),
    ("threshold", "fmax", "0.97999999999999998"),
])
def test_threshold_rows_leave_p_empty_where_the_search_picks_p(capsys, command, quantity, p_cell):
    family = "restricted-bitflip" if quantity == "pmin" else "rho-q"
    p = () if quantity == "pmin" else ("--p", "0.98")
    code, out, _ = run(capsys, command, "--graph", "ghz", "--n", "3", "--family", family, "--quantity", quantity, *p)
    assert code == EXIT_OK
    header, row = [ln for ln in out.splitlines() if not ln.startswith("#")]
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["p"] == p_cell and cells["quantity"] == quantity


def test_closed_stdout_exits_quietly():
    # `gspurify ... | head` closes the pipe early; main stops without a
    # traceback and with EXIT_PIPE.
    src = str(Path(gspurify.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.Popen([sys.executable, "-m", "gspurify.cli", "oracle-check", "--quick"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # before the command writes anything
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_PIPE
    assert err == b""
