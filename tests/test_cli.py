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
from gspurify.errors import ParseError


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
    # heavy gate noise collapses the bipartite fixed point
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


def test_scenario_roundtrip(tmp_path):
    sc = Scenario(graph="ghz", n=5, family="rho-x", param=0.8, p=0.97)
    text = sc.to_json()
    back = Scenario.from_json(text)
    assert back == sc
    f = tmp_path / "scenario.json"
    f.write_text(text)
    sc2 = Scenario.from_json(f.read_text(), source=str(f))
    assert sc2 == sc


def test_scenario_validation():
    with pytest.raises(ParseError):
        Scenario.from_json(json.dumps({"graph": "torus"}))
    with pytest.raises(ParseError):
        Scenario.from_json(json.dumps({"p": 1.5}))
    with pytest.raises(ParseError):
        Scenario.from_json(json.dumps({"unknown_key": 1}))
    with pytest.raises(ParseError, match=":1:"):
        Scenario.from_json("{not json")
    with pytest.raises(ParseError):
        Scenario.from_json(json.dumps({"schedule": "P3"}))
    with pytest.raises(ParseError, match="n must be int"):
        Scenario.from_json(json.dumps({"n": "4"}))
    with pytest.raises(ParseError):
        Scenario.from_json(json.dumps({"r_max": True}))
    with pytest.raises(ParseError):
        Scenario.from_json(json.dumps([1, 2]))
    assert Scenario.from_json(json.dumps({"p": 1, "rows": None})).p == 1


def test_scenario_file_with_flag_override(capsys, tmp_path):
    f = tmp_path / "sc.json"
    f.write_text(Scenario(graph="ghz", n=3, family="rho-a", param=0.7, schedule="P1").to_json())
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
    scenario.write_text(Scenario(graph="grid", n=6, rows=2, cols=3, p=0.97).to_json())
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


def test_scenario_json_holds_only_what_it_sets():
    sc = Scenario(graph="grid", n=6, rows=2, cols=3, p=0.97)
    assert json.loads(sc.to_json()) == {"graph": "grid", "n": 6, "rows": 2, "cols": 3, "p": 0.97}
    assert Scenario.from_json(sc.to_json()) == sc


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
