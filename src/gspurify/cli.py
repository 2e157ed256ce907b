"""Command-line front end: scenarios, sweeps and CSV emission.

The flags are the `Scenario` fields. threshold, scan and compare-bepp sweep
their N and p points: a refused point becomes a `# refused,N=<n>,p=<p>,<why>`
line and the others still run; the CSV is written if any point gave a row.

Exit codes: 0 success, 2 usage or input-file problems (a graph of more than
MAX_QUBITS vertices, an unreadable input file and an unwritable output path
included), 3 numerical failures (bracket or zero-success conditions, or any
refused sweep point), 4 oracle mismatch, 141 standard output closed before
the output was written (as by `| head`).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import typing
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cache

from . import __version__
from .analysis import QUANTITIES, STATE_FAMILIES, Family, _family_state, bepp_bound, f_max, threshold_report
from .errors import DuplicateEdge, GspurifyError, InvalidParam, NoFixedPoint, OddCycle, ParseError, TooLarge
from .graphs import MAX_QUBITS, Graph, GraphKind, parse_graph_text, standard_graph
from .protocol import Protocol, StopRule, iterate
from .selfcheck import run_equivalence_suite

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_ORACLE = 4
EXIT_PIPE = 141  # standard output closed early; 128 + SIGPIPE, as shells report it
# Errors in what the user gave; every other package error is numerical.
USAGE_ERRORS = (ParseError, OddCycle, DuplicateEdge, InvalidParam, TooLarge)

FLOAT_FMT = "{:.17g}"
MAX_GRID_POINTS = 1000  # points a --p-grid or --n-grid may hold
MAX_ROUNDS = 100_000  # a purify trace keeps one row per round


@dataclass
class Scenario:
    """A fully resolved run description: `parse_scenario` builds one from
    the flags and an optional JSON scenario file."""

    graph: str = "path"  # kind name, or "file"
    n: int = 4
    rows: int | None = None
    cols: int | None = None
    graph_file: str | None = None
    family: str = "rho-q"
    param: float = 0.9
    p: float = 1.0
    f_m: float = 0.0
    schedule: str = "P1P2"
    eps: float = 1e-6
    tol: float = 1e-12
    r_max: int = 200
    out: str | None = None
    quantity: str | None = None
    p_grid: str | None = None
    n_grid: str | None = None

    def validate(self) -> None:
        if self.graph not in KIND_READS:
            raise ParseError(f"unknown graph kind {self.graph!r}")
        if self.graph == "file" and not self.graph_file:
            raise ParseError("graph 'file' needs --graph-file")
        for p in self.p_values():  # each grid point as the single p
            if not 0.0 < p <= 1.0:
                raise ParseError(f"p={p} outside (0,1]")
        if not 0.0 <= self.f_m <= 0.5:
            raise ParseError(f"f-m={self.f_m} outside [0,1/2]")
        if not 0.0 <= self.param <= 1.0:
            raise ParseError(f"param={self.param} outside [0,1]")
        if not 0.0 <= self.eps < 1.0:
            raise ParseError(f"eps={self.eps} outside [0,1)")
        if not 0.0 <= self.tol < math.inf:
            raise ParseError(f"tol={self.tol} must be finite and nonnegative")
        if self.family not in {f.value for f in Family}:
            raise ParseError(f"unknown family {self.family!r}")
        if self.quantity is not None and self.quantity not in QUANTITIES:
            raise ParseError(f"unknown quantity {self.quantity!r}")
        _parse_schedule(self.schedule)
        if not 1 <= self.r_max <= MAX_ROUNDS:
            raise ParseError(f"r-max={self.r_max} outside [1,{MAX_ROUNDS}]")

    def p_values(self) -> list[float]:
        """The points of the p grid, or the single p."""
        return _parse_grid(self.p_grid, "p-grid", float) if self.p_grid else [self.p]


@cache
def _field_hints() -> dict[str, type]:
    """Each Scenario field's type hint, for the flags and the file reader."""
    return typing.get_type_hints(Scenario)


def _scenario_fields(text: str, source: str) -> dict:
    """The fields a scenario file sets, each of its field's JSON type."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    if not isinstance(data, dict):
        raise ParseError(f"{source}: a scenario must be a JSON object")
    hints = _field_hints()
    unknown = set(data) - set(hints)
    if unknown:
        raise ParseError(f"{source}: unknown scenario keys {sorted(unknown)}")
    for key, value in data.items():
        allowed = typing.get_args(hints[key]) or (hints[key],)
        if float in allowed:
            allowed += (int,)  # a JSON number without a fraction reads as int
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise ParseError(f"{source}: {key} must be {Scenario.__annotations__[key]}, got {value!r}")
    return data


# The Scenario fields each command reads. The searches fix their own
# schedules, stop rules and input states and model perfect measurements.
_EVERY = ("graph", "n", "rows", "cols", "graph_file", "out")
READS = {
    "purify": _EVERY + ("family", "param", "p", "f_m", "schedule", "eps", "tol", "r_max"),
    "threshold": _EVERY + ("family", "p", "quantity"),
    "scan": _EVERY + ("family", "p", "quantity", "p_grid", "n_grid"),
    "compare-bepp": _EVERY + ("p", "p_grid"),
}
# The graph fields each graph kind reads; a command reads only those of its
# --graph kind.
GRAPH_FIELDS = ("n", "n_grid", "rows", "cols", "graph_file")
KIND_READS = {"ghz": ("n", "n_grid"), "path": ("n", "n_grid"), "ring": ("n", "n_grid"),
              "grid": ("n", "n_grid", "rows", "cols"), "file": ("graph_file",)}
# A grid, once set, replaces its single point.
GRIDS = {"p_grid": "p", "n_grid": "n"}
GRID_ROWS = 2  # the rows of a grid graph not given --rows


@contextmanager
def _user_file(path: str, mode: str = "r", encoding: str = "utf-8"):
    """Open a file named on the command line; failing to open, read, write or
    decode it is a usage error that names the path."""
    try:
        with open(path, mode, encoding=encoding) as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot {'read' if mode == 'r' else 'write'} {path}: {exc}") from None


def parse_scenario(args: argparse.Namespace) -> Scenario:
    """Build a Scenario from a file (if given) with flag overrides on top.

    A field is given when its flag is set or the file sets its key to a
    value other than null. A given field the run would not read is refused
    rather than dropped silently, at any value, and the family must be one
    the command (or its quantity) reads.
    """
    fields = {}
    if args.scenario:
        with _user_file(args.scenario) as fh:
            fields = _scenario_fields(fh.read(), args.scenario)
    fields.update((key, getattr(args, key)) for key in _field_hints() if getattr(args, key) is not None)
    given = {key: value for key, value in fields.items() if value is not None}
    sc = Scenario(**given)
    sc.validate()
    reads = READS[args.command]
    # Each field the run would not read, with what leaves it unread.
    unread = {key: args.command for key in _field_hints() if key not in reads}
    if "quantity" in reads:
        if sc.quantity is None:
            raise ParseError(f"{args.command} needs --quantity ({'|'.join(QUANTITIES)})")
        families, reader = QUANTITIES[sc.quantity].families, f"--quantity {sc.quantity}"
        if not QUANTITIES[sc.quantity].reads_p:
            unread.update(dict.fromkeys(("p", "p_grid"), reader))
    else:
        families, reader = STATE_FAMILIES, args.command
    if "family" in reads and Family(sc.family) not in families:
        raise ParseError(f"{reader} reads --family {'|'.join(f.value for f in families)}, "
                         f"got {sc.family!r}")
    for key in GRAPH_FIELDS:
        if key not in KIND_READS[sc.graph]:
            unread.setdefault(key, f"{args.command} --graph {sc.graph}")
    if sc.graph == "grid" and sc.cols is not None:  # --rows and --cols fix the size
        unread.setdefault("n_grid", f"{args.command} --graph grid with --cols")
        rows = sc.rows if sc.rows is not None else GRID_ROWS
        if "n" in given and sc.n != rows * sc.cols:  # --n may restate the size
            raise ParseError(f"a grid of {rows} rows and {sc.cols} columns has {rows * sc.cols} vertices, "
                             f"not --n {sc.n}")
    for grid, point in GRIDS.items():
        if grid not in unread and getattr(sc, grid) is not None:
            unread.setdefault(point, f"{args.command} with --{grid.replace('_', '-')}")
    for key, reader in unread.items():
        if key in given:
            raise ParseError(f"{reader} does not use --{key.replace('_', '-')} (scenario {key}): "
                             f"leave it out, got {getattr(sc, key)!r}")
    return sc


def _parse_schedule(text: str) -> tuple[Protocol, ...]:
    try:
        rounds = tuple(Protocol(text[i:i + 2]) for i in range(0, len(text), 2))
    except ValueError:
        rounds = ()
    if not rounds:
        raise ParseError(f"schedule {text!r} must be a nonempty string of P1/P2 rounds")
    return rounds


def _resolve_graph(sc: Scenario) -> Graph:
    """The scenario's graph, refused with TooLarge beyond MAX_QUBITS vertices
    before anything of size 2^N is allocated (graph files by their parser)."""
    if sc.graph == "file":
        with _user_file(sc.graph_file, encoding="ascii") as fh:
            return parse_graph_text(fh.read(), source=sc.graph_file)
    if sc.graph == "grid":
        rows = sc.rows if sc.rows is not None else GRID_ROWS
        cols = sc.cols
        if cols is None:
            if rows < 1 or sc.n % rows:
                raise ParseError(f"grid of {rows} rows cannot hold n={sc.n} vertices; give --cols")
            cols = sc.n // rows
        dims = (rows, cols)
    else:
        dims = (sc.n,)
    n = math.prod(dims)
    if n > MAX_QUBITS:
        raise TooLarge(f"{n} vertices exceed the limit of {MAX_QUBITS}: a state holds 2^N coefficients")
    return standard_graph(GraphKind(sc.graph), *dims)


def _parse_grid(spec: str, name: str, num: type) -> list:
    """lo, lo + step, ... up to hi as num (default step 1 for int, hi - lo or 1
    for float); refused at its point past MAX_GRID_POINTS."""
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise ParseError(f"--{name} must be lo:hi[:step], got {spec!r}")
    try:
        lo, hi = num(parts[0]), num(parts[1])
        step = num(parts[2]) if len(parts) == 3 else 1 if num is int else (hi - lo) or 1.0
    except ValueError:
        raise ParseError(f"--{name}: non-{'integer' if num is int else 'numeric'} bound in {spec!r}") from None
    if not (lo <= hi and step > 0):  # a NaN bound or step fails it too
        raise ParseError(f"--{name}: need lo <= hi and step > 0 in {spec!r}")
    grid = []
    x = lo
    while x <= hi + 1e-12:
        if len(grid) == MAX_GRID_POINTS:
            raise ParseError(f"--{name} {spec!r} holds more than {MAX_GRID_POINTS} points")
        grid.append(round(x, 12))
        x += step
    return grid


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with _user_file(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_purify(args) -> int:
    sc = parse_scenario(args)
    g = _resolve_graph(sc)
    s0 = _family_state(g, Family(sc.family), sc.param)
    trace = iterate(s0, _parse_schedule(sc.schedule), sc.p, sc.f_m, StopRule(sc.eps, sc.tol, sc.r_max))
    if args.dump_final:  # first, so that a refused path leaves no trace output behind
        _emit(trace.final_state.to_csv(), args.dump_final)
    lines = [trace.to_csv()]
    lines.append(f"# verdict,{trace.verdict.value}\n")
    lines.append(f"# final_fidelity,{FLOAT_FMT.format(trace.final_fidelity)}\n")
    lines.append(f"# expected_cost,{FLOAT_FMT.format(trace.expected_cost)}\n")
    _emit("".join(lines), sc.out)
    return EXIT_OK


def _threshold_row(sc: Scenario, label: str, g: Graph, p: float) -> str:
    report = threshold_report(g, Family(sc.family), sc.quantity, p)
    p_cell = FLOAT_FMT.format(p) if QUANTITIES[sc.quantity].reads_p else ""  # the search picked its own p
    return (f"{label},{g.n},{report.family},{p_cell},{sc.quantity},{FLOAT_FMT.format(report.value)},"
            f"{FLOAT_FMT.format(report.tolerance)},{report.rounds_used}\n")


def _bepp_row(sc: Scenario, label: str, g: Graph, p: float) -> str:
    """Both sides at p; one refusal names each side with no fixed point."""
    values, refusals = [], []
    for name, side in (("f_max", f_max), ("bepp_bound", bepp_bound)):
        try:
            values.append(side(g, p))
        except NoFixedPoint as exc:
            refusals.append(f"{name}: {exc}")
    if refusals:
        raise NoFixedPoint("; ".join(refusals))
    return ",".join(FLOAT_FMT.format(x) for x in (p, *values)) + "\n"


THRESHOLD_HEADER = "graph_kind,N,family,p,quantity,value,tolerance,rounds_used\n"
# Each sweep command's CSV header and its row for one (graph, p) point.
SWEEPS = {
    "threshold": (THRESHOLD_HEADER, _threshold_row),
    "scan": (f"# gspurify {__version__} scan\n{THRESHOLD_HEADER}", _threshold_row),
    "compare-bepp": ("p,f_max_mepp,bepp_bound\n", _bepp_row),
}


def _cmd_sweep(args) -> int:
    """threshold, scan and compare-bepp: one row per point of the N and p
    grids; a refused point goes to stderr and a `# refused` line."""
    sc = parse_scenario(args)
    header, row = SWEEPS[args.command]
    n_values = _parse_grid(sc.n_grid, "n-grid", int) if sc.n_grid else [sc.n]
    graphs = [_resolve_graph(replace(sc, n=n)) for n in n_values]
    label = sc.graph_file if sc.graph == "file" else sc.graph
    lines, refused = [header], 0
    for g, p in itertools.product(graphs, sc.p_values()):
        try:
            lines.append(row(sc, label, g, p))
        except USAGE_ERRORS:
            raise
        except GspurifyError as exc:
            sys.stderr.write(f"gspurify: numerical failure: {exc}\n")
            lines.append(f"# refused,N={g.n},p={FLOAT_FMT.format(p)},{exc}\n")
            refused += 1
    if len(lines) - 1 > refused:  # at least one point gave a row
        _emit("".join(lines), sc.out)
    return EXIT_NUMERIC if refused else EXIT_OK


def _cmd_oracle_check(args) -> int:
    if args.seed < 0:
        raise ParseError(f"seed={args.seed} must be nonnegative")
    results = run_equivalence_suite(seed=args.seed, full=not args.quick)
    width = max(len(r.name) for r in results)
    ok = True
    for r in results:
        status = "ok" if r.passed else "MISMATCH"
        sys.stdout.write(f"{r.name:<{width}}  max_err={r.max_error:.3e}  tol={r.tolerance:.0e}  {status}\n")
        ok &= r.passed
    return EXIT_OK if ok else EXIT_ORACLE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gspurify",
        description="Recurrence entanglement purification simulator for two-colorable graph states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--scenario", help="JSON scenario file; flags override its values")
        for key, hint in _field_hints().items():  # one flag per Scenario field
            sp.add_argument(f"--{key.replace('_', '-')}", dest=key, type=(typing.get_args(hint) or (hint,))[0],
                            default=None)

    sp = sub.add_parser("purify", help="run one purification trace, emit the trace CSV")
    add_common(sp)
    sp.add_argument("--dump-final", default=None, help="write the final state's coefficients CSV here")
    sp.set_defaults(fn=_cmd_purify)

    for command, help_text in (("threshold", "compute one threshold quantity, emit a CSV row"),
                               ("scan", "threshold/fixed-point grid over N and p"),
                               ("compare-bepp", "stationary fidelity vs the bipartite bound over a p grid")):
        sp = sub.add_parser(command, help=help_text)
        add_common(sp)
        sp.set_defaults(fn=_cmd_sweep)

    sp = sub.add_parser("oracle-check", help="run the dense-oracle equivalence suite")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--quick", action="store_true", help="trimmed random-state counts")
    sp.set_defaults(fn=_cmd_oracle_check)

    return parser


def run_command(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        return args.fn(args)
    except USAGE_ERRORS as exc:
        sys.stderr.write(f"gspurify: {exc}\n")
        return EXIT_USAGE
    except GspurifyError as exc:
        sys.stderr.write(f"gspurify: numerical failure: {exc}\n")
        return EXIT_NUMERIC


def main() -> None:
    try:
        code = run_command(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (`| head`). Point stdout at /dev/null so that
        # the flush at exit does not fail again, and stop quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
