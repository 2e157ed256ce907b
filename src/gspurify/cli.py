"""Command-line front end: scenarios, sweeps and CSV emission.

Exit codes: 0 success, 2 usage or input-file problems (a graph of more than
MAX_QUBITS vertices included), 3 numerical failures (bracket or zero-success
conditions), 4 oracle mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import typing
from dataclasses import asdict, dataclass, replace

from .analysis import (
    Family,
    _family_state,
    bepp_bound,
    f_max,
    threshold_report,
)
from .errors import (
    BadParam,
    BracketError,
    EmptyRegion,
    GspurifyError,
    InvalidParam,
    NoFixedPoint,
    OddCycle,
    ParseError,
    TooLarge,
    ZeroSuccess,
)
from .graphs import MAX_QUBITS, Graph, load_graph, standard_graph_by_name
from .protocol import Protocol, StopRule, iterate
from .selfcheck import run_equivalence_suite

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_ORACLE = 4

FLOAT_FMT = "{:.17g}"


@dataclass
class Scenario:
    """A fully resolved run description, writable to and readable from JSON."""

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
    seed: int = 0
    out: str | None = None
    quantity: str | None = None
    p_grid: str | None = None
    n_grid: str | None = None

    def validate(self) -> None:
        if self.graph != "file" and self.graph not in ("ghz", "path", "ring", "grid"):
            raise ParseError(f"unknown graph kind {self.graph!r}")
        if self.graph == "file" and not self.graph_file:
            raise ParseError("graph 'file' needs --graph-file")
        if not 0.0 < self.p <= 1.0:
            raise ParseError(f"p={self.p} outside (0,1]")
        if not 0.0 <= self.f_m <= 0.5:
            raise ParseError(f"f-m={self.f_m} outside [0,1/2]")
        if self.family not in {f.value for f in Family}:
            raise ParseError(f"unknown family {self.family!r}")
        _parse_schedule(self.schedule)
        if self.r_max < 1:
            raise ParseError(f"r-max={self.r_max} must be positive")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str, source: str = "<string>") -> "Scenario":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
        if not isinstance(data, dict):
            raise ParseError(f"{source}: a scenario must be a JSON object")
        hints = typing.get_type_hints(Scenario)
        unknown = set(data) - set(hints)
        if unknown:
            raise ParseError(f"{source}: unknown scenario keys {sorted(unknown)}")
        for key, value in data.items():
            allowed = typing.get_args(hints[key]) or (hints[key],)
            if float in allowed:
                allowed += (int,)  # a JSON number without a fraction reads as int
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise ParseError(f"{source}: {key} must be {Scenario.__annotations__[key]}, got {value!r}")
        sc = Scenario(**data)
        sc.validate()
        return sc


def parse_scenario(args: argparse.Namespace) -> Scenario:
    """Build a Scenario from a file (if given) with flag overrides on top."""
    sc = Scenario()
    if getattr(args, "scenario", None):
        try:
            with open(args.scenario, "r", encoding="utf-8") as fh:
                sc = Scenario.from_json(fh.read(), source=args.scenario)
        except OSError as exc:
            raise ParseError(f"cannot read scenario file: {exc}") from None
    for key in Scenario().__dict__:
        flag = getattr(args, key, None)
        if flag is not None:
            setattr(sc, key, flag)
    sc.validate()
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
        return load_graph(sc.graph_file)
    if sc.graph == "grid":
        rows = sc.rows if sc.rows is not None else 2
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
    return standard_graph_by_name(sc.graph, *dims)


# Scenario fields that threshold, scan and compare-bepp do not read: their
# searches fix their own schedules, stop rules and input states and model
# perfect measurements. No command reads `seed` (oracle-check has its own
# flag): every run is deterministic.
UNUSED_BY_SEARCHES = ("f_m", "schedule", "r_max", "eps", "tol", "param", "seed")
UNUSED_BY_PURIFY = ("seed",)


def _refuse_unused(sc: Scenario, command: str, keys: tuple[str, ...] = UNUSED_BY_SEARCHES) -> None:
    """Refuse an unused field set away from its default rather than silently
    ignore it."""
    default = Scenario()
    for key in keys:
        if getattr(sc, key) != getattr(default, key):
            raise ParseError(f"{command} does not use --{key.replace('_', '-')} (scenario {key}): "
                             f"it must stay at {getattr(default, key)!r}, got {getattr(sc, key)!r}")


def _graph_label(sc: Scenario) -> str:
    if sc.graph == "file":
        return sc.graph_file or "file"
    return sc.graph


def _parse_grid(spec: str, name: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise ParseError(f"--{name} must be lo:hi[:step], got {spec!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        step = float(parts[2]) if len(parts) == 3 else (hi - lo) or 1.0
    except ValueError:
        raise ParseError(f"--{name}: non-numeric bound in {spec!r}") from None
    if hi < lo or step <= 0:
        raise ParseError(f"--{name}: need lo <= hi and step > 0 in {spec!r}")
    grid = []
    x = lo
    while x <= hi + 1e-12:
        grid.append(round(x, 12))
        x += step
    return grid


def _parse_int_grid(spec: str, name: str) -> list[int]:
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise ParseError(f"--{name} must be lo:hi[:step], got {spec!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
    except ValueError:
        raise ParseError(f"--{name}: non-integer bound in {spec!r}") from None
    if hi < lo or step <= 0:
        raise ParseError(f"--{name}: need lo <= hi and step > 0 in {spec!r}")
    return list(range(lo, hi + 1, step))


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_purify(args) -> int:
    sc = parse_scenario(args)
    _refuse_unused(sc, "purify", UNUSED_BY_PURIFY)
    g = _resolve_graph(sc)
    s0 = _family_state(g, Family(sc.family), sc.param)
    trace = iterate(s0, _parse_schedule(sc.schedule), sc.p, sc.f_m, StopRule(sc.eps, sc.tol, sc.r_max))
    lines = [trace.to_csv()]
    lines.append(f"# verdict,{trace.verdict.value}\n")
    lines.append(f"# final_fidelity,{FLOAT_FMT.format(trace.final_fidelity)}\n")
    lines.append(f"# expected_cost,{FLOAT_FMT.format(trace.expected_cost)}\n")
    _emit("".join(lines), sc.out)
    if args.dump_final:
        with open(args.dump_final, "w", encoding="utf-8") as fh:
            fh.write(trace.final_state.to_csv())
    return EXIT_OK


THRESHOLD_HEADER = "graph_kind,N,family,p,quantity,value,tolerance,rounds_used\n"


def _report_row(label: str, n: int, report, p: float, quantity: str) -> str:
    return (
        f"{label},{n},{report.family},{FLOAT_FMT.format(p)},{quantity},"
        f"{FLOAT_FMT.format(report.value)},{FLOAT_FMT.format(report.tolerance)},"
        f"{report.rounds_used}\n"
    )


def _cmd_threshold(args) -> int:
    sc = parse_scenario(args)
    _refuse_unused(sc, "threshold")
    g = _resolve_graph(sc)
    if not sc.quantity:
        raise ParseError("threshold needs --quantity (fmin|qmin|pmin|fmax)")
    report = threshold_report(g, Family(sc.family), sc.quantity, sc.p)
    _emit(THRESHOLD_HEADER + _report_row(_graph_label(sc), g.n, report, sc.p, sc.quantity), sc.out)
    return EXIT_OK


def _cmd_scan(args) -> int:
    from . import __version__

    sc = parse_scenario(args)
    _refuse_unused(sc, "scan")
    if not sc.quantity:
        raise ParseError("scan needs --quantity (fmin|qmin|pmin|fmax)")
    n_values = _parse_int_grid(sc.n_grid, "n-grid") if sc.n_grid else [sc.n]
    p_values = _parse_grid(sc.p_grid, "p-grid") if sc.p_grid else [sc.p]
    graphs = [_resolve_graph(replace(sc, n=n)) for n in n_values]
    rows = [f"# gspurify {__version__} scan\n", THRESHOLD_HEADER]
    for g in graphs:
        for p in p_values:
            report = threshold_report(g, Family(sc.family), sc.quantity, p)
            rows.append(_report_row(_graph_label(sc), g.n, report, p, sc.quantity))
    _emit("".join(rows), sc.out)
    return EXIT_OK


def _cmd_compare_bepp(args) -> int:
    sc = parse_scenario(args)
    _refuse_unused(sc, "compare-bepp")
    g = _resolve_graph(sc)
    p_values = _parse_grid(sc.p_grid, "p-grid") if sc.p_grid else [sc.p]
    rows = ["p,f_max_mepp,bepp_bound\n"]
    for p in p_values:
        fm = f_max(g, p)
        bb = bepp_bound(g, p)
        rows.append(f"{FLOAT_FMT.format(p)},{FLOAT_FMT.format(fm)},{FLOAT_FMT.format(bb)}\n")
    _emit("".join(rows), sc.out)
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    results = run_equivalence_suite(seed=args.seed if args.seed is not None else 0,
                                    full=not args.quick)
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
        sp.add_argument("--graph", choices=["ghz", "path", "ring", "grid", "file"], default=None)
        sp.add_argument("--n", type=int, default=None)
        sp.add_argument("--rows", type=int, default=None)
        sp.add_argument("--cols", type=int, default=None)
        sp.add_argument("--graph-file", dest="graph_file", default=None)
        sp.add_argument("--family", choices=[f.value for f in Family], default=None)
        sp.add_argument("--param", type=float, default=None)
        sp.add_argument("--p", type=float, default=None)
        sp.add_argument("--f-m", dest="f_m", type=float, default=None)
        sp.add_argument("--schedule", default=None, help="round sequence, e.g. P1P2 or P1")
        sp.add_argument("--eps", type=float, default=None)
        sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--r-max", dest="r_max", type=int, default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("--quantity", choices=["fmin", "qmin", "pmin", "fmax"], default=None)
        sp.add_argument("--p-grid", dest="p_grid", default=None)
        sp.add_argument("--n-grid", dest="n_grid", default=None)

    sp = sub.add_parser("purify", help="run one purification trace, emit the trace CSV")
    add_common(sp)
    sp.add_argument("--dump-final", default=None, help="write the final state's coefficients CSV here")
    sp.set_defaults(fn=_cmd_purify)

    sp = sub.add_parser("threshold", help="compute one threshold quantity, emit a CSV row")
    add_common(sp)
    sp.set_defaults(fn=_cmd_threshold)

    sp = sub.add_parser("scan", help="threshold/fixed-point grid over N and p")
    add_common(sp)
    sp.set_defaults(fn=_cmd_scan)

    sp = sub.add_parser("compare-bepp", help="stationary fidelity vs the bipartite bound over a p grid")
    add_common(sp)
    sp.set_defaults(fn=_cmd_compare_bepp)

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
    except (ParseError, OddCycle, InvalidParam, TooLarge) as exc:
        sys.stderr.write(f"gspurify: {exc}\n")
        return EXIT_USAGE
    except (BracketError, ZeroSuccess, NoFixedPoint, EmptyRegion, BadParam) as exc:
        sys.stderr.write(f"gspurify: numerical failure: {exc}\n")
        return EXIT_NUMERIC
    except GspurifyError as exc:
        sys.stderr.write(f"gspurify: {exc}\n")
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
