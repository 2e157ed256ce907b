"""Output checks, run by the parent after a pass, outside the timed region.

Each check returns a list of problems; an empty list means the job passed.
A job fails on a non-zero exit code or on any problem found here.
"""

from __future__ import annotations

import csv
import math

THRESHOLD_HEADER = ["graph_kind", "N", "family", "p", "quantity", "value", "tolerance", "rounds_used"]
TRACE_HEADER = ["round", "protocol", "F_before", "F_after", "p_succ", "cumulative_expected_cost"]
# Interval each threshold search reports its value in.
DOMAIN = {"qmin": (0.5, 1.0), "pmin": (0.4, 1.0), "fmin": (0.0, 1.0), "fmax": (0.0, 1.0)}


def _rows(text: str, header: list[str]) -> list[dict[str, str]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    rows = list(csv.reader(lines))
    if not rows or rows[0] != header:
        raise ValueError(f"expected header {','.join(header)}, got {lines[:1]}")
    out = []
    for row in rows[1:]:
        if len(row) != len(header):
            raise ValueError(f"row {row} has {len(row)} fields, expected {len(header)}")
        out.append(dict(zip(header, row)))
    return out


def _finite(row: dict[str, str], key: str) -> float:
    value = float(row[key])
    if not math.isfinite(value):
        raise ValueError(f"{key}={row[key]} is not finite")
    return value


def check_threshold(out: str, expect: dict, record: dict) -> list[str]:
    rows = _rows(out, THRESHOLD_HEADER)
    if len(rows) != 1:
        return [f"expected one threshold row, got {len(rows)}"]
    row = rows[0]
    problems = []
    value = _finite(row, "value")
    lo, hi = DOMAIN[row["quantity"]]
    if not lo <= value <= hi:
        problems.append(f"{row['quantity']}={value} outside its search domain [{lo}, {hi}]")
    if int(row["rounds_used"]) <= 0:
        problems.append(f"rounds_used={row['rounds_used']} is not positive")
    if "value" in expect and abs(value - expect["value"]) > expect["tol"]:
        problems.append(f"value {value} differs from {expect['value']} by more than {expect['tol']}")
    if "record" in expect:
        record[expect["record"]] = value
    return problems


def check_trace(out: str, expect: dict, record: dict) -> list[str]:
    rows = _rows(out, TRACE_HEADER)
    if not rows:
        return ["trace has no rounds"]
    problems = []
    for row in rows:
        p_succ = _finite(row, "p_succ")
        if not 0.0 < p_succ <= 1.0:
            problems.append(f"round {row['round']}: p_succ={p_succ} outside (0, 1]")
        for key in ("F_before", "F_after"):
            f = _finite(row, key)
            if not 0.0 <= f <= 1.0:
                problems.append(f"round {row['round']}: {key}={f} outside [0, 1]")
    if "# verdict," not in out:
        problems.append("trace has no verdict line")
    return problems


def check_bepp(out: str, expect: dict, record: dict) -> list[str]:
    rows = _rows(out, ["p", "f_max_mepp", "bepp_bound"])
    problems = []
    if len(rows) != expect["rows"]:
        problems.append(f"expected {expect['rows']} grid rows, got {len(rows)}")
    pinned = False
    for row in rows:
        p, fm, bb = (_finite(row, k) for k in ("p", "f_max_mepp", "bepp_bound"))
        if not (0.0 <= bb <= 1.0 and 0.0 <= fm <= 1.0 and fm >= bb - 1e-12):
            problems.append(f"p={p}: f_max {fm} and bound {bb} not ordered within [0, 1]")
        if abs(p - expect["p"]) < 1e-12:
            pinned = True
            for got, want in ((fm, expect["f_max"]), (bb, expect["bepp"])):
                if abs(got - want) > expect["tol"]:
                    problems.append(f"p={p}: {got} differs from pinned {want}")
    if not pinned:
        problems.append(f"grid has no row at p={expect['p']}")
    return problems


def check_oracle(out: str, expect: dict, record: dict) -> list[str]:
    lines = [ln for ln in out.splitlines() if ln.strip()]
    if not lines:
        return ["oracle-check printed nothing"]
    bad = [ln for ln in lines if "MISMATCH" in ln or not ln.rstrip().endswith("ok")]
    return [f"oracle: {ln.strip()}" for ln in bad]


CHECKS = {"threshold": check_threshold, "trace": check_trace, "bepp": check_bepp,
          "oracle": check_oracle}


def check_job(job: dict, result: dict, record: dict) -> list[str]:
    """Problems with one job's result; record collects values to report."""
    if result["code"] != 0:
        return [f"exit code {result['code']}: {result['err'].strip()[-300:]}"]
    try:
        return CHECKS[job["check"]](result["out"], job["expect"], record)
    except (ValueError, KeyError) as exc:
        return [f"unparseable output: {exc}"]
