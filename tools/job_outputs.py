"""Run every benchmark job and record what each one printed.

    python3 tools/job_outputs.py --seeds 0 9001 --out outputs.json
    python3 tools/job_outputs.py --seeds 0 9001 --out new.json --against old.json

Each job of the four workloads (`bench/workloads.job_list` at each seed) runs
once through `gspurify.cli.run_command`, imported from `src/` of the checkout
this file sits in. The output is one JSON object, {job: [exit code, stdout,
stderr]}, keyed by workload, seed, position and argv. Run it in two
checkouts and compare the files byte for byte to show that a change leaves
every job's output as it was.

With --against OLD.json (written by this tool in another checkout) it also
lists every job whose exit code or text differs from OLD.json: for each
numeric cell that moved, its old and new value and their relative change
(a `rounds_used` cell as old -> new), and each line only one side printed.
The last line gives, per workload, the largest relative and absolute change
of a numeric cell.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from gspurify.cli import run_command  # noqa: E402
from workloads import WORKLOADS, job_list  # noqa: E402

WORD = re.compile(r"[^\s=]+")  # outside CSV: words, and the values of `name=value` words


def job_outputs(seeds: list[int]) -> dict[str, list]:
    outputs = {}
    for workload in WORKLOADS:
        for seed in seeds:
            for k, job in enumerate(job_list(workload, seed)):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = run_command(job.argv)
                key = f"{workload} seed={seed} #{k}: {' '.join(job.argv)}"
                outputs[key] = [code, out.getvalue(), err.getvalue()]
    return outputs


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _cells(line: str) -> list[str]:
    return line.split(",") if "," in line else WORD.findall(line)


def _cell_changes(old: str, new: str) -> tuple[list[str], float, float]:
    """Lines describing how new's text differs from old's, and the largest
    relative and absolute change of a numeric cell (rounds_used excluded)."""
    notes, worst, worst_abs = [], 0.0, 0.0
    old_lines, new_lines = old.splitlines(), new.splitlines()
    header: list[str] = []
    for i in range(max(len(old_lines), len(new_lines))):
        if i >= len(old_lines) or i >= len(new_lines):
            side, line = ("new", new_lines[i]) if i >= len(old_lines) else ("old", old_lines[i])
            notes.append(f"  line {i + 1} only in {side}: {line}")
            continue
        a, b = _cells(old_lines[i]), _cells(new_lines[i])
        if "," in old_lines[i] and all(_number(c) is None for c in a):
            header = a  # a CSV header names the cells of the rows below it
        if old_lines[i] == new_lines[i]:
            continue
        if len(a) != len(b):
            notes.append(f"  line {i + 1}: {old_lines[i]!r} -> {new_lines[i]!r}")
            continue
        for j, (x, y) in enumerate(zip(a, b)):
            if x == y:
                continue
            name = header[j] if "," in old_lines[i] and j < len(header) else f"cell {j + 1}"
            u, v = _number(x), _number(y)
            if u is None or v is None:
                notes.append(f"  line {i + 1} {name}: {x} -> {y}")
            elif name == "rounds_used":
                notes.append(f"  line {i + 1} rounds_used: {x} -> {y} ({int(v) - int(u):+d})")
            else:
                rel = abs(v - u) / abs(u) if u else float("inf")
                worst, worst_abs = max(worst, rel), max(worst_abs, abs(v - u))
                notes.append(f"  line {i + 1} {name}: {x} -> {y} (abs {abs(v - u):.2g}, rel {rel:.2g})")
    return notes, worst, worst_abs


def compare(old: dict[str, list], new: dict[str, list]) -> list[str]:
    """A report of every job whose output differs between old and new."""
    lines, worst, moved = [], {}, 0
    for key in sorted(old.keys() | new.keys()):
        workload = key.split(" ", 1)[0]
        worst.setdefault(workload, (0.0, 0.0))
        if key not in old or key not in new:
            lines.append(f"{key}: only in {'new' if key in new else 'old'}")
            moved += 1
            continue
        (code_a, out_a, err_a), (code_b, out_b, err_b) = old[key], new[key]
        if [code_a, out_a, err_a] == [code_b, out_b, err_b]:
            continue
        moved += 1
        lines.append(f"{key}:")
        if code_a != code_b:
            lines.append(f"  exit code {code_a} -> {code_b}")
        for stream, a, b in (("stdout", out_a, out_b), ("stderr", err_a, err_b)):
            if a != b:
                notes, rel, change = _cell_changes(a, b)
                worst[workload] = tuple(map(max, worst[workload], (rel, change)))
                lines += [f" {stream}:"] + notes
    summary = ", ".join(f"{w} rel {r:.2g} abs {c:.2g}" for w, (r, c) in sorted(worst.items()))
    lines.append(f"{moved} of {len(old.keys() | new.keys())} jobs differ; largest numeric change: {summary}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--against", help="JSON file from another checkout to list the differences from")
    args = parser.parse_args()
    outputs = job_outputs(args.seeds)
    Path(args.out).write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")
    failed = sum(code != 0 for code, _, _ in outputs.values())
    print(f"{len(outputs)} jobs, {failed} with a non-zero exit code, written to {args.out}")
    if args.against:
        print("\n".join(compare(json.loads(Path(args.against).read_text()), outputs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
