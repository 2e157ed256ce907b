"""Alternating parent/change benchmark pairs from two source checkouts.

    python3 tools/pairs.py --parent OLD_TREE --change NEW_TREE \\
        --workloads threshold-sweep oracle-quick --seeds 1401 1402 1403 --seconds 30 --out pairs.json

A pair is one `bench/run.py --workload W --seed S --seconds T --trace 0` run
in each checkout, one right after the other. The side that runs first
alternates from one pair of a workload to the next (the parent first in the
first), so a slow stretch of a shared host falls on both sides alike. With
a small --seconds each run is two passes, so the sides alternate every two
passes. Nothing but `bench/run.py` is run, and its last output line (one
JSON object) is all that is read.

The output holds every pair's end-to-end metrics and, per workload and
metric (names, units and better direction from the change's
BENCHMARK.json): both sides' quartiles, the parent's IQR, the difference of
the medians, and in how many pairs the change was better. `gain_shown` is
true where the change was better in at least 9 of 10 pairs and its median
beats the parent's by more than the parent's IQR. It also records the
machine and the numpy build (version and BLAS).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path


def bench_run(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One `bench/run.py` run in tree: its summary line, or the failure."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, env=env)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"error": f"exit {done.returncode}: {done.stderr.strip()[-500:]}"}
    summary = json.loads(lines[-1])
    return {"metrics": {name: m["value"] for name, m in summary["metrics"].items()},
            "attempted": summary["attempted"], "failed": summary["failed"]}


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: quartiles, parent IQR, median difference (parent minus
    change for a lower-is-better metric) and pairs the change won."""
    done = [p for p in pairs if "metrics" in p["parent"] and "metrics" in p["change"]]
    out = {}
    for metric in metrics if done else []:
        name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
        old = [p["parent"]["metrics"][name] for p in done]
        new = [p["change"]["metrics"][name] for p in done]
        q_old, q_new = quartiles(old), quartiles(new)
        wins = sum(sign * (a - b) > 0 for a, b in zip(old, new))
        gain = sign * (q_old[1] - q_new[1])
        iqr = q_old[2] - q_old[0]
        out[name] = {"unit": metric["unit"], "better": metric["better"],
                     "parent_quartiles": q_old, "change_quartiles": q_new,
                     "parent_iqr": iqr, "median_gain": gain,
                     "median_ratio": q_new[1] / q_old[1] if q_old[1] else None,
                     "change_better_pairs": f"{wins}/{len(done)}",
                     "gain_shown": len(done) >= 10 and wins >= 0.9 * len(done) and gain > iqr}
    return out


def machine() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
            "platform": platform.platform()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="source tree of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="source tree of the change")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True, help="one pair per seed and workload")
    parser.add_argument("--seconds", type=int, default=30, help="--seconds of each bench/run.py run")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write (rewritten after each pair)")
    args = parser.parse_args()
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    result = {"method": (f"tools/pairs.py: per seed and workload one bench/run.py --seconds {args.seconds} "
                         "--trace 0 run per side, the side that runs first alternating (parent first in the "
                         "first pair); quartiles over the pairs, inclusive method"),
              "machine": machine(), "parent": str(args.parent), "change": str(args.change), "workloads": {}}
    for seed in args.seeds:
        for workload in args.workloads:
            entry = result["workloads"].setdefault(workload, {"pairs": [], "summary": {}})
            order = ("parent", "change") if len(entry["pairs"]) % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "ran_first": order[0]}
            for side in order:
                started = time.monotonic()
                pair[side] = bench_run(getattr(args, side), workload, seed, args.seconds)
                pair[side]["run_s"] = round(time.monotonic() - started, 1)
            entry["pairs"].append(pair)
            entry["summary"] = summarize(entry["pairs"], metrics)
            args.out.write_text(json.dumps(result, indent=1) + "\n")
            wall = {side: pair[side].get("metrics", {}).get("wall_s") for side in ("parent", "change")}
            print(f"{workload} seed={seed} first={order[0]} wall_s parent={wall['parent']} change={wall['change']}",
                  flush=True)
    for workload, entry in result["workloads"].items():
        for name, s in entry["summary"].items():
            print(f"{workload:16s} {name:13s} parent {s['parent_quartiles'][1]:.4g} change "
                  f"{s['change_quartiles'][1]:.4g} better {s['change_better_pairs']} gain {s['median_gain']:.3g} "
                  f"parent IQR {s['parent_iqr']:.3g} shown={s['gain_shown']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
