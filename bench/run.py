"""gspurify benchmark: closed-loop CLI job lists, timed end to end and by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports `gspurify` from
`src/`. One client sends one job at a time (a closed loop, no threads): each
job is one call of `gspurify.cli.run_command` with arguments the benchmark
generated from the seed. A pass is one workload's job list in one fresh
interpreter (bench/worker.py), so its set-up and memory belong to that
workload. The run repeats the list in as many passes as fit in S seconds
(at least two), then checks every job's output outside the timed region.

--trace 0 reports the end-to-end metrics: wall_s (time to finish the job
list: the sum over jobs of each job's median time), job_s_p50 (median over
jobs of each job's median time), setup_s (median time from process start until the first job is
ready) and peak_rss_mib (median peak resident memory of a pass). --trace 1
runs the job list once untraced and once traced, and reports the per-layer
metrics of the traced pass and the tracing overhead. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. A result file
with provenance goes to bench/results/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_job
from tracing import UNITS as LAYER_UNITS
from workloads import NOMINAL_PASS_S, WORKLOADS, job_list

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_SAMPLES = 11  # set-ups measured per run at least, spread over the run
MIN_PASSES = 2
RUN_DEADLINE_S = 170.0

E2E_UNITS = {"wall_s": "s", "job_s_p50": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


class BenchError(Exception):
    pass


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_pass(argvs: list[list[str]], traced: bool, deadline: float, spans: Path | None = None) -> dict:
    """Run one job list in a fresh worker process and return its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    extra = [str(spans)] if spans is not None else []
    cmd = [sys.executable, str(BENCH / "worker.py"), repr(monotonic()), "1" if traced else "0", *extra]
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=ROOT, env=env, text=True)
    try:
        out, err = proc.communicate(json.dumps(argvs), timeout=max(deadline - monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the run deadline") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int, numpy_version: str | None) -> dict:
    sha = dirty = None
    top = _git("rev-parse", "--show-toplevel")
    if top and Path(top).resolve() == ROOT:
        sha = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha, "git_dirty": dirty, "seed": seed, "nproc": os.cpu_count(),
            "cpu_model": cpu, "python": platform.python_version(), "numpy": numpy_version,
            "platform": platform.platform()}


def _check(jobs, reports, record: dict) -> tuple[int, int, list[dict]]:
    attempted = failed = 0
    log = []
    for report in reports:
        for job, result in zip(jobs, report["jobs"]):
            problems = check_job(job.to_json(), result, record)
            attempted += 1
            failed += bool(problems)
            log.append({"argv": job.argv, "s": result["s"], "code": result["code"], "problems": problems})
    return attempted, failed, log


def run_workload(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    deadline = monotonic() + RUN_DEADLINE_S
    jobs = job_list(workload, seed)
    argvs = [job.argv for job in jobs]
    if traced:
        plain = run_pass(argvs, False, deadline)
        RESULTS.mkdir(exist_ok=True)
        spans = RESULTS / f"spans-{workload}-seed{seed}.csv.gz"
        traced_report = run_pass(argvs, True, deadline, spans)
        reports = [plain, traced_report]
        layers = dict(traced_report["layers"])
        layers["trace.overhead_s"] = traced_report["pass_s"] - plain["pass_s"]
        units = dict(LAYER_UNITS, **{"trace.overhead_s": "s"})
        metrics = {name: {"value": layers.get(name), "unit": unit} for name, unit in units.items()}
        samples = {"trace.spans": traced_report["spans"]}
        timings = {"pass_s": [r["pass_s"] for r in reports]}
    else:
        planned = max(MIN_PASSES, int(seconds // NOMINAL_PASS_S[workload]))
        probes = -(-SETUP_SAMPLES // planned) - 1  # bare start-ups before each pass
        start = monotonic()
        reports, setups = [], []
        while True:
            setups += [run_pass([], False, deadline)["setup_s"] for _ in range(probes)]
            reports.append(run_pass(argvs, False, deadline))
            setups.append(reports[-1]["setup_s"])
            elapsed = monotonic() - start
            # No pass starts that would end past the measuring budget.
            if len(reports) >= MIN_PASSES and elapsed * (len(reports) + 1) / len(reports) > seconds:
                break
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_pass([], False, deadline)["setup_s"])
        # On a shared host the speed changes from one second to the next, so
        # the fastest of identical passes or jobs depends on a rare quiet
        # moment and moves by 10 % or more between runs. Taking each job's
        # median over the passes filters slow stretches job by job.
        job_s = [statistics.median(r["jobs"][i]["s"] for r in reports) for i in range(len(jobs))]
        values = {
            "wall_s": math.fsum(job_s),
            "job_s_p50": statistics.median(job_s),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in reports),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
        samples = {"passes": len(reports), "jobs": len(jobs), "setups": len(setups)}
        timings = {"pass_s": [r["pass_s"] for r in reports], "setup_s": setups}

    for report in reports:
        origin = Path(report["gspurify"]).resolve()
        if ROOT / "src" not in origin.parents:
            raise BenchError(f"gspurify was imported from {origin}, not from this checkout's src/")
    record: dict = {}
    attempted, failed, log = _check(jobs, reports, record)
    result = {
        "workload": workload, "trace": int(traced), "seconds": seconds, "samples": samples,
        "provenance": provenance(seed, reports[0]["numpy"]),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted, "record": record, "metrics": metrics, "timings": timings,
        "jobs": log,
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{workload}-seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    result["path"] = str(path.relative_to(ROOT))
    return result


def _fmt(value) -> str:
    return "absent" if value is None else f"{value:.6g}"


def print_details(result: dict) -> None:
    print(f"# {result['workload']} trace={result['trace']} samples={result['samples']} "
          f"fail_frac={result['fail_frac']:.6g} ({result['failed']}/{result['attempted']}) "
          f"result={result['path']}")
    for key, value in result["record"].items():
        print(f"# {key} {value!r}")
    for entry in result["jobs"]:
        for problem in entry["problems"]:
            print(f"# FAILED {' '.join(entry['argv'])}: {problem}")
    for name, metric in result["metrics"].items():
        print(f"{name:34s} {_fmt(metric['value']):>14s} {metric['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "gspurify" / "cli.py").is_file():
        sys.stderr.write(f"bench: no gspurify sources under {ROOT / 'src'}; run from a source checkout\n")
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads]
    except BenchError as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 1
    for result in results:
        print_details(result)
    if args.workload == "all":
        print(f"{'metric':34s} {'unit':6s} " + " ".join(f"{w:>16s}" for w in workloads))
        rows = [(n, m["unit"], [r["metrics"][n]["value"] for r in results])
                for n, m in results[0]["metrics"].items()]
        rows.append(("fail_frac", "ratio", [r["fail_frac"] for r in results]))
        for name, unit, values in rows:
            print(f"{name:34s} {unit:6s} " + " ".join(f"{_fmt(v):>16s}" for v in values))
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": results[0]["metrics"] if len(results) == 1 else
        {f"{r['workload']}.{n}": m for r in results for n, m in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
