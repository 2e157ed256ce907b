"""Run every benchmark job and record what each one printed.

    python3 tools/job_outputs.py --seeds 0 9001 --out outputs.json

Each job of the four workloads (`bench/workloads.job_list` at each seed) runs
once through `gspurify.cli.run_command`, imported from `src/` of the checkout
this file sits in. The output is one JSON object, {job: [exit code, stdout,
stderr]}, keyed by workload, seed, position and argv. Run it in two
checkouts and compare the files byte for byte to show that a change leaves
every job's output as it was.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from gspurify.cli import run_command  # noqa: E402
from workloads import WORKLOADS, job_list  # noqa: E402


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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args()
    outputs = job_outputs(args.seeds)
    Path(args.out).write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")
    failed = sum(code != 0 for code, _, _ in outputs.values())
    print(f"{len(outputs)} jobs, {failed} with a non-zero exit code, written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
