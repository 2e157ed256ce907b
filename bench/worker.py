"""One benchmark pass in a fresh interpreter.

Usage (started by run.py, not by hand):
    python3 bench/worker.py SPAWNED_AT TRACE [SPANS_PATH] < jobs.json

SPAWNED_AT is the CLOCK_MONOTONIC reading the parent took just before
starting this process, so set-up time covers interpreter start, importing
numpy and `gspurify.cli`, and reading the job list. The jobs (a JSON list of
argv lists) then run back to back through `gspurify.cli.run_command`, each
timed on its own, with its standard output and error captured. The last line
of standard output is one JSON object with the timings, the captured outputs,
the peak resident memory and, with TRACE=1, the per-layer metrics.
"""

import contextlib
import io
import json
import resource
import sys
import time


def main() -> int:
    spawned_at = float(sys.argv[1])
    traced = sys.argv[2] == "1"
    import numpy

    import gspurify
    import gspurify.cli

    jobs = json.load(sys.stdin)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - spawned_at

    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer.install()
    results = []
    clock = time.perf_counter
    pass_start = clock()
    for argv in jobs:
        out, err = io.StringIO(), io.StringIO()
        t0 = clock()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = gspurify.cli.run_command(argv)  # looked up per call, so a trace wrapper applies
        results.append({"s": clock() - t0, "code": code, "out": out.getvalue(), "err": err.getvalue()})
    pass_s = clock() - pass_start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    report = {"gspurify": gspurify.__file__, "numpy": numpy.__version__, "setup_s": setup_s,
              "pass_s": pass_s, "peak_rss_mib": peak_kib / 1024.0, "jobs": results,
              "layers": None, "spans": 0}
    if tracer is not None:
        report["layers"] = tracer.metrics()
        report["spans"] = len(tracer.name_ids)
        if len(sys.argv) > 3:
            tracer.write_spans(sys.argv[3])
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
