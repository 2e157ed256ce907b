"""Seeded job lists for the four benchmark workloads.

A job is one `gspurify` CLI invocation (its argv) plus what its output must
satisfy. A pass is one workload's job list, run back to back in one fresh
interpreter; a run repeats the same list in several passes. The job list
comes from the benchmark seed alone, so the same seed gives the same jobs.

Within a job list no job repeats the (graph, p, f_m) of an earlier one: the
in-process multiplier cache of `gspurify.protocol` then never serves a hit
that a fresh CLI process would not also get. A search over p (`pmin`) picks its
own p values, so no other job in its list may use its graph.

The seed changes inputs only in ways that keep each pass's total work close
to constant, so that runs with different seeds time the same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# Typical pass time on the reference machine (2-core Xeon, numpy 2.4.6) at
# the seed commit. A run spreads its bare start-ups over the measuring budget
# divided by this many passes; how many passes it runs depends on the time
# they actually take.
NOMINAL_PASS_S = {
    "restricted-pmin": 11.0,
    "noisy-n20": 7.4,
    "threshold-sweep": 3.7,
    "oracle-quick": 4.4,
}

PATH4_P = 0.97
PATH4_FMAX = 0.9237740042879217  # criterion 08 regression baseline
PATH4_BEPP = 0.8865435264744547


@dataclass
class Job:
    argv: list[str]
    check: str  # "threshold", "trace", "bepp" or "oracle"
    keys: tuple = ()
    expect: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"argv": self.argv, "check": self.check, "expect": self.expect}


def _p(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def _threshold(kind: str, n: int, family: str, quantity: str, p: float | None = None) -> Job:
    argv = ["threshold", "--graph", kind, "--n", str(n), "--family", family, "--quantity", quantity]
    if p is not None:
        argv += ["--p", repr(p)]
    key = (kind, n) if quantity == "pmin" else (kind, n, 1.0 if p is None else p, 0.0)
    return Job(argv, "threshold", (key,))


def restricted_pmin(rng: random.Random) -> list[Job]:
    # The GHZ stars come from the sizes criterion 03 checks, in pairs that
    # cost about the same ({3, 5} or {4, 6}), so every seed times the same
    # amount of work.
    jobs = [
        _threshold("ring", 6, "restricted-bitflip", "pmin"),
        _threshold("ring", 12, "restricted-bitflip", "pmin"),
    ]
    for n in rng.choice(((3, 5), (4, 6))):
        job = _threshold("ghz", n, "restricted-bitflip", "pmin")
        # GHZ restricted p_min has the analytic value 2^(-1/(N-1)).
        job.expect = {"value": 2.0 ** (-1.0 / (n - 1)), "tol": 1e-3}
        jobs.append(job)
    # The ring-12 value is recorded, never pinned: its gap to the paper's
    # 0.494 is the open criterion 04 question.
    jobs[1].expect = {"record": "ring12_restricted_pmin"}
    rng.shuffle(jobs)
    return jobs


def noisy_n20(rng: random.Random) -> list[Job]:
    jobs = []
    for k in range(4):
        p = _p(rng, 0.96, 0.99)
        f_m = 0.0 if k % 2 == 0 else _p(rng, 0.005, 0.02)
        argv = ["purify", "--graph", "path", "--n", "20", "--family", "rho-q", "--param", "0.99",
                "--r-max", "4", "--p", repr(p), "--f-m", repr(f_m)]
        jobs.append(Job(argv, "trace", (("path", 20, p, f_m),)))
    return jobs


def threshold_sweep(rng: random.Random) -> list[Job]:
    # Every graph is fixed and each p is drawn from a window of width 0.002
    # around its own centre, so the seed moves every search only a little and
    # the list's total work and its median job stay about the same from seed
    # to seed. Gate-noisy jobs stay above the rho-q p_min of their graph
    # (about 0.93 for paths, 0.979 for the 8-star), so every search brackets.
    # The p_min searches get graphs no other job uses.
    def near(centre: float) -> float:
        return _p(rng, centre - 0.001, centre + 0.001)

    jobs = [
        _threshold("ghz", 6, "rho-q", "pmin"),
        _threshold("path", 6, "rho-q", "pmin"),
        _threshold("ghz", 7, "rho-q", "qmin", 1.0),
        _threshold("ghz", 8, "rho-q", "qmin", 1.0),
        _threshold("path", 9, "rho-q", "qmin", 1.0),
        _threshold("path", 10, "rho-q", "qmin", 1.0),
        _threshold("path", 8, "rho-q", "fmax", near(0.975)),
        _threshold("ghz", 7, "rho-q", "fmax", near(0.99)),
        _threshold("path", 10, "rho-q", "fmax", near(0.975)),
        _threshold("ghz", 5, "rho-q", "qmin", near(0.988)),
        _threshold("ghz", 7, "rho-q", "qmin", near(0.992)),
        _threshold("path", 7, "rho-q", "qmin", near(0.98)),
        _threshold("path", 8, "rho-q", "qmin", near(0.99)),
        _threshold("path", 9, "rho-q", "qmin", near(0.98)),
        _threshold("path", 10, "rho-q", "qmin", near(0.99)),
        _threshold("ghz", 7, "rho-x", "fmin", near(0.988)),
        _threshold("ghz", 8, "rho-x", "fmin", near(0.992)),
        _threshold("path", 8, "rho-x", "fmin", near(0.98)),
        _threshold("path", 10, "rho-x", "fmin", near(0.985)),
    ]
    lo = rng.choice((0.95, 0.955, 0.96, 0.965))
    grid = [round(lo + 0.005 * k, 12) for k in range(int(round((0.99 - lo) / 0.005)) + 1)]
    bepp = Job(["compare-bepp", "--graph", "path", "--n", "4", "--p-grid", f"{lo}:0.99:0.005"], "bepp",
               tuple(("path", 4, p, 0.0) for p in grid),
               {"p": PATH4_P, "f_max": PATH4_FMAX, "bepp": PATH4_BEPP, "tol": 1e-8, "rows": len(grid)})
    jobs.append(bepp)
    rng.shuffle(jobs)
    return jobs


def oracle_quick(rng: random.Random) -> list[Job]:
    return [Job(["oracle-check", "--quick", "--seed", str(rng.randrange(1 << 31))], "oracle")]


def _repeats(jobs: list[Job]) -> bool:
    """Whether two jobs share a (graph, p, f_m) key, or a p search shares
    its graph with any other job."""
    keys = [k for job in jobs for k in job.keys]
    searched = {k for k in keys if len(k) == 2}
    return len(keys) != len(set(keys)) or any(k[:2] in searched for k in keys if len(k) > 2)


GENERATORS = {"restricted-pmin": restricted_pmin, "noisy-n20": noisy_n20,
              "threshold-sweep": threshold_sweep, "oracle-quick": oracle_quick}
WORKLOADS = tuple(GENERATORS)


def job_list(workload: str, seed: int) -> list[Job]:
    """A workload's job list, drawn from the seed."""
    if workload not in GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    for _ in range(100):
        jobs = GENERATORS[workload](rng)
        if not _repeats(jobs):
            return jobs
    raise RuntimeError(f"{workload}: no job list without repeated (graph, p, f_m) keys")
