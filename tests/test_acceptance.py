"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
Criterion 4 carries a sub-check that is out of numerical reach at the stated
sizes (see notes in the failing assertion message); it is asserted anyway.
"""

import math
import time

import numpy as np

from gspurify.analysis import (
    BellDiag,
    Family,
    bepp_bound,
    dejmps_fixed_point,
    dejmps_step,
    f_max,
    f_min,
    p_min,
    q_min,
    restricted_gain_region,
)
from gspurify.graphs import GraphKind, standard_graph
from gspurify.protocol import p1_step
from gspurify.selfcheck import run_equivalence_suite
from gspurify.states import GDState, prepared_with_channel_noise, rho_a_family
from reference import ra_map_closed_form, xor_cross_naive


def _report(num: int, ok: bool, detail: str = "") -> None:
    tail = f" - {detail}" if detail else ""
    print(f"\ncriterion {num:02d}: {'PASS' if ok else 'FAIL'}{tail}")


def _family_graphs(n_lo: int, n_hi: int):
    for n in range(n_lo, n_hi + 1):
        yield standard_graph(GraphKind.GHZ, n)
        yield standard_graph(GraphKind.LINEAR_CLUSTER, n)
        if n % 2 == 0 and n >= 4:
            yield standard_graph(GraphKind.CLOSED_CLUSTER, n)


def test_criterion_01_closed_form_recurrence():
    worst_map = 0.0
    worst_ps = 0.0
    for g in _family_graphs(3, 10):
        for f in (0.3, 0.5, 0.7, 0.9, 0.99):
            res = p1_step(rho_a_family(g, f))
            worst_map = max(worst_map, abs(res.state.fidelity - ra_map_closed_form(f, g.n_a)))
            want_ps = f * f + (1.0 - f) ** 2 / ((1 << g.n_a) - 1)
            worst_ps = max(worst_ps, abs(res.p_succ - want_ps))
    ok = worst_map <= 1e-12 and worst_ps <= 1e-12
    _report(1, ok, f"map err {worst_map:.2e}, p_succ err {worst_ps:.2e}")
    assert worst_map <= 1e-12
    assert worst_ps <= 1e-12


def test_criterion_02_fixed_point_basin():
    worst = 0.0
    for n in range(2, 9):
        g = standard_graph(GraphKind.GHZ, n)
        worst = max(worst, abs(f_min(g, Family.RHO_A, 1.0) - 0.5))
    _report(2, worst <= 1e-6, f"max |F_min - 1/2| = {worst:.2e}")
    assert worst <= 1e-6


def test_criterion_03_restricted_ghz_threshold():
    g2 = standard_graph(GraphKind.GHZ, 2)
    v2 = p_min(g2, Family.RESTRICTED_BITFLIP, tolerance=1e-7)
    err2 = abs(v2 - 0.5)
    errs = {2: err2}
    for n in range(3, 8):
        g = standard_graph(GraphKind.GHZ, n)
        v = p_min(g, Family.RESTRICTED_BITFLIP)
        errs[n] = abs(v - 2.0 ** (-1.0 / (n - 1)))
    ok = err2 <= 1e-6 and all(errs[n] <= 1e-3 for n in range(3, 8))
    _report(3, ok, "errors " + ", ".join(f"N={n}: {e:.1e}" for n, e in errs.items()))
    assert err2 <= 1e-6
    for n in range(3, 8):
        assert errs[n] <= 1e-3, f"N={n}"


def test_criterion_04_restricted_cluster_gain_region():
    edges = {}
    for n in (8, 10, 12, 14):
        x_lo, x_hi = restricted_gain_region(n, 0.8)
        edges[n] = (math.log2(x_lo) / n, math.log2(x_hi) / n)
    edges_ok = all(
        -0.40 <= lo_exp <= -0.28 and -0.020 <= hi_exp <= -0.004
        for lo_exp, hi_exp in edges.values()
    )

    p12 = p_min(standard_graph(GraphKind.CLOSED_CLUSTER, 12), Family.RESTRICTED_BITFLIP)
    p6 = p_min(standard_graph(GraphKind.CLOSED_CLUSTER, 6), Family.RESTRICTED_BITFLIP)
    trend_ok = abs(p12 - 0.4938) < abs(p6 - 0.4938)
    window_ok = abs(p12 - 0.494) <= 0.015

    detail = (
        "edge exponents " + ", ".join(f"N={n}: ({a:.3f},{b:.4f})" for n, (a, b) in edges.items())
        + f"; p_min N=12 {p12:.4f}, N=6 {p6:.4f}"
    )
    _report(4, edges_ok and trend_ok and window_ok, detail)
    assert edges_ok, f"gain-region exponents out of window: {edges}"
    assert trend_ok, f"p_min should approach 0.4938 with N: N=12 {p12:.4f} vs N=6 {p6:.4f}"
    # Known red at this size: 0.4938 is the large-N limit of the balance
    # condition 2(1-f)^4 = f^2+(1-f)^2 (f the per-particle flip rate), and the
    # finite-size threshold approaches it only as the support floor 2^{-N/2}
    # dies off. Measured here and under alternative purifiability readings
    # (one-step gain existence, pure-component gain existence) the size-12
    # ring lands near 0.58-0.62. Asserted as stated regardless.
    # On the A-support engine the same search reaches larger rings, and
    # p_min(ring-N) is not monotone in N and never nears 0.4938:
    #   N   12     14     16     18     20     22     24
    #       0.6141 0.6013 0.5926 0.5848 0.5820 0.5801 0.5870
    assert window_ok, f"p_min(ring-12) = {p12:.4f} not within 0.494 +/- 0.015"


def test_criterion_05_oracle_equivalence():
    results = run_equivalence_suite(seed=0, full=True)
    bad = [r for r in results if not r.passed]
    worst = max(r.max_error / r.tolerance for r in results)
    _report(5, not bad, f"{len(results)} checks, worst error at {worst:.1e} of tolerance")
    assert not bad, "failed: " + ", ".join(r.name for r in bad)


def test_criterion_06_perfect_operation_trends():
    ghz_q = {n: q_min(standard_graph(GraphKind.GHZ, n), 1.0) for n in range(3, 9)}
    gaps = [1.0 - ghz_q[n] for n in range(3, 9)]
    ratios = [a / b for a, b in zip(gaps, gaps[1:])]
    monotone = all(r > 1.0 for r in ratios)
    # the [1.3, 3.0] factor is read over the stated range; per-step ratios are
    # printed for the record (they sit near 1.1 under strict alternation)
    total = gaps[0] / gaps[-1]
    ghz_ok = monotone and 1.3 <= total <= 3.0

    path_q = [q_min(standard_graph(GraphKind.LINEAR_CLUSTER, n), 1.0) for n in range(4, 11)]
    spread = max(path_q) - min(path_q)
    path_ok = spread <= 0.05

    ghz_f = [f_min(standard_graph(GraphKind.GHZ, n), Family.RHO_X, 1.0) for n in range(3, 9)]
    path_f = [f_min(standard_graph(GraphKind.LINEAR_CLUSTER, n), Family.RHO_X, 1.0)
              for n in range(4, 11)]
    fmin_ok = all(b < a for a, b in zip(ghz_f, ghz_f[1:])) and all(
        b < a for a, b in zip(path_f, path_f[1:])
    )

    detail = (f"GHZ 1-q_min per-step {['%.3f' % r for r in ratios]}, total {total:.2f}; "
              f"path q_min spread {spread:.4f}")
    _report(6, ghz_ok and path_ok and fmin_ok, detail)
    assert monotone
    assert 1.3 <= total <= 3.0
    assert spread <= 0.05
    assert all(b < a for a, b in zip(ghz_f, ghz_f[1:]))
    assert all(b < a for a, b in zip(path_f, path_f[1:]))


def test_criterion_07_noisy_operation_trends():
    ghz = [p_min(standard_graph(GraphKind.GHZ, n), Family.RHO_Q) for n in range(3, 8)]
    ghz_ok = all(b > a for a, b in zip(ghz, ghz[1:]))
    path = [p_min(standard_graph(GraphKind.LINEAR_CLUSTER, n), Family.RHO_Q)
            for n in range(4, 11)]
    path_ok = all(b <= a + 0.005 for a, b in zip(path, path[1:]))
    detail = (f"GHZ {['%.4f' % v for v in ghz]}; path {['%.4f' % v for v in path]}")
    _report(7, ghz_ok and path_ok, detail)
    assert ghz_ok, f"GHZ p_min not strictly increasing: {ghz}"
    assert path_ok, f"path p_min not nonincreasing within 0.005: {path}"


def test_criterion_08_bipartite_comparison():
    g = standard_graph(GraphKind.LINEAR_CLUSTER, 4)
    grid = [0.94 + 0.005 * k for k in range(13)]
    dominated = True
    for p in grid:
        fm = f_max(g, p)
        bb = bepp_bound(g, p)
        dominated &= fm >= bb - 1e-12
    fm97 = f_max(g, 0.97)
    bb97 = bepp_bound(g, 0.97)
    gap = fm97 - bb97
    # regression baselines pinned from the first verified run
    baseline_ok = (
        abs(fm97 - 0.9237740042879217) < 1e-8
        and abs(bb97 - 0.8865435264744547) < 1e-8
        and abs(gap - 0.0372304778134670) < 1e-8
    )
    ok = dominated and gap >= 0.01 and baseline_ok
    _report(8, ok, f"gap at p=0.97: {gap:.6f}")
    assert dominated
    assert gap >= 0.01
    assert baseline_ok


def test_criterion_09_performance():
    rng = np.random.default_rng(2)
    worst = 0.0
    for n in (4, 6, 8, 10, 12):
        for kind in (GraphKind.GHZ, GraphKind.LINEAR_CLUSTER, GraphKind.CLOSED_CLUSTER):
            if kind is GraphKind.CLOSED_CLUSTER and (n % 2 or n < 4):
                continue
            g = standard_graph(kind, n)
            for _ in range(8):
                lam = rng.random(g.dim)
                lam /= lam.sum()  # the op's domain: state coefficient vectors
                step = p1_step(GDState(g, lam))  # perfect P1: the B-bit XOR self-square, normalised
                fast = step.state.lam * step.p_succ
                naive = xor_cross_naive(lam, lam, g.n, g.b_mask)
                worst = max(worst, float(np.abs(fast - naive).max()))
    agree_ok = worst <= 1e-12

    g20 = standard_graph(GraphKind.LINEAR_CLUSTER, 20)
    s20 = prepared_with_channel_noise(g20, 0.99)
    t0 = time.perf_counter()
    res = p1_step(s20, p=0.98)
    elapsed = time.perf_counter() - t0
    time_ok = elapsed < 2.0
    _report(9, agree_ok and time_ok,
            f"fast/naive err {worst:.2e}; N=20 noisy round {elapsed:.2f}s (F={res.state.fidelity:.4f})")
    assert agree_ok
    assert time_ok


def test_criterion_10_bipartite_recurrence_sanity():
    b = BellDiag(0.7, 0.1, 0.1, 0.1)
    rounds = 0
    while b.fidelity < 1 - 1e-6 and rounds < 30:
        b, _ = dejmps_step(b, 1.0)
        rounds += 1
    converged_ok = b.fidelity >= 1 - 1e-6 and rounds <= 30

    fp_a = dejmps_fixed_point(0.97)
    fp_b = dejmps_fixed_point(0.97, start=BellDiag(0.8, 0.1, 0.05, 0.05))
    sub_unit = 0.5 < fp_a.fidelity < 1.0
    reproducible = float(np.abs(fp_a.vec - fp_b.vec).max()) < 1e-9
    _report(10, converged_ok and sub_unit and reproducible,
            f"Werner 0.7 converged in {rounds} rounds; fixed point {fp_a.fidelity:.6f}")
    assert converged_ok
    assert sub_unit
    assert reproducible
