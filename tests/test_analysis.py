import math
import tracemalloc

import numpy as np
import pytest

from gspurify.analysis import (
    BellDiag,
    Family,
    ThresholdReport,
    _bisect,
    _ring_signal_sums,
    bepp_bound,
    dejmps_fixed_point,
    dejmps_step,
    f_max,
    f_min,
    p_min,
    q_min,
    ra_map_closed_form,
    restricted_gain_region,
    threshold_report,
)
from gspurify.errors import BadParam, BracketError, EmptyRegion, InvalidParam, NoFixedPoint, TooLarge
from gspurify.graphs import GraphKind, standard_graph
from gspurify.protocol import _depolarize_multiplier, _measure_flip_multiplier, a_support_steps, iterate, p1_step
from gspurify.states import (
    global_white,
    prepared_with_channel_noise,
    pure_target,
    rho_a_family,
    rho_a_support,
)
from reference import ring_signal, vector_gain_region


def test_closed_form_values():
    assert ra_map_closed_form(0.8, 1) == pytest.approx(16.0 / 17.0, abs=1e-15)
    assert ra_map_closed_form(1.0, 4) == 1.0
    for n_a in (1, 2, 5):
        fp = 1.0 / (1 << n_a)
        assert ra_map_closed_form(fp, n_a) == pytest.approx(fp, abs=1e-15)
    assert ra_map_closed_form(0.5, 3) == pytest.approx(7.0 / 8.0, abs=1e-15)
    with pytest.raises(BadParam):
        ra_map_closed_form(1.2, 1)
    with pytest.raises(BadParam):
        ra_map_closed_form(0.5, 0)


@pytest.mark.parametrize("kind,n", [(GraphKind.GHZ, 4), (GraphKind.LINEAR_CLUSTER, 5),
                                    (GraphKind.CLOSED_CLUSTER, 6)])
def test_closed_form_matches_step(kind, n):
    g = standard_graph(kind, n)
    for f in (0.3, 0.55, 0.8, 0.97):
        res = p1_step(rho_a_family(g, f))
        assert res.state.fidelity == pytest.approx(ra_map_closed_form(f, g.n_a), abs=1e-12)


def test_bisect_requires_bracket():
    with pytest.raises(BracketError):
        _bisect(0.0, 1.0, lambda x: True, 1e-6)


def test_bisect_finds_step():
    value, lo, hi = _bisect(0.0, 1.0, lambda x: x > 0.371, 1e-8)
    assert abs(value - 0.371) < 1e-7
    assert hi - lo <= 2e-8


def test_bisect_judges_each_point_once():
    seen = []

    def pred(x):
        seen.append(x)
        return x > 0.371

    value, lo, hi = _bisect(0.0, 1.0, pred, 1e-8)
    assert len(seen) == len(set(seen))
    halvings = 26  # 2^-26 is the first halving of [0, 1] within 2 tol = 2e-8
    assert hi - lo == 2.0 ** -halvings
    assert len(seen) == 2 + halvings
    assert (value, lo, hi) == _bisect(0.0, 1.0, lambda x: x > 0.371, 1e-8)
    assert abs(value - 0.371) < 1e-7


def test_f_max_perfect_and_identical_graphs():
    g2a = standard_graph(GraphKind.GHZ, 2)
    g2b = standard_graph(GraphKind.LINEAR_CLUSTER, 2)
    assert f_max(g2a, 1.0) == 1.0
    assert f_max(g2a, 0.98) == pytest.approx(f_max(g2b, 0.98), abs=1e-12)


def test_f_max_regression_path4(path4):
    assert f_max(path4, 0.97) == pytest.approx(0.9237740042879217, abs=1e-8)
    with pytest.raises(BadParam):
        f_max(path4, 0.0)
    with pytest.raises(BadParam, match="nonempty"):
        f_max(path4, 0.97, schedule=())


def test_f_max_monotone_in_p(path4):
    values = [f_max(path4, p) for p in (1.0, 0.995, 0.99, 0.985, 0.98, 0.975, 0.97)]
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-9


def test_f_min_rho_a_basin(ghz3):
    assert f_min(ghz3, Family.RHO_A, 1.0) == pytest.approx(0.5, abs=1e-6)


def test_f_min_rho_x_regressions(path4):
    assert f_min(path4, Family.RHO_X, 1.0) == pytest.approx(0.2596933245, abs=1e-6)
    v = f_min(path4, Family.RHO_X, 0.99)
    assert v == pytest.approx(0.2791607976, abs=1e-6)
    assert f_min(path4, Family.RHO_X, 1.0) < v < f_max(path4, 0.99)
    with pytest.raises(BadParam):
        f_min(path4, Family.RHO_Q, 1.0)


def test_q_min_regression_and_examples(path4):
    assert q_min(path4, 1.0) == pytest.approx(0.65236, abs=1e-4)
    g2 = standard_graph(GraphKind.GHZ, 2)
    p2 = standard_graph(GraphKind.LINEAR_CLUSTER, 2)
    assert q_min(g2, 1.0) == pytest.approx(q_min(p2, 1.0), abs=1e-9)


@pytest.mark.parametrize("kind,n,family,quantity,p", [
    (GraphKind.GHZ, 3, Family.RHO_A, "fmin", 0.99),
    (GraphKind.GHZ, 4, Family.RHO_X, "fmin", 0.95),
    (GraphKind.LINEAR_CLUSTER, 4, Family.RHO_X, "fmin", 0.9),
    (GraphKind.LINEAR_CLUSTER, 4, Family.RHO_Q, "qmin", 0.9),
], ids=["ghz3-rho-a", "ghz4-rho-x", "path4-rho-x", "path4-qmin"])
def test_climb_refused_without_purified_fixed_point(kind, n, family, quantity, p):
    # Below p = 1 the climb target is the fixed point reached from the pure
    # target, and here it is a failure plateau: the P1-only map on GHZ-3
    # decays to F = 0.2499 at any p < 1, GHZ-4 settles on a half-half
    # mixture at F = 0.4817 and path-4 on the uniform state. Climbing to a
    # plateau's fidelity would report the plateau, so the search refuses.
    g = standard_graph(kind, n)
    with pytest.raises(NoFixedPoint, match=f"at p={p} "):
        threshold_report(g, family, quantity, p)


def test_p_min_family_validation(path4):
    with pytest.raises(BadParam):
        p_min(path4, Family.RHO_X)


@pytest.mark.parametrize("quantity,family", [
    ("fmin", Family.RHO_Q), ("qmin", Family.RHO_X), ("pmin", Family.RHO_A), ("fmax", Family.RESTRICTED_BITFLIP),
])
def test_threshold_report_refuses_families_its_search_does_not_read(path4, quantity, family):
    with pytest.raises(BadParam, match=f"{quantity} is defined for"):
        threshold_report(path4, family, quantity, 0.97)


def test_threshold_report_refuses_a_p_its_search_does_not_read(ghz3):
    # p_min picks its own p values, so a given p would be ignored.
    with pytest.raises(BadParam, match="pmin picks its own p"):
        threshold_report(ghz3, Family.RESTRICTED_BITFLIP, "pmin", 0.5)


RING_PMIN_ROUNDS_USED = {16: 2151, 20: 1467, 24: 1267}


# rounds_with_end_recheck is what each search took while _bisect still re-ran
# both final bracket ends; judging each point once must cost fewer rounds.
@pytest.mark.parametrize("n,value,rounds_with_end_recheck", [
    (16, 0.5925537109375001, 2556),
    (20, 0.5820068359374999, 1743),
    (24, 0.5869873046875, 1496),
])
def test_restricted_p_min_reaches_large_rings(n, value, rounds_with_end_recheck):
    # The restricted search steps a 2^(n/2) A-support vector, so rings whose
    # search in the full 2^n space takes minutes (an hour or so at n = 24)
    # run in under a second.
    g = standard_graph(GraphKind.CLOSED_CLUSTER, n)
    report = threshold_report(g, Family.RESTRICTED_BITFLIP, "pmin")
    assert report.value == pytest.approx(value, abs=1e-12)
    assert report.rounds_used == RING_PMIN_ROUNDS_USED[n]
    assert report.rounds_used < rounds_with_end_recheck


def test_multiplier_caches_hold_one_trajectory(path4):
    # An entry holds 2^N doubles and a sweep moves on to a new p, so the
    # caches keep only the current p (and the P1/P2 pair of flip multipliers).
    for p in (0.96, 0.97, 0.98, 0.99, 0.995):
        iterate(global_white(path4, 0.9), p=p, f_m=0.01)
    assert _depolarize_multiplier.cache_info().currsize <= 1
    assert _measure_flip_multiplier.cache_info().currsize <= 2


def test_restricted_gain_region_examples():
    x_lo, x_hi = restricted_gain_region(10, 1.0)
    assert x_hi >= 1.0 - 1e-6
    with pytest.raises(EmptyRegion):
        restricted_gain_region(12, 0.45)
    with pytest.raises(InvalidParam):
        restricted_gain_region(7, 0.8)
    with pytest.raises(BadParam):
        restricted_gain_region(8, 0.0)
    # Criterion 04's edge-exponent windows hold far past its rings.
    x_lo, x_hi = restricted_gain_region(64, 0.8)
    assert -0.40 <= math.log2(x_lo) / 64 <= -0.28 and -0.020 <= math.log2(x_hi) / 64 <= -0.004
    with pytest.raises(TooLarge):  # u0^2 = 2^-1024 is no longer a normal double
        restricted_gain_region(1024, 0.8)
    x_lo, x_hi = restricted_gain_region(1022, 0.8)
    assert 0.0 < x_lo < x_hi < 1.0


def test_a_support_size_refused_before_allocation():
    # 2^100 A-support coefficients: every A-support build reaches one size
    # check, which refuses them before numpy is asked for any.
    g = standard_graph(GraphKind.CLOSED_CLUSTER, 200)
    with pytest.raises(TooLarge):
        threshold_report(g, Family.RESTRICTED_BITFLIP, "pmin")
    with pytest.raises(TooLarge):
        rho_a_support(g, 0.5)
    with pytest.raises(TooLarge):
        a_support_steps(g, 0.8)


def test_full_space_size_refused_before_allocation():
    # 2^200 coefficients for ring-200, and 2^30 for the embedding of
    # GHZ-30's two-entry A-support: each build passes the same size check.
    g = standard_graph(GraphKind.CLOSED_CLUSTER, 200)
    with pytest.raises(TooLarge):
        threshold_report(g, Family.RHO_Q, "fmax", 0.97)
    for build in (pure_target, lambda g: global_white(g, 0.5), lambda g: prepared_with_channel_noise(g, 0.9)):
        with pytest.raises(TooLarge):
            build(g)
    with pytest.raises(TooLarge):
        rho_a_family(standard_graph(GraphKind.GHZ, 30), 0.5)


def test_restricted_gain_region_memory_n32():
    # The region reads closed-form sums and builds no A-support state, so
    # its peak, the 200-point scan grid, stays far below one 2^(n/2)-double
    # vector and it holds nothing after it returns.
    vector = 8 << 16
    tracemalloc.start()
    try:
        restricted_gain_region(32, 0.8)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * vector, f"peak {peak / vector:.2f} x 2^16 doubles"
    assert held <= 0.5 * vector, f"held {held / vector:.2f} x 2^16 doubles"


GAIN_GRID_P = (1.0, 0.95, 0.9, 0.85, 0.8, 0.75, 0.7, 0.6, 0.5)


def _hex_edges(region, n, p):
    try:
        return tuple(x.hex() for x in region(n, p))
    except EmptyRegion:
        return "empty"


def test_restricted_gain_region_matches_vector_reference():
    # The closed form reads the sums the reference takes over 2^(n/2)
    # vectors; its last bits differ, but no edge moves by a single bit.
    cases = [(n, p) for n in range(4, 20, 2) for p in GAIN_GRID_P]
    cases += [(n, p) for n in range(20, 30, 2) for p in (0.95, 0.8, 0.7, 0.6)]
    got = {case: _hex_edges(restricted_gain_region, *case) for case in cases}
    want = {case: _hex_edges(vector_gain_region, *case) for case in cases}
    assert got == want
    assert list(got.values()).count("empty") == 19
    for n in range(4, 24, 2):
        for p in GAIN_GRID_P:
            signal = ring_signal(n, p)
            s0, sum_sq = _ring_signal_sums(n // 2, p)
            assert abs(s0 - signal[0]) <= 2e-15 * signal[0]
            assert abs(sum_sq - signal @ signal) <= 2e-15 * (signal @ signal)


@pytest.mark.parametrize("n,edges", [
    (8, (0.19637216343722996, 0.9233074967167263)),
    (10, (0.10594242789286909, 0.9244107185098446)),
    (12, (0.06082481079202045, 0.9189539522063659)),
    (14, (0.03606747908005109, 0.9111349431499048)),
])
def test_restricted_gain_region_regression(n, edges):
    # Criterion 04 checks only the edges' exponent windows; these exact
    # floats pin the bisection's stop rule and midpoints as well.
    assert restricted_gain_region(n, 0.8) == edges


def test_dejmps_pure_fixed():
    b, p_succ = dejmps_step(BellDiag(1.0, 0.0, 0.0, 0.0), 1.0)
    assert b.a == 1.0 and p_succ == 1.0


def test_dejmps_werner_converges():
    b = BellDiag(0.7, 0.1, 0.1, 0.1)
    for r in range(30):
        b, _ = dejmps_step(b, 1.0)
        if b.fidelity >= 1 - 1e-6:
            break
    assert b.fidelity >= 1 - 1e-6


def test_dejmps_pure_attracts_above_half(rng):
    # perfect operations: every start with dominant first coefficient purifies
    for _ in range(6):
        rest = rng.random(3)
        rest *= rng.uniform(0.05, 0.45) / rest.sum()
        b = BellDiag(1.0 - rest.sum(), *rest)
        assert b.a > 0.5
        fp = dejmps_fixed_point(1.0, start=b)
        assert fp.a >= 1 - 1e-9


def test_dejmps_normalized_nonnegative(rng):
    for _ in range(25):
        vec = rng.random(4)
        vec /= vec.sum()
        b, p_succ = dejmps_step(BellDiag(*vec), float(rng.uniform(0.9, 1.0)))
        assert 0.0 < p_succ <= 1.0 + 1e-12
        assert b.vec.min() >= -1e-12
        assert b.vec.sum() == pytest.approx(1.0, abs=1e-9)


def test_dejmps_step_matches_closed_form(rng):
    # Each qubit's depolarization maps v to p v + (1-p)/4 sum(v); with
    # w the vector after both, the round keeps [w0^2 + w1^2, 2 w2 w3,
    # w2^2 + w3^2, 2 w0 w1] / N with N = (w0 + w1)^2 + (w2 + w3)^2 = p_succ.
    for p in [1.0] * 50 + rng.uniform(0.5, 1.0, 150).tolist():
        vec = rng.random(4)
        vec /= vec.sum()
        w = vec
        for _ in range(2):
            w = p * w + (1.0 - p) / 4.0 * w.sum()
        norm = (w[0] + w[1]) ** 2 + (w[2] + w[3]) ** 2
        want = np.array([w[0] ** 2 + w[1] ** 2, 2 * w[2] * w[3], w[2] ** 2 + w[3] ** 2, 2 * w[0] * w[1]]) / norm
        b, p_succ = dejmps_step(BellDiag(*vec), p)
        assert np.abs(b.vec - want).max() <= 1e-14
        assert abs(p_succ - norm) <= 1e-14


def test_dejmps_step_accepts_roundoff_below_zero():
    # BellDiag admits coefficients down to -1e-12; the round reads them as 0.
    b, p_succ = dejmps_step(BellDiag(1.0 + 1e-13, -1e-13, 0.0, 0.0), 0.99)
    want, want_succ = dejmps_step(BellDiag(1.0, 0.0, 0.0, 0.0), 0.99)
    assert np.abs(b.vec - want.vec).max() <= 1e-12 and abs(p_succ - want_succ) <= 1e-12


def test_dejmps_fixed_point_regression():
    fp = dejmps_fixed_point(0.97)
    assert fp.a == pytest.approx(0.9606172319433466, abs=1e-9)
    # attracting: the same point from a different start
    fp2 = dejmps_fixed_point(0.97, start=BellDiag(0.7, 0.1, 0.1, 0.1))
    assert np.abs(fp.vec - fp2.vec).max() < 1e-9


def test_bepp_bound(path4):
    assert bepp_bound(path4, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert bepp_bound(path4, 0.97) == pytest.approx(0.8865435264744547, abs=1e-9)
    assert bepp_bound(path4, 0.97) < f_max(path4, 0.97)
    bounds = [bepp_bound(path4, p) for p in (1.0, 0.99, 0.98, 0.97, 0.96)]
    for a, b in zip(bounds, bounds[1:]):
        assert b <= a + 1e-12


# Pinned (value, lo, hi, rounds_used) of one search per trajectory loop:
# restricted p_min runs the gain-and-hold predicate, rho-q p_min the fixed
# point and the climb predicate, q_min, f_max and f_min the fixed point and
# the climb. rounds_used counts every round applied, so it pins the stop
# decisions of each loop exactly. The ring-12 case records the current
# restricted p_min only; criterion 04 keeps its own window.
@pytest.mark.parametrize("kind,n,family,quantity,p,want", [
    (GraphKind.GHZ, 4, Family.RESTRICTED_BITFLIP, "pmin", 1.0,
     (0.7936767578124999, 0.793603515625, 0.79375, 7117)),
    (GraphKind.GHZ, 5, Family.RHO_Q, "pmin", 1.0,
     (0.9669677734375002, 0.9668945312500001, 0.9670410156250001, 1530)),
    (GraphKind.LINEAR_CLUSTER, 4, Family.RHO_Q, "qmin", 0.99,
     (0.6716089248657227, 0.6716079711914062, 0.6716098785400391, 846)),
    (GraphKind.LINEAR_CLUSTER, 4, Family.RHO_Q, "fmax", 0.97,
     (0.9237740042879217, 0.9237740032879217, 0.9237740052879216, 22)),
    (GraphKind.LINEAR_CLUSTER, 4, Family.RHO_X, "fmin", 0.99,
     (0.2791607975959778, 0.27915990352630615, 0.2791616916656494, 772)),
    (GraphKind.GHZ, 3, Family.RHO_A, "fmin", 1.0,
     (0.5000009536743164, 0.5, 0.5000019073486328, 227)),
    (GraphKind.CLOSED_CLUSTER, 6, Family.RESTRICTED_BITFLIP, "pmin", 1.0,
     (0.6813232421875, 0.6812499999999999, 0.6813964843749999, 15136)),
    (GraphKind.CLOSED_CLUSTER, 12, Family.RESTRICTED_BITFLIP, "pmin", 1.0,
     (0.6140869140625, 0.614013671875, 0.6141601562500001, 3614)),
], ids=["ghz4-restricted-pmin", "ghz5-rho-q-pmin", "path4-qmin", "path4-fmax", "path4-rho-x-fmin",
        "ghz3-rho-a-fmin", "ring6-restricted-pmin", "ring12-restricted-pmin"])
def test_threshold_report_invariants(kind, n, family, quantity, p, want):
    g = standard_graph(kind, n)
    report = threshold_report(g, family, quantity, p)
    assert isinstance(report, ThresholdReport)
    assert report.lo < report.value < report.hi
    assert report.hi - report.lo <= 2 * report.tolerance + 1e-12
    value, lo, hi, rounds_used = want
    assert report.rounds_used == rounds_used
    assert (report.value, report.lo, report.hi) == pytest.approx((value, lo, hi), abs=1e-12)
    with pytest.raises(BadParam):
        threshold_report(g, family, "bogus", p)
