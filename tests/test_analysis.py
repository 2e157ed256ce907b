import numpy as np
import pytest

from gspurify.analysis import (
    BellDiag,
    Family,
    ThresholdReport,
    _bisect,
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
from gspurify.errors import BadParam, BracketError, EmptyRegion, InvalidParam
from gspurify.graphs import GraphKind, standard_graph
from gspurify.protocol import _depolarize_multiplier, _measure_flip_multiplier, p1_step
from gspurify.states import rho_a_family


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


def test_p_min_family_validation(path4):
    with pytest.raises(BadParam):
        p_min(path4, Family.RHO_X)


@pytest.mark.parametrize("quantity,family", [
    ("fmin", Family.RHO_Q), ("qmin", Family.RHO_X), ("pmin", Family.RHO_A), ("fmax", Family.RESTRICTED_BITFLIP),
])
def test_threshold_report_refuses_families_its_search_does_not_read(path4, quantity, family):
    with pytest.raises(BadParam, match=f"{quantity} is defined for"):
        threshold_report(path4, family, quantity, 0.97)


@pytest.mark.parametrize("n,value,rounds_used", [
    (16, 0.5925537109375001, 2556),
    (20, 0.5820068359374999, 1743),
    (24, 0.5869873046875, 1496),
])
def test_restricted_p_min_reaches_large_rings(n, value, rounds_used):
    # The restricted search steps a 2^(n/2) A-support vector, so rings whose
    # search in the full 2^n space takes minutes (an hour or so at n = 24)
    # run in under a second.
    g = standard_graph(GraphKind.CLOSED_CLUSTER, n)
    report = threshold_report(g, Family.RESTRICTED_BITFLIP, "pmin")
    assert report.value == pytest.approx(value, abs=1e-12)
    assert report.rounds_used == rounds_used


def test_multiplier_caches_hold_one_trajectory(path4):
    # An entry holds 2^N doubles and a sweep moves on to a new p, so the
    # caches keep only the current p (and the P1/P2 pair of flip multipliers).
    for p in (0.96, 0.97, 0.98, 0.99, 0.995):
        f_max(path4, p, f_m=0.01)
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
     (0.7936767578124999, 0.793603515625, 0.79375, 13181)),
    (GraphKind.GHZ, 5, Family.RHO_Q, "pmin", 1.0,
     (0.9669677734375002, 0.9668945312500001, 0.9670410156250001, 2256)),
    (GraphKind.LINEAR_CLUSTER, 4, Family.RHO_Q, "qmin", 0.99,
     (0.6716089248657227, 0.6716079711914062, 0.6716098785400391, 984)),
    (GraphKind.LINEAR_CLUSTER, 4, Family.RHO_Q, "fmax", 0.97,
     (0.9237740042879217, 0.9237740032879217, 0.9237740052879216, 22)),
    (GraphKind.LINEAR_CLUSTER, 4, Family.RHO_X, "fmin", 0.99,
     (0.2791607975959778, 0.27915990352630615, 0.2791616916656494, 894)),
    (GraphKind.GHZ, 3, Family.RHO_A, "fmin", 1.0,
     (0.5000009536743164, 0.5, 0.5000019073486328, 249)),
    (GraphKind.CLOSED_CLUSTER, 6, Family.RESTRICTED_BITFLIP, "pmin", 1.0,
     (0.6813232421875, 0.6812499999999999, 0.6813964843749999, 18890)),
    (GraphKind.CLOSED_CLUSTER, 12, Family.RESTRICTED_BITFLIP, "pmin", 1.0,
     (0.6140869140625, 0.614013671875, 0.6141601562500001, 5139)),
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
