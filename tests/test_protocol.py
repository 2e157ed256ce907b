import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gspurify import protocol, states, transforms
from gspurify.errors import BadParam, ZeroSuccess
from gspurify.graphs import GraphKind, build_graph, standard_graph
from gspurify.protocol import (
    Protocol,
    StopRule,
    Verdict,
    _depolarize_multiplier,
    _measure_flip_multiplier,
    _meet_products,
    _protocol_step,
    a_support_steps,
    iterate,
    p1_step,
    p2_step,
    run_schedule,
    trajectory,
)
from gspurify.states import (
    ASupportState,
    GDState,
    apply_pauli_channel,
    bitflip_b_noise,
    depolarizing_channel,
    prepared_with_channel_noise,
    pure_target,
    rho_a_family,
    rho_a_support,
)
from gspurify.transforms import PRODUCT_BLOCK_BITS, spread_submasks, wht_bits
from reference import gather_mix, gather_vertex_moves, outcome_flip_masks, reference_step, relabeled, xor_cross_naive


def random_state(g, rng):
    lam = rng.random(g.dim)
    return GDState(g, lam / lam.sum())


def test_pure_target_is_fixed(small_graphs):
    for g in small_graphs:
        for step in (p1_step, p2_step):
            res = step(pure_target(g))
            assert res.p_succ == pytest.approx(1.0, abs=1e-15)
            assert np.abs(res.state.lam - pure_target(g).lam).max() < 1e-15


def test_closed_form_map_ghz3(ghz3):
    res = p1_step(rho_a_family(ghz3, 0.8))
    assert res.state.fidelity == pytest.approx(16.0 / 17.0, abs=1e-15)
    assert res.p_succ == pytest.approx(0.68, abs=1e-15)


def test_family_closure_and_squaring(path4):
    s = rho_a_family(path4, 0.7)
    res = p1_step(s)
    support = spread_submasks(path4.a_mask)
    off = np.ones(path4.dim, dtype=bool)
    off[support] = False
    assert np.abs(res.state.lam[off]).max() == 0.0
    want = s.lam[support] ** 2
    want /= want.sum()
    assert np.abs(res.state.lam[support] - want).max() < 1e-15


def test_p2_squares_pure_a_support(path4, rng):
    # support on a_part == 0 is preserved with entrywise squaring over B
    b_support = spread_submasks(path4.b_mask)
    lam = np.zeros(path4.dim)
    lam[b_support] = rng.random(len(b_support))
    lam /= lam.sum()
    s = GDState(path4, lam)
    res = p2_step(s)
    off = np.ones(path4.dim, dtype=bool)
    off[b_support] = False
    assert np.abs(res.state.lam[off]).max() == 0.0
    want = lam[b_support] ** 2
    want /= want.sum()
    assert np.abs(res.state.lam[b_support] - want).max() < 1e-14


@pytest.mark.parametrize("kind,n", [
    (GraphKind.GHZ, 5),
    (GraphKind.LINEAR_CLUSTER, 6),
    (GraphKind.CLOSED_CLUSTER, 6),
])
def test_fast_equals_naive(kind, n, rng):
    g = standard_graph(kind, n)
    for _ in range(10):
        lam = rng.random(g.dim)
        lam /= lam.sum()
        res = p1_step(GDState(g, lam))  # perfect P1: the B-bit XOR self-square, normalised
        fast = res.state.lam * res.p_succ
        naive = xor_cross_naive(lam, lam, g.n, g.b_mask)
        assert np.abs(fast - naive).max() < 1e-12


@pytest.mark.parametrize("p,f_m", [(1.0, 0.0), (0.93, 0.0), (1.0, 0.03), (0.95, 0.02)])
def test_step_modes_agree_end_to_end(path4, rng, p, f_m):
    s = random_state(path4, rng)
    for step, which in ((p1_step, Protocol.P1), (p2_step, Protocol.P2)):
        fast = step(s, p, f_m)
        naive = reference_step(s, which, p, f_m)
        assert np.abs(fast.state.lam - naive.state.lam).max() < 1e-12
        assert fast.p_succ == pytest.approx(naive.p_succ, abs=1e-12)


def test_p_succ_identity(small_graphs, rng):
    # perfect operations: acceptance probability from the input alone
    for g in small_graphs:
        s = random_state(g, rng)
        a_subs = spread_submasks(g.a_mask)
        b_subs = spread_submasks(g.b_mask)
        want_p1 = sum(float(s.lam[a | b_subs].sum()) ** 2 for a in a_subs)
        want_p2 = sum(float(s.lam[a_subs | b].sum()) ** 2 for b in b_subs)
        assert p1_step(s).p_succ == pytest.approx(want_p1, abs=1e-12)
        assert p2_step(s).p_succ == pytest.approx(want_p2, abs=1e-12)


def test_output_normalized_nonnegative(small_graphs, rng):
    for g in small_graphs:
        s = random_state(g, rng)
        res = p1_step(s, 0.9, 0.02)
        assert res.state.lam.min() >= 0.0
        assert res.state.lam.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_monotone_gain_above_threshold(n):
    g = standard_graph(GraphKind.LINEAR_CLUSTER, n)
    lo = 1.0 / (1 << g.n_a)
    for f in np.linspace(lo + 0.02, 0.99, 9):
        s = rho_a_family(g, float(f))
        assert p1_step(s).state.fidelity > s.fidelity


def test_param_validation(ghz3):
    s = pure_target(ghz3)
    with pytest.raises(BadParam):
        p1_step(s, p=1.2)
    with pytest.raises(BadParam):
        p1_step(s, f_m=0.7)


def test_iterate_converges_from_above_half(ghz3):
    tr = iterate(rho_a_family(ghz3, 0.6), (Protocol.P1,))
    assert tr.verdict is Verdict.CONVERGED
    assert tr.final_fidelity >= 1 - 1e-6


def test_iterate_diverges_below_half(ghz3):
    tr = iterate(rho_a_family(ghz3, 0.4), (Protocol.P1,))
    assert tr.verdict is Verdict.DIVERGED


def test_iterate_converged_at_round_zero(path4):
    tr = iterate(rho_a_family(path4, 1.0), (Protocol.P1, Protocol.P2))
    assert tr.verdict is Verdict.CONVERGED
    assert len(tr.rows) == 0
    assert tr.expected_cost == 1.0


def test_iterate_stalls_at_noisy_fixed_point():
    g = standard_graph(GraphKind.LINEAR_CLUSTER, 6)
    tr = iterate(prepared_with_channel_noise(g, 0.9), (Protocol.P1, Protocol.P2), 0.99,
                 stop=StopRule(1e-6, 1e-12, 500))
    assert tr.verdict is Verdict.STALLED
    # regression baseline, pinned from a verified run
    assert tr.final_fidelity == pytest.approx(0.96819616689096, abs=1e-9)


def test_expected_cost_accounting(path4):
    tr = iterate(prepared_with_channel_noise(path4, 0.95), stop=StopRule(r_max=6))
    want = 1.0
    for row in tr.rows:
        want *= 2.0 / row.p_succ
    assert tr.expected_cost == pytest.approx(want, rel=1e-12)
    assert tr.expected_cost >= 2 ** len(tr.rows)


def test_max_rounds_verdict(path4):
    tr = iterate(prepared_with_channel_noise(path4, 0.9), p=0.99, stop=StopRule(r_max=2))
    assert tr.verdict is Verdict.MAX_ROUNDS
    assert len(tr.rows) == 2


def test_trace_csv_shape(path4):
    tr = iterate(prepared_with_channel_noise(path4, 0.92), stop=StopRule(r_max=4))
    lines = tr.to_csv().strip().splitlines()
    assert lines[0] == "round,protocol,F_before,F_after,p_succ,cumulative_expected_cost"
    assert len(lines) == len(tr.rows) + 1
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "P1"


def test_schedule_labels(path4):
    tr = iterate(prepared_with_channel_noise(path4, 0.9), (Protocol.P2, Protocol.P1),
                 stop=StopRule(r_max=4))
    assert [row.protocol for row in tr.rows[:2]] == ["P2", "P1"]


def test_empty_schedule_rejected(path4):
    # The driver refuses it before it looks at the state (the pure target
    # has converged already), and so does the engine every search runs.
    for call in (lambda: run_schedule(pure_target(path4), []),
                 lambda: next(trajectory(pure_target(path4), [], 10, 0.0))):
        with pytest.raises(BadParam, match="nonempty"):
            call()


def test_non_finite_acceptance_rejected(path4):
    # a state whose coefficients were corrupted after validation; built from
    # coefficients, so a round reads its spectrum from them
    s = GDState(path4, prepared_with_channel_noise(path4, 0.9).lam)
    lam = s.lam.copy()
    lam[3] = np.nan
    object.__setattr__(s, "lam", lam)
    for step in (p1_step, lambda s: reference_step(s, Protocol.P1, 1.0, 0.0)):
        with pytest.raises(BadParam, match="not finite"):
            step(s)


@st.composite
def connected_bipartite_graphs(draw, max_n=7):
    """A random tree on 2..max_n vertices plus random extra edges between its
    two colour classes."""
    n = draw(st.integers(2, max_n))
    parent = [draw(st.integers(0, v - 1)) for v in range(1, n)]
    depth = [0]
    for p in parent:
        depth.append(depth[p] + 1)
    edges = {(p, v) for v, p in enumerate(parent, start=1)}
    for u in range(n):
        for v in range(u + 1, n):
            if (depth[u] + depth[v]) % 2 and (u, v) not in edges and draw(st.booleans()):
                edges.add((u, v))
    return build_graph(n, sorted(edges))


def gd_states(g):
    weights = st.lists(st.floats(0.0, 1.0), min_size=g.dim, max_size=g.dim)
    return weights.filter(lambda w: sum(w) > 0.1).map(lambda w: GDState(g, np.array(w) / sum(w)))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_transform_round_matches_reference(data):
    # The multiplier path (gate noise and outcome flips as transform-domain
    # factors) against index shuffles and direct sums over flip patterns.
    g = data.draw(connected_bipartite_graphs())
    s = data.draw(gd_states(g))
    p = data.draw(st.floats(0.5, 1.0))
    f_m = data.draw(st.floats(0.0, 0.5))
    for step, which in ((p1_step, Protocol.P1), (p2_step, Protocol.P2)):
        got = step(s, p, f_m)
        want = reference_step(s, which, p, f_m)
        assert np.abs(got.state.lam - want.state.lam).max() <= 1e-12
        assert abs(got.p_succ - want.p_succ) <= 1e-12
        for res in (got, want):
            assert abs(res.state.lam.sum() - 1.0) <= 1e-12


def popcount_depolarize_multiplier(g, q):
    """The gate-noise multiplier from uint64 popcounts and an element-wise
    power: the reference the XOR-span build must match bit for bit."""
    idx = np.arange(g.dim, dtype=np.uint64)
    violated = np.zeros(g.dim, dtype=np.int64)
    for v in range(g.n):
        own = ((idx >> np.uint64(v)) & np.uint64(1)).astype(np.int64)
        nbr = (np.bitwise_count(idx & np.uint64(g.neighbor_mask[v])) & np.uint64(1)).astype(np.int64)
        violated += own | nbr
    return np.float_power(q, violated)


def popcount_measure_flip_multiplier(g, f_m, which):
    """The outcome-flip multiplier from uint64 popcounts and an element-wise
    power of 1 - 2 f_m, the same reference. That each flip transforms to
    1 - 2 f_m on odd parity is checked on its own against direct sums over
    flip patterns (test_transform_round_matches_reference) and against the
    dense oracle."""
    idx = np.arange(g.dim, dtype=np.uint64)
    odd = np.zeros(g.dim, dtype=np.int64)
    for mask in outcome_flip_masks(g, which):
        odd += (np.bitwise_count(idx & np.uint64(mask)) & np.uint64(1)).astype(np.int64)
    return np.float_power(1.0 - 2.0 * f_m, odd)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_power_table_multipliers_match_popcount_formulas(data):
    g = data.draw(connected_bipartite_graphs(max_n=12))
    q = data.draw(st.floats(0.0, 1.0))
    f_m = data.draw(st.floats(0.0, 0.5))
    # __wrapped__ builds afresh, past the one-trajectory caches.
    assert np.array_equal(_depolarize_multiplier.__wrapped__(g, q), popcount_depolarize_multiplier(g, q))
    for which in Protocol:
        assert np.array_equal(_measure_flip_multiplier.__wrapped__(g, f_m, which),
                              popcount_measure_flip_multiplier(g, f_m, which))


def test_cached_multipliers_are_read_only(path4):
    # A write into a cached multiplier would change every later round at
    # that p, so the caches hand out read-only arrays.
    depolarize = _depolarize_multiplier(path4, 0.97)
    flip = _measure_flip_multiplier(path4, 0.05, Protocol.P1)
    for cached in (depolarize, flip):
        with pytest.raises(ValueError):
            cached[0] = 2.0
    assert _depolarize_multiplier(path4, 0.97) is depolarize
    assert np.array_equal(depolarize, popcount_depolarize_multiplier(path4, 0.97))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_channels_and_rounds_conserve_trace(data):
    g = data.draw(connected_bipartite_graphs())
    s = data.draw(gd_states(g))
    q = data.draw(st.floats(0.0, 1.0))
    v = data.draw(st.integers(0, g.n - 1))
    weights = data.draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(lambda w: sum(w) > 0.1))
    probs = tuple(np.array(weights) / sum(weights))
    outputs = [prepared_with_channel_noise(g, q), depolarizing_channel(s, v, q),
               apply_pauli_channel(s, v, probs), bitflip_b_noise(s, q)]
    p = data.draw(st.floats(0.5, 1.0))
    f_m = data.draw(st.floats(0.0, 0.5))
    outputs += [p1_step(s, p, f_m).state, p2_step(s, p, f_m).state]
    for out in outputs:
        assert abs(out.lam.sum() - 1.0) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_channels_match_gather_reference(data):
    g = data.draw(connected_bipartite_graphs())
    s = data.draw(gd_states(g))
    v = data.draw(st.integers(0, g.n - 1))
    maybe_zero = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    weights = data.draw(st.lists(maybe_zero, min_size=4, max_size=4).filter(lambda w: sum(w) > 0.1))
    probs = tuple(np.array(weights) / sum(weights))
    want = gather_mix(s.lam, probs[0], gather_vertex_moves(g, v, *probs[1:]))
    assert np.array_equal(apply_pauli_channel(s, v, probs).lam, want)

    q = data.draw(st.one_of(st.just(1.0), st.just(0.0), st.floats(0.0, 1.0)))
    r = (1.0 - q) / 4.0
    want = gather_mix(s.lam, q + r, gather_vertex_moves(g, v, r, r, r))
    assert np.array_equal(depolarizing_channel(s, v, q).lam, want)
    # The channel-noise input is the gate-noise multiplier read as a spectrum.
    assert np.array_equal(prepared_with_channel_noise(g, q).spectrum, g.to_engine(popcount_depolarize_multiplier(g, q)))

    flip = (1.0 - q) / 2.0
    want = s.lam
    for u in sorted(g.b_vertices):
        want = gather_mix(want, 1.0 - flip, ((flip, g.neighbor_mask[u]),))
    assert np.array_equal(bitflip_b_noise(s, q).lam, want)


def a_support_states(g):
    weights = st.lists(st.floats(0.0, 1.0), min_size=1 << g.n_a, max_size=1 << g.n_a)
    return weights.filter(lambda w: sum(w) > 0.1).map(
        lambda w: ASupportState(g, np.array(w) / sum(w)))


def _round(g, s, p):
    ((_, step),) = a_support_steps(g, p)
    return step(s)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_a_support_round_matches_full_space(data):
    g = data.draw(connected_bipartite_graphs())
    s = data.draw(a_support_states(g))
    p = data.draw(st.floats(0.0, 1.0))
    got = _round(g, s, p)
    want = p1_step(bitflip_b_noise(s.embedded(), p))
    assert np.abs(got.state.embedded().lam - want.state.lam).max() <= 1e-15
    assert abs(got.p_succ - want.p_succ) <= 1e-15
    assert abs(got.state.lam.sum() - 1.0) <= 1e-15


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_support_round_covariant_under_relabeling(data):
    g = data.draw(connected_bipartite_graphs())
    perm = data.draw(st.permutations(range(g.n)))
    h = relabeled(g, perm)
    # BFS roots each component at its smallest vertex, so a relabeling may
    # swap the colour classes; only colour-preserving ones map the model
    # onto itself.
    assume(h.a_vertices == frozenset(perm[v] for v in g.a_vertices))
    s = data.draw(a_support_states(g))
    p = data.draw(st.floats(0.0, 1.0))
    moved = [sum(1 << perm[v] for v in range(g.n) if int(m) >> v & 1) for m in spread_submasks(g.a_mask)]
    to_h = np.searchsorted(spread_submasks(h.a_mask), moved)
    lam_h = np.empty_like(s.lam)
    lam_h[to_h] = s.lam
    got_g = _round(g, s, p)
    got_h = _round(h, ASupportState(h, lam_h), p)
    assert np.abs(got_h.state.lam[to_h] - got_g.state.lam).max() <= 1e-15
    assert abs(got_h.p_succ - got_g.p_succ) <= 1e-15


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_full_space_rounds_covariant_under_relabeling(data):
    g = data.draw(connected_bipartite_graphs())
    perm = data.draw(st.permutations(range(g.n)))
    h = relabeled(g, perm)
    # As for the A-support round: only colour-preserving relabelings map
    # P1 onto P1 and P2 onto P2.
    assume(h.a_vertices == frozenset(perm[v] for v in g.a_vertices))
    s = data.draw(gd_states(g))
    p = data.draw(st.floats(0.5, 1.0))
    f_m = data.draw(st.floats(0.0, 0.5))
    moved = np.array([sum(1 << perm[v] for v in range(g.n) if m >> v & 1) for m in range(g.dim)])
    lam_h = np.empty_like(s.lam)
    lam_h[moved] = s.lam
    # The transforms visit the bits in another order, so roundoff differs.
    tol = 1e-14
    for step in (p1_step, p2_step):
        got_g = step(s, p, f_m)
        got_h = step(GDState(h, lam_h), p, f_m)
        assert np.abs(got_h.state.lam[moved] - got_g.state.lam).max() <= tol
        assert abs(got_h.p_succ - got_g.p_succ) <= tol


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_p1_and_p2_mirror_under_colour_swap(data):
    # Giving a B-vertex label 0 makes it the BFS root, so the colour classes
    # swap: P1 on g is P2 on the relabelled graph, and P2 is P1.
    g = data.draw(connected_bipartite_graphs())
    perm = list(data.draw(st.permutations(range(g.n))))
    b = data.draw(st.sampled_from(sorted(g.b_vertices)))
    root = perm.index(0)
    perm[root], perm[b] = perm[b], 0
    h = relabeled(g, perm)
    assert h.a_vertices == frozenset(perm[v] for v in g.b_vertices)
    s = data.draw(gd_states(g))
    p = data.draw(st.floats(0.5, 1.0))
    f_m = data.draw(st.floats(0.0, 0.5))
    moved = np.array([sum(1 << perm[v] for v in range(g.n) if m >> v & 1) for m in range(g.dim)])
    lam_h = np.empty_like(s.lam)
    lam_h[moved] = s.lam
    tol = 1e-14  # as for the covariance test: the bits are visited in another order
    for step_g, step_h in ((p1_step, p2_step), (p2_step, p1_step)):
        got_g = step_g(s, p, f_m)
        got_h = step_h(GDState(h, lam_h), p, f_m)
        assert np.abs(got_h.state.lam[moved] - got_g.state.lam).max() <= tol
        assert abs(got_h.p_succ - got_g.p_succ) <= tol


@pytest.mark.parametrize("n", [4, 7, 10, 15, 20])
def test_a_support_rounds_on_paths_follow_per_vertex_recurrence(n):
    # On a path the B-flips reach each A-pattern from one flip pattern, so
    # from the pure target every B-vertex stays flipped independently with
    # one probability q: the noise takes it to s = q(1-f) + (1-q)f, the
    # round's squaring to s^2 / (s^2 + (1-s)^2), and the fidelity is
    # (1-q)^N_B after each round.
    g = standard_graph(GraphKind.LINEAR_CLUSTER, n)
    for p in (0.45, 0.6, 0.75, 0.9, 0.95):
        ((_, step),) = a_support_steps(g, p)
        f = (1.0 - p) / 2.0
        s, q = rho_a_support(g, 1.0), 0.0
        for _ in range(300):
            s = step(s).state
            s_flip = q * (1.0 - f) + (1.0 - q) * f
            q = s_flip**2 / (s_flip**2 + (1.0 - s_flip) ** 2)
            assert abs(s.fidelity - (1.0 - q) ** g.n_b) <= 1e-13


def test_a_support_step_checks(ring4):
    with pytest.raises(BadParam):
        a_support_steps(ring4, 1.2)
    with pytest.raises(BadParam, match="shape"):
        ASupportState(ring4, np.full(3, 1.0 / 3.0))
    ((label, step),) = a_support_steps(ring4, 0.9)
    assert label == "P1"
    with pytest.raises(BadParam, match="not finite"):
        step(ASupportState(ring4, np.array([np.nan, 0.0, 0.0, 1.0])))
    with pytest.raises(ZeroSuccess):
        step(ASupportState(ring4, np.zeros(4)))


def test_lam_read_from_a_spectrum_refuses_what_roundoff_cannot_explain(path4):
    # A round's output holds its spectrum; the coefficients are read out of
    # it once, where roundoff below 1e-12 of the largest is clamped to 0.
    lam = np.full(path4.dim, 1.0 / (path4.dim - 1))
    lam[5] = -1e-14
    s = GDState.from_spectrum(path4, path4.to_engine(wht_bits(lam, path4.n, path4.dim - 1)))
    assert s.lam[5] == 0.0 and s.lam is s.lam
    assert s.fidelity == pytest.approx(lam[0], abs=1e-16)
    lam[5] = -2e-12 * lam.max()
    bad = GDState.from_spectrum(path4, path4.to_engine(wht_bits(lam, path4.n, path4.dim - 1)))
    assert bad.fidelity == pytest.approx(lam[0], abs=1e-16)  # the spectrum alone still reads
    with pytest.raises(BadParam, match="below roundoff floor"):
        bad.lam
    with pytest.raises(BadParam, match="below roundoff floor"):
        bad.to_csv()


def coefficient_domain_round(lam, g, which, p, f_m):
    """One noisy round in the coefficient domain: a forward transform over
    every bit, both inverse halves, and the floor, clamp and normalisation
    on the coefficients."""
    coin = g.a_mask if which is Protocol.P1 else g.b_mask
    conv = coin ^ (g.dim - 1)
    spectrum = wht_bits(lam, g.n, g.dim - 1) * _depolarize_multiplier(g, p)
    x = wht_bits(spectrum, g.n, coin, inverse=True)
    partner = wht_bits(spectrum * _measure_flip_multiplier(g, f_m, which), g.n, coin, inverse=True)
    u = wht_bits(x * partner, g.n, conv, inverse=True)
    p_succ = u.sum()
    assert u.min() >= -1e-12 * u.max()
    return np.maximum(u, 0.0) / p_succ, p_succ


@pytest.mark.parametrize("kind,n,p", [(GraphKind.LINEAR_CLUSTER, 6, 0.97), (GraphKind.GHZ, 5, 0.98)])
def test_long_noisy_runs_match_coefficient_domain_rounds(kind, n, p):
    # Hundreds of rounds that never leave the spectrum agree with rounds
    # that return to the coefficients each time: roundoff does not build up.
    g = standard_graph(kind, n)
    f_m = 0.01
    s0 = prepared_with_channel_noise(g, 0.95)
    tr = iterate(s0, (Protocol.P1, Protocol.P2), p, f_m, StopRule(eps=0.0, tol=0.0, r_max=520))
    assert tr.verdict is Verdict.MAX_ROUNDS and len(tr.rows) == 520
    lam = s0.lam
    worst_f = worst_p = 0.0
    for row in tr.rows:
        lam, p_succ = coefficient_domain_round(lam, g, Protocol(row.protocol), p, f_m)
        worst_f = max(worst_f, abs(row.f_after - lam[0]))
        worst_p = max(worst_p, abs(row.p_succ - p_succ))
    assert worst_f <= 1e-13 and worst_p <= 1e-13
    assert np.abs(tr.final_state.lam - lam).max() <= 1e-13


def butterfly_meet(spectrum, n, mask, flip):
    """What `_meet_products` computes, by wht_bits calls."""
    x = wht_bits(spectrum, n, mask, inverse=True)
    if flip is None:
        x *= x
    else:
        x *= wht_bits(spectrum * flip, n, mask, inverse=True)
    return wht_bits(x, n, mask)


@pytest.mark.parametrize("n", range(1, 17))
def test_product_round_matches_butterflies_and_direct_sums(n, rng):
    # One block and up to eight of them, over the two colour classes of a
    # path in the engine order (the low and the high run), the full mask, no
    # bit and random runs, without and with a partner weight: the flip of a
    # random pattern a with probability 0.3, whose multiplier is 1 - 0.6 on
    # characters of odd parity with a. The direct sums stop at one block,
    # where they still take a second.
    full = (1 << n) - 1
    low_run = (1 << (n + 1) // 2) - 1  # a path's class A, the larger or tied one
    masks = {low_run, full ^ low_run, full, 0}
    for lo, hi in rng.integers(0, n + 1, size=(2, 2)):
        lo, hi = sorted((int(lo), int(hi)))
        masks.add((1 << hi) - (1 << lo))
    lam = rng.random(1 << n) ** 4  # peaked, unlike a near-uniform draw
    lam /= lam.sum()
    spectrum = wht_bits(lam, n, full)
    pattern = int(rng.integers(1, 1 << n)) if n > 1 else 1
    flip = 1.0 - 0.6 * (np.bitwise_count(np.arange(1 << n) & pattern) & 1)
    partner = 0.7 * lam + 0.3 * lam[np.arange(1 << n) ^ pattern]
    keep = spectrum.copy()
    for mask in masks:
        for weight, other in ((None, lam), (flip, partner)):
            got = _meet_products(spectrum, mask, weight)
            assert np.abs(got - butterfly_meet(spectrum, n, mask, weight)).max() <= 1e-12, (bin(mask), weight)
            if n <= PRODUCT_BLOCK_BITS:
                direct = wht_bits(xor_cross_naive(lam, other, n, full ^ mask), n, full)
                assert np.abs(got - direct).max() <= 1e-12, (bin(mask), weight)
    assert np.array_equal(spectrum, keep)  # the input is never written, not even with no bit to transform
    if n > 2:
        with pytest.raises(ValueError, match="one run"):
            _meet_products(spectrum, 0b101, None)


@pytest.mark.parametrize("n", [PRODUCT_BLOCK_BITS, PRODUCT_BLOCK_BITS + 1, 20])
def test_rounds_call_no_wht_bits(monkeypatch, n):
    # A state built as its spectrum needs no transform of its own, so a
    # wht_bits call could only be the round's: at one block, just past it
    # and at 2^20 entries every round runs as products.
    g = standard_graph(GraphKind.LINEAR_CLUSTER, n)
    s = prepared_with_channel_noise(g, 0.9)
    calls = []
    assert not hasattr(protocol, "wht_bits")
    for module in (states, transforms):
        monkeypatch.setattr(module, "wht_bits", lambda *a, _real=module.wht_bits, **k: calls.append(a[1:3]) or _real(*a, **k))
    for step in (p1_step, p2_step):
        for f_m in (0.0, 0.01):
            assert step(s, 0.95, f_m).p_succ > 0.0
    assert calls == []


@pytest.mark.parametrize("f_m,bound", [(0.0, 3.1), (0.01, 4.1)])
def test_round_peak_memory_n18(f_m, bound):
    # A round holds its input times the gate-noise multiplier, the
    # transformed copy and the output (with flips, also the input times the
    # flip multiplier and its transform); above one block no product is
    # larger than a block.
    for kind in (GraphKind.LINEAR_CLUSTER, GraphKind.GHZ):
        g = standard_graph(kind, 18)
        s = prepared_with_channel_noise(g, 0.9)
        vector = 8 * g.dim
        for step in (p1_step, p2_step):
            step(s, 0.95, f_m)  # warm the caches first
            tracemalloc.start()
            try:
                step(s, 0.95, f_m)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound * vector, f"{kind.name} {step.__name__} peak {peak / vector:.2f} x 2^n doubles"
