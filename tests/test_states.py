import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gspurify import oracle
from gspurify.errors import BadDistribution, BadParam, NegativeCoefficient
from gspurify.graphs import GraphKind, parse_graph_text, standard_graph
from gspurify.protocol import Protocol, _depolarize_multiplier, _measure_flip_multiplier
from gspurify.states import (
    GDState,
    PauliAxis,
    apply_pauli_channel,
    bitflip_b_noise,
    depolarizing_channel,
    global_white,
    pauli_flip_mask,
    prepared_with_channel_noise,
    pure_target,
    rho_a_family,
    rho_a_support,
)
from gspurify.transforms import WHT_BLOCK_BITS, wht_bits
from reference import INTERLEAVED_GRAPH_TEXT, depolarized_chain


def test_pure_target(ghz3):
    s = pure_target(ghz3)
    assert s.fidelity == 1.0
    assert s.lam.sum() == 1.0


def test_pure_target_matches_dense_twirl(small_graphs):
    for g in small_graphs:
        lam = oracle.graph_basis_twirl(oracle.dense_graph_state(g).rho, g)
        assert np.abs(lam - pure_target(g).lam).max() < 1e-12


def test_flip_mask_star_center(ghz4):
    assert pauli_flip_mask(ghz4, 0, PauliAxis.X) == 0b1110
    assert pauli_flip_mask(ghz4, 0, PauliAxis.Z) == 0b0001
    assert pauli_flip_mask(ghz4, 0, PauliAxis.Y) == 0b1111


def test_flip_mask_path_interior(path4):
    assert pauli_flip_mask(path4, 2, PauliAxis.X) == 0b1010


def test_flip_mask_involution(small_graphs):
    for g in small_graphs:
        for v in range(g.n):
            for axis in PauliAxis:
                m = pauli_flip_mask(g, v, axis)
                idx = np.arange(g.dim)
                assert np.array_equal((idx ^ m) ^ m, idx)


def test_identity_channel(ghz3, rng):
    lam = rng.random(ghz3.dim)
    s = GDState(ghz3, lam / lam.sum())
    out = apply_pauli_channel(s, 1, (1.0, 0.0, 0.0, 0.0))
    assert np.array_equal(out.lam, s.lam)


def test_uniform_is_fixed(ghz4, rng):
    s = GDState(ghz4, np.full(ghz4.dim, 1.0 / ghz4.dim))
    probs = rng.random(4)
    probs /= probs.sum()
    out = apply_pauli_channel(s, 2, tuple(probs))
    assert np.abs(out.lam - s.lam).max() < 1e-15


def test_leaf_depolarizing_split(ghz3):
    # q=0.8 on a leaf spreads 0.05 onto each of the three flip images
    s = depolarizing_channel(pure_target(ghz3), 1, 0.8)
    want = np.zeros(8)
    want[0] = 0.85
    want[0b001] = 0.05  # X on the leaf toggles the center bit
    want[0b010] = 0.05  # Z toggles its own bit
    want[0b011] = 0.05  # Y toggles both
    assert np.abs(s.lam - want).max() < 1e-15


def test_trace_preserved_exactly(small_graphs, rng):
    for g in small_graphs:
        lam = rng.random(g.dim)
        s = GDState(g, lam / lam.sum())
        for v in range(g.n):
            probs = rng.random(4)
            s = apply_pauli_channel(s, v, tuple(probs / probs.sum()))
        assert abs(s.lam.sum() - 1.0) < 1e-14


def test_channels_commute_on_distinct_vertices(path4, rng):
    lam = rng.random(path4.dim)
    s = GDState(path4, lam / lam.sum())
    p1 = tuple(np.array([0.7, 0.1, 0.1, 0.1]))
    p2 = tuple(np.array([0.4, 0.3, 0.2, 0.1]))
    a = apply_pauli_channel(apply_pauli_channel(s, 0, p1), 3, p2)
    b = apply_pauli_channel(apply_pauli_channel(s, 3, p2), 0, p1)
    # reordered float sums agree to the last bit, not bitwise
    assert np.abs(a.lam - b.lam).max() < 1e-15


def test_bad_distribution(ghz3):
    s = pure_target(ghz3)
    with pytest.raises(BadDistribution):
        apply_pauli_channel(s, 0, (0.5, 0.5, 0.5, -0.5))
    with pytest.raises(BadDistribution):
        apply_pauli_channel(s, 0, (0.5, 0.2, 0.2, 0.2))


def test_depolarizing_limits(path4, rng):
    lam = rng.random(path4.dim)
    s = GDState(path4, lam / lam.sum())
    assert np.array_equal(depolarizing_channel(s, 2, 1.0).lam, s.lam)
    out = s
    for _ in range(60):
        for v in range(path4.n):
            out = depolarizing_channel(out, v, 0.0)
    assert np.abs(out.lam - 1.0 / path4.dim).max() < 1e-12
    with pytest.raises(BadParam):
        depolarizing_channel(s, 0, 1.5)


def test_channel_noise_input_basics(ghz3):
    assert np.array_equal(prepared_with_channel_noise(ghz3, 1.0).lam, pure_target(ghz3).lam)


def test_channel_noise_fidelity_vs_dense():
    g = standard_graph(GraphKind.GHZ, 2)
    q = 0.9
    rho = oracle.dense_graph_state(g).rho
    for v in range(2):
        rho = oracle.dense_depolarizing(rho, 2, v, q)
    psi = oracle.graph_state_vector(g)
    want = float(np.real(psi @ rho @ psi))
    assert abs(prepared_with_channel_noise(g, q).fidelity - want) < 1e-14


def test_channel_noise_order_independent(path4):
    a = pure_target(path4)
    b = pure_target(path4)
    for v in range(path4.n):
        a = depolarizing_channel(a, v, 0.85)
    for v in reversed(range(path4.n)):
        b = depolarizing_channel(b, v, 0.85)
    assert np.abs(a.lam - b.lam).max() < 1e-15


def test_global_white(ghz4, path4):
    assert np.array_equal(global_white(path4, 1.0).lam, pure_target(path4).lam)
    assert np.abs(global_white(path4, 0.0).lam - 1.0 / 16).max() == 0.0
    assert global_white(ghz4, 0.5).fidelity == pytest.approx(0.53125, abs=1e-15)


def test_rho_a_family_support(ghz3, path4):
    assert np.array_equal(rho_a_family(ghz3, 1.0).lam, pure_target(ghz3).lam)
    s = rho_a_family(ghz3, 0.8)
    nz = np.nonzero(s.lam)[0]
    assert list(nz) == [0, 1]
    assert s.lam[0] == 0.8 and s.lam[1] == pytest.approx(0.2)
    s = rho_a_family(path4, 0.7)
    assert len(np.nonzero(s.lam)[0]) == 4
    with pytest.raises(BadParam):
        rho_a_family(path4, 1.5)


def test_bitflip_b_identity_and_hand_value(ghz3, path4, rng):
    lam = rng.random(path4.dim)
    s = GDState(path4, lam / lam.sum())
    assert np.abs(bitflip_b_noise(s, 1.0).lam - s.lam).max() < 1e-15
    # both GHZ-3 leaves flip onto the center bit: 0.9^2 + 0.1^2 / cross terms
    out = bitflip_b_noise(pure_target(ghz3), 0.8)
    assert out.lam[0] == pytest.approx(0.82, abs=1e-15)
    assert out.lam[1] == pytest.approx(0.18, abs=1e-15)
    assert np.abs(out.lam[2:]).max() == 0.0


def test_negative_coefficient_policy(ghz3):
    lam = np.zeros(8)
    lam[0] = 1.0
    lam[3] = -5e-16  # inside slack: clamped
    s = GDState(ghz3, lam)
    assert s.lam[3] == 0.0
    lam[3] = -1e-12
    with pytest.raises(NegativeCoefficient):
        GDState(ghz3, lam)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coefficient_rejected(ghz3, bad):
    lam = np.zeros(8)
    lam[0] = 1.0
    lam[5] = bad
    with pytest.raises(BadParam, match="not finite"):
        GDState(ghz3, lam)


def test_csv_dump(ghz3):
    s = rho_a_family(ghz3, 0.8)
    text = s.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "index,a_part,b_part,lambda"
    assert lines[1].startswith("0,0,0,")
    assert len(lines) == 3  # header + two nonzero rows


@pytest.mark.parametrize("kind,n", [(GraphKind.GHZ, 4), (GraphKind.LINEAR_CLUSTER, 5),
                                    (GraphKind.CLOSED_CLUSTER, 6)])
def test_multi_vertex_channels_match_per_vertex_chain(kind, n, rng):
    # The raw-vector loops must give the same bits as one validated
    # GDState per vertex.
    g = standard_graph(kind, n)
    lam = rng.random(g.dim)
    s = GDState(g, lam / lam.sum())
    for p in (1.0, 0.7):
        flip = (1.0 - p) / 2.0
        chain = s
        for v in sorted(g.b_vertices):
            chain = apply_pauli_channel(chain, v, (1.0 - flip, flip, 0.0, 0.0))
        assert np.array_equal(bitflip_b_noise(s, p).lam, chain.lam)
    for q in (1.0, 0.8, 0.0):
        chain = pure_target(g)
        for v in range(g.n):
            chain = depolarizing_channel(chain, v, q)
        # built in the transform domain: the same coefficients up to roundoff
        assert np.abs(prepared_with_channel_noise(g, q).lam - chain.lam).max() <= 1e-15


def test_channel_peak_memory_n18(rng):
    # A Pauli image is a view of the input, so one channel call holds the
    # output and one scaled image at a time: no 2^n index arrays or gathers.
    # The input build and the outcome-flip multiplier hold two int32 index
    # images, then a uint8 count and their output; the transform holds its
    # output, one block's buffers and at most one high pass's half vector of
    # differences, whichever subset of bits it runs over.
    g = standard_graph(GraphKind.LINEAR_CLUSTER, 18)
    lam = rng.random(g.dim)
    s = GDState(g, lam / lam.sum())
    vector = 8 * g.dim
    for call, bound in ((lambda: apply_pauli_channel(s, 7, (0.7, 0.1, 0.1, 0.1)), 2.1),
                        (lambda: bitflip_b_noise(s, 0.8), 3.1),
                        (lambda: prepared_with_channel_noise(g, 0.9).spectrum, 1.25),
                        (lambda: _measure_flip_multiplier.__wrapped__(g, 0.05, Protocol.P1), 1.25),
                        (lambda: wht_bits(lam, g.n, g.dim - 1), 1.6),
                        (lambda: wht_bits(lam, g.n, g.a_mask), 1.6),
                        (lambda: wht_bits(lam, g.n, (1 << WHT_BLOCK_BITS) - 1), 1.6)):
        call()  # warm the caches first
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * vector, f"peak {peak / vector:.2f} x 2^n doubles"


@pytest.mark.parametrize("kind,dims", [(GraphKind.LINEAR_CLUSTER, (18,)), (GraphKind.GRID_CLUSTER, (3, 6)),
                                       (GraphKind.CLOSED_CLUSTER, (18,)), (GraphKind.GHZ, (18,))],
                         ids=["path-18", "grid-3x6", "ring-18", "ghz-18"])
def test_channel_noise_input_matches_full_width_chain_n18(kind, dims):
    # The spectrum build against a full-width chain of coefficient shuffles:
    # the coefficients read out of it agree to roundoff.
    g = standard_graph(kind, *dims)
    for q in (0.9, 0.5):
        want = depolarized_chain(g, pure_target(g).lam, q)
        assert np.abs(prepared_with_channel_noise(g, q).lam - want).max() <= 1e-15


def test_channel_noise_input_leaves_gate_multiplier_cached(path4):
    # A member loop builds one input per q at a fixed gate p: each input
    # build must leave the one cached gate-noise multiplier in place. Rounds
    # build it on the engine graph, in the spectra's order.
    engine = path4.engine
    _depolarize_multiplier(engine, 0.97)
    misses = _depolarize_multiplier.cache_info().misses
    for q in (0.9, 0.8, 0.97):
        s = prepared_with_channel_noise(path4, q)
        _depolarize_multiplier(engine, 0.97)
        assert _depolarize_multiplier.cache_info().misses == misses
    assert np.array_equal(s.spectrum, _depolarize_multiplier(engine, 0.97))


def test_rho_a_support_embeds_to_family(ring4):
    s = rho_a_support(ring4, 0.7)
    assert s.lam.shape == (4,) and s.fidelity == 0.7
    assert np.array_equal(s.embedded().lam, rho_a_family(ring4, 0.7).lam)
    with pytest.raises(BadParam):
        rho_a_support(ring4, 1.5)


def engine_order_graphs():
    """Paths, rings, grids and stars, whose classes the engine order moves,
    and a disconnected graph whose classes interleave."""
    return st.one_of(
        st.integers(2, 9).map(lambda n: standard_graph(GraphKind.LINEAR_CLUSTER, n)),
        st.integers(2, 5).map(lambda k: standard_graph(GraphKind.CLOSED_CLUSTER, 2 * k)),
        st.tuples(st.integers(1, 3), st.integers(2, 3)).map(lambda rc: standard_graph(GraphKind.GRID_CLUSTER, *rc)),
        st.integers(2, 9).map(lambda n: standard_graph(GraphKind.GHZ, n)),
        st.just(parse_graph_text(INTERLEAVED_GRAPH_TEXT)),
    )


@settings(max_examples=60, deadline=None)
@given(g=engine_order_graphs(), seed=st.integers(0, 2**32 - 1), power=st.sampled_from([1, 8]))
def test_spectrum_round_trips_through_the_engine_order(g, seed, power):
    # A spectrum is in the engine order and lam in the graph's own numbers:
    # the coefficients come back from the spectrum where they went in.
    rng = np.random.default_rng(seed)
    lam = rng.random(g.dim) ** power  # power 8: a peaked draw
    lam /= lam.sum()
    s = GDState(g, lam)
    back = GDState.from_spectrum(g, s.spectrum)
    assert np.abs(back.lam - lam).max() <= 1e-15
    assert s.fidelity == lam[0]
    assert abs(back.fidelity - lam[0]) <= 1e-15
