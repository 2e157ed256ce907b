import pytest

from gspurify.errors import DuplicateEdge, InvalidParam, OddCycle, TooLarge
from gspurify.graphs import (
    MAX_QUBITS,
    GraphKind,
    build_graph,
    parse_graph_text,
    standard_graph,
    syndrome_parts,
)
from reference import graph_to_text, relabeled


def max_degree(g):
    return max((m.bit_count() for m in g.neighbor_mask), default=0)


def test_single_edge_bipartition():
    g = build_graph(2, [(0, 1)])
    assert g.a_vertices == {0}
    assert g.b_vertices == {1}
    assert g.a_mask == 0b01 and g.b_mask == 0b10


def test_triangle_is_rejected():
    with pytest.raises(OddCycle):
        build_graph(3, [(0, 1), (1, 2), (2, 0)])


def test_path4_even_odd_coloring():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.a_vertices == {0, 2}
    assert g.b_vertices == {1, 3}


def test_duplicate_edge_either_orientation():
    with pytest.raises(DuplicateEdge):
        build_graph(3, [(0, 1), (1, 0)])
    with pytest.raises(DuplicateEdge):
        build_graph(3, [(0, 1), (0, 1)])


def test_self_loop_rejected():
    with pytest.raises(OddCycle):
        build_graph(2, [(0, 0)])


def test_endpoint_out_of_range():
    with pytest.raises(InvalidParam):
        build_graph(2, [(0, 2)])


def test_ghz4_star():
    g = standard_graph(GraphKind.GHZ, 4)
    assert set(g.edges) == {(0, 1), (0, 2), (0, 3)}
    assert g.n_a == 1 and g.n_b == 3
    assert max_degree(g) == 3


def test_path2_equals_ghz2():
    assert standard_graph(GraphKind.LINEAR_CLUSTER, 2) == standard_graph(GraphKind.GHZ, 2)


def test_ring6_degrees_and_coloring():
    g = standard_graph(GraphKind.CLOSED_CLUSTER, 6)
    assert all(m.bit_count() == 2 for m in g.neighbor_mask)
    assert g.a_vertices == {0, 2, 4}


@pytest.mark.parametrize("kind", [GraphKind.GHZ, GraphKind.LINEAR_CLUSTER])
def test_too_small_rejected(kind):
    with pytest.raises(InvalidParam):
        standard_graph(kind, 1)


def test_odd_ring_rejected():
    with pytest.raises(InvalidParam):
        standard_graph(GraphKind.CLOSED_CLUSTER, 5)
    with pytest.raises(InvalidParam):
        standard_graph(GraphKind.CLOSED_CLUSTER, 2)


def test_grid_checkerboard():
    g = standard_graph(GraphKind.GRID_CLUSTER, 2, 3)
    assert g.n == 6
    assert len(g.edges) == 7
    # vertex r*cols+c is in A iff r+c is even
    want_a = {r * 3 + c for r in range(2) for c in range(3) if (r + c) % 2 == 0}
    assert g.a_vertices == want_a


def test_syndrome_parts_examples(ghz3, path4):
    assert syndrome_parts(ghz3, 0b011) == (0b001, 0b010)
    assert syndrome_parts(ghz3, 0) == (0, 0)
    assert syndrome_parts(path4, 0b1111) == (0b0101, 0b1010)


def test_syndrome_parts_cover(small_graphs):
    for g in small_graphs:
        for idx in range(g.dim):
            a, b = syndrome_parts(g, idx)
            assert a | b == idx and a & b == 0


def test_every_edge_crosses_coloring(small_graphs):
    for g in small_graphs:
        for u, v in g.edges:
            assert (u in g.a_vertices) != (v in g.a_vertices)


def test_neighbor_mask_symmetry(small_graphs):
    for g in small_graphs:
        for u in range(g.n):
            for v in range(g.n):
                assert ((g.neighbor_mask[u] >> v) & 1) == ((g.neighbor_mask[v] >> u) & 1)


@pytest.mark.parametrize("n", [2, 5, 9])
def test_path_edge_count_and_degree(n):
    g = standard_graph(GraphKind.LINEAR_CLUSTER, n)
    assert len(g.edges) == n - 1
    assert max_degree(g) <= 2
    ghz = standard_graph(GraphKind.GHZ, n)
    assert len(ghz.edges) == n - 1
    assert max_degree(ghz) == n - 1


def test_relabeling_permutes_masks(rng):
    g = standard_graph(GraphKind.LINEAR_CLUSTER, 7)
    perm = list(rng.permutation(7))
    h = relabeled(g, perm)
    for v in range(7):
        want = 0
        m = g.neighbor_mask[v]
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            want |= 1 << perm[u]
        assert h.neighbor_mask[perm[v]] == want


def test_text_roundtrip(path4):
    text = graph_to_text(path4)
    g = parse_graph_text(text)
    assert g == path4


def test_text_parse_errors():
    with pytest.raises(InvalidParam, match="expected 'n m'"):
        parse_graph_text("4\n0 1\n")
    with pytest.raises(InvalidParam, match="promises"):
        parse_graph_text("4 2\n0 1\n")
    with pytest.raises(InvalidParam, match=":2:"):
        parse_graph_text("2 1\n0 x\n")
    with pytest.raises(OddCycle):
        parse_graph_text("3 3\n0 1\n1 2\n2 0\n")


def test_text_header_over_cap_refused_before_building():
    assert parse_graph_text(f"{MAX_QUBITS} 0\n").n == MAX_QUBITS
    with pytest.raises(TooLarge, match="g.txt:1:"):
        parse_graph_text(f"{MAX_QUBITS + 1} 0\n", source="g.txt")
    with pytest.raises(TooLarge):
        parse_graph_text("10000000 0\n")  # would take hours to build


def test_graph_hashable_and_frozen(path4):
    {path4: 1}
    with pytest.raises(AttributeError):
        path4.n = 5
