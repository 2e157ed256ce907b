"""Two-colorable graphs and the bit-level syndrome machinery built on them.

Convention used everywhere in this package: vertex v corresponds to bit v of
an integer index, with bit 0 least significant. Standard families are
numbered from 0.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .errors import DuplicateEdge, InvalidParam, OddCycle, TooLarge

# Largest graph the package simulates: a state is 2^N doubles (128 MiB at
# N = 24) and a step holds several of them at once.
MAX_QUBITS = 24


class GraphKind(Enum):
    GHZ = "ghz"
    LINEAR_CLUSTER = "path"
    CLOSED_CLUSTER = "ring"
    GRID_CLUSTER = "grid"


@dataclass(frozen=True)
class Graph:
    """Immutable two-colored graph with precomputed neighbor bitmasks.

    Fields
    ------
    n : vertex count
    edges : sorted tuple of (u, v) pairs with u < v
    a_vertices, b_vertices : the two color classes (A contains each
        component's BFS root)
    neighbor_mask : per-vertex bit pattern of adjacent vertices
    a_mask, b_mask : bit patterns of the two color classes
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    a_vertices: frozenset[int]
    b_vertices: frozenset[int]
    neighbor_mask: tuple[int, ...]
    a_mask: int
    b_mask: int

    @property
    def n_a(self) -> int:
        return len(self.a_vertices)

    @property
    def n_b(self) -> int:
        return len(self.b_vertices)

    @property
    def dim(self) -> int:
        return 1 << self.n

    @property
    def max_degree(self) -> int:
        return max((m.bit_count() for m in self.neighbor_mask), default=0)


def build_graph(n: int, edge_list: Iterable[tuple[int, int]]) -> Graph:
    """Construct a Graph from an edge list, two-coloring it by BFS.

    Each connected component is rooted at its smallest unvisited vertex and
    the root goes to color class A; neighbors are visited in ascending order
    so the coloring is deterministic.

    Raises OddCycle if the graph is not bipartite and DuplicateEdge on a
    repeated pair (in either orientation).
    """
    if n <= 0:
        raise InvalidParam(f"vertex count must be positive, got {n}")
    seen: set[tuple[int, int]] = set()
    nbr = [0] * n
    for u, v in edge_list:
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidParam(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise OddCycle(f"self-loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise DuplicateEdge(f"edge {key} appears more than once")
        seen.add(key)
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u

    color = [-1] * n  # 0 = A, 1 = B
    for root in range(n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            m = nbr[u]
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    raise OddCycle(f"vertices {u} and {v} close an odd cycle")

    a_mask = sum(1 << v for v in range(n) if color[v] == 0)
    b_mask = sum(1 << v for v in range(n) if color[v] == 1)
    return Graph(
        n=n,
        edges=tuple(sorted(seen)),
        a_vertices=frozenset(v for v in range(n) if color[v] == 0),
        b_vertices=frozenset(v for v in range(n) if color[v] == 1),
        neighbor_mask=tuple(nbr),
        a_mask=a_mask,
        b_mask=b_mask,
    )


def standard_graph(kind: GraphKind, *dims: int) -> Graph:
    """Build one of the standard families.

    GHZ is the star with center 0; LINEAR_CLUSTER the path 0-1-...-(N-1);
    CLOSED_CLUSTER the even-length ring (N >= 4); GRID_CLUSTER the
    rows x cols rectangular lattice.
    """
    if kind is GraphKind.GRID_CLUSTER:
        if len(dims) != 2:
            raise InvalidParam("grid takes (rows, cols)")
        rows, cols = dims
        if rows < 1 or cols < 1 or rows * cols < 2:
            raise InvalidParam(f"grid {rows}x{cols} must have at least 2 vertices")
        edges = []
        for r in range(rows):
            for c in range(cols):
                v = r * cols + c
                if c + 1 < cols:
                    edges.append((v, v + 1))
                if r + 1 < rows:
                    edges.append((v, v + cols))
        return build_graph(rows * cols, edges)

    if len(dims) != 1:
        raise InvalidParam(f"{kind.value} takes a single size")
    (n,) = dims
    if n < 2:
        raise InvalidParam(f"{kind.value} needs at least 2 vertices, got {n}")
    if kind is GraphKind.GHZ:
        return build_graph(n, [(0, k) for k in range(1, n)])
    if kind is GraphKind.LINEAR_CLUSTER:
        return build_graph(n, [(k, k + 1) for k in range(n - 1)])
    if kind is GraphKind.CLOSED_CLUSTER:
        if n % 2 != 0 or n < 4:
            raise InvalidParam(f"closed cluster needs even N >= 4, got {n}")
        return build_graph(n, [(k, (k + 1) % n) for k in range(n)])
    raise InvalidParam(f"unknown graph kind {kind!r}")


def syndrome_parts(g: Graph, idx: int) -> tuple[int, int]:
    """Split a syndrome index into its A-part and B-part."""
    if not 0 <= idx < g.dim:
        raise InvalidParam(f"index {idx} out of range for n={g.n}")
    return idx & g.a_mask, idx & g.b_mask


def parse_graph_text(text: str, source: str = "<string>") -> Graph:
    """Parse the plain text graph format: first line "n m", then m lines "u v".

    The coloring is always recomputed; the file carries only the topology.
    A header with more than MAX_QUBITS vertices raises TooLarge before any
    graph is built.
    """
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise InvalidParam(f"{source}: empty graph file")
    head = lines[0].split()
    if len(head) != 2:
        raise InvalidParam(f"{source}:1: expected 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise InvalidParam(f"{source}:1: expected two integers, got {lines[0]!r}") from None
    if n > MAX_QUBITS:
        raise TooLarge(f"{source}:1: {n} vertices exceed the limit of {MAX_QUBITS}")
    if len(lines) - 1 != m:
        raise InvalidParam(f"{source}: header promises {m} edges, file has {len(lines) - 1}")
    edges = []
    for i, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise InvalidParam(f"{source}:{i}: expected 'u v', got {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise InvalidParam(f"{source}:{i}: expected two integers, got {ln!r}") from None
    return build_graph(n, edges)


def graph_to_text(g: Graph) -> str:
    lines = [f"{g.n} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def standard_graph_by_name(name: str, *dims: int) -> Graph:
    """Resolve a CLI-style kind name ("ghz", "path", "ring", "grid")."""
    for kind in GraphKind:
        if kind.value == name:
            return standard_graph(kind, *dims)
    raise InvalidParam(f"unknown graph kind {name!r}")


def relabeled(g: Graph, perm: Sequence[int]) -> Graph:
    """Rebuild g with vertex v renamed to perm[v] (testing helper)."""
    if sorted(perm) != list(range(g.n)):
        raise InvalidParam("perm must be a permutation of 0..n-1")
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
