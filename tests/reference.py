"""The direct-sum protocol round the tests compare p1_step and p2_step
against: depolarizing by index shuffles, then one XOR cross-convolution per
recorded flip pattern, in the coefficient domain throughout. It shares no
code with the spectral round beyond the noise-range check, the coincidence
masks and the acceptance test: its outcome-flip masks are its own copy of
the rule, one `pauli_flip_mask` per vertex, where the round counts flips
from the neighbor masks at once.

Also here are the plain kernels the fast ones must match to the bit: the
butterfly loop with no cache blocking, and the Pauli shuffle through 2^n
index arrays instead of axis views; the ring gain region from 2^(n/2)
vectors, which its closed form must match; the closed-form fidelity map of
one perfect round on the rank-2^n_a family; and the graph helpers the tests
build inputs with: a relabeled copy of a graph, its text form and a
disconnected graph whose colour classes interleave."""

from typing import Sequence

import numpy as np

from gspurify.analysis import GAIN_EDGE_TOL, _bisect
from gspurify.errors import BadParam, EmptyRegion, InvalidParam
from gspurify.graphs import Graph, GraphKind, build_graph, standard_graph
from gspurify.protocol import (
    Protocol,
    StepResult,
    _acceptance,
    _check_noise,
    _coincidence_mask,
)
from gspurify.states import GDState, PauliAxis, pauli_flip_mask
from gspurify.transforms import spread_submasks


def plain_wht(vec: np.ndarray, n: int, mask: int, inverse: bool = False) -> np.ndarray:
    """Walsh-Hadamard transform over the bits of mask: one in-place butterfly
    pass per bit over the whole vector, in ascending bit order. wht_bits must
    give the same sums in the same order, so its output is compared with
    this one to the bit."""
    out = np.array(vec, dtype=np.float64, copy=True)
    for b in range(n):
        if mask >> b & 1:
            pairs = out.reshape(-1, 2, 1 << b)
            lo, hi = pairs[:, 0], pairs[:, 1]
            diff = lo - hi
            lo += hi
            hi[...] = diff
    if inverse:
        out /= 1 << bin(mask).count("1")
    return out


def gather_mix(lam, p_keep, moves):
    """p_keep * lam plus p * lam[i ^ mask] for each (p, mask), in the order
    given and skipping p == 0: the channels' shuffle through 2^n index
    arrays, independent of the library's view kernel."""
    idx = np.arange(lam.size)
    out = p_keep * lam
    for p, mask in moves:
        if p != 0.0:
            out = out + p * lam[idx ^ mask]
    return out


def gather_vertex_moves(g, v, p_x, p_y, p_z):
    """X toggles the neighbours' bits, Z the vertex's own, Y both."""
    own, nbr = 1 << v, g.neighbor_mask[v]
    return ((p_x, nbr), (p_y, own ^ nbr), (p_z, own))


def depolarized_chain(g, lam, q):
    """Every vertex's depolarizing mix over the full 2^n width, by gathers."""
    r = (1.0 - q) / 4.0
    for v in range(g.n):
        lam = gather_mix(lam, q + r, gather_vertex_moves(g, v, r, r, r))
    return lam


def xor_cross_naive(a: np.ndarray, b: np.ndarray, n: int, conv_mask: int) -> np.ndarray:
    """Direct-sum XOR cross-convolution of two vectors over conv_mask bits."""
    full = (1 << n) - 1
    coin_subs = spread_submasks(full ^ conv_mask)
    conv_subs = spread_submasks(conv_mask)
    ranks = np.arange(len(conv_subs))
    out = np.zeros_like(a)
    for base in coin_subs:
        block_a = a[base + conv_subs]
        block_b = b[base + conv_subs]
        acc = np.zeros_like(block_a)
        for i in range(len(conv_subs)):
            acc[ranks ^ i] += block_a[i] * block_b
        out[base + conv_subs] = acc
    return out


def outcome_flip_masks(g: Graph, which: Protocol) -> list[int]:
    """Per vertex, the syndrome bits that flipping its recorded outcome
    toggles: a flip on a checked-set vertex toggles its own syndrome bit, a
    flip on the other set toggles the syndrome bits of its neighbors."""
    checked = g.a_vertices if which is Protocol.P1 else g.b_vertices
    return [pauli_flip_mask(g, v, PauliAxis.Z if v in checked else PauliAxis.X) for v in range(g.n)]


def flip_weights_by_pattern(g: Graph, f_m: float, which: Protocol):
    """Explicit (syndrome pattern, weight) pairs of the recorded-outcome
    flips, composed by convolving the per-vertex flip kernels directly."""
    w = np.zeros(g.dim)
    w[0] = 1.0
    idx = np.arange(g.dim)
    for mask in outcome_flip_masks(g, which):
        w = (1.0 - f_m) * w + f_m * w[idx ^ mask]
    for a in spread_submasks(_coincidence_mask(g, which)):
        yield int(a), float(w[a])


def reference_step(s: GDState, which: Protocol, p: float, f_m: float) -> StepResult:
    """One round by direct sums, normalised by its acceptance."""
    _check_noise(p, f_m)
    g = s.graph
    conv_mask = _coincidence_mask(g, which) ^ (g.dim - 1)
    lam = depolarized_chain(g, s.lam, p) if p < 1.0 else s.lam
    u = np.zeros_like(lam)
    idx = np.arange(g.dim)
    for a, w in flip_weights_by_pattern(g, f_m, which):
        if w == 0.0:
            continue
        u += w * xor_cross_naive(lam, lam[idx ^ a], g.n, conv_mask)
    p_succ = _acceptance(u.sum())
    return StepResult(GDState(g, u / p_succ), p_succ)


def ring_signal(n: int, p: float) -> np.ndarray:
    """The pure A-support state of ring-n pushed through each B-vertex's X
    flip in turn, as rank gathers built from the flip masks' ranks."""
    g = standard_graph(GraphKind.CLOSED_CLUSTER, n)
    flip = (1.0 - p) / 2.0
    subs = spread_submasks(g.a_mask)
    ranks = np.arange(subs.size)
    signal = np.zeros(subs.size)
    signal[0] = 1.0
    for v in sorted(g.b_vertices):
        perm = ranks ^ int(np.searchsorted(subs, g.neighbor_mask[v]))
        signal = (1.0 - flip) * signal + flip * signal[perm]
    return signal


def vector_gain_region(n: int, p: float) -> tuple[float, float]:
    """restricted_gain_region with the round's success probability taken as
    lam @ lam of the 2^(n/2)-entry mixture of signal and uniform background,
    on the same scan grid and bisection."""
    signal = ring_signal(n, p)
    u0 = 1.0 / signal.size
    background = np.full(signal.size, u0)
    s0 = float(signal[0])

    def gain(x: float) -> bool:
        lam = x * signal + (1.0 - x) * background
        accepted = float(lam @ lam)
        f_signal = (x * x * s0 * s0 + (1.0 - x) ** 2 * u0 * u0) / accepted
        return f_signal > x + (1.0 - x) * u0

    top = 1.0 - 1e-9
    grid = np.geomspace(2.0 ** (-0.7 * n), top, 200).tolist()
    flags = [gain(x) for x in grid]
    if not any(flags):
        raise EmptyRegion(f"no gain anywhere on the scan grid for n={n}, p={p}")
    first = flags.index(True)
    last = len(flags) - 1 - flags[::-1].index(True)
    x_lo = _bisect(grid[first - 1], grid[first], gain, GAIN_EDGE_TOL)[0] if first > 0 else grid[0]
    x_hi = _bisect(grid[last], grid[last + 1], gain, GAIN_EDGE_TOL)[0] if last < len(grid) - 1 else top
    return x_lo, x_hi


# Three components rooted at 0, 1 and 4: A = {0, 1, 4, 5, 6} and B = {2, 3},
# so the classes interleave as A A B B A A A and neither is a run of bits.
INTERLEAVED_GRAPH_TEXT = "7 4\n0 3\n3 5\n1 2\n2 6\n"


def graph_to_text(g: Graph) -> str:
    """g in the format parse_graph_text reads: "n m", then one "u v" per edge."""
    lines = [f"{g.n} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def relabeled(g: Graph, perm: Sequence[int]) -> Graph:
    """Rebuild g with vertex v renamed to perm[v]."""
    if sorted(perm) != list(range(g.n)):
        raise InvalidParam("perm must be a permutation of 0..n-1")
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def ra_map_closed_form(f: float, n_a: int) -> float:
    """Fidelity map of one perfect A-information round on the rank-2^n_a
    family: f^2 / (f^2 + (1-f)^2 / (2^n_a - 1))."""
    if not 0.0 <= f <= 1.0:
        raise BadParam(f"f={f} outside [0,1]")
    if n_a < 1:
        raise BadParam(f"n_a={n_a} must be at least 1")
    denom = f * f + (1.0 - f) ** 2 / (2**n_a - 1)
    if denom == 0.0:
        raise BadParam("map undefined: the input family member has zero weight")
    return f * f / denom
