"""Graph-diagonal mixed states as coefficient vectors, plus Pauli noise channels.

A state is a normalized vector of 2^n nonnegative coefficients indexed by the
syndrome integer (a protocol round's output holds its Walsh-Hadamard spectrum
instead, see GDState); the coefficient at index 0 is the fidelity with the
target graph state. A channel on one vertex shuffles probability mass between
indices by XOR, so trace is preserved exactly; noise on every vertex at once is
its transform-domain multiplier (`_power_table`), as the channel-noise input is.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .errors import BadDistribution, BadParam, NegativeCoefficient, TooLarge
from .graphs import MAX_QUBITS, Graph, syndrome_parts
from .transforms import bit_plane, bit_positions, parity_lookup, spread_submasks, wht_bits

NEG_SLACK = 1e-15  # coefficients above -NEG_SLACK are clamped, below raise
REL_NEG_TOL = 1e-12  # transform roundoff guard on coefficients read out of a spectrum
NORM_TOL = 1e-12


class PauliAxis(Enum):
    X = "X"
    Y = "Y"
    Z = "Z"


class GDState:
    """A graph-diagonal state: graph reference plus its coefficient vector.

    A state built from its coefficients lam is validated here. A state that
    a protocol round produced holds its spectrum instead, the transform
    WHT(lam) over all n bits (`from_spectrum`): rounds read and write the
    spectrum, its fidelity is mean(spectrum), which is lam[0], and lam is
    read out of it on first use. Either form is computed from the other at
    most once.
    """

    def __init__(self, graph: Graph, lam) -> None:
        vec = np.asarray(lam, dtype=np.float64)
        if vec.shape != (graph.dim,):
            raise BadParam(f"coefficient vector has shape {vec.shape}, expected ({graph.dim},)")
        # One BLAS pass: the sum of squares is finite iff every entry is
        # finite and below 1e154, far above any probability weight.
        if not math.isfinite(vec.dot(vec)):
            raise BadParam("coefficient vector is not finite: NaN, infinite or beyond 1e154")
        low = vec.min()
        if low < -NEG_SLACK:
            raise NegativeCoefficient(f"coefficient {low} below -{NEG_SLACK}")
        if low < 0.0:
            vec = np.maximum(vec, 0.0)
        self.graph = graph
        self.lam = vec
        self.fidelity = float(vec[0])

    @classmethod
    def from_spectrum(cls, graph: Graph, spectrum: np.ndarray) -> "GDState":
        """The state whose coefficients transform to spectrum, normalised so
        that spectrum[0], the coefficient sum, is 1."""
        state = cls.__new__(cls)
        state.graph = graph
        state.spectrum = spectrum
        state.fidelity = float(spectrum.mean())
        return state

    @cached_property
    def spectrum(self) -> np.ndarray:
        """WHT(lam) over all n bits; a trajectory transforms its input once."""
        return wht_bits(self.lam, self.graph.n, self.graph.dim - 1)

    @cached_property
    def lam(self) -> np.ndarray:
        """The coefficients read out of the spectrum. Transform roundoff
        leaves zero coefficients slightly off 0; they are clamped to 0, and
        one below -REL_NEG_TOL times the largest is refused."""
        g = self.graph
        lam = wht_bits(self.spectrum, g.n, g.dim - 1, inverse=True)
        low = float(lam.min())
        if low < -REL_NEG_TOL * max(float(lam.max()), 1e-30):
            raise BadParam(f"coefficient {low} below roundoff floor")
        np.maximum(lam, 0.0, out=lam)
        return lam

    def to_csv(self) -> str:
        """Nonzero coefficients as CSV rows: index, a_part, b_part, lambda."""
        buf = io.StringIO()
        buf.write("index,a_part,b_part,lambda\n")
        for idx in np.nonzero(self.lam)[0]:
            a, b = syndrome_parts(self.graph, int(idx))
            buf.write(f"{int(idx)},{a},{b},{self.lam[idx]:.17g}\n")
        return buf.getvalue()


def _checked_dim(bits: int) -> int:
    """2^bits, the length of a coefficient vector over that many bits,
    refused with TooLarge above 2^MAX_QUBITS. Every 2^k build calls it before
    it allocates anything of that length."""
    if bits > MAX_QUBITS:
        raise TooLarge(f"2^{bits} coefficients exceed the limit of 2^{MAX_QUBITS}")
    return 1 << bits


def pure_target(g: Graph) -> GDState:
    """The pure target state: all weight on syndrome 0."""
    lam = np.zeros(_checked_dim(g.n))
    lam[0] = 1.0
    return GDState(g, lam)


def pauli_flip_mask(g: Graph, v: int, axis: PauliAxis) -> int:
    """Syndrome bits toggled by a Pauli on vertex v.

    Z toggles the vertex's own bit, X toggles all neighbor bits, Y both:
    conjugating a graph-basis projector by the Pauli moves index m to
    m ^ mask. Every channel and outcome-flip mask of the fast
    path takes the rule from here; the dense oracle keeps its own copy.
    """
    if not 0 <= v < g.n:
        raise BadParam(f"vertex {v} out of range for n={g.n}")
    if axis is PauliAxis.Z:
        return 1 << v
    if axis is PauliAxis.X:
        return g.neighbor_mask[v]
    return (1 << v) ^ g.neighbor_mask[v]


def _validate_probs(probs) -> tuple[float, float, float, float]:
    if len(probs) != 4:
        raise BadDistribution(f"need 4 probabilities, got {len(probs)}")
    p = tuple(float(x) for x in probs)
    if min(p) < 0.0:
        raise BadDistribution(f"negative probability in {p}")
    if abs(sum(p) - 1.0) > NORM_TOL:
        raise BadDistribution(f"probabilities sum to {sum(p)}, not 1")
    return p


@lru_cache(maxsize=1024)  # a few masks per vertex of the graphs in use
def _flip_index(n: int, mask: int) -> tuple[slice, ...]:
    """The basic index that turns t = lam.reshape((2,) * n) into lam[i ^ mask]
    as a view: bit b of i is axis n-1-b of t, and toggling it reverses that
    axis."""
    index = [slice(None)] * n
    for b in bit_positions(mask):
        index[n - 1 - b] = slice(None, None, -1)
    return tuple(index)


def _pauli_mix(lam: np.ndarray, n: int, p_keep: float, moves) -> np.ndarray:
    """Raw-vector kernel of every Pauli channel here: p_keep * lam plus
    p * lam[i ^ mask] for each (p, mask) in moves, skipping p == 0.

    Each image is a reversed-axis view of lam shaped (2,) * n, not a gather
    through a 2^n index array, and it is added in place in the order given,
    so a chain of calls on raw arrays gives the same bits as the same chain
    through validated GDStates."""
    t = lam.reshape((2,) * n)
    out = p_keep * t
    for p, mask in moves:
        if p != 0.0:
            out += p * t[_flip_index(n, mask)]
    return out.reshape(-1)


def apply_pauli_channel(s: GDState, v: int, probs) -> GDState:
    """Mix s with its images under single-qubit Paulis on vertex v.

    probs is (p_I, p_X, p_Y, p_Z). Mass at index m moves to m ^ flip_mask
    for each Pauli branch, so the coefficient sum is conserved exactly.
    """
    p_i, *p_xyz = _validate_probs(probs)
    g = s.graph
    moves = [(p, pauli_flip_mask(g, v, axis)) for p, axis in zip(p_xyz, PauliAxis)]
    return GDState(g, _pauli_mix(s.lam, g.n, p_i, moves))


def depolarizing_channel(s: GDState, v: int, q: float) -> GDState:
    """Single-qubit depolarizing noise: keep with probability q, else replace
    the qubit by the maximally mixed state. Equals the uniform Pauli mix with
    p_I = q + (1-q)/4."""
    if not 0.0 <= q <= 1.0:
        raise BadParam(f"q={q} outside [0,1]")
    r = (1.0 - q) / 4.0
    return apply_pauli_channel(s, v, (q + r, r, r, r))


def _power_table(n: int, planes, base: float) -> np.ndarray:
    """Transform-domain multiplier of independent noise on every vertex, read-only:
    each uint8 plane marks the characters where one vertex's kernel transforms to
    base (it is 1 elsewhere), and their count, at most n, indexes n + 1 powers."""
    count = np.zeros(1 << n, dtype=np.uint8)
    for plane in planes:
        count += plane
    mult = np.float_power(base, np.arange(n + 1))[count]
    mult.setflags(write=False)
    return mult


def _depolarizing_pass(g: Graph, q: float) -> np.ndarray:
    """Multiplier of a depolarizing pass of quality q over every vertex: the
    kernel is q except on characters orthogonal to the vertex bit and its
    neighbor mask."""
    planes = (bit_plane(g.n, v) | parity_lookup(g.n, g.neighbor_mask[v]) for v in range(g.n))
    return _power_table(g.n, planes, q)


def prepared_with_channel_noise(g: Graph, q: float) -> GDState:
    """Target state after sending each particle through a depolarizing channel
    of quality q (the per-particle transmission-noise input family): the pure
    target's spectrum is all ones, so the pass's multiplier is the spectrum."""
    if not 0.0 <= q <= 1.0:
        raise BadParam(f"q={q} outside [0,1]")
    _checked_dim(g.n)
    return GDState.from_spectrum(g, _depolarizing_pass(g, q))


def global_white(g: Graph, x: float) -> GDState:
    """Mixture of the target state with the completely depolarized state:
    weight x on the target plus (1-x) spread uniformly."""
    if not 0.0 <= x <= 1.0:
        raise BadParam(f"x={x} outside [0,1]")
    dim = _checked_dim(g.n)
    lam = np.full(dim, (1.0 - x) / dim)
    lam[0] += x
    return GDState(g, lam)


@dataclass(frozen=True)
class ASupportState:
    """A state whose weight lies on the syndromes with B-part 0, kept as its
    2^n_a coefficients: entry r belongs to syndrome spread_submasks(a_mask)[r],
    so the XOR of two ranks is the rank of the XOR of their syndromes.

    graph is the full graph, so a trajectory's divergence floor stays 1/2^n.
    """

    graph: Graph
    lam: np.ndarray

    def __post_init__(self):
        if self.lam.shape != (1 << self.graph.n_a,):
            raise BadParam(
                f"A-support vector has shape {self.lam.shape}, expected ({1 << self.graph.n_a},)")

    @property
    def fidelity(self) -> float:
        return float(self.lam[0])

    def embedded(self) -> GDState:
        """The same state as a full 2^n graph-diagonal state."""
        lam = np.zeros(_checked_dim(self.graph.n))
        lam[spread_submasks(self.graph.a_mask)] = self.lam
        return GDState(self.graph, lam)


def rho_a_support(g: Graph, f: float) -> ASupportState:
    """rho_a_family on its A-support: weight f at rank 0 and the rest spread
    evenly over the 2^n_a - 1 other ranks."""
    if g.n_a == 0:
        raise BadParam("graph has no A-vertices; the family is degenerate")
    if not 0.0 <= f <= 1.0:
        raise BadParam(f"f={f} outside [0,1]")
    dim = _checked_dim(g.n_a)
    lam = np.full(dim, (1.0 - f) / (dim - 1))
    lam[0] = f
    return ASupportState(g, lam)


def rho_a_family(g: Graph, f: float) -> GDState:
    """One-parameter family supported on pure-B syndromes: weight f at 0 and
    the rest spread evenly over the 2^n_a - 1 other indices with b_part 0."""
    return rho_a_support(g, f).embedded()


def bitflip_b_noise(s: GDState, p: float) -> GDState:
    """Bit-flip noise restricted to the B-vertices: each keeps its state with
    probability (1+p)/2 and suffers an X flip with probability (1-p)/2."""
    if not 0.0 <= p <= 1.0:
        raise BadParam(f"p={p} outside [0,1]")
    flip = (1.0 - p) / 2.0
    g = s.graph
    lam = s.lam
    for v in sorted(g.b_vertices):
        lam = _pauli_mix(lam, g.n, 1.0 - flip, [(flip, pauli_flip_mask(g, v, PauliAxis.X))])
    return GDState(g, lam)
