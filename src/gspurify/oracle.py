"""Dense density-matrix brute force for small systems.

Everything here works on full 2^m x 2^m matrices (float64 for real input,
complex128 only when the caller passes complex) and sums over every
measurement branch, so it is exponentially slow but exact.
It exists to certify the coefficient-level fast path: single copies up to
6 qubits, two-copy protocol circuits up to 4+4 qubits.

Qubit-to-index convention matches the syndrome convention: qubit v is bit v,
bit 0 least significant. In two-copy circuits copy 1 occupies bits 0..n-1 and
copy 2 bits n..2n-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BadParam, TooLarge
from .graphs import Graph

MAX_VECTOR_QUBITS = 12
MAX_MATRIX_QUBITS = 6
MAX_TWOCOPY_QUBITS = 4

HERM_TOL = 1e-12
EIG_TOL = 1e-10


@dataclass
class DenseState:
    """A full density matrix on m qubits."""

    m: int
    rho: np.ndarray

    def validate(self) -> None:
        tr = np.trace(self.rho)
        if abs(tr - 1.0) > HERM_TOL:
            raise ValueError(f"trace {tr} is not 1")
        if np.abs(self.rho - self.rho.conj().T).max() > HERM_TOL:
            raise ValueError("matrix is not Hermitian")
        if np.linalg.eigvalsh(self.rho).min() < -EIG_TOL:
            raise ValueError("matrix has a significantly negative eigenvalue")


def graph_state_vector(g: Graph) -> np.ndarray:
    """The target graph state as a 2^n amplitude vector.

    Built the constructive way: uniform superposition, then a phase of -1 on
    every computational basis string where both ends of an edge are 1.
    """
    if g.n > MAX_VECTOR_QUBITS:
        raise TooLarge(f"n={g.n} exceeds vector limit {MAX_VECTOR_QUBITS}")
    idx = np.arange(g.dim, dtype=np.uint64)
    amp = np.full(g.dim, 1.0 / np.sqrt(g.dim))
    for u, v in g.edges:
        both = ((idx >> np.uint64(u)) & (idx >> np.uint64(v))) & np.uint64(1)
        amp = np.where(both == 1, -amp, amp)
    return amp


def graph_state_vector_projected(g: Graph) -> np.ndarray:
    """Same state via the projector route: apply prod_j (1 + K_j)/2 to |0...0>.

    Kept deliberately independent of graph_state_vector as a cross-check.
    """
    if g.n > MAX_MATRIX_QUBITS:
        raise TooLarge(f"n={g.n} exceeds matrix limit {MAX_MATRIX_QUBITS}")
    vec = np.zeros(g.dim, dtype=np.complex128)
    vec[0] = 1.0
    idx = np.arange(g.dim)
    for j in range(g.n):
        flipped = idx ^ (1 << j)
        sign = 1.0 - 2.0 * (np.bitwise_count(
            np.asarray(idx & g.neighbor_mask[j], dtype=np.uint64)) % 2)
        # K_j |i> = sign_z(i) |i ^ e_j>: X on j after Z on the neighbors
        kv = np.zeros_like(vec)
        kv[flipped] = sign * vec
        vec = (vec + kv) / 2.0
    return vec / np.linalg.norm(vec)


def _real(x: np.ndarray, what: str) -> np.ndarray:
    """x itself when real; the real part of a complex x only when its
    imaginary part is roundoff, else ValueError."""
    if not np.iscomplexobj(x):
        return x
    imag = float(np.abs(np.imag(x)).max(initial=0.0))
    if imag > HERM_TOL:
        raise ValueError(f"{what} has an imaginary part of {imag:.3e}: the matrix is not Hermitian")
    return np.real(x)


def dense_graph_state(g: Graph) -> DenseState:
    psi = graph_state_vector(g)
    return DenseState(g.n, np.outer(psi, psi))


@lru_cache(maxsize=16)
def graph_basis_matrix(g: Graph) -> np.ndarray:
    """Columns are the 2^n graph-basis states; column m applies Z^m to the
    target. Cached per graph and read-only."""
    if g.n > MAX_MATRIX_QUBITS:
        raise TooLarge(f"n={g.n} exceeds matrix limit {MAX_MATRIX_QUBITS}")
    psi = graph_state_vector(g)[:, None]
    idx = np.arange(g.dim)
    odd = (np.bitwise_count(idx[:, None] & idx) & 1).astype(bool)  # parity of i & m
    basis = np.where(odd, -psi, psi)
    basis.setflags(write=False)
    return basis


def graph_basis_twirl(rho: np.ndarray, g: Graph) -> np.ndarray:
    """Diagonal of rho in the graph basis (the coefficients that survive a
    randomized correlation-operator twirl)."""
    if rho.shape != (g.dim, g.dim):
        raise BadParam(f"matrix shape {rho.shape} does not match n={g.n}")
    basis = graph_basis_matrix(g)
    return _real((basis * (rho @ basis)).sum(axis=0), "graph-basis diagonal")


# ---------------------------------------------------------------------------
# dense single-qubit operations on m-qubit matrices


def _z_signs(m: int, qubit: int) -> np.ndarray:
    idx = np.arange(1 << m, dtype=np.uint64)
    return 1.0 - 2.0 * ((idx >> np.uint64(qubit)) & np.uint64(1)).astype(np.float64)


def dense_pauli_conjugate(rho: np.ndarray, m: int, qubit: int, axis: str) -> np.ndarray:
    """P rho P^dagger for a single-qubit Pauli P on the given qubit."""
    flip = np.arange(1 << m) ^ (1 << qubit)
    if axis == "X":
        return apply_indexmap(rho, flip)
    z = _z_signs(m, qubit)
    if axis == "Z":
        return rho * np.outer(z, z)
    if axis == "Y":
        return apply_indexmap(rho, flip) * np.outer(z, z)
    raise ValueError(f"unknown axis {axis!r}")


def dense_pauli_channel(rho: np.ndarray, m: int, qubit: int, probs) -> np.ndarray:
    p_i, p_x, p_y, p_z = probs
    out = p_i * rho
    for p, axis in ((p_x, "X"), (p_y, "Y"), (p_z, "Z")):
        if p != 0.0:
            out = out + p * dense_pauli_conjugate(rho, m, qubit, axis)
    return out


def dense_depolarizing(rho: np.ndarray, m: int, qubit: int, q: float) -> np.ndarray:
    """q rho + (1-q)/2 * 1_k (x) tr_k rho, computed via the partial trace so it
    stays independent of the Pauli-mixture identity used by the fast path."""
    dim = 1 << m
    t = rho.reshape((2,) * (2 * m))
    ra = m - 1 - qubit
    ca = 2 * m - 1 - qubit
    red = np.trace(t, axis1=ra, axis2=ca)  # shape (2,)*(2m-2)
    out = np.zeros_like(t)
    sl_base = [slice(None)] * (2 * m)
    for b in (0, 1):
        sl = list(sl_base)
        sl[ra] = b
        sl[ca] = b
        out[tuple(sl)] = red / 2.0
    return q * rho + (1.0 - q) * out.reshape(dim, dim)


# ---------------------------------------------------------------------------
# two-copy protocol circuit


def _checked_vertices(g: Graph, which: str) -> frozenset[int]:
    """The vertex set a round checks: A for "P1", B for "P2". Any other
    name is refused rather than read as one of them."""
    if which == "P1":
        return g.a_vertices
    if which == "P2":
        return g.b_vertices
    raise BadParam(f"unknown round {which!r}: expected 'P1' or 'P2'")


def cnot_layer_indexmap(g: Graph, which: str) -> np.ndarray:
    """Computational-basis permutation of the transversal CNOT layer on two
    copies (copy 1 low bits, copy 2 high bits).

    The layer is fixed by requiring the graph-basis index map
    (mu, nu) -> ((mu_A, mu_B ^ nu_B), (nu_A ^ mu_A, nu_B)) for P1, i.e. the
    copy-2 qubit is the CNOT control on A-vertices and the copy-1 qubit is
    the control on B-vertices; P2 swaps the roles of the two vertex sets.
    """
    ctrl_copy2 = _checked_vertices(g, which)
    n = g.n
    idx = np.arange(1 << (2 * n))
    f = idx.copy()
    for v in range(n):
        if v in ctrl_copy2:
            c, t = n + v, v
        else:
            c, t = v, n + v
        f = f ^ (((f >> c) & 1) << t)
    return f


def apply_indexmap(rho: np.ndarray, f: np.ndarray) -> np.ndarray:
    """rho[f[i], f[j]] for every (i, j), in one gather."""
    return rho[np.ix_(f, f)]


def two_copy_graph_basis_vector(g: Graph, mu: int, nu: int) -> np.ndarray:
    """|Psi_mu> (x) |Psi_nu> as a 4^n amplitude vector, copy 2 on high bits."""
    basis = graph_basis_matrix(g)
    return np.kron(basis[:, nu], basis[:, mu])


def acceptance_syndrome(g: Graph, outcomes: int, which: str) -> int:
    """Syndrome bit pattern computed from the copy-2 measurement record.

    For P1 the record holds X outcomes on A-vertices and Z outcomes on
    B-vertices; check j (an A-vertex) is the parity of the outcome on j and
    on its neighbors. P2 mirrors this over the B-vertices.
    """
    checked = _checked_vertices(g, which)
    s = 0
    for j in checked:
        par = (outcomes & ((1 << j) | g.neighbor_mask[j])).bit_count() & 1
        s |= par << j
    return s


def _flip_weight_table(g: Graph, f_m: float, which: str) -> np.ndarray:
    """w[a] = probability that independent outcome flips (each measured qubit
    flips with probability f_m) produce recorded syndrome a on a true-zero
    record. Enumerates all flip patterns directly."""
    w = np.zeros(g.dim)
    for e in range(g.dim):
        k = e.bit_count()
        w[acceptance_syndrome(g, e, which)] += (f_m**k) * ((1.0 - f_m) ** (g.n - k))
    return w


def _measurement_vector(g: Graph, outcomes: int, which: str) -> np.ndarray:
    """Product state <phi_z| projected on copy 2: X eigenstates on the checked
    set, Z eigenstates on the complement."""
    x_set = _checked_vertices(g, which)
    idx = np.arange(g.dim, dtype=np.uint64)
    amp = np.ones(g.dim)
    for v in range(g.n):
        bit = ((idx >> np.uint64(v)) & np.uint64(1)).astype(np.float64)
        z_v = (outcomes >> v) & 1
        if v in x_set:
            amp *= (1.0 - 2.0 * z_v * bit) / np.sqrt(2.0)
        else:
            amp *= bit if z_v else (1.0 - bit)
    return amp


@lru_cache(maxsize=32)
def _accepted_projector_sum(g: Graph, which: str, f_m: float) -> np.ndarray:
    """M = sum_z w_z |phi_z><phi_z| over the 2^n copy-2 outcomes z: phi_z is
    the product measurement state of outcome z, and w_z the probability that
    outcome flips turn z's syndrome into the accepted all-zero record.
    Cached per (graph, which, f_m) and read-only."""
    w = _flip_weight_table(g, f_m, which)
    phis = np.stack([_measurement_vector(g, z, which) for z in range(g.dim)], axis=1)
    weights = np.array([w[acceptance_syndrome(g, z, which)] for z in range(g.dim)])
    proj = (phis * weights) @ phis.T
    proj.setflags(write=False)
    return proj


def dense_protocol_step(
    rho1: np.ndarray,
    rho2: np.ndarray,
    g: Graph,
    p: float = 1.0,
    f_m: float = 0.0,
    which: str = "P1",
) -> tuple[np.ndarray, float]:
    """Run the full two-copy purification circuit densely.

    Depolarizes every qubit of both copies with parameter p, applies the
    transversal CNOT layer, measures copy 2 in all 2^n outcomes (with
    independent recorded-outcome flips of probability f_m), keeps the
    zero-syndrome branches, traces out copy 2 and twirls.

    The noise is local and acts before the gates, so each copy is depolarized
    on its own n qubits before the two are joined. The kept branches are
    summed in one contraction of copy 2 against their weighted projector sum.

    Returns (graph-basis coefficients of the accepted state, acceptance
    probability).
    """
    n = g.n
    if n > MAX_TWOCOPY_QUBITS:
        raise TooLarge(f"n={n} exceeds two-copy limit {MAX_TWOCOPY_QUBITS}")
    if p < 1.0:
        for qubit in range(n):
            rho1 = dense_depolarizing(rho1, n, qubit, p)
            rho2 = dense_depolarizing(rho2, n, qubit, p)
    joint = apply_indexmap(np.kron(rho2, rho1), cnot_layer_indexmap(g, which))  # copy 2 on high bits
    tens = joint.reshape(g.dim, g.dim, g.dim, g.dim)  # (i2, i1, j2, j1)
    acc = np.tensordot(tens, _accepted_projector_sum(g, which, f_m), axes=([0, 2], [0, 1]))
    p_succ = float(_real(np.trace(acc), "acceptance probability"))
    if p_succ <= 0.0:
        return np.zeros(g.dim), 0.0
    return graph_basis_twirl(acc / p_succ, g), p_succ


def diagonal_dense(g: Graph, lam: np.ndarray) -> np.ndarray:
    """Dense matrix of a graph-diagonal state with the given coefficients."""
    basis = graph_basis_matrix(g)
    return (basis * lam) @ basis.T
