"""Dense-oracle equivalence suite for the coefficient-level fast path.

Used both by the test suite (acceptance gate) and by the CLI's oracle-check
command. Every check compares an independent dense computation against the
corresponding coefficient-level one and records the worst absolute error.
Past the dense oracle's sizes, the matrix-product round is checked against
the butterfly round it replaces there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import oracle
from .graphs import Graph, GraphKind, standard_graph
from .protocol import Protocol, _protocol_step, a_support_steps, p1_step, p2_step
from .states import (
    ASupportState,
    GDState,
    PauliAxis,
    apply_pauli_channel,
    bitflip_b_noise,
    depolarizing_channel,
    pauli_flip_mask,
    prepared_with_channel_noise,
)
from .transforms import PRODUCT_MAX_BITS

STEP_TOL = 1e-10
CHANNEL_TOL = 1e-12
OVERLAP_TOL = 1e-10
STEP_P = (1.0, 0.95, 0.9)  # gate qualities the rounds are checked at
STEP_F_M = (0.0, 0.02)  # measurement flip rates, at each of those
BASIS_PAIRS = 20  # random (mu, nu) pairs per graph for the CNOT basis map
RESTRICTED_STATES = 4  # random A-support states per graph
RESTRICTED_P = (1.0, 0.8, 0.5)  # bit-flip qualities of the restricted round
PRODUCT_TOL = 1e-12
PRODUCT_SIZES = range(5, PRODUCT_MAX_BITS + 1)  # above the dense oracle's graphs
QUICK_PRODUCT_SIZES = (5, 9, PRODUCT_MAX_BITS)
PRODUCT_KINDS = (("path", GraphKind.LINEAR_CLUSTER), ("ghz", GraphKind.GHZ))

STANDARD_GRAPHS: tuple[tuple[str, GraphKind, int], ...] = (
    ("ghz-2", GraphKind.GHZ, 2),  # the Bell pair, whose P1 round is the DEJMPS round
    ("ghz-3", GraphKind.GHZ, 3),
    ("ghz-4", GraphKind.GHZ, 4),
    ("path-3", GraphKind.LINEAR_CLUSTER, 3),
    ("path-4", GraphKind.LINEAR_CLUSTER, 4),
    ("ring-4", GraphKind.CLOSED_CLUSTER, 4),
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance


def _random_diag_states(g: Graph, count: int, rng: np.random.Generator) -> list[GDState]:
    out = []
    for _ in range(count):
        lam = rng.random(g.dim)
        out.append(GDState(g, lam / lam.sum()))
    return out


def check_protocol_steps(seed: int = 0, states_per_graph: int = 50) -> list[CheckResult]:
    """Both protocol rounds against the dense two-copy circuit, all graphs."""
    results = []
    for label, kind, n in STANDARD_GRAPHS:
        g = standard_graph(kind, n)
        rng = np.random.default_rng(seed)
        states = _random_diag_states(g, states_per_graph, rng)
        worst = {"P1": 0.0, "P2": 0.0}
        for s in states:
            rho = oracle.diagonal_dense(g, s.lam)
            for p in STEP_P:
                for f_m in STEP_F_M:
                    for which, step in (("P1", p1_step), ("P2", p2_step)):
                        lam_d, ps_d = oracle.dense_protocol_step(rho, rho, g, p, f_m, which)
                        res = step(s, p, f_m)
                        err = max(
                            float(np.abs(lam_d - res.state.lam).max()),
                            abs(ps_d - res.p_succ),
                        )
                        worst[which] = max(worst[which], err)
        results.append(CheckResult(f"{label} P1 vs dense", worst["P1"], STEP_TOL))
        results.append(CheckResult(f"{label} P2 vs dense", worst["P2"], STEP_TOL))
    return results


def check_channels(seed: int = 0, states_per_graph: int = 20) -> list[CheckResult]:
    """Coefficient-level channels against dense channel action plus twirl."""
    results = []
    for label, kind, n in STANDARD_GRAPHS:
        g = standard_graph(kind, n)
        rng = np.random.default_rng(seed + 1)
        worst_dep = 0.0
        worst_pauli = 0.0
        worst_flip = 0.0
        for s in _random_diag_states(g, states_per_graph, rng):
            rho = oracle.diagonal_dense(g, s.lam)
            v = int(rng.integers(0, g.n))
            q = float(rng.random())
            got = depolarizing_channel(s, v, q).lam
            want = oracle.graph_basis_twirl(oracle.dense_depolarizing(rho, g.n, v, q), g)
            worst_dep = max(worst_dep, float(np.abs(got - want).max()))

            probs = rng.random(4)
            probs /= probs.sum()
            got = apply_pauli_channel(s, v, tuple(probs)).lam
            want = oracle.graph_basis_twirl(
                oracle.dense_pauli_channel(rho, g.n, v, tuple(probs)), g
            )
            worst_pauli = max(worst_pauli, float(np.abs(got - want).max()))

            pb = float(rng.random())
            got = bitflip_b_noise(s, pb).lam
            dense = rho
            flip = (1.0 - pb) / 2.0
            for k in sorted(g.b_vertices):
                dense = oracle.dense_pauli_channel(dense, g.n, k, (1.0 - flip, flip, 0.0, 0.0))
            worst_flip = max(worst_flip, float(np.abs(got - oracle.graph_basis_twirl(dense, g)).max()))
        results.append(CheckResult(f"{label} depolarizing vs dense", worst_dep, CHANNEL_TOL))
        results.append(CheckResult(f"{label} pauli channel vs dense", worst_pauli, CHANNEL_TOL))
        results.append(CheckResult(f"{label} B bit-flip vs dense", worst_flip, CHANNEL_TOL))
    return results


def check_basis_permutation(seed: int = 0) -> list[CheckResult]:
    """The transversal CNOT layer permutes two-copy graph-basis states exactly
    as the index map; checked by overlap modulus."""
    results = []
    for label, kind, n in STANDARD_GRAPHS:
        g = standard_graph(kind, n)
        rng = np.random.default_rng(seed + 2)
        perms = {which: oracle.cnot_layer_indexmap(g, which) for which in ("P1", "P2")}
        worst = 0.0
        for _ in range(BASIS_PAIRS):
            mu = int(rng.integers(0, g.dim))
            nu = int(rng.integers(0, g.dim))
            vec = oracle.two_copy_graph_basis_vector(g, mu, nu)
            # P1 adds nu's B part to mu and mu's A part to nu; P2 the other parts.
            mu_a, mu_b, nu_a, nu_b = mu & g.a_mask, mu & g.b_mask, nu & g.a_mask, nu & g.b_mask
            targets = {"P1": (mu ^ nu_b, nu ^ mu_a), "P2": (mu ^ nu_a, nu ^ mu_b)}
            for which, perm in perms.items():
                moved = np.zeros_like(vec)
                moved[perm] = vec
                tgt = oracle.two_copy_graph_basis_vector(g, *targets[which])
                worst = max(worst, abs(abs(float(np.dot(moved, tgt))) - 1.0))
        results.append(CheckResult(f"{label} CNOT layer basis map", worst, OVERLAP_TOL))
    return results


def check_flip_masks() -> list[CheckResult]:
    """Single-Pauli conjugation moves graph-basis projectors by the advertised
    index masks (dense check on every vertex and axis)."""
    results = []
    for label, kind, n in STANDARD_GRAPHS:
        g = standard_graph(kind, n)
        basis = oracle.graph_basis_matrix(g)
        worst = 0.0
        for v in range(g.n):
            for axis in PauliAxis:
                mask = pauli_flip_mask(g, v, axis)
                for m in range(g.dim):
                    rho = np.outer(basis[:, m], basis[:, m])
                    moved = oracle.dense_pauli_conjugate(rho, g.n, v, axis.value)
                    lam = oracle.graph_basis_twirl(moved, g)
                    want = np.zeros(g.dim)
                    want[m ^ mask] = 1.0
                    worst = max(worst, float(np.abs(lam - want).max()))
        results.append(CheckResult(f"{label} pauli flip masks", worst, CHANNEL_TOL))
    return results


def check_state_constructions() -> list[CheckResult]:
    """Graph-state construction routes agree; channel-noise input matches the
    dense transmission computation."""
    results = []
    worst_build = 0.0
    worst_rho_q = 0.0
    for label, kind, n in STANDARD_GRAPHS:
        g = standard_graph(kind, n)
        psi = oracle.graph_state_vector(g)
        proj = oracle.graph_state_vector_projected(g)
        worst_build = max(worst_build, float(np.abs(psi - proj.real).max()),
                          float(np.abs(proj.imag).max()))
        for q in (0.3, 0.9):
            rho = oracle.dense_graph_state(g).rho
            for v in range(g.n):
                rho = oracle.dense_depolarizing(rho, g.n, v, q)
            want = oracle.graph_basis_twirl(rho, g)
            got = prepared_with_channel_noise(g, q).lam
            worst_rho_q = max(worst_rho_q, float(np.abs(got - want).max()))
    results.append(CheckResult("graph state: phase vs projector build", worst_build, CHANNEL_TOL))
    results.append(CheckResult("transmission-noise input vs dense", worst_rho_q, CHANNEL_TOL))
    return results


def check_restricted_support(seed: int = 0) -> list[CheckResult]:
    """The restricted-model round on the A-support, embedded into the full
    space, against B-vertex bit flips followed by the full-space perfect P1
    round (itself checked against the dense oracle above)."""
    results = []
    for label, kind, n in STANDARD_GRAPHS:
        g = standard_graph(kind, n)
        rng = np.random.default_rng(seed + 3)
        worst = 0.0
        for _ in range(RESTRICTED_STATES):
            lam = rng.random(1 << g.n_a)
            s = ASupportState(g, lam / lam.sum())
            for p in RESTRICTED_P:
                ((_, step),) = a_support_steps(g, p)
                got = step(s)
                want = p1_step(bitflip_b_noise(s.embedded(), p))
                err = max(
                    float(np.abs(got.state.embedded().lam - want.state.lam).max()),
                    abs(got.p_succ - want.p_succ),
                )
                worst = max(worst, err)
        results.append(CheckResult(f"{label} A-support restricted round vs full", worst, STEP_TOL))
    return results


def check_product_rounds(seed: int = 0, states_per_graph: int = 3,
                         sizes: Sequence[int] = PRODUCT_SIZES) -> list[CheckResult]:
    """The matrix-product round against the butterfly round on the same
    state, output spectrum and acceptance, for both protocols at every gate
    quality and flip rate the dense checks use: the products serve every
    round up to PRODUCT_MAX_BITS qubits, and the dense oracle stops at 4."""
    results = []
    for n in sizes:
        for label, kind in PRODUCT_KINDS:
            g = standard_graph(kind, n)
            rng = np.random.default_rng(seed + 4)
            worst = 0.0
            for s in _random_diag_states(g, states_per_graph, rng):
                for p in STEP_P:
                    for f_m in STEP_F_M:
                        for which in Protocol:
                            got, want = (_protocol_step(s, which, p, f_m, products) for products in (True, False))
                            worst = max(worst, float(np.abs(got.state.spectrum - want.state.spectrum).max()),
                                        abs(got.p_succ - want.p_succ))
            results.append(CheckResult(f"{label}-{n} product rounds vs butterflies", worst, PRODUCT_TOL))
    return results


def run_equivalence_suite(seed: int = 0, full: bool = True) -> list[CheckResult]:
    """The whole oracle-equivalence battery. `full=False` trims the random
    state counts, and the product-round sizes, for quick smoke runs."""
    states = 50 if full else 8
    chan_states = 20 if full else 5
    results = []
    results += check_state_constructions()
    results += check_flip_masks()
    results += check_basis_permutation(seed)
    results += check_channels(seed, chan_states)
    results += check_protocol_steps(seed, states)
    results += check_restricted_support(seed)
    if full:
        results += check_product_rounds(seed)
    else:
        results += check_product_rounds(seed, 1, QUICK_PRODUCT_SIZES)
    return results
