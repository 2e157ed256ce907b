import ast
from pathlib import Path

import numpy as np
import pytest

from gspurify import oracle
from gspurify.errors import BadParam, TooLarge
from gspurify.graphs import GraphKind, build_graph, standard_graph


def test_single_edge_state_is_maximally_entangled():
    g = build_graph(2, [(0, 1)])
    rho = oracle.dense_graph_state(g)
    rho.validate()
    # stabilizer expectation values are +1
    for j in range(2):
        flip = np.arange(4) ^ (1 << j)
        sign = np.array([(-1) ** ((i & g.neighbor_mask[j]).bit_count() & 1) for i in range(4)])
        kmat = np.zeros((4, 4))
        kmat[flip, np.arange(4)] = sign
        assert np.real(np.trace(kmat @ rho.rho)) == pytest.approx(1.0, abs=1e-12)
    # reduced state of either qubit is maximally mixed
    t = rho.rho.reshape(2, 2, 2, 2)
    red = np.trace(t, axis1=0, axis2=2)
    assert np.abs(red - np.eye(2) / 2).max() < 1e-12


def test_ghz3_reduced_spectra(ghz3):
    rho = oracle.dense_graph_state(ghz3).rho
    # every single-qubit reduction of a 3-particle cat-class state is maximally mixed
    for k in range(3):
        t = rho.reshape((2,) * 6)
        red = np.trace(t, axis1=2 - k, axis2=5 - k).reshape(4, 4)
        evals = np.linalg.eigvalsh(red)
        assert np.abs(np.sort(evals) - np.array([0, 0, 0.5, 0.5])).max() < 1e-12


def test_projector_construction_agrees(small_graphs):
    for g in small_graphs:
        a = oracle.graph_state_vector(g)
        b = oracle.graph_state_vector_projected(g)
        assert np.abs(a - b).max() < 1e-12


def test_twirl_of_pure_and_mixed(path4):
    assert np.abs(
        oracle.graph_basis_twirl(oracle.dense_graph_state(path4).rho, path4)
        - np.eye(16)[0]
    ).max() < 1e-12
    uniform = np.eye(16, dtype=np.complex128) / 16
    assert np.abs(oracle.graph_basis_twirl(uniform, path4) - 1 / 16).max() < 1e-12


def test_basis_matrix_orthonormal(small_graphs):
    for g in small_graphs:
        basis = oracle.graph_basis_matrix(g)
        assert np.abs(basis.T @ basis - np.eye(g.dim)).max() < 1e-12


def test_dense_ops_preserve_trace_and_hermiticity(path4, rng):
    lam = rng.random(path4.dim)
    rho = oracle.diagonal_dense(path4, lam / lam.sum())
    rho = oracle.dense_depolarizing(rho, 4, 1, 0.8)
    rho = oracle.dense_pauli_channel(rho, 4, 2, (0.7, 0.1, 0.1, 0.1))
    idx = np.arange(16)
    rho = oracle.apply_indexmap(rho, idx ^ ((idx & 1) << 3))  # CNOT, control 0, target 3
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.abs(rho - rho.conj().T).max() < 1e-12


def test_acceptance_branches_are_syndrome_matched(ghz3):
    # pure basis-state pairs: accepted iff the checked-side syndromes agree
    basis = oracle.graph_basis_matrix(ghz3)
    for mu, nu in ((0, 0), (1, 1), (1, 0), (3, 1), (5, 4)):
        r1 = np.outer(basis[:, mu], basis[:, mu]).astype(np.complex128)
        r2 = np.outer(basis[:, nu], basis[:, nu]).astype(np.complex128)
        _, p_succ = oracle.dense_protocol_step(r1, r2, ghz3, which="P1")
        same_a = (mu ^ nu) & ghz3.a_mask == 0
        assert p_succ == pytest.approx(1.0 if same_a else 0.0, abs=1e-12)
        _, p_succ2 = oracle.dense_protocol_step(r1, r2, ghz3, which="P2")
        same_b = (mu ^ nu) & ghz3.b_mask == 0
        assert p_succ2 == pytest.approx(1.0 if same_b else 0.0, abs=1e-12)


def test_closed_form_cross_check(ghz3):
    from gspurify.states import rho_a_family

    s = rho_a_family(ghz3, 0.8)
    rho = oracle.diagonal_dense(ghz3, s.lam)
    lam, p_succ = oracle.dense_protocol_step(rho, rho, ghz3, which="P1")
    want = rho_a_family(ghz3, 16.0 / 17.0).lam
    assert np.abs(lam - want).max() < 1e-12
    assert p_succ == pytest.approx(0.68, abs=1e-12)


def test_size_limits():
    big = standard_graph(GraphKind.LINEAR_CLUSTER, 13)
    with pytest.raises(TooLarge):
        oracle.graph_state_vector(big)
    five = standard_graph(GraphKind.LINEAR_CLUSTER, 5)
    with pytest.raises(TooLarge):
        oracle.dense_protocol_step(np.eye(32) / 32, np.eye(32) / 32, five)
    with pytest.raises(TooLarge):  # the cached basis matrix stays small
        oracle.graph_basis_matrix(standard_graph(GraphKind.LINEAR_CLUSTER, 7))


def test_dense_state_validation(path4, rng):
    good = oracle.DenseState(4, oracle.dense_graph_state(path4).rho)
    good.validate()
    bad = oracle.DenseState(4, np.eye(16, dtype=np.complex128))
    with pytest.raises(ValueError):
        bad.validate()


def _reference_two_copy_round(rho1, rho2, g, p, f_m, which):
    """The two-copy circuit the long way: noise on all 2n qubits of the joint
    matrix, the CNOT layer, then one contraction per copy-2 outcome against
    its product measurement vector, weighted by the chance that outcome
    flips leave the recorded syndrome at zero."""
    n, dim = g.n, g.dim
    joint = np.kron(rho2, rho1).astype(np.complex128)  # copy 2 on high bits
    for qubit in range(2 * n):
        joint = oracle.dense_depolarizing(joint, 2 * n, qubit, p)
    f = oracle.cnot_layer_indexmap(g, which)
    tens = joint[f][:, f].reshape(dim, dim, dim, dim)
    x_set = g.a_vertices if which == "P1" else g.b_vertices

    def syndrome(z):
        return sum((((z >> j) ^ (z & g.neighbor_mask[j]).bit_count()) & 1) << j for j in x_set)

    def flip_chance(e):
        k = e.bit_count()
        return f_m**k * (1.0 - f_m) ** (n - k)

    acc = np.zeros((dim, dim), dtype=np.complex128)
    for z in range(dim):
        weight = sum(flip_chance(e) for e in range(dim) if syndrome(e) == syndrome(z))
        phi = np.ones(1)
        for v in reversed(range(n)):  # qubit n-1 on the highest bit
            bit = (z >> v) & 1
            one = np.array([1.0, -1.0 if bit else 1.0]) / np.sqrt(2.0) if v in x_set else np.eye(2)[bit]
            phi = np.kron(phi, one)
        acc += weight * np.einsum("aibj,a,b->ij", tens, phi, phi)
    p_succ = np.trace(acc).real
    psi = oracle.graph_state_vector(g)
    idx = np.arange(dim)
    basis = np.array([[(-1) ** (i & m).bit_count() * psi[i] for m in idx] for i in idx])
    lam = np.einsum("im,ij,jm->m", basis, acc / p_succ, basis).real
    return lam, p_succ


@pytest.mark.parametrize("which", ["P1", "P2"])
@pytest.mark.parametrize("edges", [
    (2, [(0, 1)]),
    (3, [(0, 1), (0, 2)]),
    (3, [(0, 1), (1, 2)]),
], ids=["edge", "ghz3", "path3"])
def test_dense_step_with_copies_that_differ(edges, which):
    g = build_graph(*edges)
    rng = np.random.default_rng(11)
    lam1, lam2 = rng.random(g.dim), rng.random(g.dim)
    rho1 = oracle.diagonal_dense(g, lam1 / lam1.sum())
    rho2 = oracle.diagonal_dense(g, lam2 / lam2.sum())
    for p, f_m in ((0.9, 0.05), (0.7, 0.2)):
        got, ps = oracle.dense_protocol_step(rho1, rho2, g, p, f_m, which)
        want, ps_want = _reference_two_copy_round(rho1, rho2, g, p, f_m, which)
        assert np.abs(got - want).max() <= 1e-12
        assert abs(ps - ps_want) <= 1e-12
        # the copies play different roles, so swapping them is visible
        swapped, _ = _reference_two_copy_round(rho2, rho1, g, p, f_m, which)
        assert np.abs(swapped - want).max() > 1e-3


def _imported_names(tree):
    """Every module, or module.name, that an import statement names;
    relative imports resolved inside the gspurify package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "gspurify" + ("." + base if base else "")
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_oracle_imports_nothing_from_the_fast_path():
    # The oracle certifies the coefficient-level path, so it must not share
    # its transforms, states or rounds.
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    fast = [name for name in _imported_names(tree)
            if name.split(".")[:2] in (["gspurify", "protocol"], ["gspurify", "transforms"],
                                        ["gspurify", "states"])]
    assert not fast


def test_cached_oracle_matrices_are_read_only(ghz3):
    basis = oracle.graph_basis_matrix(ghz3)
    proj = oracle._accepted_projector_sum(ghz3, "P1", 0.02)
    for cached in (basis, proj):
        with pytest.raises(ValueError):
            cached[0, 0] = 2.0
    assert oracle.graph_basis_matrix(ghz3) is basis
    assert np.abs(basis.T @ basis - np.eye(ghz3.dim)).max() < 1e-12


def test_twirl_keeps_real_input_real_and_refuses_an_imaginary_diagonal(path4, rng):
    lam = rng.random(path4.dim)
    rho = oracle.diagonal_dense(path4, lam / lam.sum())
    assert rho.dtype == np.float64
    got = oracle.graph_basis_twirl(rho, path4)
    assert got.dtype == np.float64
    # a Hermitian imaginary part leaves the graph-basis diagonal real
    skew = rng.random((path4.dim, path4.dim))
    hermitian = rho + 1e-3j * (skew - skew.T)
    assert np.abs(oracle.graph_basis_twirl(hermitian, path4) - got).max() < 1e-15
    with pytest.raises(ValueError, match="imaginary"):
        oracle.graph_basis_twirl(rho + 1e-3j * np.eye(path4.dim), path4)


@pytest.mark.parametrize("which", ["p1", "p2", "P3", ""])
def test_unknown_round_name_refused(ghz3, which):
    # A lower-case or unknown name must not run (or measure as) the P2 round.
    rho = oracle.dense_graph_state(ghz3).rho
    with pytest.raises(BadParam, match="unknown round"):
        oracle.dense_protocol_step(rho, rho, ghz3, which=which)
    with pytest.raises(BadParam, match="unknown round"):
        oracle.cnot_layer_indexmap(ghz3, which)
    with pytest.raises(BadParam, match="unknown round"):
        oracle.acceptance_syndrome(ghz3, 0b101, which)


def test_twirl_shape_mismatch_is_bad_param(path4, ghz3):
    # A matrix of the wrong graph is a caller error, not a size refusal.
    with pytest.raises(BadParam, match="does not match"):
        oracle.graph_basis_twirl(oracle.dense_graph_state(ghz3).rho, path4)
    with pytest.raises(BadParam, match="does not match"):
        oracle.graph_basis_twirl(np.eye(path4.dim)[:, :4], path4)
