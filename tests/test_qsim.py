"""Statevector simulator: golden single-gate values, a dense-matrix
oracle for whole circuits, builder structure laws, and determinism.

Every check runs through ``run_circuit_batch``/``expectation_z_batch``,
the path that folds each quanvolution filter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quanvaudio.qsim import (
    CircuitError,
    CircuitSpec,
    Gate,
    GateKind,
    Template,
    build_beqc,
    build_circuit,
    build_rqc,
    build_seqc,
    expectation_z_batch,
    run_circuit_batch,
)
from conftest import gate_counts, random_state

# ---------------------------------------------------------------------------
# Independent oracle: build the full 2^n x 2^n unitary by explicit kron /
# permutation construction, never reusing the simulator's axis tricks.


def _single_unitary(mat: np.ndarray, wire: int, n: int) -> np.ndarray:
    ident = np.eye(2, dtype=np.complex128)
    # little-endian: qubit 0 is the least significant factor (rightmost kron)
    out = np.array([[1.0 + 0j]])
    for q in reversed(range(n)):
        out = np.kron(out, mat if q == wire else ident)
    return out


def _cnot_unitary(control: int, target: int, n: int) -> np.ndarray:
    dim = 2**n
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for k in range(dim):
        j = k ^ (1 << target) if (k >> control) & 1 else k
        mat[j, k] = 1.0
    return mat


def _rotation(kind: GateKind, theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    if kind == GateKind.RX:
        return np.array([[c, -1j * s], [-1j * s, c]])
    if kind == GateKind.RY:
        return np.array([[c, -s], [s, c]])
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def circuit_unitary(spec: CircuitSpec) -> np.ndarray:
    out = np.eye(2**spec.n_qubits, dtype=np.complex128)
    for g in spec.gates:
        if g.kind == GateKind.CNOT:
            u = _cnot_unitary(*g.wires, spec.n_qubits)
        else:
            u = _single_unitary(_rotation(g.kind, g.angle), g.wires[0], spec.n_qubits)
        out = u @ out
    return out


def _zero(n: int) -> np.ndarray:
    """|0...0> as a batch of one state."""
    return np.eye(1, 2**n, dtype=np.complex128)


def _basis(n: int, index: int) -> np.ndarray:
    """Basis state ``index`` as a batch of one state."""
    return np.eye(1, 2**n, index, dtype=np.complex128)


def _run_gate(gate: Gate, states: np.ndarray) -> np.ndarray:
    n = int(states.shape[1]).bit_length() - 1
    return run_circuit_batch(CircuitSpec(n, 1, (gate,), Template.RQC, 0), states)


# ---------------------------------------------------------------------------
# Golden single-gate behaviour


def test_ry_pi_flips_zero_to_one():
    out = _run_gate(Gate(GateKind.RY, (0,), np.pi), _zero(1))
    np.testing.assert_allclose(out, [[0.0, 1.0]], atol=1e-12)


def test_cnot_controlled_flip():
    # qubit 0 set, qubit 1 clear -> amplitude index 1; CNOT(0->1) flips
    # the target, giving index 3.
    out = _run_gate(Gate(GateKind.CNOT, (0, 1)), _basis(2, 1))
    np.testing.assert_allclose(out, [[0, 0, 0, 1]], atol=1e-12)


def test_cnot_control_clear_is_identity():
    states = _basis(2, 2)  # target set, control clear
    out = _run_gate(Gate(GateKind.CNOT, (0, 1)), states)
    np.testing.assert_allclose(out, states, atol=1e-12)


def test_rz_is_diagonal_phase():
    out = _run_gate(Gate(GateKind.RZ, (0,), np.pi / 3), _zero(1))[0]
    np.testing.assert_allclose(out[0], np.exp(-1j * np.pi / 6), atol=1e-12)
    assert out[1] == 0


@pytest.mark.parametrize("template", list(Template))
@pytest.mark.parametrize("n", [2, 3, 4])
def test_run_circuit_matches_dense_oracle(template, n):
    rng = np.random.default_rng(42)
    for depth in (1, 3):
        spec = build_circuit(template, n, depth, seed=depth * 17 + n)
        unitary = circuit_unitary(spec)
        states = np.stack([random_state(rng, n) for _ in range(5)])
        got = run_circuit_batch(spec, states)
        np.testing.assert_allclose(got, states @ unitary.T, atol=1e-12)
        # the basis states give the unitary itself, as quanv folds it
        basis = run_circuit_batch(spec, np.eye(2**n, dtype=np.complex128))
        np.testing.assert_allclose(basis.T, unitary, atol=1e-12)


def test_empty_circuit_is_identity():
    spec = CircuitSpec(3, 1, (), Template.BEQC, 0)
    states = random_state(np.random.default_rng(0), 3)[None, :]
    np.testing.assert_array_equal(run_circuit_batch(spec, states), states)


def test_zero_angle_beqc_fixes_all_zero_state():
    spec = build_beqc(4, 1, seed=0)
    zeroed = CircuitSpec(
        4, 1,
        tuple(
            Gate(g.kind, g.wires, 0.0 if g.angle is not None else None)
            for g in spec.gates
        ),
        Template.BEQC, 0,
    )
    out = run_circuit_batch(zeroed, _zero(4))
    np.testing.assert_allclose(out, _zero(4), atol=1e-12)


# ---------------------------------------------------------------------------
# Builders: structure and counts


def test_beqc_structure_d1():
    spec = build_beqc(4, 1, seed=5)
    assert gate_counts(spec) == (4, 4)
    rotations = [g for g in spec.gates if g.kind == GateKind.RX]
    assert [g.wires for g in rotations] == [(0,), (1,), (2,), (3,)]
    cnots = [g for g in spec.gates if g.kind == GateKind.CNOT]
    assert [g.wires for g in cnots] == [(0, 1), (1, 2), (2, 3), (3, 0)]


@pytest.mark.parametrize("depth", [1, 3, 4, 8])
def test_beqc_counts(depth):
    spec = build_beqc(4, depth, seed=1)
    assert gate_counts(spec) == (4 * depth, 4 * depth)


def test_seqc_structure_and_counts():
    spec = build_seqc(4, 1, seed=2)
    assert gate_counts(spec) == (12, 4)
    cnots = [g for g in spec.gates if g.kind == GateKind.CNOT]
    assert [g.wires for g in cnots] == [(0, 1), (1, 2), (2, 3), (3, 0)]
    # per-qubit triple is Rz, Ry, Rz in order
    kinds = [g.kind for g in spec.gates[:3]]
    assert kinds == [GateKind.RZ, GateKind.RY, GateKind.RZ]

    spec2 = build_seqc(4, 2, seed=2)
    assert len(spec2.gates) == 32
    layer2 = [g for g in spec2.gates if g.kind == GateKind.CNOT][4:]
    # second layer skips one neighbour
    assert [g.wires for g in layer2] == [(0, 2), (1, 3), (2, 0), (3, 1)]


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 8, 12])
def test_seqc_counts_exact_at_every_depth(depth):
    # Includes depths where a naive (layer mod n) offset would self-target.
    spec = build_seqc(4, depth, seed=9)
    assert gate_counts(spec) == (12 * depth, 4 * depth)
    for g in spec.gates:
        if g.kind == GateKind.CNOT:
            assert g.wires[0] != g.wires[1]


def test_rqc_rotation_count_and_validity():
    for seed in range(20):
        spec = build_rqc(4, 3, seed)
        assert gate_counts(spec)[0] == 12
        for g in spec.gates:
            if g.kind == GateKind.CNOT:
                assert g.wires[0] != g.wires[1]


def test_rqc_cnot_mean_close_to_ratio():
    d = 1
    counts = [gate_counts(build_rqc(4, d, seed))[1] for seed in range(2000)]
    assert abs(np.mean(counts) - 12 * d / 7) < 0.15


@pytest.mark.parametrize("template", list(Template))
def test_builder_determinism(template):
    a = build_circuit(template, 4, 5, seed=77)
    b = build_circuit(template, 4, 5, seed=77)
    assert a == b
    c = build_circuit(template, 4, 5, seed=78)
    assert a != c


def test_composition_matches_sequential_runs():
    a = build_beqc(3, 2, seed=0)
    b = build_seqc(3, 1, seed=1)
    combined = CircuitSpec(3, 3, a.gates + b.gates, Template.RQC, 0)
    states = random_state(np.random.default_rng(3), 3)[None, :]
    step = run_circuit_batch(b, run_circuit_batch(a, states))
    joint = run_circuit_batch(combined, states)
    np.testing.assert_array_equal(joint, step)


# ---------------------------------------------------------------------------
# Expectations


def test_expectation_all_zero_state():
    np.testing.assert_array_equal(expectation_z_batch(_zero(4)), [[1, 1, 1, 1]])


def test_expectation_qubit0_excited():
    np.testing.assert_array_equal(expectation_z_batch(_basis(4, 1)), [[-1, 1, 1, 1]])


def test_expectation_hadamard_zero():
    # the equal superposition H|0> = (|0> + |1>)/sqrt(2)
    plus = np.full((1, 2), 1 / np.sqrt(2), dtype=np.complex128)
    assert abs(expectation_z_batch(plus)[0, 0]) < 1e-12


@given(st.lists(st.integers(0, 1), min_size=2, max_size=5))
@settings(max_examples=40, deadline=None)
def test_expectation_of_basis_state_matches_bits(bits):
    n = len(bits)
    idx = sum(bit << q for q, bit in enumerate(bits))
    expected = [1.0 - 2.0 * bit for bit in bits]
    np.testing.assert_array_equal(expectation_z_batch(_basis(n, idx))[0], expected)


@given(st.sampled_from(list(Template)), st.integers(1, 6), st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_norm_preserved_property(template, depth, seed):
    spec = build_circuit(template, 4, depth, seed)
    states = np.stack([random_state(np.random.default_rng(seed + i), 4) for i in range(3)])
    out = run_circuit_batch(spec, states)
    norms = np.linalg.norm(out, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_batch_matches_single():
    spec = build_seqc(4, 4, seed=11)
    rng = np.random.default_rng(1)
    states = np.stack([random_state(rng, 4) for _ in range(8)])
    batch = run_circuit_batch(spec, states)
    for i in range(8):
        single = run_circuit_batch(spec, states[i : i + 1])[0]
        np.testing.assert_array_equal(batch[i], single)
    z = expectation_z_batch(batch)
    assert z.shape == (8, 4)
    assert np.all(np.abs(z) <= 1 + 1e-12)


# ---------------------------------------------------------------------------
# Validation


def test_gate_validation_errors():
    with pytest.raises(CircuitError):
        Gate(GateKind.CNOT, (1, 1))
    with pytest.raises(CircuitError):
        Gate(GateKind.RX, (0, 1), 0.5)
    with pytest.raises(CircuitError):
        Gate(GateKind.RY, (-1,), 0.5)
    with pytest.raises(ValueError):
        Gate(GateKind.RX, (0,), np.nan)
    with pytest.raises(ValueError):
        Gate(GateKind.CNOT, (0, 1), 1.0)


def test_spec_and_state_validation():
    with pytest.raises(CircuitError):
        CircuitSpec(2, 1, (Gate(GateKind.RX, (2,), 0.1),), Template.BEQC, 0)
    with pytest.raises(ValueError):
        build_beqc(1, 1, 0)
    with pytest.raises(ValueError):
        build_seqc(4, 0, 0)
    with pytest.raises(ValueError):
        build_rqc(9, 1, 0)
    spec = build_beqc(3, 1, 0)
    with pytest.raises(CircuitError):
        run_circuit_batch(spec, _zero(4))
    with pytest.raises(CircuitError):
        run_circuit_batch(spec, np.ones((2, 4)) / 2.0)
