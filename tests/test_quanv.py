"""Quanvolution layer: encoding golden values, kron-product oracle,
patch geometry, anchors, locality/range/determinism properties, and the
folded observable against the gate-by-gate statevector oracle."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quanvaudio import quanv
from quanvaudio.qsim import (
    CircuitSpec,
    Gate,
    GateKind,
    Template,
    build_beqc,
    build_circuit,
    expectation_z_batch,
    run_circuit_batch,
)
from quanvaudio.quanv import (
    PatchRangeError,
    filter_terms,
    observables,
    quanv_forward,
)

IDENTITY_CIRCUIT = CircuitSpec(4, 1, (), Template.BEQC, 0)
ORACLE_DEPTHS = (1, 4, 10, 50)


def _kron_oracle(x):
    """Independent product-state construction: kron of per-qubit kets,
    most significant qubit first (little-endian amplitude index)."""
    state = np.array([1.0 + 0j])
    for q in reversed(range(4)):
        half = np.pi * x[q] / 2.0
        state = np.kron(state, np.array([np.cos(half), np.sin(half)]))
    return state


def _encode_one(x) -> np.ndarray:
    """The encoder's product state of a single patch."""
    return quanv._encode(np.asarray(x, dtype=np.float64)[None, :])[0]


def test_encode_all_zeros():
    np.testing.assert_allclose(_encode_one([0, 0, 0, 0]), np.eye(16)[0], atol=1e-12)


def test_encode_all_ones():
    np.testing.assert_allclose(_encode_one([1, 1, 1, 1]), np.eye(16)[15], atol=1e-12)


def test_encode_half_has_zero_expectation():
    z = expectation_z_batch(quanv._encode(np.full((1, 4), 0.5)))
    np.testing.assert_allclose(z, 0.0, atol=1e-12)


def test_encode_matches_kron_oracle():
    x = np.random.default_rng(0).uniform(0, 1, (20, 4))
    oracle = np.stack([_kron_oracle(patch) for patch in x])
    np.testing.assert_allclose(quanv._encode(x), oracle, atol=1e-12)


def _patch_major_encode(patches):
    """The patch-major encoder: (P, 1) states grown one qubit at a time,
    the new qubit's axis innermost."""
    half = 0.5 * np.pi * np.clip(patches, 0.0, 1.0)
    c, s = np.cos(half), np.sin(half)
    states = np.ones((patches.shape[0], 1))
    for q in reversed(range(4)):
        ket = np.stack([c[:, q], s[:, q]], axis=1)
        states = (states[:, :, None] * ket[:, None, :]).reshape(patches.shape[0], -1)
    return states


@given(st.integers(1, 1500), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_encode_matches_patch_major_oracle_bit_for_bit(n_patches, seed):
    x = np.random.default_rng(seed).uniform(0, 1, (n_patches, 4))
    x[: n_patches // 3] = np.round(x[: n_patches // 3])  # exact 0 and 1 angles
    states = quanv._encode(x)
    assert states.flags.c_contiguous
    np.testing.assert_array_equal(states, _patch_major_encode(x))


def test_encode_validation():
    with pytest.raises(PatchRangeError):
        _encode_one([0.1, 0.2, 0.3, 1.5])
    with pytest.raises(PatchRangeError):
        _encode_one([-0.2, 0.2, 0.3, 0.5])
    # tiny numerical overshoot is clamped, not rejected
    _encode_one([0.0, 1.0 + 1e-12, 0.5, 0.5])


def test_extract_patches_counts():
    patches, rows, cols = quanv._extract_patches(np.zeros((40, 128)))
    assert patches.shape == (20 * 64, 4) and (rows, cols) == (20, 64)
    assert quanv._extract_patches(np.zeros((3, 3)))[0].shape == (4, 4)
    gram = np.arange(24.0).reshape(4, 6)
    # row-major over patches, and row-major inside each 2x2 patch
    np.testing.assert_array_equal(
        quanv._extract_patches(gram)[0][:3], [[0, 1, 6, 7], [2, 3, 8, 9], [4, 5, 10, 11]]
    )


def test_zero_gram_through_zero_angle_circuit_is_all_ones():
    spec = build_beqc(4, 1, seed=0)
    zeroed = CircuitSpec(
        4, 1,
        tuple(
            Gate(g.kind, g.wires, 0.0 if g.angle is not None else None)
            for g in spec.gates
        ),
        Template.BEQC, 0,
    )
    out = quanv_forward(np.zeros((40, 128)), zeroed)
    assert out.shape == (4, 20, 64)
    np.testing.assert_allclose(out, 1.0, atol=1e-12)


def test_identity_circuit_is_cosine_per_channel():
    rng = np.random.default_rng(3)
    gram = rng.uniform(0, 1, (8, 10))
    out = quanv_forward(gram, IDENTITY_CIRCUIT)
    patches = gram.reshape(4, 2, 5, 2).transpose(0, 2, 1, 3).reshape(4, 5, 4)
    for q in range(4):
        np.testing.assert_allclose(out[q], np.cos(np.pi * patches[..., q]), atol=1e-12)


def test_shape_law_40x128():
    out = quanv_forward(np.zeros((40, 128)), IDENTITY_CIRCUIT)
    assert out.shape == (4, 20, 64)


@given(st.integers(1, 25), st.integers(1, 25))
@settings(max_examples=25, deadline=None)
def test_shape_law_and_range_property(h, w):
    rng = np.random.default_rng(h * 100 + w)
    gram = rng.uniform(0, 1, (h, w))
    out = quanv_forward(gram, build_beqc(4, 2, seed=1))
    assert out.shape == (4, (h + 1) // 2, (w + 1) // 2)
    assert np.all(np.abs(out) <= 1 + 1e-12)


def test_odd_dims_are_zero_padded():
    gram = np.ones((3, 3))
    padded = np.zeros((4, 4))
    padded[:3, :3] = gram
    spec = build_beqc(4, 1, seed=4)
    np.testing.assert_array_equal(
        quanv_forward(gram, spec), quanv_forward(padded, spec)
    )


def test_locality_of_patches():
    rng = np.random.default_rng(5)
    gram = rng.uniform(0, 1, (10, 12))
    spec = build_beqc(4, 2, seed=2)
    base = quanv_forward(gram, spec)
    bumped = gram.copy()
    bumped[4:6, 6:8] = rng.uniform(0, 1, (2, 2))  # patch (row 2, col 3)
    out = quanv_forward(bumped, spec)
    changed = np.any(base != out, axis=0)
    expected = np.zeros_like(changed)
    expected[2, 3] = True
    np.testing.assert_array_equal(changed, expected)


def test_determinism_bit_for_bit():
    rng = np.random.default_rng(6)
    gram = rng.uniform(0, 1, (12, 14))
    spec = build_beqc(4, 3, seed=8)
    a = quanv_forward(gram, spec)
    b = quanv_forward(gram, spec)
    np.testing.assert_array_equal(a, b)


def test_quanv_forward_validation():
    with pytest.raises(ValueError):
        quanv_forward(np.zeros((4, 4)), build_beqc(3, 1, seed=0))
    with pytest.raises(ValueError):
        quanv_forward(np.zeros(16), IDENTITY_CIRCUIT)
    with pytest.raises(PatchRangeError):
        quanv_forward(np.full((4, 4), 2.0), IDENTITY_CIRCUIT)


# ---------------------------------------------------------------------------
# Folded observable vs the gate-by-gate statevector path


def _patch_grid(gram: np.ndarray) -> np.ndarray:
    """(rows, cols, 4): the zero-padded 2x2 patches, row-major inside each."""
    h, w = gram.shape
    padded = np.zeros((h + h % 2, w + w % 2))
    padded[:h, :w] = gram
    rows, cols = padded.shape[0] // 2, padded.shape[1] // 2
    return padded.reshape(rows, 2, cols, 2).transpose(0, 2, 1, 3).reshape(rows, cols, 4)


def _statevector_oracle(gram: np.ndarray, spec: CircuitSpec) -> np.ndarray:
    """Complex product states, every gate simulated, then Pauli-Z: the
    quanvolution computed without folding the circuit."""
    x = _patch_grid(gram)
    states = np.stack([_kron_oracle(patch) for patch in x.reshape(-1, 4)])
    z = expectation_z_batch(run_circuit_batch(spec, states))
    return z.reshape(x.shape).transpose(2, 0, 1)


@given(
    template=st.sampled_from(list(Template)),
    depth=st.sampled_from(ORACLE_DEPTHS),
    h=st.integers(1, 13),
    w=st.integers(1, 13),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_folded_observable_matches_statevector_oracle(template, depth, h, w, seed):
    rng = np.random.default_rng(seed)
    gram = rng.uniform(0, 1, (h, w))
    # exact 0/1 pixels are the encoding's fixed points (basis states)
    gram[rng.random((h, w)) < 0.2] = 0.0
    gram[rng.random((h, w)) < 0.2] = 1.0
    spec = build_circuit(template, 4, depth, seed % 1000)
    np.testing.assert_allclose(
        quanv_forward(gram, spec), _statevector_oracle(gram, spec), rtol=0, atol=1e-12
    )


@pytest.mark.parametrize("template", list(Template))
def test_observables_real_symmetric_traceless(template):
    for depth in ORACLE_DEPTHS:
        m = observables(build_circuit(template, 4, depth, 1234))
        assert m.shape == (4, 16, 16) and m.dtype == np.float64
        assert not m.flags.writeable
        np.testing.assert_allclose(m, m.transpose(0, 2, 1), atol=1e-13)
        np.testing.assert_allclose(np.trace(m, axis1=1, axis2=2), 0.0, atol=1e-12)


def test_circuit_simulated_once_per_spec(monkeypatch):
    calls = []

    def counting(spec, states):
        calls.append(states.shape[0])
        return run_circuit_batch(spec, states)

    monkeypatch.setattr(quanv, "run_circuit_batch", counting)
    spec = build_circuit("SEQC", 4, 3, seed=987_654)  # not built by another test
    gram = np.random.default_rng(10).uniform(0, 1, (40, 128))
    for _ in range(3):
        quanv_forward(gram, spec)
    assert calls == [16]
    # an equal spec from a second build is the same memo entry
    again = build_circuit("SEQC", 4, 3, seed=987_654)
    assert again is not spec and again == spec and hash(again) == hash(spec)
    quanv_forward(gram, again)
    assert calls == [16]
    # the hash is computed once, at construction: looking a spec up hashes no gate
    gate_hashes = []
    gate_hash = Gate.__hash__
    monkeypatch.setattr(Gate, "__hash__", lambda g: gate_hashes.append(1) or gate_hash(g))
    hash(spec)
    quanv_forward(gram, again)
    assert gate_hashes == []


def _evaluate_terms(terms: dict, gram: np.ndarray) -> np.ndarray:
    x = _patch_grid(gram)
    basis = {"1": np.ones_like(x), "cos": np.cos(np.pi * x), "sin": np.sin(np.pi * x)}
    out = np.zeros((len(terms["channels"]),) + x.shape[:2])
    for q, channel in enumerate(terms["channels"]):
        for term in channel:
            factor = term["coef"]
            for i, name in enumerate(term["factors"]):
                factor = factor * basis[name][..., i]
            out[q] += factor
    return out


@pytest.mark.parametrize("template", list(Template))
def test_filter_terms_reproduce_quanv_forward(template):
    gram = np.random.default_rng(11).uniform(0, 1, (9, 14))
    gram[0, :4] = [0.0, 1.0, 0.0, 1.0]
    for depth in ORACLE_DEPTHS:
        spec = build_circuit(template, 4, depth, 1234)
        terms = json.loads(json.dumps(filter_terms(spec)))
        assert all(1 <= len(channel) <= 81 for channel in terms["channels"])
        np.testing.assert_allclose(
            _evaluate_terms(terms, gram), quanv_forward(gram, spec), rtol=0, atol=1e-12
        )


def test_beqc_depth_one_is_a_single_product_per_channel():
    terms = filter_terms(build_beqc(4, 1, seed=1234))
    assert [len(channel) for channel in terms["channels"]] == [1, 1, 1, 1]
