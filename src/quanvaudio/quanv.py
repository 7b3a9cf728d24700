"""Quanvolutional layer: 2x2 patches -> angle encoding -> circuit -> Pauli-Z.

Patches are taken row-major with stride 2 (non-overlapping); odd spatial
dimensions are zero-padded. Each patch value x in [0,1] becomes Ry(pi*x)
on its qubit, the 4-qubit state is pushed through the circuit, and the
four per-qubit Z expectations become the four output channels.

The circuit is fixed, so it is folded once into one observable per
channel. The Ry encoding gives a real product state psi(x), and channel q
is psi^T M_q psi with M_q = Re(U^dagger Z_q U): the imaginary part of the
Hermitian U^dagger Z_q U is antisymmetric and cancels in a real quadratic
form. U comes from one statevector simulation of the 16 basis states, so
the cost per gram does not depend on circuit depth.
"""

from __future__ import annotations

import functools

import numpy as np

from .qsim import CircuitSpec, run_circuit_batch

PATCH_QUBITS = 4
CLAMP_EPS = 1e-9

# Expansion of a channel over the per-pixel basis (1, cos pi*x_i, sin pi*x_i):
# amplitude pairs of one qubit give c^2 = (1 + cos)/2, s^2 = (1 - cos)/2 and
# cs = sc = sin/2, indexed [bit of psi_i, bit of psi_j, basis function].
_TERM_BASIS = ("1", "cos", "sin")
_PAIR_TERMS = np.array(
    [[[0.5, 0.5, 0.0], [0.0, 0.0, 0.5]],
     [[0.0, 0.0, 0.5], [0.5, -0.5, 0.0]]]
)
# Coefficients at or below this are rounding noise of the fold.
_TERM_ATOL = 1e-14


class PatchRangeError(ValueError):
    """Patch values stray outside [0,1] beyond clamping tolerance."""


def _clamp_unit(values: np.ndarray) -> np.ndarray:
    lo, hi = values.min(initial=0.0), values.max(initial=0.0)
    if lo < -CLAMP_EPS or hi > 1.0 + CLAMP_EPS:
        raise PatchRangeError(
            f"patch values outside [0,1]: min={lo}, max={hi}; "
            "inputs must be normalized upstream"
        )
    return np.clip(values, 0.0, 1.0)


def _encode(patches: np.ndarray) -> np.ndarray:
    """Batched angle encoding: (P, 4) patch values -> (P, 16) real product
    states; patch value i drives qubit i (little-endian amplitude index).
    The states are built amplitude-major, (16, P) with the patch axis
    innermost so each product runs over P contiguous values, then copied
    once to (P, 16)."""
    half = 0.5 * np.pi * _clamp_unit(patches)
    c, s = np.cos(half).T, np.sin(half).T  # (4, P)
    states = np.ones((1, patches.shape[0]))
    for q in reversed(range(PATCH_QUBITS)):  # most significant qubit first
        ket = np.stack([c[q], s[q]])
        states = (states[:, None, :] * ket).reshape(-1, patches.shape[0])
    return np.ascontiguousarray(states.T)


@functools.lru_cache(maxsize=64)
def observables(spec: CircuitSpec) -> np.ndarray:
    """The folded filter: M[q] = Re(U^dagger Z_q U) for each output channel q,
    shape (4, 16, 16), read-only. Built once per circuit."""
    if spec.n_qubits != PATCH_QUBITS:
        raise ValueError(f"quanvolution needs a 4-qubit circuit, got {spec.n_qubits}")
    dim = 2**PATCH_QUBITS
    rows = run_circuit_batch(spec, np.eye(dim, dtype=np.complex128))  # row k = U e_k
    bits = (np.arange(dim)[None, :] >> np.arange(PATCH_QUBITS)[:, None]) & 1
    z = 1.0 - 2.0 * bits  # (4, 16): eigenvalue of Z_q on each basis state
    m = np.einsum("ik,qk,jk->qij", rows.conj(), z, rows).real
    m.setflags(write=False)
    return m


def filter_terms(spec: CircuitSpec) -> dict:
    """What each channel computes, as a JSON-ready table: its nonzero
    coefficients over products of per-pixel factors (1, cos pi*x_i,
    sin pi*x_i), at most 3**4 = 81 terms per channel."""
    n = PATCH_QUBITS
    m = observables(spec).reshape((n,) + (2,) * (2 * n))
    # axes: channel, bits of psi_i (qubit 3 first), bits of psi_j (qubit 3 first)
    coef = np.einsum(
        "qabcdefgh,dhK,cgL,bfM,aeN->qKLMN", m, *([_PAIR_TERMS] * n)
    )  # [channel, basis function of x_0, ..., of x_3]
    channels = [
        [
            {"coef": float(coef[q][k]), "factors": [_TERM_BASIS[i] for i in k]}
            for k in zip(*np.nonzero(np.abs(coef[q]) > _TERM_ATOL))
        ]
        for q in range(n)
    ]
    return {
        "template": spec.template.value,
        "depth": spec.depth,
        "seed": spec.seed,
        "pixels": ["top-left", "top-right", "bottom-left", "bottom-right"],
        "basis": {"1": "1", "cos": "cos(pi*x_i)", "sin": "sin(pi*x_i)"},
        "channels": channels,
    }


def _extract_patches(gram: np.ndarray) -> tuple[np.ndarray, int, int]:
    h, w = gram.shape
    hp, wp = h + h % 2, w + w % 2
    padded = np.zeros((hp, wp))
    padded[:h, :w] = gram
    blocks = (
        padded.reshape(hp // 2, 2, wp // 2, 2)
        .transpose(0, 2, 1, 3)
        .reshape(-1, 4)
    )
    return blocks, hp // 2, wp // 2


def quanv_forward(gram: np.ndarray, spec: CircuitSpec) -> np.ndarray:
    """Slide the quantum filter over a [0,1] matrix.

    Returns the float64 4-channel map of shape (4, ceil(H/2), ceil(W/2));
    an input of 40x128 yields 4x20x64.
    """
    gram = np.asarray(gram, dtype=np.float64)
    if gram.ndim != 2:
        raise ValueError(f"expected a 2-D gram, got shape {gram.shape}")
    m = observables(spec)
    patches, out_h, out_w = _extract_patches(gram)
    psi = _encode(patches)  # (P, 16)
    weights = m.transpose(1, 0, 2).reshape(psi.shape[1], -1)  # [i, (q, j)]
    # einsum, not matmul: a product this small gains nothing from BLAS
    # threads, and waking them costs more than the product when cores are
    # busy. The 2-D form takes einsum's fast path.
    m_psi = np.einsum("pi,ik->pk", psi, weights).reshape(psi.shape[0], PATCH_QUBITS, -1)
    z = np.einsum("pqj,pj->pq", m_psi, psi)
    return z.reshape(out_h, out_w, PATCH_QUBITS).transpose(2, 0, 1)
