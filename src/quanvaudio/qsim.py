"""Dense statevector simulation for few-qubit circuits.

Qubit ordering is little-endian: qubit 0 is the least significant bit of
the amplitude index. All amplitudes are complex128; circuits are value
objects and every operation is a pure function, so concurrent evaluation
needs no locking. ``run_circuit_batch`` pushes a batch of states through a
circuit; ``quanv`` calls it once per circuit, on the basis states, to fold
the circuit into its observables.

Three circuit builders are provided:

* ``build_beqc`` -- RX rotations plus a ring of CNOTs, the same layer
  stacked ``d`` times.
* ``build_seqc`` -- per-qubit Rz/Ry/Rz triples plus CNOTs whose target
  offset cycles through 1..n-1 across layers.
* ``build_rqc``  -- randomly sampled layers with a fixed expected
  CNOT:rotation ratio of 0.3/0.7.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

MAX_QUBITS = 8

# Expected CNOTs per random-circuit rotation: 0.3/0.7
RQC_CNOT_PROB = 0.3 / 0.7
RQC_ROTATIONS_PER_LAYER = 4


class CircuitError(ValueError):
    """Structural problem in a gate or circuit (bad wires, size mismatch)."""


class GateKind(str, Enum):
    RX = "RX"
    RY = "RY"
    RZ = "RZ"
    CNOT = "CNOT"


ROTATION_KINDS = frozenset({GateKind.RX, GateKind.RY, GateKind.RZ})


@dataclass(frozen=True)
class Gate:
    kind: GateKind
    wires: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if len(set(self.wires)) != len(self.wires):
            raise CircuitError(f"duplicate wires {self.wires}")
        if any(w < 0 for w in self.wires):
            raise CircuitError(f"negative wire in {self.wires}")
        n_wires = 2 if self.kind == GateKind.CNOT else 1
        if len(self.wires) != n_wires:
            raise CircuitError(f"{self.kind.value} needs {n_wires} wires, got {self.wires}")
        if self.kind in ROTATION_KINDS:
            if self.angle is None or not np.isfinite(self.angle):
                raise ValueError(f"{self.kind.value} requires a finite angle, got {self.angle}")
        elif self.angle is not None:
            raise ValueError(f"{self.kind.value} takes no angle")


class Template(str, Enum):
    BEQC = "BEQC"
    SEQC = "SEQC"
    RQC = "RQC"


@dataclass(frozen=True)
class CircuitSpec:
    n_qubits: int
    depth: int
    gates: tuple[Gate, ...]
    template: Template
    seed: int

    def __post_init__(self):
        for g in self.gates:
            if any(w >= self.n_qubits for w in g.wires):
                raise CircuitError(f"gate {g} out of range for n={self.n_qubits}")
        # Hashed once: quanv's observables memo looks a spec up per gram,
        # and rehashing every gate costs ~0.2 ms at 800 gates.
        object.__setattr__(
            self, "_hash",
            hash((self.n_qubits, self.depth, self.gates, self.template, self.seed)),
        )

    def __hash__(self) -> int:
        return self._hash

    def to_json(self) -> str:
        doc = {
            "template": self.template.value,
            "n_qubits": self.n_qubits,
            "depth": self.depth,
            "seed": self.seed,
            "gates": [
                {"kind": g.kind.value, "wires": list(g.wires)}
                | ({"angle": g.angle} if g.angle is not None else {})
                for g in self.gates
            ],
        }
        return json.dumps(doc)


def _rotation_matrix(kind: GateKind, theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    if kind == GateKind.RX:
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)
    if kind == GateKind.RY:
        return np.array([[c, -s], [s, c]], dtype=np.complex128)
    if kind == GateKind.RZ:
        return np.array(
            [[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]],
            dtype=np.complex128,
        )
    raise CircuitError(f"not a rotation: {kind}")


def _apply_single(psi: np.ndarray, mat: np.ndarray, qubit: int) -> np.ndarray:
    # psi has trailing qubit axes; qubit q lives on axis -(q+1).
    ax = -(qubit + 1)
    psi = np.moveaxis(psi, ax, -1)
    psi = psi @ mat.T
    return np.moveaxis(psi, -1, ax)


def _apply_cnot(psi: np.ndarray, control: int, target: int) -> np.ndarray:
    axc, axt = -(control + 1), -(target + 1)
    psi = np.moveaxis(psi, (axc, axt), (-2, -1))
    out = psi.copy()
    out[..., 1, 0] = psi[..., 1, 1]
    out[..., 1, 1] = psi[..., 1, 0]
    return np.moveaxis(out, (-2, -1), (axc, axt))


def _apply_gate_array(psi: np.ndarray, gate: Gate) -> np.ndarray:
    if gate.kind == GateKind.CNOT:
        return _apply_cnot(psi, *gate.wires)
    return _apply_single(psi, _rotation_matrix(gate.kind, gate.angle), gate.wires[0])


def run_circuit_batch(spec: CircuitSpec, states: np.ndarray) -> np.ndarray:
    """Apply ``spec`` to a batch of statevectors of shape (B, 2**n)."""
    n = spec.n_qubits
    if states.shape[1] != 2**n:
        raise CircuitError(
            f"batch state size {states.shape[1]} != 2**{n}"
        )
    psi = np.asarray(states, dtype=np.complex128).reshape((-1,) + (2,) * n)
    for gate in spec.gates:
        psi = _apply_gate_array(psi, gate)
    return psi.reshape(states.shape[0], -1)


def expectation_z_batch(states: np.ndarray) -> np.ndarray:
    """Pauli-Z expectations for a (B, 2**n) batch, returned as (B, n)."""
    n = int(states.shape[1]).bit_length() - 1
    probs = np.abs(states) ** 2
    probs = probs.reshape((-1,) + (2,) * n)
    out = np.empty((states.shape[0], n))
    for q in range(n):
        ax = -(q + 1)
        marg = np.moveaxis(probs, ax, -1).reshape(states.shape[0], -1, 2).sum(axis=1)
        out[:, q] = marg[:, 0] - marg[:, 1]
    return out


def _angle_rng(seed: int) -> np.random.Generator:
    # Counter-based generator so circuit construction is reproducible and
    # cheap to fork.
    return np.random.Generator(np.random.Philox(seed))


def _check_build_args(n: int, d: int):
    if n < 2:
        raise ValueError(f"need n >= 2 qubits, got {n}")
    if n > MAX_QUBITS:
        raise ValueError(f"at most {MAX_QUBITS} qubits supported, got {n}")
    if d < 1:
        raise ValueError(f"depth must be >= 1, got {d}")


def build_beqc(n: int, d: int, seed: int) -> CircuitSpec:
    """Ring-entangled circuit: per layer, n RX gates then the cyclic
    CNOT chain 0->1, ..., (n-2)->(n-1), (n-1)->0."""
    _check_build_args(n, d)
    rng = _angle_rng(seed)
    gates: list[Gate] = []
    for _ in range(d):
        angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
        gates.extend(Gate(GateKind.RX, (q,), float(angles[q])) for q in range(n))
        gates.extend(Gate(GateKind.CNOT, (q, q + 1)) for q in range(n - 1))
        gates.append(Gate(GateKind.CNOT, (n - 1, 0)))
    return CircuitSpec(n, d, tuple(gates), Template.BEQC, seed)


def build_seqc(n: int, d: int, seed: int) -> CircuitSpec:
    """Densely entangled circuit: per layer, an Rz/Ry/Rz triple on every
    qubit, then n CNOTs whose control-to-target offset cycles through
    1..n-1 as the layer index grows.

    A raw per-layer offset of ``layer mod n`` would make target == control
    every n-th layer; the offset is wrapped onto 1..n-1 instead so every
    layer carries exactly n valid CNOTs.
    """
    _check_build_args(n, d)
    rng = _angle_rng(seed)
    gates: list[Gate] = []
    for layer in range(1, d + 1):
        angles = rng.uniform(0.0, 2.0 * np.pi, size=(n, 3))
        for q in range(n):
            gates.append(Gate(GateKind.RZ, (q,), float(angles[q, 0])))
            gates.append(Gate(GateKind.RY, (q,), float(angles[q, 1])))
            gates.append(Gate(GateKind.RZ, (q,), float(angles[q, 2])))
        offset = (layer - 1) % (n - 1) + 1
        gates.extend(Gate(GateKind.CNOT, (q, (q + offset) % n)) for q in range(n))
    return CircuitSpec(n, d, tuple(gates), Template.SEQC, seed)


def build_rqc(n: int, d: int, seed: int) -> CircuitSpec:
    """Random circuit: per layer, 4 rotations of random kind/wire/angle;
    after each rotation a CNOT on a random distinct pair is emitted with
    probability 0.3/0.7, so E[CNOTs] = (12/7) per layer (~1.71d total).
    Every layer is freshly sampled; deeper circuits append new layers."""
    _check_build_args(n, d)
    rng = _angle_rng(seed)
    kinds = (GateKind.RX, GateKind.RY, GateKind.RZ)
    gates: list[Gate] = []
    for _ in range(d):
        for _ in range(RQC_ROTATIONS_PER_LAYER):
            kind = kinds[rng.integers(3)]
            wire = int(rng.integers(n))
            angle = float(rng.uniform(0.0, 2.0 * np.pi))
            gates.append(Gate(kind, (wire,), angle))
            if rng.random() < RQC_CNOT_PROB:
                control = int(rng.integers(n))
                target = int(rng.integers(n - 1))
                if target >= control:
                    target += 1
                gates.append(Gate(GateKind.CNOT, (control, target)))
    return CircuitSpec(n, d, tuple(gates), Template.RQC, seed)


_BUILDERS = {
    Template.BEQC: build_beqc,
    Template.SEQC: build_seqc,
    Template.RQC: build_rqc,
}


def build_circuit(template: Template | str, n: int, d: int, seed: int) -> CircuitSpec:
    return _BUILDERS[Template(template)](n, d, seed)
