import numpy as np
import pytest

from quanvaudio.qsim import ROTATION_KINDS, CircuitSpec, GateKind
from quanvaudio.toydata import make_toy_dataset


def gate_counts(spec: CircuitSpec) -> tuple[int, int]:
    """(rotations, CNOTs) of a circuit."""
    rotations = sum(1 for g in spec.gates if g.kind in ROTATION_KINDS)
    return rotations, sum(1 for g in spec.gates if g.kind == GateKind.CNOT)


def random_state(rng: np.random.Generator, n_qubits: int) -> np.ndarray:
    """A Haar-ish random normalized statevector of dimension 2**n."""
    dim = 2**n_qubits
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return amps / np.linalg.norm(amps)


@pytest.fixture(scope="session")
def toy_root(tmp_path_factory):
    """A small tone-vs-noise WAV tree shared by the harness/CLI tests."""
    root = tmp_path_factory.mktemp("toydata")
    return make_toy_dataset(root, n_per_class=12, seed=7)
