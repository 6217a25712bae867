import numpy as np
import pytest

from peigen import HarmonicOscillator, QuantumState, build_model, thermal_state

HARMONIC = HarmonicOscillator(omega=1.0, cutoff=30)


@pytest.fixture(scope="session")
def harmonic():
    return build_model(HARMONIC)


@pytest.fixture(scope="session")
def thermal_half():
    """Thermal state at nbar = 0.5: weights (2/3) * (1/3)^n."""
    return thermal_state(HARMONIC, 0.5)


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def random_state_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_state(rng: np.random.Generator, dim: int, rank: int) -> QuantumState:
    """A pure state (rank 0) or a random density matrix of the given rank."""
    if rank == 0:
        return QuantumState(random_state_vector(rng, dim))
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    return QuantumState(rho / np.trace(rho).real)
