import math

import numpy as np
import pytest

from peigen import ExactW, HarmonicOscillator, QuantumState, build_model, cooling_step, thermal_state

HARMONIC = HarmonicOscillator(omega=1.0, cutoff=30)


@pytest.fixture(scope="session")
def harmonic():
    return build_model(HARMONIC)


@pytest.fixture(scope="session")
def thermal_half():
    """Thermal state at nbar = 0.5: weights (2/3) * (1/3)^n."""
    return thermal_state(HARMONIC, 0.5)


@pytest.fixture
def no_eigensolver(monkeypatch):
    """numpy's eigensolvers raise: a refusal over the memory budget must come first."""

    def refuse(*args, **kwargs):
        raise AssertionError("a solver ran over the budget")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)


def failure_step(state, h, tau, operator_mode=ExactW()):
    """Outcome 1 of `cooling_step` as (state1, p1): the kept branch of the step
    at gamma - pi / (2 tau), whose K0 is i K1 (a pure state1 carries the phase i)."""
    return cooling_step(state, h.with_gamma(h.gamma - math.pi / (2 * tau)), tau, operator_mode)


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


def with_signed_zeros(rng: np.random.Generator, a: np.ndarray) -> np.ndarray:
    """``a`` with some zero entries given a negative real or imaginary zero."""
    a = a.copy()
    zeros = np.flatnonzero(a == 0)
    a.flat[rng.permutation(zeros)[: zeros.size // 2]] = complex(-0.0, 0.0)
    a.flat[rng.permutation(zeros)[: zeros.size // 3]] = complex(0.0, -0.0)
    return a
