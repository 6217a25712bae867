"""Criteria 06 and 09 as randomized suites whose expected eigenvectors come
from ``np.linalg.eigh`` of `reference.hamiltonian`, not from the block
eigensystem that the exact-mode step scales in; a wrong but orthonormal V
in the code under test fails them. The random Hermitian spectra are
non-degenerate almost surely, so each eigenvector is fixed up to a phase."""

import numpy as np

from peigen import HermitianOperator, QuantumState, SumHamiltonian, cooling_step, ejection_step
from tests import reference
from tests.conftest import random_hermitian, random_state_vector


def _eigh(h: SumHamiltonian) -> tuple[np.ndarray, np.ndarray]:
    return np.linalg.eigh(reference.hamiltonian(h))


def spectral_weight_deviation(n_instances: int = 100, seed: int = 11) -> float:
    """Largest deviation of a cooling step's eigen-populations from
    cos^2((E+g)tau) w / P0, over random H (one or two terms) and pure states."""
    rng = np.random.default_rng(seed)
    max_dev = 0.0
    for _ in range(n_instances):
        dim = int(rng.integers(2, 9))
        mats = [random_hermitian(rng, dim) for _ in range(int(rng.integers(1, 3)))]
        h = SumHamiltonian(
            tuple((f"t{i}", HermitianOperator(m)) for i, m in enumerate(mats)),
            gamma=float(rng.uniform(-1.0, 2.0)),
        )
        evals, v = _eigh(h)
        state = QuantumState(random_state_vector(rng, dim))
        tau = float(rng.uniform(0.05, 1.0))
        step = cooling_step(state, h, tau)
        if step.state0 is None:
            continue
        w_in = np.abs(v.conj().T @ state.data) ** 2
        w_out = np.abs(v.conj().T @ step.state0.data) ** 2
        expected = np.cos((evals + h.gamma) * tau) ** 2 * w_in / step.p0
        max_dev = max(max_dev, float(np.abs(w_out - expected).max()))
    return max_dev


def eject_overlap(n_instances: int = 100, seed: int = 13) -> float:
    """Largest overlap of the kept branch of `ejection_step` at E_s with the
    eigenvector of E_s, over random single-term H and pure states."""
    rng = np.random.default_rng(seed)
    max_overlap = 0.0
    done = 0
    while done < n_instances:
        dim = int(rng.integers(3, 9))
        h = SumHamiltonian((("random", HermitianOperator(random_hermitian(rng, dim))),), 0.0)
        evals, v = _eigh(h)
        candidates = [
            s
            for s in range(dim)
            if abs(evals[s]) > 0.1
            and (s == 0 or evals[s] - evals[s - 1] > 1e-6)
            and (s == dim - 1 or evals[s + 1] - evals[s] > 1e-6)
        ]
        if not candidates:
            continue
        s = int(rng.choice(candidates))
        state = QuantumState(random_state_vector(rng, dim))
        out = cooling_step(state, *ejection_step(h, float(evals[s]))).state0
        max_overlap = max(max_overlap, abs(complex(np.vdot(v[:, s], out.data))))
        done += 1
    return max_overlap
