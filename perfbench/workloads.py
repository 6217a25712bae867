"""The benchmark's workloads: seeded inputs for the public peigen API.

Each workload turns ``--seed`` into the inputs of one protocol run (model
spec, initial state, run config) plus a block of trajectory seeds. Every
repetition of a run starts from these same inputs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from peigen import (
    Exact,
    ExactW,
    Hubbard1D,
    QuantumState,
    Rabi,
    RunConfig,
    TrotterW,
    Variational,
    basis_state,
)
from peigen.config import bundled_config_dir, build_initial_state, load_experiment
from peigen.models import rabi_basis_index


@dataclass(frozen=True)
class Inputs:
    spec: object
    initial: Callable[[], QuantumState]  # materializes the state; part of set-up
    config: RunConfig
    n_stages: int  # every run must reach its stop rule after this many stages
    trajectories: int  # stochastic trajectories sampled per repetition
    frozen_csv: str | None = None  # frozen trace the run must reproduce
    check_restarts: bool = False  # mean restarts against 1/P - 1


def _hubbard_orbit() -> list[str]:
    """The 8 half-filled L=4 patterns [doublon, hole | up, down] related by
    chain reflection, particle-hole and spin swaps.

    They give the same outcome metrics up to Trotter error, so seeds are
    comparable. Across all 36 half-filled patterns, two exact-mode stages
    end anywhere from 0.9 to 3.6 above E_0."""
    out = []
    for dh in (("uu", "dd"), ("dd", "uu")):
        for spin in (("ud", "du"), ("du", "ud")):
            for halves in ((dh, spin), (spin, dh)):
                out.append("".join(site for half in halves for site in half))
    return out


def hubbard4_trotter_var(seed: int) -> Inputs:
    spec = Hubbard1D(4, t=1.0, u=2.0)
    orbit = _hubbard_orbit()
    pattern = orbit[np.random.default_rng(seed).integers(len(orbit))]
    config = RunConfig(
        mode=Variational(), gamma_policy=Exact(), max_stages=1, operator_mode=TrotterW(3)
    )
    return Inputs(spec, lambda: basis_state(spec, pattern), config, n_stages=1, trajectories=2)


def rabi_mixed_exact_var(seed: int) -> Inputs:
    """Diagonal mixture over |q,n>, q in {up, down}, n < 4.

    Dirichlet(400) weights vary by about 5% around uniform, which keeps
    the seed-to-seed spread of energy_err near 2.5%; at Dirichlet(50) it
    was 7%. Epsilon is far below any stage's energy change, so every run
    stops at max_stages."""
    spec = Rabi(1.2, 0.8, 1.0, cutoff=100)
    levels = [rabi_basis_index(spec, q, n) for q in ("up", "down") for n in range(4)]
    weights = np.random.default_rng(seed).dirichlet(np.full(len(levels), 400.0))
    rho = np.zeros((2 * spec.cutoff, 2 * spec.cutoff), dtype=complex)
    rho[levels, levels] = weights
    config = RunConfig(
        mode=Variational(), gamma_policy=Exact(), epsilon=1e-9, max_stages=10,
        operator_mode=ExactW(),
    )
    return Inputs(spec, lambda: QuantumState(rho), config, n_stages=10, trajectories=4)


def rabi_fixed_restarts(seed: int) -> Inputs:
    """The bundled rabi_fixed config; the seed only picks trajectory seeds."""
    experiment = load_experiment(bundled_config_dir() / "rabi_fixed.json")
    csv = (bundled_config_dir() / "expected" / "rabi_fixed.csv").read_text()
    return Inputs(
        experiment.model,
        lambda: build_initial_state(experiment),
        experiment.run,
        n_stages=len(csv.splitlines()) - 1,
        trajectories=16,
        frozen_csv=csv,
        check_restarts=True,
    )


WORKLOADS: dict[str, Callable[[int], Inputs]] = {
    "hubbard4_trotter_var": hubbard4_trotter_var,
    "rabi_mixed_exact_var": rabi_mixed_exact_var,
    "rabi_fixed_restarts": rabi_fixed_restarts,
}
