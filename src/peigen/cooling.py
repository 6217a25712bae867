"""The protocol's physics: the conditional cooling step, ejection of
selected eigenstates, the stage and trace records, and a stochastic
restart-on-failure trajectory mode. The classical outer loop that drives
them lives in `variational.run`.

Traces follow the post-selected (ancilla |0>) branch deterministically and
record the branch probabilities; only `stochastic_trajectory` actually
samples outcomes."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import (
    CertainFailureError,
    ConfigError,
    UndefinedOperatorError,
    ValidationError,
)
from .models import GammaPolicy, Exact, SumHamiltonian, gamma_for
from .operators import QuantumState, validate_and_normalize
from .trotter import apply_branches, branch_unitaries, kraus_blocks

BRANCH_PROB_FLOOR = 1e-14
DEFAULT_F_TOL = 1e-3  # fidelity tolerance for converged-to-target verification


# ---------------------------------------------------------------------------
# run configuration


@dataclass(frozen=True)
class FixedStep:
    tau: float


@dataclass(frozen=True)
class Variational:
    """Per-stage 1-D optimization of tau; optimizer defaults apply if None."""

    optimizer: object | None = None


@dataclass(frozen=True)
class ExactW:
    pass


@dataclass(frozen=True)
class TrotterW:
    r: int


OperatorMode = Union[ExactW, TrotterW]


@dataclass(frozen=True)
class RunConfig:
    mode: Union[FixedStep, Variational]
    gamma_policy: GammaPolicy = field(default_factory=Exact)
    epsilon: float = 1e-3
    max_stages: int = 100
    operator_mode: OperatorMode = field(default_factory=ExactW)
    seed: Optional[int] = None
    eject_shifted: bool = False
    f_tol: float = DEFAULT_F_TOL

    def __post_init__(self) -> None:
        if not self.epsilon > 0:
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon}")
        if self.max_stages < 1:
            raise ConfigError(f"max_stages must be >= 1, got {self.max_stages}")
        if isinstance(self.mode, FixedStep) and not self.mode.tau > 0:
            raise ConfigError(f"fixed-step tau must be > 0, got {self.mode.tau}")
        if isinstance(self.operator_mode, TrotterW) and self.operator_mode.r < 1:
            raise ConfigError(f"Trotter steps r must be >= 1, got {self.operator_mode.r}")
        if not self.f_tol > 0:
            raise ConfigError(f"f_tol must be > 0, got {self.f_tol}")


def _trotter_r(mode: OperatorMode) -> int | None:
    return mode.r if isinstance(mode, TrotterW) else None


def _resolve(h: SumHamiltonian, config: RunConfig) -> SumHamiltonian:
    return h.with_gamma(gamma_for(h, config.gamma_policy))


# ---------------------------------------------------------------------------
# one conditional step


@dataclass(frozen=True)
class CoolingStepResult:
    """Both conditional outputs of one cooling step with their probabilities.

    A branch with probability below 1e-14 is recorded as None (never
    normalized through a near-zero divisor)."""

    state0: Optional[QuantumState]
    p0: float
    state1: Optional[QuantumState]
    p1: float


def _pure_branch(y: np.ndarray) -> tuple[Optional[QuantumState], float]:
    p = float(np.vdot(y, y).real)
    if p < BRANCH_PROB_FLOOR:
        return None, max(p, 0.0)
    return QuantumState(y / math.sqrt(p)), p


def _branch(k: np.ndarray, state: QuantumState) -> tuple[Optional[QuantumState], float]:
    if state.is_pure:
        return _pure_branch(k @ state.data)
    m = k @ state.data @ k.conj().T
    p = float(np.trace(m).real)
    if p < BRANCH_PROB_FLOOR:
        return None, max(p, 0.0)
    return QuantumState(m / p), p


def cooling_step(
    state: QuantumState,
    h: SumHamiltonian,
    tau: float,
    operator_mode: OperatorMode = ExactW(),
) -> CoolingStepResult:
    """Apply W_gamma(tau) with the ancilla in |0> and record both outcomes.

    The |0>/|1> blocks are K0 = (U+ + U-)/2 and K1 = (U+ - U-)/2 of the
    (exact or Trotterized) branch unitaries, so p0 + p1 = 1 to rounding
    regardless of the Trotter step count. In Trotter mode a pure state gets
    K0 psi and K1 psi from the branches applied to psi, factor by factor;
    K0 and K1 are built as dense matrices only in exact mode and for mixed
    states."""
    if state.dim != h.dim:
        raise ValidationError(f"state dim {state.dim} != Hamiltonian dim {h.dim}")
    r = _trotter_r(operator_mode)
    if r is not None and state.is_pure:
        y0, y1 = kraus_blocks(*apply_branches(h, tau, r, state.data))
        state0, p0 = _pure_branch(y0)
        state1, p1 = _pure_branch(y1)
    else:
        k0, k1 = kraus_blocks(*branch_unitaries(h, tau, r))
        state0, p0 = _branch(k0, state)
        state1, p1 = _branch(k1, state)
    if state0 is None and state1 is None:
        raise CertainFailureError("both branch probabilities vanish; state is corrupt")
    return CoolingStepResult(state0=state0, p0=p0, state1=state1, p1=p1)


# ---------------------------------------------------------------------------
# ejection


def eject(
    state: QuantumState,
    h: SumHamiltonian,
    e_s: float,
    *,
    shifted: bool = False,
) -> tuple[QuantumState, float]:
    """Post-selected branch of U_s = exp(-i (pi / 2 E_s) H sigma_x^A).

    Scales eigen-amplitudes by cos(pi E_j / (2 E_s)), which annihilates the
    E_s eigenspace. With ``shifted`` the shifted energies are used instead:
    cos(pi (E_j + gamma) / (2 (E_s + gamma))), the only well-defined variant
    when E_s = 0. Raises on a numerically certain failure (input entirely in
    the ejected eigenspace)."""
    gamma = h.gamma if shifted else 0.0
    denom = e_s + gamma
    if abs(denom) < 1e-12:
        raise UndefinedOperatorError(
            f"ejection undefined at E_s{'+gamma' if shifted else ''} = {denom:.3e}; "
            "use the shifted variant with a nonzero gamma"
        )
    half_pi_over = math.pi / (2.0 * denom)
    c = h.total.matfunc(lambda lam: math.cos((lam + gamma) * half_pi_over))
    out, p = _branch(c, state)
    if out is None:
        raise CertainFailureError(
            f"ejection at E_s={e_s:.6g} has zero success probability (p={p:.3e})"
        )
    return out, p


# ---------------------------------------------------------------------------
# trace records


@dataclass(frozen=True)
class StageRecord:
    """One protocol stage: a cooling step ('cool') or an ejection ('eject').

    `p_suc` is cumulative over all preceding stages including this one;
    ejection stages carry tau=None and the ejected energy in `e_s`."""

    k: int
    kind: str
    tau: Optional[float]
    energy: float
    p0: float
    p_suc: float
    trials: tuple = ()
    e_s: Optional[float] = None
    shifted: bool = False
    opt_budget_exhausted: bool = False


@dataclass(frozen=True)
class CoolingTrace:
    stages: tuple[StageRecord, ...]
    converged: bool
    stop_reason: str
    final_state: QuantumState
    final_energy: float
    initial_energy: float
    p_success: float
    gamma: float
    f_tol: float = DEFAULT_F_TOL
    sector_info: Optional[str] = None
    target_level: Optional[int] = None
    target_fidelity: Optional[float] = None
    converged_to_target: Optional[bool] = None

    @property
    def schedule(self) -> tuple[float, ...]:
        """The tau values of the cooling stages, in order."""
        return tuple(s.tau for s in self.stages if s.kind == "cool")

    @property
    def n_stages(self) -> int:
        return len(self.stages)


# ---------------------------------------------------------------------------
# stochastic trajectories


@dataclass(frozen=True)
class TrajectoryResult:
    success: bool
    restarts: int
    shots_used: int


def trajectory_probabilities(
    initial: QuantumState,
    h: SumHamiltonian,
    config: RunConfig,
    schedule: tuple[float, ...],
) -> np.ndarray:
    """Deterministic per-stage p0 along the post-selected branch of a schedule."""
    state = validate_and_normalize(initial)
    hg = _resolve(h, config)
    p0s = []
    for tau in schedule:
        step = cooling_step(state, hg, tau, config.operator_mode)
        if step.state0 is None:
            raise CertainFailureError(f"schedule stage tau={tau:.6g} certainly fails")
        p0s.append(step.p0)
        state = step.state0
    return np.array(p0s)


def stochastic_trajectory(
    initial: QuantumState,
    h: SumHamiltonian,
    config: RunConfig,
    schedule: tuple[float, ...],
    *,
    max_shots: int = 1_000_000,
) -> TrajectoryResult:
    """Sample ancilla outcomes Bernoulli(p0); restart from scratch on a 1.

    Since every failure restarts from the same initial state, the per-stage
    probabilities are precomputed once along the deterministic branch."""
    if config.seed is None:
        raise ConfigError("stochastic_trajectory requires a seed in the run config")
    p0s = trajectory_probabilities(initial, h, config, tuple(schedule))
    rng = np.random.default_rng(config.seed)
    restarts = 0
    shots = 0
    if len(p0s) == 0:
        return TrajectoryResult(success=True, restarts=0, shots_used=0)
    while shots < max_shots:
        for p0 in p0s:
            if shots >= max_shots:
                break
            shots += 1
            if rng.random() >= p0:
                restarts += 1
                break
        else:
            return TrajectoryResult(success=True, restarts=restarts, shots_used=shots)
    return TrajectoryResult(success=False, restarts=restarts, shots_used=shots)
