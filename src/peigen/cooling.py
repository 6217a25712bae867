"""The protocol's physics: the conditional cooling step, the ejection of a
selected eigenstate as one such step (`ejection_step`), the stage and trace
records, and a stochastic restart-on-failure trajectory mode. The classical
outer loop that drives them lives in `variational.run`.

Traces follow the post-selected (ancilla |0>) branch deterministically and
record the branch probabilities; only `stochastic_trajectory` actually
samples outcomes, of ejection and cooling stages alike. Exact mode forms no
d x d operator: a step scales eigen-coefficients, and every cooling p0
follows from the cos² law on the eigen-populations, so trials and
trajectories read it in O(d) per stage."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import CertainFailureError, ConfigError, UndefinedOperatorError
from .models import GammaPolicy, Exact, SumHamiltonian, gamma_for
from .operators import QuantumState, check_dim, validate_and_normalize
from .trotter import apply_branches, branch_unitaries, kraus_blocks

BRANCH_PROB_FLOOR = 1e-14


# ---------------------------------------------------------------------------
# run configuration


def _require(ok: bool, rule: str, value: object) -> None:
    """Refuse ``value`` unless ``ok``, as "<rule>, got <value>"; a rule names its field first."""
    if not ok:
        raise ConfigError(f"{rule}, got {value}")


def _at_least(name: str, value: object, low: int) -> None:
    """An integer field's checks; a bool is not an integer, as in JSON."""
    _require(value >= low, f"{name} must be >= {low}", value)
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    _require(integer, f"{name} must be an integer", value)


@dataclass(frozen=True)
class FixedStep:
    tau: float


@dataclass(frozen=True)
class OptimizerConfig:
    """Bounded 1-D search domain and budget for one stage.

    Defaults keep the per-stage trial count near the ~10 evaluations the
    whole-run trial budget allows: a 7-point coarse grid plus golden-section
    refinement until x_tol or the 12-evaluation cap."""

    tau_lo: float = 0.01
    tau_hi: float = 1.0
    x_tol: float = 1e-3
    max_evals: int = 12
    coarse_grid: int = 7

    def __post_init__(self) -> None:
        lo, hi, evals, grid = self.tau_lo, self.tau_hi, self.max_evals, self.coarse_grid
        _require(0 < lo < hi, f"tau_lo must satisfy 0 < tau_lo < tau_hi = {hi}", lo)
        _require(math.isfinite(hi), "tau_hi must be finite", hi)
        _require(self.x_tol > 0, "x_tol must be > 0", self.x_tol)
        _require(math.isfinite(self.x_tol), "x_tol must be finite", self.x_tol)
        _at_least("max_evals", evals, 3)
        _at_least("coarse_grid", grid, 2)
        # else the grid stops short of tau_hi
        _require(evals >= grid, f"max_evals must be >= coarse_grid = {grid}", evals)


@dataclass(frozen=True)
class Variational:
    """Per-stage 1-D optimization of tau within the optimizer's domain."""

    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)


@dataclass(frozen=True)
class ExactW:
    pass


@dataclass(frozen=True)
class TrotterW:
    r: int


OperatorMode = Union[ExactW, TrotterW]


@dataclass(frozen=True)
class RunConfig:
    """One protocol run; `variational.run` documents the fields. Each check's
    message starts with the offending field's name."""

    mode: Union[FixedStep, Variational]
    gamma_policy: GammaPolicy = field(default_factory=Exact)
    epsilon: float = 1e-3
    max_stages: int = 100
    operator_mode: OperatorMode = field(default_factory=ExactW)
    seed: Optional[int] = None
    target_level: Optional[int] = None
    eject_shifted: bool = False
    f_tol: float = 1e-3

    def __post_init__(self) -> None:
        _require(self.epsilon > 0, "epsilon must be > 0", self.epsilon)
        _require(math.isfinite(self.epsilon), "epsilon must be finite", self.epsilon)
        _at_least("max_stages", self.max_stages, 1)
        if isinstance(self.mode, FixedStep):
            _require(self.mode.tau > 0, "tau must be > 0", self.mode.tau)
            _require(math.isfinite(self.mode.tau), "tau must be finite", self.mode.tau)
        if isinstance(self.operator_mode, TrotterW):
            _at_least("operator.r (Trotter steps)", self.operator_mode.r, 1)
        if (target := self.target_level) is not None:
            _at_least("target_level", target, 0)
            most = self.max_stages  # each level below the target is one ejection stage
            _require(target <= most, f"target_level must be <= max_stages = {most}", target)
        _require(self.f_tol > 0, "f_tol must be > 0", self.f_tol)
        _require(math.isfinite(self.f_tol), "f_tol must be finite", self.f_tol)
        if self.seed is not None:
            _at_least("seed", self.seed, 0)


def _start(
    initial: QuantumState, h: SumHamiltonian, config: RunConfig
) -> tuple[QuantumState, SumHamiltonian]:
    """The checked, normalized initial state and the model shifted by the
    run's gamma. The state's dimension is checked before gamma is resolved."""
    check_dim(initial, h.dim)
    return validate_and_normalize(initial), h.with_gamma(gamma_for(h, config.gamma_policy))


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


def _branch(out: np.ndarray, pure: bool) -> tuple[Optional[QuantumState], float]:
    """Normalised branch K psi or K rho K^H and its probability; None below the floor."""
    p = float(np.vdot(out, out).real if pure else np.trace(out).real)
    if p < BRANCH_PROB_FLOOR:
        return None, max(p, 0.0)
    return QuantumState(out * (1.0 / (math.sqrt(p) if pure else p))), p


def _eigen_branches(state: QuantumState, h: SumHamiltonian, factors: tuple) -> list:
    """`_branch` of each ``f`` in ``factors`` scaling the eigen-coefficients of
    the total H: V (f ⊙ V^H psi), or V (f C f*) V^H with C = V^H rho V."""
    v = h.total.eigensystem()[1]
    vh = v.conj().T
    if state.is_pure:
        c = vh @ state.data
        return [_branch(v @ (f * c), True) for f in factors]
    c = vh @ state.data @ v
    return [_branch(v @ (f[:, None] * c * f.conj()) @ vh, False) for f in factors]


def cooling_step(
    state: QuantumState,
    h: SumHamiltonian,
    tau: float,
    operator_mode: OperatorMode = ExactW(),
) -> CoolingStepResult:
    """Apply W_gamma(tau) with the ancilla in |0> and record both outcomes.

    The |0>/|1> blocks are K0 = (U+ + U-)/2 and K1 = (U+ - U-)/2 of the
    (exact or Trotterized) branch unitaries, so p0 + p1 = 1 to rounding
    regardless of the Trotter step count. In exact mode they are diagonal in
    the eigenbasis, cos((E + gamma) tau) and -i sin((E + gamma) tau), and no
    U+- is formed. In Trotter mode a pure state gets K0 psi and K1 psi from
    the branches applied to psi, factor by factor; a mixed state gets dense
    K0 and K1."""
    check_dim(state, h.dim)
    if not isinstance(operator_mode, TrotterW):
        x = (h.total.eigensystem()[0] + h.gamma) * tau
        branches = _eigen_branches(state, h, (np.cos(x), -1j * np.sin(x)))
    elif state.is_pure:
        ys = kraus_blocks(*apply_branches(h, tau, operator_mode.r, state.data))
        branches = [_branch(y, True) for y in ys]
    else:
        ks = kraus_blocks(*branch_unitaries(h, tau, operator_mode.r))
        branches = [_branch(k @ state.data @ k.conj().T, False) for k in ks]
    (state0, p0), (state1, p1) = branches
    if state0 is None and state1 is None:
        raise CertainFailureError("both branch probabilities vanish; state is corrupt")
    return CoolingStepResult(state0=state0, p0=p0, state1=state1, p1=p1)


# ---------------------------------------------------------------------------
# ejection


def ejection_step(h: SumHamiltonian, e_s: float, shifted: bool = False) -> tuple[SumHamiltonian, float]:
    """(h_s, tau_s) such that `cooling_step(state, h_s, tau_s)` ejects E_s:
    U_s = exp(-i (pi / 2 E_s) H sigma_x^A) is W_0(pi / 2 E_s), or with
    ``shifted`` W_gamma(pi / 2 (E_s + gamma)), the only variant defined at
    E_s = 0. The kept branch scales eigen-coefficients by cos((E_j + gamma')
    tau_s), zero on the E_s eigenspace. Raises where tau_s is undefined."""
    h_s = h if shifted else h.with_gamma(0.0)
    denom = e_s + h_s.gamma
    if abs(denom) < 1e-12:
        raise UndefinedOperatorError(
            f"ejection undefined at E_s{'+gamma' if shifted else ''} = {denom:.3e}; "
            "use the shifted variant with a nonzero gamma"
        )
    return h_s, math.pi / (2.0 * denom)


def _ejection_failed(level: int, e_s: float, p: float) -> CertainFailureError:
    return CertainFailureError(
        f"ejection of level {level} at E_s={e_s:.6g} has zero success probability (p={p:.3e})"
    )


def ejected_energies(h: SumHamiltonian, config: RunConfig) -> tuple[float, ...]:
    """The energies a run ejects, in order: the levels below its target level
    (none without one). Raises if that level is out of range or an ejection
    also annihilates it (a zero of its kept factor at the target energy)."""
    target = config.target_level
    if not target:
        return ()
    evals = h.total.eigensystem()[0]
    if target >= len(evals):
        raise ConfigError(f"target level {target} out of range for dim {len(evals)}")
    kept = 1.0  # the target level's weight left after each ejection
    for level in range(target):
        h_s, tau_s = ejection_step(h, float(evals[level]), config.eject_shifted)
        kept *= float(np.cos((evals[target] + h_s.gamma) * tau_s)) ** 2
        if kept < BRANCH_PROB_FLOOR:
            raise CertainFailureError(
                f"ejection of level {level} annihilates target level {target} "
                f"(weight left {kept:.3e})"
            )
    return tuple(float(e) for e in evals[:target])


# ---------------------------------------------------------------------------
# trace records


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class CoolingTrace:
    stages: tuple[StageRecord, ...]
    converged: bool
    stop_reason: str
    final_state: QuantumState
    final_energy: float
    initial_energy: float
    p_success: float
    gamma: float
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


@dataclass(frozen=True, slots=True)
class TrajectoryResult:
    success: bool
    restarts: int
    shots_used: int


def eigen_populations(state: QuantumState, h: SumHamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues of the total H and P_j = <j|rho|j> in its eigenbasis,
    read on the state's `support` S: |V_S^H psi_S|^2, or Re sum_i conj(V_S) ⊙ (rho_SS V_S)."""
    check_dim(state, h.dim)
    evals, v = h.total.eigensystem()
    x, s = state.data, state.support
    if s.size < len(x):  # at full support V and rho are read whole
        v, x = v[s], x[s] if state.is_pure else x[np.ix_(s, s)]
    if state.is_pure:
        return evals, np.abs(v.conj().T @ x) ** 2
    return evals, np.einsum("ij,ij->j", v.conj(), x @ v).real


def trajectory_probabilities(
    initial: QuantumState,
    h: SumHamiltonian,
    config: RunConfig,
    schedule: tuple[float, ...],
) -> np.ndarray:
    """Deterministic p0 of each stage of a run, as its trace records them: one
    per `ejected_energies` ejection (a `cooling_step` at its `ejection_step`),
    then one per ``schedule`` tau. Exact-mode cooling reads the
    eigen-populations P once, then per stage p0 = w·P and P <- w⊙P / p0 with
    w = cos²((E + gamma) tau); Trotter mode replays each stage with
    `cooling_step`."""
    state, hg = _start(initial, h, config)
    p0s = []
    for level, e_s in enumerate(ejected_energies(hg, config)):
        step = cooling_step(state, *ejection_step(hg, e_s, config.eject_shifted))
        if step.state0 is None:
            raise _ejection_failed(level, e_s, step.p0)
        state = step.state0
        p0s.append(step.p0)
    if exact := isinstance(config.operator_mode, ExactW):
        evals, pops = eigen_populations(state, hg)
    for tau in schedule:
        if exact:
            w = np.cos((evals + hg.gamma) * tau) ** 2
            p0 = float(w @ pops)
            pops = w * pops / max(p0, BRANCH_PROB_FLOOR)  # below the floor we raise next
        else:
            step = cooling_step(state, hg, tau, config.operator_mode)
            p0, state = step.p0, step.state0
        if p0 < BRANCH_PROB_FLOOR:
            raise CertainFailureError(f"schedule stage tau={tau:.6g} certainly fails")
        p0s.append(p0)
    return np.array(p0s)


def stochastic_trajectory(
    initial: QuantumState,
    h: SumHamiltonian,
    config: RunConfig,
    schedule: tuple[float, ...],
    *,
    max_shots: int = 1_000_000,
) -> TrajectoryResult:
    """Sample ancilla outcomes Bernoulli(p0), ejections included; restart
    from scratch on a 1.

    Since every failure restarts from the same initial state, the per-stage
    probabilities come once from `trajectory_probabilities`; see there."""
    if config.seed is None:
        raise ConfigError("stochastic_trajectory requires a seed in the run config")
    p0s = trajectory_probabilities(initial, h, config, tuple(schedule))
    rng = np.random.default_rng(config.seed)
    restarts = shots = 0
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
