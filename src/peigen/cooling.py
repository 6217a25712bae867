"""The protocol's physics: the conditional cooling step, the ejection of a
selected eigenstate as one such step (`ejection_step`) and a run's ejection
prefix (`_ejections`), the stage and trace records, and a stochastic
restart-on-failure trajectory mode. The classical outer loop that drives
them lives in `variational.run`.

Traces follow the post-selected (ancilla |0>) branch deterministically and
record its probability; a step forms that branch only, and the failure
branch is the kept branch of a step at gamma - pi / (2 tau). Only
`stochastic_trajectory` actually samples outcomes, of ejection and cooling
stages alike. Exact mode forms no d x d operator: a step reads the state's
eigen-coefficients once and scales them, and every cooling p0 follows from
the cos² law on the eigen-populations. So a variational stage's trials share
its step's read, and trajectories walk the populations in O(d) per stage."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union, get_args

import numpy as np

from .errors import CertainFailureError, ConfigError, UndefinedOperatorError
from .models import Exact, GammaPolicy, SumHamiltonian, _check_finite, _check_integer, _is_real
from .models import gamma_for
from .operators import QuantumState, check_dim, validate_and_normalize
from .trotter import apply_branches, branch_unitaries

BRANCH_PROB_FLOOR = 1e-14
MAX_SHOTS = 1_000_000  # a stochastic trajectory's shot budget


# ---------------------------------------------------------------------------
# run configuration


def _require(ok: bool, rule: str, value: object) -> None:
    """Refuse ``value`` unless ``ok``, as "<rule>, got <value>"; a rule names its field first."""
    if not ok:
        raise ConfigError(f"{rule}, got {value}")


def _at_least(name: str, value: object, low: int) -> None:
    """An integer field's checks (`models._check_integer`), as a `ConfigError`."""
    _check_integer(name, value, low, ConfigError)


def _positive(name: str, value: object) -> None:
    """A positive float field's checks (`models._check_finite`) as `ConfigError`s; nan fails > 0."""
    if _is_real(value):
        _require(value > 0, f"{name} must be > 0", value)
    _check_finite(name, value, ConfigError)


def _check_kind(name: str, value: object, kinds: tuple[type, ...]) -> None:
    """Refuse a field that holds none of its dataclasses, naming the field."""
    if not isinstance(value, kinds):
        raise ConfigError(f"{name} must be {' or '.join(k.__name__ for k in kinds)}, got {value!r}")


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
        if _is_real(lo) and _is_real(hi):
            _require(0 < lo < hi, f"tau_lo must satisfy 0 < tau_lo < tau_hi = {hi}", lo)
        _check_finite("tau_lo", lo, ConfigError)
        _check_finite("tau_hi", hi, ConfigError)
        _positive("x_tol", self.x_tol)
        _at_least("max_evals", evals, 3)
        _at_least("coarse_grid", grid, 2)
        # else the grid stops short of tau_hi
        _require(evals >= grid, f"max_evals must be >= coarse_grid = {grid}", evals)


@dataclass(frozen=True)
class Variational:
    """Per-stage 1-D optimization of tau within the optimizer's domain."""

    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)

    def __post_init__(self) -> None:
        _check_kind("optimizer", self.optimizer, (OptimizerConfig,))


@dataclass(frozen=True)
class ExactW:
    pass


@dataclass(frozen=True)
class TrotterW:
    r: int

    def __post_init__(self) -> None:
        _at_least("r", self.r, 1)


OperatorMode = Union[ExactW, TrotterW]
_OPERATOR_MODES = get_args(OperatorMode)


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
        _check_kind("mode", self.mode, (FixedStep, Variational))
        _check_kind("gamma_policy", self.gamma_policy, get_args(GammaPolicy))
        _check_kind("operator_mode", self.operator_mode, _OPERATOR_MODES)
        _check_kind("eject_shifted", self.eject_shifted, (bool,))
        _positive("epsilon", self.epsilon)
        _at_least("max_stages", self.max_stages, 1)
        if isinstance(self.mode, FixedStep):
            _positive("tau", self.mode.tau)
        if (target := self.target_level) is not None:
            _at_least("target_level", target, 0)
            most = self.max_stages  # each level below the target is one ejection stage
            _require(target <= most, f"target_level must be <= max_stages = {most}", target)
        _positive("f_tol", self.f_tol)
        if self.seed is not None:
            _at_least("seed", self.seed, 0)


def _start(
    initial: QuantumState, h: SumHamiltonian, config: RunConfig
) -> tuple[QuantumState, SumHamiltonian]:
    """The checked, normalized initial state and the model shifted by the
    run's gamma. The state's dimension is checked before gamma is resolved.
    A run that reads the total's eigenvectors (exact mode, a target level)
    solves them first, so its gamma is bitwise that eigensystem's."""
    check_dim(initial, h.dim)
    state = validate_and_normalize(initial)
    if not isinstance(config.operator_mode, TrotterW) or config.target_level is not None:
        h.total.eigensystem()
    return state, h.with_gamma(gamma_for(h, config.gamma_policy))


# ---------------------------------------------------------------------------
# one conditional step


def _check_state(state: QuantumState, h: SumHamiltonian) -> None:
    """Refuse a state of the wrong dimension, or one whose ||psi||² or tr rho,
    p0 + p1 of any step, is below the floor."""
    check_dim(state, h.dim)
    x = state.data
    if (np.vdot(x, x).real if state.is_pure else np.trace(x).real) < BRANCH_PROB_FLOOR:
        raise CertainFailureError("both branch probabilities vanish; state is corrupt")


def _branch(out: np.ndarray, pure: bool) -> tuple[Optional[QuantumState], float]:
    """Normalised branch K psi or K rho K^H and its probability; None below the floor."""
    p = float(np.vdot(out, out).real if pure else np.trace(out).real)
    if p < BRANCH_PROB_FLOOR:
        return None, max(p, 0.0)
    return QuantumState(out * (1.0 / (math.sqrt(p) if pure else p))), p


def _eigen_coefficients(state: QuantumState, h: SumHamiltonian) -> np.ndarray:
    """The state in the eigenbasis V of the total H: c = V^H psi, or C = V^H rho V."""
    v = h.total.eigensystem()[1]
    return v.conj().T @ state.data if state.is_pure else v.conj().T @ state.data @ v


def _eigen_branch(c: np.ndarray, h: SumHamiltonian, f: np.ndarray) -> tuple:
    """`_branch` of eigen-coefficients ``c`` scaled by ``f``: V (f ⊙ c), or V (f C f*) V^H."""
    v = h.total.eigensystem()[1]
    if c.ndim == 1:
        return _branch(v @ (f * c), True)
    vh = v.conj().T  # before the products: this allocation order leaves less heap to trim
    return _branch(v @ (f[:, None] * c * f.conj()) @ vh, False)


def cooling_step(
    state: QuantumState,
    h: SumHamiltonian,
    tau: float,
    operator_mode: OperatorMode = ExactW(),
) -> tuple[Optional[QuantumState], float]:
    """Apply W_gamma(tau) with the ancilla in |0> and keep outcome 0:
    (state0, p0), state0 None below BRANCH_PROB_FLOOR.

    The kept block is K0 = (U+ + U-)/2 of the (exact or Trotterized) branch
    unitaries U+- = exp(∓i (H + gamma) tau). In exact mode it is
    cos((E + gamma) tau) in the eigenbasis, and no U+- is formed. In Trotter
    mode a pure state gets K0 psi from the branches applied to psi, factor
    by factor; a mixed state gets a dense K0.

    Outcome 1 is the kept branch of `cooling_step(state, h.with_gamma(h.gamma
    - pi / (2 * tau)), tau, operator_mode)`: both modes apply gamma as an
    exact phase, so the shift turns U+- into ±i U+- and K0 into i K1, K1 =
    (U+ - U-)/2. Its p1 and density matrix are equal; a pure vector differs
    by the global phase i. A state with ||psi||² or tr rho = p0 + p1 below
    the floor is refused, as are a non-finite tau and a wrong operator mode."""
    _check_kind("operator_mode", operator_mode, _OPERATOR_MODES)
    _check_state(state, h)
    _check_finite("tau", tau)  # a nan p0 is a success that no draw fails
    x = state.data
    if not isinstance(operator_mode, TrotterW):
        f = np.cos((h.total.eigensystem()[0] + h.gamma) * tau)
        return _eigen_branch(_eigen_coefficients(state, h), h, f)
    if state.is_pure:
        u_plus, u_minus = apply_branches(h, tau, operator_mode.r, x)
        return _branch((u_plus + u_minus) / 2, True)
    u_plus, u_minus = branch_unitaries(h, tau, operator_mode.r)
    k = (u_plus + u_minus) / 2
    return _branch(k @ x @ k.conj().T, False)


# ---------------------------------------------------------------------------
# ejection


def ejection_step(h: SumHamiltonian, e_s: float, shifted: bool = False) -> tuple[SumHamiltonian, float]:
    """(h_s, tau_s) such that `cooling_step(state, h_s, tau_s)` ejects E_s:
    U_s = exp(-i (pi / 2 E_s) H sigma_x^A) is W_0(pi / 2 E_s), or with
    ``shifted`` W_gamma(pi / 2 (E_s + gamma)), the only variant defined at
    E_s = 0. The kept branch scales eigen-coefficients by cos((E_j + gamma')
    tau_s), zero on the E_s eigenspace. Raises where tau_s is undefined."""
    _check_kind("shifted", shifted, (bool,))
    h_s = h if shifted else h.with_gamma(0.0)
    denom = e_s + h_s.gamma
    if abs(denom) < 1e-12:
        raise UndefinedOperatorError(
            f"ejection undefined at E_s{'+gamma' if shifted else ''} = {denom:.3e}; "
            "use the shifted variant with a nonzero gamma"
        )
    return h_s, math.pi / (2.0 * denom)


def ejected_energies(h: SumHamiltonian, config: RunConfig) -> tuple[float, ...]:
    """The energies a run ejects, in order: the levels below its target level
    (none without one), a degenerate level once per copy: a repeat is one more
    cos² filter on the other levels, not a no-op. Raises if that level is out of
    range or an ejection also annihilates it (a zero of its kept factor at E_target)."""
    target = config.target_level
    if not target:
        return ()
    evals = h.total.eigenvalues()
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


def _ejections(
    state: QuantumState, h: SumHamiltonian, config: RunConfig
) -> Iterator[tuple[float, QuantumState, float]]:
    """A run's ejections from ``state`` on its gamma-shifted model ``h``, in
    order: for each `ejected_energies` energy E_s, the exact `cooling_step`
    at its `ejection_step`, yielded as (E_s, state0, p0). Raises where a
    kept branch is below the floor."""
    for level, e_s in enumerate(ejected_energies(h, config)):
        state, p0 = cooling_step(state, *ejection_step(h, e_s, config.eject_shifted))
        if state is None:
            raise CertainFailureError(
                f"ejection of level {level} at E_s={e_s:.6g} has zero success probability (p={p0:.3e})"
            )
        yield e_s, state, p0


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
    per ejection (`_ejections`, as `variational.run` makes them), then one
    per ``schedule`` tau. Exact-mode cooling reads the
    eigen-populations P once, then per stage p0 = w·P and P <- w⊙P / p0 with
    w = cos²((E + gamma) tau); Trotter mode replays each stage with
    `cooling_step`. A schedule holding a non-finite tau is refused whole."""
    for tau in schedule:
        _check_finite("tau", tau)
    state, hg = _start(initial, h, config)
    p0s = []
    for _, state, p0 in _ejections(state, hg, config):
        p0s.append(p0)
    if exact := isinstance(config.operator_mode, ExactW):
        evals, pops = eigen_populations(state, hg)
    for tau in schedule:
        if exact:
            w = np.cos((evals + hg.gamma) * tau) ** 2
            p0 = float(w @ pops)
            pops = w * pops / max(p0, BRANCH_PROB_FLOOR)  # below the floor we raise next
        else:
            state, p0 = cooling_step(state, hg, tau, config.operator_mode)
        if p0 < BRANCH_PROB_FLOOR:
            raise CertainFailureError(f"schedule stage tau={tau:.6g} certainly fails")
        p0s.append(p0)
    return np.array(p0s)


def stochastic_trajectory(
    initial: QuantumState,
    h: SumHamiltonian,
    config: RunConfig,
    schedule: tuple[float, ...],
) -> TrajectoryResult:
    """Sample ancilla outcomes Bernoulli(p0), ejections included; restart
    from scratch on a 1.

    Since every failure restarts from the same initial state, the per-stage
    probabilities come once from `trajectory_probabilities`; see there.
    At most `MAX_SHOTS` shots are drawn."""
    if config.seed is None:
        raise ConfigError("stochastic_trajectory requires a seed in the run config")
    p0s = trajectory_probabilities(initial, h, config, tuple(schedule))
    rng = np.random.default_rng(config.seed)
    restarts = shots = 0
    while shots < MAX_SHOTS:
        for p0 in p0s:
            if shots >= MAX_SHOTS:
                break
            shots += 1
            if rng.random() >= p0:
                restarts += 1
                break
        else:
            return TrajectoryResult(success=True, restarts=restarts, shots_used=shots)
    return TrajectoryResult(success=False, restarts=restarts, shots_used=shots)
