"""The classical outer loop: per-stage bounded scalar minimization of the
post-selected average energy over tau (coarse grid + golden-section
refinement), and `run`, the one protocol driver. A run optionally ejects
the levels below a target, then repeats cooling steps at a fixed or
optimized tau until the stage energy settles."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cooling import (
    CoolingTrace,
    ExactW,
    OperatorMode,
    RunConfig,
    StageRecord,
    Variational,
    _resolve,
    cooling_step,
    eject,
)
from .errors import CertainFailureError, ConfigError
from .models import SumHamiltonian, exact_spectrum
from .operators import QuantumState, expectation, validate_and_normalize

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


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
        if not 0 < self.tau_lo < self.tau_hi:
            raise ConfigError(
                f"need 0 < tau_lo < tau_hi, got [{self.tau_lo}, {self.tau_hi}]"
            )
        if not self.x_tol > 0:
            raise ConfigError(f"x_tol must be > 0, got {self.x_tol}")
        if self.max_evals < 3:
            raise ConfigError(f"max_evals must be >= 3, got {self.max_evals}")
        if self.coarse_grid < 2:
            raise ConfigError(f"coarse_grid must be >= 2, got {self.coarse_grid}")


def resolve_optimizer(opt: object | None) -> OptimizerConfig:
    if opt is None:
        return OptimizerConfig()
    if isinstance(opt, OptimizerConfig):
        return opt
    raise ConfigError(f"optimizer must be an OptimizerConfig, got {type(opt).__name__}")


@dataclass(frozen=True)
class TrialRecord:
    trial_index: int
    tau: float
    energy: float
    p0: float


@dataclass(frozen=True)
class MinimizeResult:
    tau_star: float
    energy_star: float
    p0_star: float
    trials: tuple[TrialRecord, ...]
    budget_exhausted: bool


def stage_objective(
    state: QuantumState,
    h: SumHamiltonian,
    tau: float,
    operator_mode: OperatorMode = ExactW(),
) -> tuple[float, float]:
    """Post-selected average energy of the 0-branch at this tau, and its p0.

    A numerically certain failure (p0 < 1e-14) is reported as (+inf, 0.0) so
    a minimizer simply avoids it."""
    step = cooling_step(state, h, tau, operator_mode)
    if step.state0 is None:
        return math.inf, 0.0
    return expectation(step.state0, h.total), step.p0


def minimize_stage(
    state: QuantumState,
    h: SumHamiltonian,
    opt: OptimizerConfig,
    *,
    operator_mode: OperatorMode = ExactW(),
) -> MinimizeResult:
    """Coarse grid, then golden-section refinement of the bracketing interval.

    Every objective evaluation is logged as a trial, in order. The returned
    tau_star is the best evaluated point; exact ties go to the smaller tau.
    If max_evals runs out before the interval shrinks to x_tol, the
    best-so-far is returned with budget_exhausted set."""
    trials: list[TrialRecord] = []

    def ev(tau: float) -> float:
        energy, p0 = stage_objective(state, h, tau, operator_mode)
        trials.append(TrialRecord(len(trials), float(tau), energy, p0))
        return energy

    xs = np.linspace(opt.tau_lo, opt.tau_hi, opt.coarse_grid)
    for x in xs:
        if len(trials) >= opt.max_evals:
            break
        ev(float(x))
    n_grid = len(trials)
    i_best = min(range(n_grid), key=lambda i: (trials[i].energy, trials[i].tau))
    a = float(xs[max(i_best - 1, 0)])
    b = float(xs[min(i_best + 1, n_grid - 1)])

    x1 = b - INVPHI * (b - a)
    x2 = a + INVPHI * (b - a)
    f1 = ev(x1) if len(trials) < opt.max_evals else None
    f2 = ev(x2) if len(trials) < opt.max_evals else None
    while (
        f1 is not None
        and f2 is not None
        and (b - a) > opt.x_tol
        and len(trials) < opt.max_evals
    ):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - INVPHI * (b - a)
            f1 = ev(x1) if len(trials) < opt.max_evals else None
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + INVPHI * (b - a)
            f2 = ev(x2) if len(trials) < opt.max_evals else None

    best = min(trials, key=lambda t: (t.energy, t.tau))
    return MinimizeResult(
        tau_star=best.tau,
        energy_star=best.energy,
        p0_star=best.p0,
        trials=tuple(trials),
        budget_exhausted=(b - a) > opt.x_tol,
    )


def _eigenspace_fidelity(
    state: QuantumState, evals: np.ndarray, evecs: np.ndarray, level: int
) -> float:
    """Overlap with the full eigenspace containing level ``level``."""
    members = np.abs(evals - evals[level]) < 1e-9
    v = evecs[:, members]
    if state.is_pure:
        amps = v.conj().T @ state.data
        return float(np.vdot(amps, amps).real)
    return float(np.trace(v.conj().T @ state.data @ v).real)


def run(
    initial: QuantumState,
    h: SumHamiltonian,
    config: RunConfig,
    *,
    target_level: Optional[int] = None,
    sector_info: Optional[str] = None,
) -> CoolingTrace:
    """Cool along the 0-branch until |E_{k-1} - E_k| <= epsilon.

    Each stage's tau is the fixed step or the minimizer of that stage's
    post-selected energy, whose trial log the stage carries. With a
    ``target_level`` j, the levels below j are first ejected (oracle
    energies), each recorded as a stage counting toward max_stages, and the
    trace reports the fidelity with the target eigenspace and whether the
    run converged onto it (within f_tol). Non-convergence at max_stages
    yields converged=False, not an exception."""
    if target_level is not None:
        if target_level < 0:
            raise ConfigError(f"target level must be >= 0, got {target_level}")
        evals, evecs = exact_spectrum(h)
        if target_level >= len(evals):
            raise ConfigError(f"target level {target_level} out of range for dim {len(evals)}")
    state = validate_and_normalize(initial)
    hg = _resolve(h, config)
    total = hg.total
    e0 = e_prev = expectation(state, total)
    stages: list[StageRecord] = []
    p_cum = 1.0
    for level in range(target_level or 0):
        e_s = float(evals[level])
        try:
            state, p = eject(state, hg, e_s, shifted=config.eject_shifted)
        except CertainFailureError as exc:
            raise CertainFailureError(f"ejection of level {level} failed: {exc}") from exc
        p_cum *= p
        e_prev = expectation(state, total)
        stages.append(
            StageRecord(
                k=len(stages) + 1,
                kind="eject",
                tau=None,
                energy=e_prev,
                p0=p,
                p_suc=p_cum,
                e_s=e_s,
                shifted=config.eject_shifted,
            )
        )

    opt = resolve_optimizer(config.mode.optimizer) if isinstance(config.mode, Variational) else None
    converged = False
    while len(stages) < config.max_stages:
        if opt is None:
            tau, trials, exhausted = config.mode.tau, (), False
        else:
            res = minimize_stage(state, hg, opt, operator_mode=config.operator_mode)
            tau, trials, exhausted = res.tau_star, res.trials, res.budget_exhausted
        step = cooling_step(state, hg, tau, config.operator_mode)
        if step.state0 is None:
            raise CertainFailureError(
                f"cooling stage at tau={tau:.6g} has zero success probability"
            )
        state = step.state0
        p_cum *= step.p0
        energy = expectation(state, total)
        stages.append(
            StageRecord(
                k=len(stages) + 1,
                kind="cool",
                tau=float(tau),
                energy=energy,
                p0=step.p0,
                p_suc=p_cum,
                trials=trials,
                opt_budget_exhausted=exhausted,
            )
        )
        if abs(e_prev - energy) <= config.epsilon:
            converged = True
            break
        e_prev = energy

    fidelity = None
    if target_level is not None:
        fidelity = _eigenspace_fidelity(state, evals, evecs, target_level)
    return CoolingTrace(
        stages=tuple(stages),
        converged=converged,
        stop_reason="epsilon" if converged else "max_stages",
        final_state=state,
        final_energy=stages[-1].energy,
        initial_energy=e0,
        p_success=p_cum,
        gamma=hg.gamma,
        f_tol=config.f_tol,
        sector_info=sector_info,
        target_level=target_level,
        target_fidelity=fidelity,
        converged_to_target=(
            None if fidelity is None else bool(converged and fidelity >= 1.0 - config.f_tol)
        ),
    )
