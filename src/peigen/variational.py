"""The classical outer loop: per-stage bounded scalar minimization of the
post-selected average energy over tau (coarse grid + golden-section
refinement), and `run`, the one protocol driver. A run optionally ejects
the levels below a target, then repeats cooling steps at a fixed or
optimized tau until the stage energy settles."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cooling import (
    BRANCH_PROB_FLOOR,
    CoolingTrace,
    ExactW,
    OperatorMode,
    OptimizerConfig,
    RunConfig,
    StageRecord,
    Variational,
    _resolve,
    cooling_step,
    eigen_populations,
    eject,
    ejected_energies,
)
from .errors import CertainFailureError
from .models import SumHamiltonian
from .operators import QuantumState, expectation, validate_and_normalize

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True, slots=True)
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


def _exact_objective(state: QuantumState, h: SumHamiltonian):
    """Exact-mode objective of tau: p0 = w·P and energy w·(E⊙P) / p0, with
    w_j = cos²((E_j + gamma) tau) and P_j = <j|rho|j> read once here."""
    evals, pops = eigen_populations(state, h)
    shifted, e_pops = evals + h.gamma, evals * pops

    def objective(tau: float) -> tuple[float, float]:
        w = np.cos(shifted * tau) ** 2
        p0 = float(w @ pops)
        if p0 < BRANCH_PROB_FLOOR:
            return math.inf, 0.0
        return float(w @ e_pops) / p0, p0

    return objective


def stage_objective(
    state: QuantumState,
    h: SumHamiltonian,
    tau: float,
    operator_mode: OperatorMode = ExactW(),
) -> tuple[float, float]:
    """Post-selected average energy of the 0-branch at this tau, and its p0.

    Exact mode reads the cos² law on eigen-populations, Trotter mode the
    cooling step. A numerically certain failure (p0 < 1e-14) is reported as
    (+inf, 0.0) so a minimizer simply avoids it."""
    if isinstance(operator_mode, ExactW):
        return _exact_objective(state, h)(tau)
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
    best-so-far is returned with budget_exhausted set. Exact-mode trials
    share one stage's eigen-populations and cost O(d) each."""
    trials: list[TrialRecord] = []
    cos2 = _exact_objective(state, h) if isinstance(operator_mode, ExactW) else None

    def ev(tau: float) -> float:
        energy, p0 = cos2(tau) if cos2 else stage_objective(state, h, tau, operator_mode)
        trials.append(TrialRecord(len(trials), float(tau), energy, p0))
        return energy

    xs = np.linspace(opt.tau_lo, opt.tau_hi, opt.coarse_grid)
    for x in xs:
        ev(float(x))
    i_best = min(range(len(xs)), key=lambda i: (trials[i].energy, trials[i].tau))
    a = float(xs[max(i_best - 1, 0)])
    b = float(xs[min(i_best + 1, len(xs) - 1)])

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
            f1 = ev(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + INVPHI * (b - a)
            f2 = ev(x2)

    best = min(trials, key=lambda t: (t.energy, t.tau))
    return MinimizeResult(
        tau_star=best.tau,
        energy_star=best.energy,
        p0_star=best.p0,
        trials=tuple(trials),
        budget_exhausted=(b - a) > opt.x_tol,
    )


def run(initial: QuantumState, h: SumHamiltonian, config: RunConfig) -> CoolingTrace:
    """Cool along the 0-branch until |E_{k-1} - E_k| <= epsilon.

    Each stage's tau is the fixed step or the minimizer of that stage's
    post-selected energy, whose trial log the stage carries. With a config
    ``target_level`` j, the levels below j are first ejected (oracle
    energies), each recorded as a stage counting toward max_stages, and the
    trace reports the fidelity with the target eigenspace and whether the
    run converged onto it (within f_tol). Non-convergence at max_stages
    yields converged=False, not an exception."""
    state = validate_and_normalize(initial)
    hg = _resolve(h, config)
    ejected = ejected_energies(hg, config)
    total = hg.total
    e0 = e_prev = expectation(state, total)
    stages: list[StageRecord] = []
    p_cum = 1.0
    for level, e_s in enumerate(ejected):
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

    converged = False
    while len(stages) < config.max_stages:
        if not isinstance(config.mode, Variational):
            tau, trials, exhausted = config.mode.tau, (), False
        else:
            res = minimize_stage(state, hg, config.mode.optimizer, operator_mode=config.operator_mode)
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
    target = config.target_level
    if target is not None:  # the populations of the target eigenspace
        evals, pops = eigen_populations(state, hg)
        fidelity = float(pops[np.abs(evals - evals[target]) < 1e-9].sum())
    return CoolingTrace(
        stages=tuple(stages),
        converged=converged,
        stop_reason="epsilon" if converged else "max_stages",
        final_state=state,
        final_energy=stages[-1].energy,
        initial_energy=e0,
        p_success=p_cum,
        gamma=hg.gamma,
        target_level=target,
        target_fidelity=fidelity,
        converged_to_target=(
            None if fidelity is None else bool(converged and fidelity >= 1.0 - config.f_tol)
        ),
    )
