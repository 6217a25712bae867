"""The classical outer loop: per-stage bounded scalar minimization of the
post-selected average energy over tau (coarse grid + golden-section
refinement), and `run`, the one protocol driver. A run is one loop of
ancilla-conditioned stages: ejections of the levels below an optional
target, then cooling steps at a fixed or optimized tau until the stage
energy settles."""

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
    _ejection_failed,
    _start,
    cooling_step,
    eigen_populations,
    ejected_energies,
    ejection_step,
)
from .errors import CertainFailureError
from .models import SumHamiltonian
from .operators import QuantumState, expectation

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
    kept, p0 = cooling_step(state, h, tau, operator_mode)
    if kept is None:
        return math.inf, 0.0
    return expectation(kept, h.total), p0


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
    """Run the protocol's stages along the 0-branch, at most max_stages.

    With a config ``target_level`` j, the first j stages eject the levels
    below j (oracle energies), each an exact cooling step at its
    `ejection_step`; the trace then reports the fidelity with the target
    eigenspace and whether the run converged onto it (within f_tol). Every
    further stage is a cooling step at the fixed tau or at the minimizer of
    that stage's post-selected energy, whose trial log the stage carries,
    until a cooling stage moves the energy by at most epsilon.
    Non-convergence at max_stages yields converged=False, not an exception."""
    state, hg = _start(initial, h, config)
    ejected = ejected_energies(hg, config)
    total = hg.total
    e0 = e_prev = expectation(state, total)
    stages: list[StageRecord] = []
    p_cum = 1.0
    converged = False
    while len(stages) < config.max_stages:
        if (level := len(stages)) < len(ejected):
            h_s, tau, operator_mode = *ejection_step(hg, ejected[level], config.eject_shifted), ExactW()
            record = dict(kind="eject", tau=None, e_s=ejected[level], shifted=config.eject_shifted)
        else:
            if not isinstance(config.mode, Variational):
                tau, trials, exhausted = config.mode.tau, (), False
            else:
                res = minimize_stage(
                    state, hg, config.mode.optimizer, operator_mode=config.operator_mode
                )
                tau, trials, exhausted = res.tau_star, res.trials, res.budget_exhausted
            h_s, operator_mode = hg, config.operator_mode
            record = dict(
                kind="cool", tau=float(tau), trials=trials, opt_budget_exhausted=exhausted
            )
        state, p0 = cooling_step(state, h_s, tau, operator_mode)
        if state is None:
            if record["kind"] == "eject":
                raise _ejection_failed(level, ejected[level], p0)
            raise CertainFailureError(
                f"cooling stage at tau={tau:.6g} has zero success probability"
            )
        p_cum *= p0
        energy = expectation(state, total)
        stages.append(StageRecord(k=len(stages) + 1, energy=energy, p0=p0, p_suc=p_cum, **record))
        if record["kind"] == "cool" and abs(e_prev - energy) <= config.epsilon:
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
