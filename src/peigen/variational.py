"""The classical outer loop: per-stage bounded scalar minimization of the
post-selected average energy over tau (coarse grid + golden-section
refinement), and `run`, the one protocol driver. A run is the ejections of
the levels below an optional target (`cooling._ejections`), then one loop of
cooling steps at a fixed or optimized tau until the stage energy settles.
An optimized stage forms one branch, its best trial's."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

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
    _OPERATOR_MODES,
    _branch,
    _check_kind,
    _check_state,
    _eigen_branch,
    _eigen_coefficients,
    _ejections,
    _start,
    cooling_step,
    eigen_populations,
)
from .errors import CertainFailureError
from .models import SumHamiltonian
from .operators import QuantumState, expectation
from .trotter import apply_branches

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True, slots=True)
class TrialRecord:
    trial_index: int
    tau: float
    energy: float
    p0: float


@dataclass(frozen=True)
class MinimizeResult:
    """A stage's search: the best trial by (energy, tau), every trial in
    order, and whether the budget ran out first. ``branch`` is the best
    trial's kept 0-branch as its stage records it, (state0, p0, energy):
    bitwise `cooling_step` at its tau, then `expectation`; None below the floor."""

    best: TrialRecord
    trials: tuple[TrialRecord, ...]
    budget_exhausted: bool
    branch: Optional[tuple[QuantumState, float, float]] = None


def _trials(state: QuantumState, h: SumHamiltonian, operator_mode: OperatorMode):
    """One stage's trials, (evaluate, accept): ``evaluate`` maps taus to their
    (energy, p0, kept), energy +inf and p0 0.0 below the 1e-14 floor so a
    minimizer avoids them; ``accept(best, kept)`` gives `MinimizeResult.branch`.

    Exact mode reads c = V^H psi, or C = V^H rho V, once, as `cooling_step`
    does; a trial reads the cos² law on P = |c|² or diag(C) and keeps its
    factor f = cos((E + gamma) tau), and ``accept`` scales c by the best f.
    A Trotter trial keeps its 0-branch: a lone tau, or any tau of a mixed
    state, is a `cooling_step`; several taus on a pure state are one
    `apply_branches` block with psi in every column, each column's K0 psi
    read as a contiguous row, so it is bitwise that step's where every
    group is a monomial."""
    if isinstance(operator_mode, ExactW):
        _check_state(state, h)  # as each cooling step would
        c = _eigen_coefficients(state, h)  # read once
        pops = np.abs(c) ** 2 if state.is_pure else c.diagonal().real  # P_j = <j|rho|j>
        evals = h.total.eigensystem()[0]
        shifted, e_pops = evals + h.gamma, evals * pops

        def cos2(tau: float) -> tuple[float, float, np.ndarray]:
            f = np.cos(shifted * tau)
            w = f**2  # p0 = w·P, energy w·(E⊙P) / p0
            p0 = float(w @ pops)
            if p0 < BRANCH_PROB_FLOOR:
                return math.inf, 0.0, f
            return float(w @ e_pops) / p0, p0, f

        def accept(best: TrialRecord, f: np.ndarray):
            kept, p0 = _eigen_branch(c, h, f)
            return None if kept is None else (kept, p0, expectation(kept, h.total))

        return (lambda taus: [cos2(tau) for tau in taus]), accept

    def trotter(taus: list[float]) -> list:
        if state.is_pure and len(taus) > 1:
            _check_state(state, h)  # as each cooling step would
            block = np.repeat(state.data[:, None], len(taus), axis=1)
            u_plus, u_minus = apply_branches(h, np.array(taus), operator_mode.r, block)
            steps = [_branch(k, True) for k in ((u_plus + u_minus) / 2).T.copy()]
        else:
            steps = [cooling_step(state, h, tau, operator_mode) for tau in taus]
        return [
            (math.inf, 0.0, None) if kept is None else (expectation(kept, h.total), p0, kept)
            for kept, p0 in steps
        ]

    return trotter, lambda best, kept: None if kept is None else (kept, best.p0, best.energy)


def minimize_stage(
    state: QuantumState,
    h: SumHamiltonian,
    opt: OptimizerConfig,
    *,
    operator_mode: OperatorMode = ExactW(),
) -> MinimizeResult:
    """Coarse grid, then golden-section refinement of the bracketing interval.

    Every objective evaluation is logged as a trial, in order. The returned
    ``best`` is the best evaluated trial; exact ties go to the smaller tau.
    If max_evals runs out before the interval shrinks to x_tol, the
    best-so-far is returned with budget_exhausted set. Exact-mode trials
    share one eigen-coefficient read, O(d) each; a Trotter pure state's
    coarse grid is one `apply_branches` block and each golden-section point
    one cooling step. Only the best trial's branch is kept, as ``branch``."""
    _check_kind("operator_mode", operator_mode, _OPERATOR_MODES)
    trials: list[TrialRecord] = []
    evaluate, accept = _trials(state, h, operator_mode)
    best = kept_best = None  # the best trial so far by (energy, tau), and what it kept

    def ev(taus: list[float]) -> float:
        nonlocal best, kept_best
        for tau, (energy, p0, kept) in zip(taus, evaluate(taus)):
            trials.append(TrialRecord(len(trials), tau, energy, p0))
            if best is None or (energy, tau) < (best.energy, best.tau):
                best, kept_best = trials[-1], kept
        return trials[-1].energy

    # float ends: numpy keeps an int beyond int64 as an object array
    xs = [float(x) for x in np.linspace(float(opt.tau_lo), float(opt.tau_hi), opt.coarse_grid)]
    ev(xs)
    i_best = best.trial_index  # the grid's best
    a = xs[max(i_best - 1, 0)]
    b = xs[min(i_best + 1, len(xs) - 1)]

    x1 = b - INVPHI * (b - a)
    x2 = a + INVPHI * (b - a)
    f1 = ev([x1]) if len(trials) < opt.max_evals else None
    f2 = ev([x2]) if len(trials) < opt.max_evals else None
    while (
        f1 is not None
        and f2 is not None
        and (b - a) > opt.x_tol
        and len(trials) < opt.max_evals
    ):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - INVPHI * (b - a)
            f1 = ev([x1])
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + INVPHI * (b - a)
            f2 = ev([x2])

    return MinimizeResult(
        best=best,
        trials=tuple(trials),
        budget_exhausted=(b - a) > opt.x_tol,
        branch=accept(best, kept_best),
    )


def run(initial: QuantumState, h: SumHamiltonian, config: RunConfig) -> CoolingTrace:
    """Run the protocol's stages along the 0-branch, at most max_stages.

    With a config ``target_level`` j, the first j stages eject the levels
    below j (oracle energies), each an exact cooling step at its
    `ejection_step` (`cooling._ejections`, which the trajectory replay
    shares); the trace then reports the fidelity with the target eigenspace
    and whether the run converged onto it (within f_tol). Every further
    stage is a cooling step at the fixed tau or at the minimizer of that
    stage's post-selected energy, whose trial log the stage carries, until a
    cooling stage moves the energy by at most epsilon. A stage at the
    minimizer takes its state, p0 and energy from the best trial's branch
    (`MinimizeResult.branch`), bitwise the `cooling_step` it stands for; a
    fixed stage makes its `cooling_step`.
    Non-convergence at max_stages yields converged=False, not an exception."""
    state, hg = _start(initial, h, config)
    total = hg.total
    e0 = expectation(state, total)
    stages: list[StageRecord] = []

    def record(p0: float, energy: float, **fields) -> None:
        p_suc = stages[-1].p_suc * p0 if stages else p0  # cumulative over all stages so far
        stages.append(StageRecord(k=len(stages) + 1, energy=energy, p0=p0, p_suc=p_suc, **fields))

    shifted = config.eject_shifted
    for e_s, state, p0 in _ejections(state, hg, config):
        record(p0, expectation(state, total), kind="eject", tau=None, e_s=e_s, shifted=shifted)
    e_prev = stages[-1].energy if stages else e0
    converged = False
    while not converged and len(stages) < config.max_stages:
        if isinstance(config.mode, Variational):
            res = minimize_stage(state, hg, config.mode.optimizer, operator_mode=config.operator_mode)
            tau, trials, exhausted, branch = res.best.tau, res.trials, res.budget_exhausted, res.branch
        else:
            tau, trials, exhausted = config.mode.tau, (), False
            kept, p0 = cooling_step(state, hg, tau, config.operator_mode)
            branch = None if kept is None else (kept, p0, expectation(kept, total))
        if branch is None:
            raise CertainFailureError(f"cooling stage at tau={tau:.6g} has zero success probability")
        state, p0, energy = branch
        record(p0, energy, kind="cool", tau=float(tau), trials=trials, opt_budget_exhausted=exhausted)
        converged, e_prev = abs(e_prev - energy) <= config.epsilon, energy

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
        p_success=stages[-1].p_suc,
        gamma=hg.gamma,
        target_level=target,
        target_fidelity=fidelity,
        converged_to_target=(
            None if fidelity is None else bool(converged and fidelity >= 1.0 - config.f_tol)
        ),
    )
