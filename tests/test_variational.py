import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peigen import (
    ConfigError,
    Custom,
    ExactW,
    FixedStep,
    OptimizerConfig,
    QuantumState,
    RunConfig,
    Variational,
    basis_vector,
    cooling_step,
    expectation,
    run,
)
from peigen.models import build_custom
from peigen.variational import minimize_stage, stage_objective


def _two_level(e1=1.0):
    return build_custom(Custom(terms=(("d", np.diag([0.0, e1])),)))


def _plus(dim=2):
    v = np.zeros(dim)
    v[0] = v[1] = 2**-0.5
    return QuantumState(v)


# ---------------------------------------------------------------------------
# objective


def test_objective_small_tau_is_identity_limit(harmonic, thermal_half):
    e_in = expectation(thermal_half, harmonic.total)
    e, p0 = stage_objective(thermal_half, harmonic, 1e-8, ExactW())
    assert abs(e - e_in) < 1e-6
    assert abs(p0 - 1.0) < 1e-6


def test_objective_frozen_value(harmonic):
    psi = QuantumState(np.concatenate([[2**-0.5, 2**-0.5], np.zeros(28)]))
    e, p0 = stage_objective(psi, harmonic, 0.3, ExactW())
    assert abs(e - 0.4771700573918862) < 1e-9
    assert abs(p0 - (1 + math.cos(0.3) ** 2) / 2) < 1e-12


def test_objective_constant_on_eigenstates(harmonic):
    psi = basis_vector(30, 2)
    es = [stage_objective(psi, harmonic, t, ExactW())[0] for t in (0.1, 0.4, 0.7)]
    assert max(es) - min(es) < 1e-10


def test_objective_certain_failure_sentinel(harmonic):
    # |1>, tau=pi/2: the 0-branch is empty; the optimizer must see +inf
    e, p0 = stage_objective(basis_vector(30, 1), harmonic, math.pi / 2, ExactW())
    assert math.isinf(e) and p0 == 0.0


# ---------------------------------------------------------------------------
# 1-D minimizer


def test_minimize_monotone_objective_hits_upper_bound():
    # (|0>+|1>)/sqrt2 on diag(0,1): energy decreases on [0, pi/2] ⊃ [lo, hi]
    opt = OptimizerConfig()
    res = minimize_stage(_plus(), _two_level(), opt)
    assert abs(res.tau_star - opt.tau_hi) <= opt.x_tol
    assert res.trials[-1].trial_index == len(res.trials) - 1


def test_minimize_convex_matches_dense_scan(harmonic, thermal_half):
    opt = OptimizerConfig(max_evals=60)
    res = minimize_stage(thermal_half, harmonic, opt)
    assert not res.budget_exhausted
    taus = np.linspace(opt.tau_lo, opt.tau_hi, 10_000)
    energies = [stage_objective(thermal_half, harmonic, float(t), ExactW())[0] for t in taus]
    tau_oracle = float(taus[int(np.argmin(energies))])
    assert abs(res.tau_star - tau_oracle) <= opt.x_tol + (opt.tau_hi - opt.tau_lo) / 9_999


def test_minimize_budget_flag_and_best_so_far(harmonic, thermal_half):
    opt = OptimizerConfig(max_evals=12)
    res = minimize_stage(thermal_half, harmonic, opt)
    assert res.budget_exhausted
    assert len(res.trials) == 12
    assert res.energy_star == min(t.energy for t in res.trials)


@settings(max_examples=30, deadline=None)
@given(st.integers(7, 40))
def test_minimize_never_exceeds_budget(max_evals):
    res = minimize_stage(_plus(), _two_level(), OptimizerConfig(max_evals=max_evals))
    assert len(res.trials) <= max_evals


def test_minimize_tie_break_prefers_smaller_tau(harmonic):
    # eigenstate input: objective constant, so the smallest tau must win
    res = minimize_stage(basis_vector(30, 2), harmonic, OptimizerConfig())
    assert res.tau_star == pytest.approx(0.01, abs=1e-12)


def test_optimizer_config_validation():
    with pytest.raises(ConfigError):
        OptimizerConfig(tau_lo=0.5, tau_hi=0.2)
    with pytest.raises(ConfigError):
        OptimizerConfig(x_tol=0.0)
    with pytest.raises(ConfigError):
        OptimizerConfig(max_evals=2)


# ---------------------------------------------------------------------------
# full variational runs


def test_variational_run_harmonic_converges_in_eight_stages(harmonic, thermal_half):
    cfg = RunConfig(mode=Variational(), epsilon=1e-3)
    tr = run(thermal_half, harmonic, cfg)
    assert tr.converged
    assert tr.n_stages == 8
    assert sum(len(s.trials) for s in tr.stages) == 96  # 12 per stage
    assert tr.final_energy <= 2e-3
    assert 0.60 <= tr.p_success <= 0.667
    assert all(0.0 < t <= 1.0 for t in tr.schedule)


def test_variational_stage_energies_strictly_decrease(harmonic, thermal_half):
    cfg = RunConfig(mode=Variational(), epsilon=1e-3)
    tr = run(thermal_half, harmonic, cfg)
    energies = [tr.initial_energy] + [s.energy for s in tr.stages]
    assert all(b < a for a, b in zip(energies, energies[1:]))


def test_variational_beats_fixed_step_on_stage_count(harmonic, thermal_half):
    eps = 1e-3
    var = run(thermal_half, harmonic, RunConfig(mode=Variational(), epsilon=eps))
    fix = run(
        thermal_half, harmonic, RunConfig(mode=FixedStep(tau=0.3), epsilon=eps)
    )
    assert var.n_stages <= fix.n_stages


def test_variational_replay_reproduces_energies(harmonic, thermal_half):
    cfg = RunConfig(mode=Variational(), epsilon=1e-3)
    tr = run(thermal_half, harmonic, cfg)
    state = thermal_half
    for s in tr.stages:
        state = cooling_step(state, harmonic, s.tau).state0
        assert abs(expectation(state, harmonic.total) - s.energy) < 1e-10


def test_variational_trial_logs_are_contiguous(harmonic, thermal_half):
    cfg = RunConfig(mode=Variational(), epsilon=1e-2)
    tr = run(thermal_half, harmonic, cfg)
    for s in tr.stages:
        assert [t.trial_index for t in s.trials] == list(range(len(s.trials)))
        assert any(t.tau == s.tau for t in s.trials)  # chosen tau was evaluated


def test_run_dispatches_on_mode(harmonic, thermal_half):
    v = run(thermal_half, harmonic, RunConfig(mode=Variational(), epsilon=1e-2))
    f = run(thermal_half, harmonic, RunConfig(mode=FixedStep(tau=0.3), epsilon=1e-2))
    assert v.stages[0].trials and not f.stages[0].trials
