import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peigen import (
    CertainFailureError,
    ConfigError,
    Custom,
    Fixed,
    FixedStep,
    QuantumState,
    RunConfig,
    TrotterW,
    UndefinedOperatorError,
    ValidationError,
    Variational,
    basis_vector,
    cooling_step,
    eject,
    expectation,
    run,
    stochastic_trajectory,
    trajectory_probabilities,
)
from peigen.models import build_custom
from tests.conftest import random_hermitian, random_state_vector


def _plus01(dim=30):
    v = np.zeros(dim)
    v[0] = v[1] = 2**-0.5
    return QuantumState(v)


# ---------------------------------------------------------------------------
# single cooling step


def test_step_frozen_oracle_values(harmonic):
    # (|0>+|1>)/sqrt2, gamma=0, tau=0.3: p0 = (1 + cos^2 0.3)/2
    step = cooling_step(_plus01(), harmonic, 0.3)
    assert abs(step.p0 - (1 + math.cos(0.3) ** 2) / 2) < 1e-12
    e0 = expectation(step.state0, harmonic.total)
    # 0-branch energy = cos^2(0.3) / (1 + cos^2(0.3))
    assert abs(e0 - math.cos(0.3) ** 2 / (1 + math.cos(0.3) ** 2)) < 1e-9
    assert abs(e0 - 0.4771700573918862) < 1e-9


def test_step_quarter_period_kills_eigenstate(harmonic):
    # |1>, tau=pi/2: cos^2(1*pi/2) = 0, the state lands entirely in branch 1
    step = cooling_step(basis_vector(30, 1), harmonic, math.pi / 2)
    assert step.state0 is None
    assert step.p0 < 1e-14
    assert abs(step.p1 - 1.0) < 1e-12


def test_step_mixed_state(harmonic, thermal_half):
    step = cooling_step(thermal_half, harmonic, 0.3)
    assert not step.state0.is_pure
    assert abs(np.trace(step.state0.data).real - 1.0) < 1e-12
    # expected p0 = sum_n p_n cos^2(0.3 n)
    ns = np.arange(30)
    pn = (2 / 3) * (1 / 3) ** ns
    pn /= pn.sum()
    assert abs(step.p0 - float((pn * np.cos(0.3 * ns) ** 2).sum())) < 1e-12


def test_step_dimension_mismatch(harmonic):
    with pytest.raises(ValidationError):
        cooling_step(basis_vector(8, 0), harmonic, 0.3)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.01, 2.0), st.floats(-1.0, 2.0))
def test_step_branch_probabilities_sum_to_one(seed, tau, gamma):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 9))
    h = build_custom(Custom(terms=(("m", random_hermitian(rng, dim)),))).with_gamma(gamma)
    psi = QuantumState(random_state_vector(rng, dim))
    step = cooling_step(psi, h, tau)
    assert abs(step.p0 + step.p1 - 1.0) < 1e-10


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.005, 0.05))
def test_step_energy_inequality_with_exact_shift(seed, tau_scale):
    """<H>_0 <= <H> < <H>_1 whenever gamma = -E0 and tau is small."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 8))
    h = build_custom(Custom(terms=(("m", random_hermitian(rng, dim)),)))
    evals, _ = h.total.eigensystem()
    hg = h.with_gamma(float(-evals[0]))
    psi = QuantumState(random_state_vector(rng, dim))
    tau = tau_scale / max(float(evals[-1] - evals[0]), 1e-6)
    step = cooling_step(psi, hg, tau)
    e_in = expectation(psi, hg.total)
    assert expectation(step.state0, hg.total) <= e_in + 1e-12
    if step.state1 is not None:
        assert expectation(step.state1, hg.total) > e_in


# ---------------------------------------------------------------------------
# ejection


def test_eject_removes_level_and_keeps_orthogonal(harmonic):
    out, p = eject(_plus01(), harmonic, 1.0)
    assert abs(p - 0.5) < 1e-12
    assert abs(abs(out.data[0]) - 1.0) < 1e-12  # what survives is |0>
    assert abs(out.data[1]) < 1e-12


def test_eject_certain_failure_on_target_eigenstate(harmonic):
    with pytest.raises(CertainFailureError):
        eject(basis_vector(30, 1), harmonic, 1.0)


def test_eject_zero_energy_needs_shift(harmonic):
    with pytest.raises(UndefinedOperatorError):
        eject(basis_vector(30, 2), harmonic, 0.0)  # E_s = 0, raw form undefined
    hg = harmonic.with_gamma(1.0)
    out, p = eject(basis_vector(30, 3), hg, 0.0, shifted=True)
    assert abs(p - 1.0) < 1e-12  # odd levels survive the shifted ejector intact


def test_eject_shifted_annihilates_even_levels(harmonic, thermal_half):
    hg = harmonic.with_gamma(1.0)
    out, p = eject(thermal_half, hg, 0.0, shifted=True)
    d = np.diag(out.data).real
    assert abs(p - 0.25) < 1e-12  # sum of odd thermal weights
    assert np.all(d[0::2] < 1e-14)
    assert abs(d[1] - 8 / 9) < 1e-12


# ---------------------------------------------------------------------------
# fixed-step runs and the trace contract


def test_ground_state_converges_immediately(harmonic):
    cfg = RunConfig(mode=FixedStep(tau=0.3), epsilon=1e-3)
    tr = run(basis_vector(30, 0), harmonic, cfg)
    assert tr.converged and tr.n_stages == 1
    assert abs(tr.p_success - 1.0) < 1e-12
    assert abs(tr.final_energy) < 1e-12


def test_trace_success_probability_telescopes(harmonic, thermal_half):
    cfg = RunConfig(mode=FixedStep(tau=0.3), epsilon=1e-4, max_stages=60)
    tr = run(thermal_half, harmonic, cfg)
    prod = 1.0
    for s in tr.stages:
        prod *= s.p0
        assert abs(s.p_suc - prod) < 1e-10
    assert abs(tr.p_success - prod) < 1e-10


def test_trace_energies_non_increasing(harmonic, thermal_half):
    cfg = RunConfig(mode=FixedStep(tau=0.3), epsilon=1e-5, max_stages=150)
    tr = run(thermal_half, harmonic, cfg)
    energies = [tr.initial_energy] + [s.energy for s in tr.stages]
    assert all(b <= a + 1e-9 for a, b in zip(energies, energies[1:]))


def test_non_convergence_is_flagged_not_raised(harmonic, thermal_half):
    cfg = RunConfig(mode=FixedStep(tau=0.3), epsilon=1e-12, max_stages=5)
    tr = run(thermal_half, harmonic, cfg)
    assert not tr.converged
    assert tr.stop_reason == "max_stages"
    assert tr.n_stages == 5


def test_schedule_replay_reproduces_probabilities_and_energies(harmonic, thermal_half):
    cfg = RunConfig(mode=FixedStep(tau=0.3), epsilon=1e-4, max_stages=60)
    tr = run(thermal_half, harmonic, cfg)
    p0s = trajectory_probabilities(thermal_half, harmonic, cfg, tr.schedule)
    assert np.abs(p0s - np.array([s.p0 for s in tr.stages])).max() < 1e-10
    state = thermal_half
    hg = harmonic.with_gamma(0.0)
    for s in tr.stages:
        state = cooling_step(state, hg, s.tau).state0
        assert abs(expectation(state, hg.total) - s.energy) < 1e-10


# ---------------------------------------------------------------------------
# excited-state pipeline


def test_targeted_run_ejections_count_toward_max_stages(harmonic, thermal_half):
    cfg = RunConfig(
        mode=FixedStep(tau=0.3),
        gamma_policy=Fixed(value=1.0),
        max_stages=1,
        eject_shifted=True,
    )
    tr = run(thermal_half, harmonic, cfg, target_level=1)
    assert [s.kind for s in tr.stages] == ["eject"]
    assert tr.converged is False and tr.converged_to_target is False
    assert tr.stop_reason == "max_stages"
    assert tr.final_energy == tr.stages[0].energy


def test_prepare_level_zero_equals_plain_run(harmonic, thermal_half):
    cfg = RunConfig(mode=FixedStep(tau=0.3), epsilon=1e-3)
    a = run(thermal_half, harmonic, cfg)
    b = run(thermal_half, harmonic, cfg, target_level=0)
    assert a.n_stages == b.n_stages
    assert abs(a.final_energy - b.final_energy) < 1e-14
    assert b.target_level == 0 and b.target_fidelity > 0.98
    assert a.target_level is a.target_fidelity is a.converged_to_target is None


def test_prepare_first_excited(harmonic, thermal_half):
    cfg = RunConfig(
        mode=Variational(),
        gamma_policy=Fixed(value=1.0),
        epsilon=1e-5,
        max_stages=60,
        eject_shifted=True,
    )
    tr = run(thermal_half, harmonic, cfg, target_level=1)
    assert tr.stages[0].kind == "eject"
    assert tr.stages[0].tau is None
    assert abs(tr.final_energy - 1.0) < 1e-3
    assert tr.target_fidelity > 0.999
    assert tr.p_success <= 2 / 9 + 1e-9
    assert tr.converged_to_target


def test_prepare_orthogonal_initial_flags_failure(harmonic):
    cfg = RunConfig(
        mode=Variational(),
        gamma_policy=Fixed(value=1.0),
        epsilon=1e-5,
        max_stages=40,
        eject_shifted=True,
    )
    tr = run(basis_vector(30, 3), harmonic, cfg, target_level=1)
    assert tr.converged
    assert not tr.converged_to_target
    assert tr.target_fidelity < 1e-10


def test_prepare_certain_ejection_failure(harmonic):
    cfg = RunConfig(
        mode=FixedStep(tau=0.3),
        gamma_policy=Fixed(value=1.0),
        epsilon=1e-3,
        eject_shifted=True,
    )
    with pytest.raises(CertainFailureError):
        run(basis_vector(30, 0), harmonic, cfg, target_level=1)


def test_prepare_level_out_of_range(harmonic, thermal_half):
    cfg = RunConfig(mode=FixedStep(tau=0.3), epsilon=1e-3)
    with pytest.raises(ConfigError):
        run(thermal_half, harmonic, cfg, target_level=30)
    with pytest.raises(ConfigError):
        run(thermal_half, harmonic, cfg, target_level=-1)


# ---------------------------------------------------------------------------
# stochastic trajectories


def test_trajectory_sure_schedule_never_restarts(harmonic):
    cfg = RunConfig(mode=FixedStep(tau=0.3), epsilon=1e-3, seed=123)
    res = stochastic_trajectory(basis_vector(30, 0), harmonic, cfg, (0.3, 0.5, 0.7))
    assert res.success and res.restarts == 0 and res.shots_used == 3


def test_trajectory_empty_schedule(harmonic, thermal_half):
    cfg = RunConfig(mode=FixedStep(tau=0.3), epsilon=1e-3, seed=0)
    res = stochastic_trajectory(thermal_half, harmonic, cfg, ())
    assert res.success and res.restarts == 0 and res.shots_used == 0


def test_trajectory_requires_seed(harmonic, thermal_half):
    cfg = RunConfig(mode=FixedStep(tau=0.3), epsilon=1e-3)
    with pytest.raises(ConfigError):
        stochastic_trajectory(thermal_half, harmonic, cfg, (0.3,))


def test_trajectory_shot_budget(harmonic, thermal_half):
    # a 1-shot budget cannot complete a 2-stage schedule
    cfg = RunConfig(mode=FixedStep(tau=0.3), epsilon=1e-3, seed=7)
    res = stochastic_trajectory(thermal_half, harmonic, cfg, (0.3, 0.5), max_shots=1)
    assert not res.success
    assert res.shots_used == 1


def test_trajectory_certain_failure_raises(harmonic):
    cfg = RunConfig(mode=FixedStep(tau=0.3), epsilon=1e-3, seed=7)
    with pytest.raises(CertainFailureError):
        stochastic_trajectory(basis_vector(30, 1), harmonic, cfg, (math.pi / 2,))


def test_trajectory_restart_mean_matches_geometric_law(harmonic, thermal_half):
    cfg = RunConfig(mode=FixedStep(tau=0.3), epsilon=1e-3, seed=0)
    schedule = (0.3, 0.5)
    p0s = trajectory_probabilities(thermal_half, harmonic, cfg, schedule)
    p_all = float(np.prod(p0s))
    n = 10_000
    total = sum(
        stochastic_trajectory(thermal_half, harmonic, replace(cfg, seed=s), schedule).restarts
        for s in range(n)
    )
    mean = total / n
    predicted = (1 - p_all) / p_all
    se = math.sqrt((1 - p_all) / p_all**2 / n)
    assert abs(mean - predicted) <= 3 * se


def test_trajectory_deterministic_given_seed(harmonic, thermal_half):
    cfg = RunConfig(mode=FixedStep(tau=0.3), epsilon=1e-3, seed=42)
    a = stochastic_trajectory(thermal_half, harmonic, cfg, (0.3, 0.5, 0.9))
    b = stochastic_trajectory(thermal_half, harmonic, cfg, (0.3, 0.5, 0.9))
    assert a == b


# ---------------------------------------------------------------------------
# config validation


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(epsilon=0.0),
        dict(epsilon=-1.0),
        dict(max_stages=0),
        dict(f_tol=0.0),
    ],
)
def test_run_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        RunConfig(mode=FixedStep(tau=0.3), **kwargs)


def test_run_config_rejects_bad_modes():
    with pytest.raises(ConfigError):
        RunConfig(mode=FixedStep(tau=0.0))
    with pytest.raises(ConfigError):
        RunConfig(mode=FixedStep(tau=0.3), operator_mode=TrotterW(r=0))
