import math
import re
import statistics
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from peigen import (
    CertainFailureError,
    ConfigError,
    Custom,
    ExactW,
    Fixed,
    FixedStep,
    QuantumState,
    Rabi,
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
from peigen.config import build_initial_state, bundled_config_dir, load_experiment
from peigen.cooling import BRANCH_PROB_FLOOR
from peigen.models import build_custom, build_model
from tests import reference
from tests.conftest import random_hermitian, random_state, random_state_vector


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


@pytest.mark.parametrize("mixed", [False, True])
def test_step_refuses_a_zero_state(harmonic, mixed):
    zero = QuantumState(np.zeros((30, 30) if mixed else 30))
    with pytest.raises(CertainFailureError, match="^both branch probabilities vanish; state is corrupt$"):
        cooling_step(zero, harmonic, 0.3)


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
    tr = run(thermal_half, harmonic, replace(cfg, target_level=1))
    assert [s.kind for s in tr.stages] == ["eject"]
    assert tr.converged is False and tr.converged_to_target is False
    assert tr.stop_reason == "max_stages"
    assert tr.final_energy == tr.stages[0].energy


def test_prepare_level_zero_equals_plain_run(harmonic, thermal_half):
    cfg = RunConfig(mode=FixedStep(tau=0.3), epsilon=1e-3)
    a = run(thermal_half, harmonic, cfg)
    b = run(thermal_half, harmonic, replace(cfg, target_level=0))
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
    tr = run(thermal_half, harmonic, replace(cfg, target_level=1))
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
    tr = run(basis_vector(30, 3), harmonic, replace(cfg, target_level=1))
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
        run(basis_vector(30, 0), harmonic, replace(cfg, target_level=1))


def test_prepare_refuses_an_ejection_that_annihilates_the_target(harmonic, thermal_half):
    # with gamma = 1 the shifted ejection of level 0, cos(pi (E + 1) / 2), vanishes at
    # E = 2: the run must refuse before its first stage, not converge elsewhere
    cfg = RunConfig(
        mode=Variational(),
        gamma_policy=Fixed(value=1.0),
        epsilon=1e-5,
        eject_shifted=True,
        target_level=2,
    )
    with pytest.raises(CertainFailureError, match="ejection of level 0 annihilates target level 2"):
        run(thermal_half, harmonic, cfg)


def test_prepare_level_out_of_range(harmonic, thermal_half):
    cfg = RunConfig(mode=FixedStep(tau=0.3), epsilon=1e-3)
    with pytest.raises(ConfigError):
        run(thermal_half, harmonic, replace(cfg, target_level=30))
    with pytest.raises(ConfigError):
        run(thermal_half, harmonic, replace(cfg, target_level=-1))


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


def _targeted_cfg(target, mode=FixedStep(tau=0.3), operator_mode=ExactW()):
    """A harmonic run that ejects the levels below ``target`` first."""
    return RunConfig(
        mode=mode,
        gamma_policy=Fixed(value=0.3),
        operator_mode=operator_mode,
        seed=0,
        target_level=target,
        eject_shifted=True,
    )


def _check_replayed_p0s(trace, p0s, operator_mode):
    """One p0 per trace stage: ejections and Trotter cooling bitwise equal to
    the trace's, exact-mode cooling (the cos² law) within 1e-12."""
    want = np.array([s.p0 for s in trace.stages])
    assert len(p0s) == trace.n_stages and trace.stages[0].kind == "eject"
    trotter = isinstance(operator_mode, TrotterW)
    bitwise = np.array([trotter or s.kind == "eject" for s in trace.stages])
    assert np.array_equal(p0s[bitwise], want[bitwise])
    assert np.abs(p0s - want).max() <= 1e-12


@pytest.mark.parametrize("mode", [FixedStep(tau=0.3), Variational()])
@pytest.mark.parametrize("operator_mode", [ExactW(), TrotterW(2)])
@pytest.mark.parametrize("target", [1, 2])
def test_trajectories_replay_every_stage_of_a_targeted_run(
    harmonic, thermal_half, target, operator_mode, mode
):
    cfg = _targeted_cfg(target, mode, operator_mode)
    tr = run(thermal_half, harmonic, cfg)
    assert [s.kind for s in tr.stages[:target]] == ["eject"] * target
    p0s = trajectory_probabilities(thermal_half, harmonic, cfg, tr.schedule)
    _check_replayed_p0s(tr, p0s, operator_mode)


@pytest.mark.parametrize("operator_mode", [ExactW(), TrotterW(3)])
def test_trajectories_replay_a_targeted_hubbard_run(operator_mode):
    cfg = load_experiment(bundled_config_dir() / "hubbard2_variational.json")
    h, initial = build_model(cfg.model), build_initial_state(cfg)
    targeted = replace(cfg.run, target_level=1, operator_mode=operator_mode)
    tr = run(initial, h, targeted)
    p0s = trajectory_probabilities(initial, h, targeted, tr.schedule)
    _check_replayed_p0s(tr, p0s, operator_mode)


def test_trajectories_refuse_what_a_targeted_run_refuses(harmonic, thermal_half):
    cfg = RunConfig(mode=FixedStep(tau=0.3), epsilon=1e-3, seed=0)
    for level in (None, 0):
        untargeted = replace(cfg, target_level=level)
        assert len(trajectory_probabilities(thermal_half, harmonic, untargeted, (0.3,))) == 1
        assert stochastic_trajectory(thermal_half, harmonic, untargeted, (0.3,)).shots_used >= 1
    # level 30 is out of range; with gamma = 1 ejecting level 0 annihilates level 2
    annihilating = replace(_targeted_cfg(2), gamma_policy=Fixed(value=1.0))
    for bad, error in [(_targeted_cfg(30), ConfigError), (annihilating, CertainFailureError)]:
        with pytest.raises(error) as refused:
            run(thermal_half, harmonic, bad)
        for sample in (trajectory_probabilities, stochastic_trajectory):
            with pytest.raises(error, match=f"^{re.escape(str(refused.value))}$"):
                sample(thermal_half, harmonic, bad, (0.3,))


@pytest.mark.parametrize("target", [1, 2])
def test_targeted_restart_mean_matches_geometric_law(harmonic, thermal_half, target):
    cfg = _targeted_cfg(target)
    tr = run(thermal_half, harmonic, cfg)
    restarts = [
        stochastic_trajectory(thermal_half, harmonic, replace(cfg, seed=s), tr.schedule).restarts
        for s in range(400)
    ]
    se = statistics.stdev(restarts) / math.sqrt(len(restarts))
    assert abs(statistics.fmean(restarts) - (1 / tr.p_success - 1)) <= 5 * se


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


# (restarts, shots_used) at seeds 0..19 over each bundled run's own schedule,
# as computed by replaying every stage with dense Kraus operators.
FROZEN_TRAJECTORIES = {
    "harmonic_fixed": [
        (0, 90), (0, 90), (0, 90), (0, 90), (2, 93), (2, 104), (1, 95), (2, 110), (1, 92),
        (0, 90), (1, 91), (0, 90), (0, 90), (0, 90), (0, 90), (0, 90), (0, 90), (1, 104),
        (0, 90), (0, 90),
    ],
    "harmonic_variational": [
        (0, 8), (2, 12), (0, 8), (0, 8), (2, 11), (2, 10), (0, 8), (0, 8), (1, 10), (1, 9),
        (1, 9), (0, 8), (1, 10), (5, 18), (1, 9), (0, 8), (0, 8), (1, 9), (0, 8), (0, 8),
    ],
    "rabi_fixed": [  # Trotter mode: p0 from replaying each stage
        (2, 108), (2, 84), (0, 80), (0, 80), (5, 98), (3, 95), (2, 94), (2, 100), (1, 82),
        (3, 104), (1, 81), (2, 189), (1, 82), (3, 109), (3, 144), (4, 209), (1, 96), (2, 112),
        (1, 85), (0, 80),
    ],
}


@pytest.mark.parametrize("name", sorted(FROZEN_TRAJECTORIES))
def test_bundled_trajectory_counts_are_frozen(name):
    exp = load_experiment(bundled_config_dir() / f"{name}.json")
    h = build_model(exp.model)
    initial = build_initial_state(exp)
    schedule = run(initial, h, exp.run).schedule
    got = []
    for seed in range(20):
        res = stochastic_trajectory(initial, h, replace(exp.run, seed=seed), schedule)
        assert res.success
        got.append((res.restarts, res.shots_used))
    assert got == FROZEN_TRAJECTORIES[name]


# ---------------------------------------------------------------------------
# exact-mode trajectory probabilities against a dense reference


def _custom_with_spectrum(rng, evals):
    """Custom model H = U diag(evals) U^H with a random unitary U."""
    dim = len(evals)
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    mat = (u * evals) @ u.conj().T
    mat = (mat + mat.conj().T) / 2
    return build_custom(Custom(terms=(("m", mat),))), u


def _dense_p0s(h, gamma, state, schedule):
    """Reference p0 per stage: the dense K0 of `reference.kraus`, applied as
    K0 psi or K0 rho K0^H by `reference.apply`."""
    h, data, p0s = h.with_gamma(gamma), state.data, []
    for tau in schedule:
        data, p0 = reference.apply(reference.kraus(h, tau)[0], data)
        data = data / (math.sqrt(p0) if data.ndim == 1 else p0)
        p0s.append(p0)
    return np.array(p0s)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["pure", "rank1", "low_rank", "full_rank"]),
    st.booleans(),
    st.integers(1, 12),
    st.floats(0.0, 0.5),
)
def test_exact_trajectory_probabilities_match_dense_reference(
    seed, kind, degenerate, n_stages, gamma
):
    # 0 <= E + gamma <= 1.5 and tau <= 1 keep every weight cos^2 >= 0.005,
    # so no stage comes near the floor and rounding is not amplified.
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(3, 9))
    evals = rng.uniform(0.0, 1.0, dim)
    if degenerate:  # two levels shared by at least three eigenvectors
        evals = evals[:2][rng.integers(0, 2, dim)]
    h, _ = _custom_with_spectrum(rng, evals)
    rank = {"pure": 0, "rank1": 1, "low_rank": int(rng.integers(2, dim)), "full_rank": dim}
    state = random_state(rng, dim, rank[kind])
    schedule = tuple(float(t) for t in rng.uniform(0.01, 1.0, n_stages))
    cfg = RunConfig(mode=FixedStep(tau=0.3), gamma_policy=Fixed(value=gamma))
    p0s = trajectory_probabilities(state, h, cfg, schedule)
    assert p0s.shape == (n_stages,)
    assert np.abs(p0s - _dense_p0s(h, gamma, state, schedule)).max() < 1e-12


def _floor_case(rng, p, mixed):
    """Weight p on the E = 2 level of a spectrum {2, 1, 1, 3, 3, 5}. With
    gamma = 0, tau = pi keeps every population and tau = pi/2 keeps only
    E = 2, so the schedule (pi, pi/2) has p0 = (1, p) up to rounding."""
    h, u = _custom_with_spectrum(rng, np.array([2.0, 1.0, 1.0, 3.0, 3.0, 5.0]))
    if mixed:
        weights = np.concatenate([[p], (1 - p) * rng.dirichlet(np.ones(5))])
        rho = (u * weights) @ u.conj().T
        return h, QuantumState((rho + rho.conj().T) / 2)
    rest = u[:, 1:] @ random_state_vector(rng, 5)
    return h, QuantumState(math.sqrt(p) * u[:, 0] + math.sqrt(1 - p) * rest)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(3e-14, 1e-13), st.booleans())
def test_exact_trajectory_probabilities_near_the_floor(seed, p, mixed):
    h, state = _floor_case(np.random.default_rng(seed), p, mixed)
    cfg = RunConfig(mode=FixedStep(tau=0.3), gamma_policy=Fixed(value=0.0))
    schedule = (math.pi, math.pi / 2)
    p0s = trajectory_probabilities(state, h, cfg, schedule)
    assert abs(p0s[0] - 1.0) < 1e-12 and abs(p0s[1] - p) < 0.1 * p
    assert np.abs(p0s - _dense_p0s(h, 0.0, state, schedule)).max() < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1e-15), st.booleans())
def test_exact_trajectory_probabilities_below_the_floor_raise(seed, p, mixed):
    h, state = _floor_case(np.random.default_rng(seed), p, mixed)
    cfg = RunConfig(mode=FixedStep(tau=0.3), gamma_policy=Fixed(value=0.0))
    with pytest.raises(CertainFailureError):
        trajectory_probabilities(state, h, cfg, (math.pi, math.pi / 2))


def test_trajectory_probabilities_empty_schedule(harmonic, thermal_half):
    cfg = RunConfig(mode=FixedStep(tau=0.3))
    p0s = trajectory_probabilities(thermal_half, harmonic, cfg, ())
    assert isinstance(p0s, np.ndarray) and p0s.shape == (0,)


def test_trajectory_probabilities_dimension_mismatch(harmonic):
    cfg = RunConfig(mode=FixedStep(tau=0.3))
    with pytest.raises(ValidationError):
        trajectory_probabilities(basis_vector(8, 0), harmonic, cfg, (0.3,))


# ---------------------------------------------------------------------------
# exact step and ejection against the dense scipy reference


def _unnormalised(state, p):
    return state.data * (math.sqrt(p) if state.is_pure else p)


def _assert_branch_matches(got, p_got, out, p, tol):
    assert abs(p_got - p) <= tol
    if got is None:
        assert p < 2 * BRANCH_PROB_FLOOR
    else:
        assert np.abs(_unnormalised(got, p_got) - out).max() <= tol


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["pure", "rank1", "low_rank", "full_rank"]),
    st.booleans(),
    st.floats(0.01, 3.0),
    st.floats(-1.0, 2.0),
    st.booleans(),
)
def test_exact_step_and_ejection_match_dense_reference(seed, kind, degenerate, tau, gamma, shifted):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 11))
    evals = rng.normal(size=dim) * 2
    if degenerate:  # a few levels, each repeated
        evals = evals[: max(1, dim // 3)][rng.integers(0, max(1, dim // 3), dim)]
    h = _custom_with_spectrum(rng, evals)[0].with_gamma(gamma)
    rank = {"pure": 0, "rank1": 1, "low_rank": int(rng.integers(1, dim)), "full_rank": dim}
    state = random_state(rng, dim, rank[kind])
    tol = 1e-12 * max(1.0, h.total.norm2())

    step = cooling_step(state, h, tau)
    got = ((step.state0, step.p0), (step.state1, step.p1))
    for (s, p), (out, p_ref) in zip(got, reference.step(state.data, h, tau)):
        _assert_branch_matches(s, p, out, p_ref, tol)

    e_s = float(evals[rng.integers(dim)])
    assume(abs(e_s + (gamma if shifted else 0.0)) > 1e-3)
    out, p_ref = reference.apply(reference.ejection(h, e_s, shifted=shifted), state.data)
    if p_ref < BRANCH_PROB_FLOOR:  # the state lies in the ejected eigenspace
        with pytest.raises(CertainFailureError):
            eject(state, h, e_s, shifted=shifted)
    else:
        _assert_branch_matches(*eject(state, h, e_s, shifted=shifted), out, p_ref, tol)


def test_exact_mode_builds_no_dense_operator(monkeypatch, harmonic, thermal_half):
    def refuse(*args, **kwargs):
        raise AssertionError("exact mode formed a dense operator")

    monkeypatch.setattr("peigen.cooling.branch_unitaries", refuse)
    rng = np.random.default_rng(3)
    a = rng.normal(size=(20, 3)) + 1j * rng.normal(size=(20, 3))
    rho = QuantumState(a @ a.conj().T / np.trace(a @ a.conj().T).real)
    cfg = RunConfig(mode=Variational(), epsilon=1e-9, max_stages=4)
    mixed = run(rho, build_model(Rabi(omega0=1.2, omega=0.8, g=1.0, cutoff=10)), cfg)
    assert mixed.n_stages == 4 and not mixed.final_state.is_pure
    cfg = RunConfig(
        mode=Variational(),
        gamma_policy=Fixed(value=1.0),
        epsilon=1e-5,
        max_stages=60,
        eject_shifted=True,
    )
    targeted = run(thermal_half, harmonic, replace(cfg, target_level=1))
    assert targeted.stages[0].kind == "eject" and targeted.converged_to_target


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
