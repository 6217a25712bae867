import math
import re
import statistics
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from peigen import (
    CertainFailureError,
    ConfigError,
    Custom,
    DimensionError,
    ExactW,
    Fixed,
    FixedStep,
    HarmonicOscillator,
    Hubbard1D,
    NormBound,
    OptimizerConfig,
    QuantumState,
    Rabi,
    RunConfig,
    TrotterW,
    UndefinedOperatorError,
    ValidationError,
    Variational,
    basis_vector,
    cooling_step,
    ejection_step,
    expectation,
    gamma_for,
    minimize_stage,
    run,
    stochastic_trajectory,
    thermal_state,
    trajectory_probabilities,
    validate_and_normalize,
)
from peigen import operators
from peigen.config import (
    build_initial_state,
    bundled_config_dir,
    load_experiment,
    parse_experiment,
)
from peigen.cooling import BRANCH_PROB_FLOOR, _branch, eigen_populations, ejected_energies
from peigen.models import build_model, rabi_basis_index
from peigen.verify import random_pure_state
from tests import reference
from tests.conftest import (
    failure_step,
    random_hermitian,
    random_state,
    random_state_vector,
    with_signed_zeros,
)


def _plus01(dim=30):
    v = np.zeros(dim)
    v[0] = v[1] = 2**-0.5
    return QuantumState(v)


# ---------------------------------------------------------------------------
# single cooling step


def test_step_frozen_oracle_values(harmonic):
    # (|0>+|1>)/sqrt2, gamma=0, tau=0.3: p0 = (1 + cos^2 0.3)/2
    state0, p0 = cooling_step(_plus01(), harmonic, 0.3)
    assert abs(p0 - (1 + math.cos(0.3) ** 2) / 2) < 1e-12
    e0 = expectation(state0, harmonic.total)
    # 0-branch energy = cos^2(0.3) / (1 + cos^2(0.3))
    assert abs(e0 - math.cos(0.3) ** 2 / (1 + math.cos(0.3) ** 2)) < 1e-9
    assert abs(e0 - 0.4771700573918862) < 1e-9


def test_step_quarter_period_kills_eigenstate(harmonic):
    # |1>, tau=pi/2: cos^2(1*pi/2) = 0, the state lands entirely in branch 1
    state0, p0 = cooling_step(basis_vector(30, 1), harmonic, math.pi / 2)
    assert state0 is None
    assert p0 < 1e-14
    assert abs(failure_step(basis_vector(30, 1), harmonic, math.pi / 2)[1] - 1.0) < 1e-12


def test_step_mixed_state(harmonic, thermal_half):
    state0, p0 = cooling_step(thermal_half, harmonic, 0.3)
    assert not state0.is_pure
    assert abs(np.trace(state0.data).real - 1.0) < 1e-12
    # expected p0 = sum_n p_n cos^2(0.3 n)
    ns = np.arange(30)
    pn = (2 / 3) * (1 / 3) ** ns
    pn /= pn.sum()
    assert abs(p0 - float((pn * np.cos(0.3 * ns) ** 2).sum())) < 1e-12


@pytest.mark.parametrize("mixed", [False, True])
def test_step_refuses_a_zero_state(harmonic, mixed):
    zero = QuantumState(np.zeros((30, 30) if mixed else 30))
    with pytest.raises(CertainFailureError, match="^both branch probabilities vanish; state is corrupt$"):
        cooling_step(zero, harmonic, 0.3)


def test_step_dimension_mismatch(harmonic):
    with pytest.raises(DimensionError, match="^state dim 8 != operator dim 30$"):
        cooling_step(basis_vector(8, 0), harmonic, 0.3)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.01, 2.0), st.floats(-1.0, 2.0))
def test_step_branch_probabilities_sum_to_one(seed, tau, gamma):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 9))
    h = build_model(Custom(terms=(("m", random_hermitian(rng, dim)),))).with_gamma(gamma)
    psi = QuantumState(random_state_vector(rng, dim))
    assert abs(cooling_step(psi, h, tau)[1] + failure_step(psi, h, tau)[1] - 1.0) < 1e-10


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.005, 0.05))
def test_step_energy_inequality_with_exact_shift(seed, tau_scale):
    """<H>_0 <= <H> < <H>_1 whenever gamma = -E0 and tau is small."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 8))
    h = build_model(Custom(terms=(("m", random_hermitian(rng, dim)),)))
    evals, _ = h.total.eigensystem()
    hg = h.with_gamma(float(-evals[0]))
    psi = QuantumState(random_state_vector(rng, dim))
    tau = tau_scale / max(float(evals[-1] - evals[0]), 1e-6)
    e_in = expectation(psi, hg.total)
    assert expectation(cooling_step(psi, hg, tau)[0], hg.total) <= e_in + 1e-12
    state1 = failure_step(psi, hg, tau)[0]
    if state1 is not None:
        assert expectation(state1, hg.total) > e_in


# ---------------------------------------------------------------------------
# ejection


def test_eject_removes_level_and_keeps_orthogonal(harmonic):
    state0, p0 = cooling_step(_plus01(), *ejection_step(harmonic, 1.0))
    assert abs(p0 - 0.5) < 1e-12
    assert abs(abs(state0.data[0]) - 1.0) < 1e-12  # what survives is |0>
    assert abs(state0.data[1]) < 1e-12


def test_eject_certain_failure_on_target_eigenstate(harmonic):
    state0, p0 = cooling_step(basis_vector(30, 1), *ejection_step(harmonic, 1.0))
    assert state0 is None and p0 < BRANCH_PROB_FLOOR  # a run refuses it
    assert abs(failure_step(basis_vector(30, 1), *ejection_step(harmonic, 1.0))[1] - 1.0) < 1e-12


def test_eject_zero_energy_needs_shift(harmonic):
    with pytest.raises(UndefinedOperatorError):
        ejection_step(harmonic, 0.0)  # E_s = 0, raw form undefined
    hg = harmonic.with_gamma(1.0)
    p0 = cooling_step(basis_vector(30, 3), *ejection_step(hg, 0.0, shifted=True))[1]
    assert abs(p0 - 1.0) < 1e-12  # odd levels survive the shifted ejector intact


def test_eject_shifted_annihilates_even_levels(harmonic, thermal_half):
    hg = harmonic.with_gamma(1.0)
    state0, p0 = cooling_step(thermal_half, *ejection_step(hg, 0.0, shifted=True))
    d = np.diag(state0.data).real
    assert abs(p0 - 0.25) < 1e-12  # sum of odd thermal weights
    assert np.all(d[0::2] < 1e-14)
    assert abs(d[1] - 8 / 9) < 1e-12


def test_ejection_step_is_a_cooling_step_at_tau_s(harmonic):
    hg = harmonic.with_gamma(0.3)
    h_s, tau_s = ejection_step(hg, 2.0)
    assert h_s.gamma == 0.0 and tau_s == math.pi / 4.0
    assert h_s.total is hg.total  # the unshifted form shares the cached eigensystem
    h_s, tau_s = ejection_step(hg, 2.0, shifted=True)
    assert h_s is hg and tau_s == math.pi / (2.0 * 2.3)


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
        state = cooling_step(state, hg, s.tau)[0]
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


def test_a_degenerate_level_is_ejected_once_per_copy():
    """Hubbard L=2 has E = -1 twice. Its first ejection already zeroes the
    whole E = -1 eigenspace; the second scales every other level once more by
    its cos² factor, so it is one more filter (p0 0.833), not a no-op."""
    h = build_model(Hubbard1D(sites=2, t=1.0, u=2.0))
    cfg = RunConfig(
        mode=Variational(),
        gamma_policy=Fixed(value=3.0),
        max_stages=40,
        target_level=3,
        eject_shifted=True,
    )
    tr = run(random_pure_state(np.random.default_rng(0), h.dim), h, cfg)
    evals = h.total.eigenvalues()  # the eigensystem's, which the exact-mode run solved
    assert ejected_energies(h.with_gamma(3.0), cfg) == tuple(evals[:3])
    assert evals[:3] == pytest.approx([1 - 5**0.5, -1, -1], abs=1e-12)
    ejections = [s for s in tr.stages if s.kind == "eject"]
    assert [s.e_s for s in ejections] == list(evals[:3])
    assert [s.p0 for s in ejections] == pytest.approx([0.3572, 0.6967, 0.8329], abs=1e-4)
    assert tr.target_fidelity == pytest.approx(0.999754, abs=1e-6)
    assert tr.p_success == pytest.approx(2.259e-3, rel=1e-3)


@pytest.mark.parametrize("cutoff", [30, 200])
def test_a_targeted_exact_run_follows_the_cos2_law(cutoff):
    """A thermal state's closed-form weights p_n, through shifted ejections of
    levels 0 and 1 and then fixed-step cooling: every stage multiplies p_n by
    cos²((n + 0.3) tau_s), at tau_s = pi / 2 (E_s + 0.3) for an ejection."""
    spec = HarmonicOscillator(omega=1.0, cutoff=cutoff)
    config = RunConfig(
        mode=FixedStep(0.3), gamma_policy=Fixed(0.3), eject_shifted=True, target_level=2,
        operator_mode=ExactW(),
    )
    trace = run(thermal_state(spec, 0.5), build_model(spec), config)
    ejections = [s for s in trace.stages if s.kind == "eject"]
    assert [s.e_s for s in ejections] == [0.0, 1.0]
    n = np.arange(cutoff)
    p = (1 / 1.5) * (0.5 / 1.5) ** n
    p /= p.sum()
    taus = [math.pi / (2 * (s.e_s + 0.3)) if s.kind == "eject" else s.tau for s in trace.stages]
    want = float(sum(p * np.prod([np.cos((n + 0.3) * t) ** 2 for t in taus], axis=0)))
    assert abs(trace.p_success - want) <= 1e-12 * want


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


def test_trajectory_shot_budget(harmonic, thermal_half, monkeypatch):
    # a 1-shot budget cannot complete a 2-stage schedule
    monkeypatch.setattr("peigen.cooling.MAX_SHOTS", 1)
    cfg = RunConfig(mode=FixedStep(tau=0.3), epsilon=1e-3, seed=7)
    res = stochastic_trajectory(thermal_half, harmonic, cfg, (0.3, 0.5))
    assert not res.success
    assert res.shots_used == 1


@pytest.mark.parametrize("operator_mode", [ExactW(), TrotterW(2)], ids=["exact", "trotter2"])
@pytest.mark.parametrize("rank", [0, 3], ids=["pure", "mixed"])
def test_restarts_on_one_shared_state_match_a_fresh_copy_per_seed(
    harmonic, monkeypatch, rank, operator_mode
):
    """The seeds of a restart loop share the state `run` checked: they read
    its kept check, no seed checks it again, and every seed's p0s, restarts
    and shots equal, bit for bit, those sampled from a fresh copy of it."""
    rng = np.random.default_rng(21 + rank)
    state = random_state(rng, harmonic.dim, rank)
    cfg = RunConfig(mode=Variational(), epsilon=1e-6, max_stages=4, operator_mode=operator_mode)
    tr = run(state, harmonic, cfg)
    normalized = operators._normalized
    checks = []
    monkeypatch.setattr(operators, "_normalized", lambda *a: checks.append(a) or normalized(*a))
    shared = [
        (trajectory_probabilities(state, harmonic, cfg, tr.schedule),
         stochastic_trajectory(state, harmonic, replace(cfg, seed=s), tr.schedule))
        for s in range(50)
    ]
    assert not checks
    fresh = [
        (trajectory_probabilities(QuantumState(state.data), harmonic, cfg, tr.schedule),
         stochastic_trajectory(QuantumState(state.data), harmonic, replace(cfg, seed=s), tr.schedule))
        for s in range(50)
    ]
    assert len(checks) == 100
    for (p_shared, t_shared), (p_fresh, t_fresh) in zip(shared, fresh):
        assert np.array_equal(p_shared, p_fresh)
        assert (t_shared.restarts, t_shared.shots_used) == (t_fresh.restarts, t_fresh.shots_used)
    assert any(t.restarts for _, t in shared)


@pytest.mark.parametrize("cutoff", [20, 200])
def test_a_diagonal_mixture_is_checked_once_in_1x1_blocks_by_a_run_and_not_by_its_trajectories(
    monkeypatch, cutoff
):
    """A rank-8 diagonal rho on the Rabi model (d = 2 cutoff): the PSD check of
    a 2-stage exact run solves rho's 1 x 1 blocks, never a dense d x d, and its
    50 restart trajectories read that kept check instead of solving again."""
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        sizes.append(np.shape(a)[-1])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    spec = Rabi(omega0=1.2, omega=0.8, g=1.0, cutoff=cutoff)
    h = build_model(spec)
    levels = [rabi_basis_index(spec, q, n) for q in ("up", "down") for n in range(4)]
    rho = np.zeros((h.dim, h.dim), dtype=complex)
    rho[levels, levels] = np.linspace(1.0, 2.0, len(levels)) / 12.0
    state = QuantumState(rho)
    config = RunConfig(mode=Variational(), epsilon=1e-9, max_stages=2, operator_mode=ExactW())
    trace = run(state, h, config)
    in_run = len(sizes)
    for seed in range(50):
        stochastic_trajectory(state, h, replace(config, seed=seed), trace.schedule)
    assert sizes and max(sizes) == 1
    assert len(sizes) == in_run


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


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("mode", [ExactW(), TrotterW(2)], ids=["exact", "trotter"])
@pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixed"])
def test_a_non_finite_tau_is_refused(tau, mode, mixed, harmonic, thermal_half):
    # its p0 would be nan: `p0 < floor` and `draw >= p0` are both False, a certain success
    state = thermal_half if mixed else _plus01()
    config = RunConfig(mode=FixedStep(tau=0.3), operator_mode=mode, seed=0)
    calls = [
        lambda: cooling_step(state, harmonic, tau, mode),
        lambda: trajectory_probabilities(state, harmonic, config, (0.3, tau)),
        lambda: stochastic_trajectory(state, harmonic, config, (tau,)),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match=f"^tau must be finite, got {tau}$"):
            call()


def test_a_schedule_with_a_non_finite_tau_is_refused_before_any_step(monkeypatch, harmonic):
    def refuse(*args, **kwargs):
        raise AssertionError("a stage was replayed")

    monkeypatch.setattr("peigen.cooling.cooling_step", refuse)
    config = RunConfig(mode=FixedStep(tau=0.3), operator_mode=TrotterW(2), seed=0)
    with pytest.raises(ValidationError, match="^tau must be finite, got nan$"):
        trajectory_probabilities(_plus01(), harmonic, config, (0.3, 0.5, math.nan))


# ---------------------------------------------------------------------------
# exact-mode trajectory probabilities against a dense reference


def _custom_with_spectrum(rng, evals):
    """Custom model H = U diag(evals) U^H with a random unitary U."""
    dim = len(evals)
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    mat = (u * evals) @ u.conj().T
    mat = (mat + mat.conj().T) / 2
    return build_model(Custom(terms=(("m", mat),))), u


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


def _whole_populations(state, h):
    """P_j read on the whole of V and of the state: |V^H psi|^2, or
    Re sum_i conj(V) ⊙ (rho V)."""
    v = h.total.eigensystem()[1]
    if state.is_pure:
        return np.abs(v.conj().T @ state.data) ** 2
    return np.einsum("ij,ij->j", v.conj(), state.data @ v).real


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["pure", "rank1", "low_rank", "full_rank"]),
    st.booleans(),
)
def test_eigen_populations_read_the_support(seed, kind, full):
    """On a random support the populations match the whole-matrix formula
    within 1e-14; at full support they are that formula, bit for bit. A
    mixed state may carry an entry, Hermitian within tolerance, whose mirror
    is zero: its row and its column both join the support."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 12))
    h, _ = _custom_with_spectrum(rng, rng.uniform(-1.0, 1.0, dim))
    n = dim if full else int(rng.integers(1, dim))
    support = np.sort(rng.choice(dim, n, replace=False))
    rank = {"pure": 0, "rank1": 1, "low_rank": int(rng.integers(1, n + 1)), "full_rank": n}[kind]
    sub = random_state(rng, n, rank).data
    if rank == 0:
        data = np.zeros(dim, dtype=complex)
        data[support] = sub
    else:
        data = np.zeros((dim, dim), dtype=complex)
        data[np.ix_(support, support)] = sub
        if not full and rng.random() < 0.5:
            data[support[0], int(np.setdiff1d(np.arange(dim), support)[0])] = 5e-14
    state = QuantumState(data)
    evals, pops = eigen_populations(state, h)
    want = _whole_populations(state, h)
    assert np.array_equal(evals, h.total.eigensystem()[0])
    if full:
        assert np.array_equal(pops, want)
    else:
        assert np.abs(pops - want).max() <= 1e-14


def _scanned_populations(state, h):
    """P_j read on the support found by a fresh scan of the state's nonzeros."""
    v = h.total.eigensystem()[1]
    x, nz = state.data, state.data != 0
    s = np.flatnonzero(nz if state.is_pure else nz.any(axis=0) | nz.any(axis=1))
    if s.size < len(x):
        v, x = v[s], x[s] if state.is_pure else x[np.ix_(s, s)]
    if state.is_pure:
        return np.abs(v.conj().T @ x) ** 2
    return np.einsum("ij,ij->j", v.conj(), x @ v).real


def _on_random_support(rng, rank):
    """A pure state (rank 0) or a density matrix of the given rank, zero
    outside a random support, with signed zeros."""
    dim = int(rng.integers(2, 12))
    support = np.sort(rng.choice(dim, int(rng.integers(1, dim + 1)), replace=False))
    sub = random_state(rng, len(support), min(rank, len(support))).data
    data = np.zeros((dim,) * (1 if rank == 0 else 2), dtype=complex)
    data[support if rank == 0 else np.ix_(support, support)] = sub
    return with_signed_zeros(rng, data)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_eigen_populations_read_the_carried_support_bitwise(seed, rank):
    """The support a state carries (scanned on first read, or handed over by
    `validate_and_normalize`) gives the populations of a fresh scan, bit for bit."""
    rng = np.random.default_rng(seed)
    state = QuantumState(_on_random_support(rng, rank))
    h, _ = _custom_with_spectrum(rng, rng.uniform(-1.0, 1.0, state.dim))
    for s in (state, validate_and_normalize(state)):
        want = _scanned_populations(s, h)
        assert eigen_populations(s, h)[1].tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.floats(-1e-7, 1e-7))
def test_branch_normalises_as_a_division(seed, pure, off):
    """Random support, signed zeros, a norm or trace off 1 by up to 1e-7 or a
    small branch: ``out * (1/n)`` equals ``out / n`` entry for entry."""
    rng = np.random.default_rng(seed)
    scale = (1.0 + off) * (1.0 if rng.random() < 0.5 else rng.uniform(1e-6, 1.0))
    out = _on_random_support(rng, 0 if pure else int(rng.integers(1, 4)))
    out = out * (math.sqrt(scale) if pure else scale)
    got, p = _branch(out, pure)
    assert p == float(np.vdot(out, out).real if pure else np.trace(out).real)
    assert np.array_equal(got.data, out / (math.sqrt(p) if pure else p))


# Each stage's (kind, tau, energy, p0, p_suc) of three targeted runs, frozen
# because none of the frozen CSVs has an ejection stage. Equality is exact:
# every literal is a float repr.
_TARGETED_RUNS = [
    (
        {"kind": "harmonic", "omega": 1.0, "cutoff": 30},
        {"kind": "thermal", "nbar": 0.5},
        {"mode": "fixed", "tau": 0.3, "gamma": {"policy": "fixed", "value": 0.3},
         "eject_shifted": True, "target_level": 1},
        [
            ("eject", None, 1.3653846153844698, 0.23076923076923075, 0.23076923076923075),
            ("cool", 0.3, 1.2007258715426363, 0.7636761573732914, 0.17623295939383646),
            ("cool", 0.3, 1.1427791296640333, 0.8042064516768123, 0.14172768294262095),
            ("cool", 0.3, 1.1032712560989792, 0.8189759655236148, 0.11607156597935775),
            ("cool", 0.3, 1.0743542472929977, 0.8291198750779455, 0.0962372422849066),
            ("cool", 0.3, 1.0533160276296316, 0.8365902745961941, 0.08051114094951047),
            ("cool", 0.3, 1.038220176490062, 0.8420540339506302, 0.06779473101450306),
            ("cool", 0.3, 1.0275287345630237, 0.8459982157483337, 0.05735422147540781),
            ("cool", 0.3, 1.0200517580873172, 0.8488158323211654, 0.048683171238780736),
            ("cool", 0.3, 1.0148970777678525, 0.8508136532131654, 0.04142030677166914),
            ("cool", 0.3, 1.0114118783901713, 0.8522230361925955, 0.0352993395969806),
            ("cool", 0.3, 1.0091272995096814, 0.8532141979960955, 0.030117897724029622),
            ("cool", 0.3, 1.0077117481686386, 0.8539102499640195, 0.02571798157391691),
            ("cool", 0.3, 1.006934158378447, 0.8543991996918483, 0.02197342287444431),
        ],
    ),
    (
        {"kind": "rabi", "omega0": 1.2, "omega": 0.8, "g": 1.0, "cutoff": 20},
        {"kind": "basis", "label": "down,0"},
        {"mode": "variational", "operator": "exact", "target_level": 1, "max_stages": 8},
        [
            ("eject", None, 0.005267775905369393, 0.3614141662958146, 0.3614141662958146),
            ("cool", 0.4087072977247918, -0.43598270400506883, 0.7205086431254974, 0.26040203056413025),
            ("cool", 1.0, -0.6535922967276466, 0.43591111808366306, 0.11351214029446621),
            ("cool", 0.30104878371253474, -0.6764167042763114, 0.9517238343309886, 0.1080322094041665),
            ("cool", 0.6608048651498613, -0.6836324489653849, 0.8067610709784041, 0.08715618095906859),
            ("cool", 0.39734148598774294, -0.6854005813848115, 0.9275766892373524, 0.08084404178058441),
            ("cool", 0.7479024325749306, -0.6860383684843476, 0.7610081136098281, 0.06152297173203667),
        ],
    ),
    (
        {"kind": "hubbard", "sites": 2, "t": 1.0, "u": 2.0},
        {"kind": "basis", "label": "uudd"},
        {"mode": "variational", "operator": {"kind": "trotter", "r": 3}, "target_level": 1},
        [
            ("eject", None, 2.3127098682627545, 0.4559411885085807, 0.4559411885085807),
            ("cool", 0.3491951348501388, 2.0002132397995274, 0.1360041463066555, 0.0620098921091514),
            ("cool", 0.42709756742506944, 1.9994916379877536, 0.03520835517501347, 0.0021832663057432676),
        ],
    ),
]


@pytest.mark.parametrize(
    "model, initial, run_obj, want",
    _TARGETED_RUNS,
    ids=["harmonic-fixed", "rabi-exact-variational", "hubbard-trotter-variational"],
)
def test_targeted_run_stages_are_frozen(model, initial, run_obj, want):
    doc = {"schema": 1, "model": model, "initial_state": initial, "run": run_obj}
    cfg = parse_experiment(doc, source="targeted")
    tr = run(build_initial_state(cfg), build_model(cfg.model), cfg.run)
    assert [(s.kind, s.tau, s.energy, s.p0, s.p_suc) for s in tr.stages] == want
    assert tr.converged and tr.p_success == want[-1][-1]


def test_a_certain_ejection_failure_reads_the_same_in_run_and_replay(harmonic):
    # |0> lies wholly in the level-0 eigenspace that a target of level 1 ejects first
    cfg = RunConfig(
        mode=FixedStep(tau=0.3), gamma_policy=Fixed(value=1.0), eject_shifted=True, target_level=1
    )
    want = r"^ejection of level 0 at E_s=0 has zero success probability \(p=\d\.\d{3}e-\d\d\)$"
    with pytest.raises(CertainFailureError, match=want) as refused:
        run(basis_vector(30, 0), harmonic, cfg)
    for sample in (trajectory_probabilities, stochastic_trajectory):
        with pytest.raises(CertainFailureError, match=f"^{re.escape(str(refused.value))}$"):
            sample(basis_vector(30, 0), harmonic, replace(cfg, seed=0), (0.3,))


def test_trajectory_probabilities_empty_schedule(harmonic, thermal_half):
    cfg = RunConfig(mode=FixedStep(tau=0.3))
    p0s = trajectory_probabilities(thermal_half, harmonic, cfg, ())
    assert isinstance(p0s, np.ndarray) and p0s.shape == (0,)


def test_trajectory_probabilities_dimension_mismatch(harmonic):
    cfg = RunConfig(mode=FixedStep(tau=0.3))
    with pytest.raises(DimensionError, match="^state dim 8 != operator dim 30$"):
        trajectory_probabilities(basis_vector(8, 0), harmonic, cfg, (0.3,))


_TARGETED = RunConfig(
    mode=FixedStep(tau=0.3), gamma_policy=Fixed(value=1.0), eject_shifted=True, target_level=1
)


@pytest.mark.parametrize(
    "call",
    [
        lambda s, h: cooling_step(s, *ejection_step(h.with_gamma(1.0), 0.0, shifted=True)),
        lambda s, h: cooling_step(s, h, 0.3, TrotterW(2)),
        lambda s, h: minimize_stage(s, h, OptimizerConfig(), operator_mode=TrotterW(2)),
        lambda s, h: minimize_stage(s, h, OptimizerConfig()),
        lambda s, h: run(s, h, RunConfig(mode=Variational())),
        lambda s, h: run(s, h, _TARGETED),
        lambda s, h: trajectory_probabilities(s, h, _TARGETED, (0.3,)),
        lambda s, h: stochastic_trajectory(s, h, replace(_TARGETED, seed=0), (0.3,)),
    ],
    ids=[
        "eject",
        "trotter-step",
        "trotter-objective",
        "minimize-stage",
        "run",
        "targeted-run",
        "trajectory-probabilities",
        "stochastic-trajectory",
    ],
)
@pytest.mark.parametrize("mixed", [False, True])
def test_a_state_of_the_wrong_dimension_is_a_dimension_error(call, mixed, harmonic, monkeypatch):
    def no_gamma(*args):  # a run refuses the state before it resolves gamma
        raise AssertionError("gamma resolved")

    monkeypatch.setattr("peigen.cooling.gamma_for", no_gamma)
    state = QuantumState(np.eye(8) / 8) if mixed else basis_vector(8, 0)
    with pytest.raises(DimensionError, match="^state dim 8 != operator dim 30$"):
        call(state, harmonic)


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

    (out0, p0_ref), (out1, p1_ref) = reference.step(state.data, h, tau)
    _assert_branch_matches(*cooling_step(state, h, tau), out0, p0_ref, tol)
    phase = 1j if state.is_pure else 1.0  # the shifted step's K0 is i K1
    _assert_branch_matches(*failure_step(state, h, tau), phase * out1, p1_ref, tol)

    e_s = float(evals[rng.integers(dim)])
    assume(abs(e_s + (gamma if shifted else 0.0)) > 1e-3)
    out, p_ref = reference.apply(reference.ejection(h, e_s, shifted=shifted), state.data)
    _assert_branch_matches(*cooling_step(state, *ejection_step(h, e_s, shifted)), out, p_ref, tol)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([ExactW(), TrotterW(2)]),
    st.booleans(),
    st.booleans(),
    st.floats(0.005, 2.0),
)
def test_failure_branch_is_the_kept_branch_of_the_shifted_step(seed, mode, mixed, degenerate, tau):
    """K0 at gamma - pi / (2 tau) is i K1 of the dense reference, in either
    mode: two terms that do not commute, summing to a possibly degenerate H."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 9))
    evals = rng.normal(size=dim) * 2
    if degenerate:  # a few levels, each repeated
        evals = evals[: max(1, dim // 3)][rng.integers(0, max(1, dim // 3), dim)]
    mat = _custom_with_spectrum(rng, evals)[0].total.mat
    diag = np.diag(rng.normal(size=dim)).astype(complex)
    h = build_model(Custom(terms=(("d", diag), ("m", mat - diag)))).with_gamma(rng.uniform(-1.0, 2.0))
    state = random_state(rng, dim, int(rng.integers(1, dim + 1)) if mixed else 0)
    if isinstance(mode, TrotterW):
        k1 = reference.blocks(*reference.trotter_branches(h, tau, mode.r))[1]
    else:
        k1 = reference.kraus(h, tau)[1]
    out, p1 = reference.apply(k1, state.data)
    tol = 1e-12 * max(1.0, h.total.norm2())
    _assert_branch_matches(*failure_step(state, h, tau, mode), (1.0 if mixed else 1j) * out, p1, tol)


@pytest.mark.parametrize("mode", [ExactW(), TrotterW(2)], ids=["exact", "trotter"])
@pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixed"])
def test_a_step_forms_only_the_branch_it_keeps(monkeypatch, mode, mixed, harmonic, thermal_half):
    calls = []

    def counting(out, pure):
        calls.append(pure)
        return _branch(out, pure)

    monkeypatch.setattr("peigen.cooling._branch", counting)
    state = thermal_half if mixed else _plus01()
    for n, tau in enumerate((0.3, 0.7, math.pi / 2), start=1):
        cooling_step(state, harmonic, tau, mode)
        assert calls == [not mixed] * n


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



def _run_config(**kwargs):
    """The RunConfig of ``kwargs`` at a fixed tau, built when called."""
    return partial(RunConfig, **{"mode": FixedStep(tau=0.3), **kwargs})


@pytest.mark.parametrize(
    "make, message",
    [
        (_run_config(max_stages=2.5), "max_stages must be an integer, got 2.5"),
        (_run_config(max_stages=True), "max_stages must be an integer, got True"),
        # TrotterW checks its own r, before a RunConfig can hold it
        (partial(TrotterW, 2.5), "r must be an integer, got 2.5"),
        (partial(TrotterW, True), "r must be an integer, got True"),
        (_run_config(target_level=1.5), "target_level must be an integer, got 1.5"),
        (_run_config(target_level=True), "target_level must be an integer, got True"),
        (_run_config(mode=FixedStep(tau=math.inf)), "tau must be finite, got inf"),
        # an infinite epsilon would stop after one stage as converged
        (_run_config(epsilon=math.inf), "epsilon must be finite, got inf"),
        (_run_config(f_tol=math.inf), "f_tol must be finite, got inf"),
        # numpy's generator would refuse these only when a trajectory is sampled
        (_run_config(seed=2.5), "seed must be an integer, got 2.5"),
        (_run_config(seed=True), "seed must be an integer, got True"),
        (_run_config(seed=-1), "seed must be >= 0, got -1"),
    ],
    ids=[
        "float-stages", "bool-stages", "float-r", "bool-r", "float-target", "bool-target", "inf-tau",
        "inf-epsilon", "inf-f-tol", "float-seed", "bool-seed", "negative-seed",
    ],
)
def test_run_config_refuses_what_the_json_reader_refuses(make, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(tau_hi=math.inf), "tau_hi must be finite, got inf"),
        (dict(x_tol=math.inf), "x_tol must be finite, got inf"),  # else no refinement
        (dict(max_evals=12.5), "max_evals must be an integer, got 12.5"),
        (dict(coarse_grid=7.0), "coarse_grid must be an integer, got 7.0"),
        (dict(coarse_grid=True, max_evals=3), "coarse_grid must be an integer, got True"),
    ],
    ids=["inf-tau-hi", "inf-x-tol", "float-evals", "float-grid", "bool-grid"],
)
def test_optimizer_config_refuses_what_the_json_reader_refuses(kwargs, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        OptimizerConfig(**kwargs)


_INTEGER_FIELDS = {
    "max_stages": lambda v: RunConfig(mode=FixedStep(tau=0.3), max_stages=v),
    "target_level": lambda v: RunConfig(mode=FixedStep(tau=0.3), target_level=v),
    "seed": lambda v: RunConfig(mode=FixedStep(tau=0.3), seed=v),
    "r": TrotterW,
    "max_evals": lambda v: OptimizerConfig(max_evals=v),
    "coarse_grid": lambda v: OptimizerConfig(coarse_grid=v),
}


@pytest.mark.parametrize(
    "name, value",
    [
        (name, value)
        for name in _INTEGER_FIELDS
        for value in ("3", None, 2.5, True)
        if not (value is None and name in ("target_level", "seed"))  # None is their default
    ],
)
def test_an_integer_field_checks_its_type_before_its_bound(name, value):
    """A string or None would fail the bound's comparison with a bare TypeError."""
    with pytest.raises(ConfigError, match=f"^{re.escape(name)} must be an integer, got {value}$"):
        _INTEGER_FIELDS[name](value)


_KIND_FIELDS = {
    "mode": "FixedStep or Variational",
    "gamma_policy": "Exact or NormBound or Fixed or TargetLevel",
    "operator_mode": "ExactW or TrotterW",
    "eject_shifted": "bool",
}


@pytest.mark.parametrize(
    "field, value",
    [
        ("mode", None),
        ("mode", 0.3),
        ("mode", FixedStep),  # the class, not an instance
        ("operator_mode", "trotter"),
        ("operator_mode", None),
        ("operator_mode", TrotterW),
        ("gamma_policy", "exact"),
        ("gamma_policy", 0.3),
        ("eject_shifted", "no"),
        ("eject_shifted", 1),
        ("eject_shifted", None),
    ],
)
def test_run_config_refuses_a_field_of_the_wrong_kind(field, value):
    """A wrong operator mode would run exact mode without a word, a wrong
    mode or gamma policy fail inside `run`, and a truthy string such as
    "no" as `eject_shifted` would run shifted ejections."""
    kwargs = {"mode": FixedStep(tau=0.3), field: value}
    message = f"{field} must be {_KIND_FIELDS[field]}, got {value!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        RunConfig(**kwargs)


@pytest.mark.parametrize("optimizer", [None, {"tau_lo": 0.1}, OptimizerConfig])
def test_variational_refuses_an_optimizer_of_the_wrong_kind(optimizer):
    message = f"optimizer must be OptimizerConfig, got {optimizer!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        Variational(optimizer=optimizer)


@pytest.mark.parametrize("shifted", ["no", "", 0, None])
def test_ejection_step_refuses_a_shifted_flag_that_is_not_a_bool(shifted, harmonic):
    message = f"shifted must be bool, got {shifted!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        ejection_step(harmonic.with_gamma(1.0), 2.0, shifted=shifted)


@pytest.mark.parametrize("operator_mode", ["trotter", "exact", None, TrotterW, 3])
@pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixed"])
def test_cooling_step_refuses_an_operator_mode_of_the_wrong_kind(operator_mode, mixed, harmonic, thermal_half):
    state = thermal_half if mixed else _plus01()
    message = f"operator_mode must be ExactW or TrotterW, got {operator_mode!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        cooling_step(state, harmonic, 0.3, operator_mode)


_FLOAT_FIELDS = {
    "epsilon": lambda v: RunConfig(mode=FixedStep(tau=0.3), epsilon=v),
    "f_tol": lambda v: RunConfig(mode=FixedStep(tau=0.3), f_tol=v),
    "tau": lambda v: RunConfig(mode=FixedStep(tau=v)),
    "tau_lo": lambda v: OptimizerConfig(tau_lo=v, tau_hi=3.0),
    "tau_hi": lambda v: OptimizerConfig(tau_hi=v),
    "x_tol": lambda v: OptimizerConfig(x_tol=v),
}


@pytest.mark.parametrize(
    "name, value",
    [(name, value) for name in _FLOAT_FIELDS for value in ("0.3", None, [0.3], True)],
)
def test_a_float_field_checks_its_type_before_its_bound(name, value):
    """A string or None would fail the bound's comparison with a bare TypeError;
    a bool is not a number, as in JSON."""
    message = f"{name} must be a real number, got {value!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        _FLOAT_FIELDS[name](value)


@pytest.mark.parametrize("name", sorted(_FLOAT_FIELDS))
def test_a_float_field_takes_ints_and_numpy_reals(name):
    for value in (np.float64(0.5), np.float32(0.5), 2, np.int64(2)):
        _FLOAT_FIELDS[name](value)


def test_run_config_takes_numpy_integers(harmonic, thermal_half):
    cfg = RunConfig(
        mode=Variational(OptimizerConfig(max_evals=np.int64(12), coarse_grid=np.int32(7))),
        max_stages=np.int64(3),
        operator_mode=TrotterW(np.int64(2)),
        target_level=np.int64(1),
        gamma_policy=Fixed(value=1.5),
        eject_shifted=True,
    )
    assert run(thermal_half, harmonic, cfg).n_stages == 3

def test_run_config_refuses_more_ejections_than_stages():
    with pytest.raises(ConfigError, match="^target_level must be <= max_stages = 1, got 3$"):
        RunConfig(mode=FixedStep(tau=0.3), max_stages=1, target_level=3)


@pytest.mark.parametrize("target", [None, 0, 2])
@pytest.mark.parametrize("mode", [FixedStep(tau=0.3), Variational()])
@pytest.mark.parametrize("operator_mode", [ExactW(), TrotterW(2)])
@pytest.mark.parametrize("max_stages", [2, 3])
def test_a_run_never_exceeds_max_stages(
    harmonic, thermal_half, target, mode, operator_mode, max_stages
):
    cfg = RunConfig(
        mode=mode,
        gamma_policy=Fixed(value=1.5),
        epsilon=1e-12,  # no cooling stage settles this early
        max_stages=max_stages,
        operator_mode=operator_mode,
        target_level=target,
        eject_shifted=True,
    )
    tr = run(thermal_half, harmonic, cfg)
    assert tr.n_stages == max_stages and tr.stop_reason == "max_stages"
    n_eject = target or 0
    assert [s.kind for s in tr.stages] == ["eject"] * n_eject + ["cool"] * (max_stages - n_eject)
    assert [s.k for s in tr.stages] == list(range(1, max_stages + 1))


def test_run_config_rejects_bad_modes():
    with pytest.raises(ConfigError):
        RunConfig(mode=FixedStep(tau=0.0))
    with pytest.raises(ConfigError):
        RunConfig(mode=FixedStep(tau=0.3), operator_mode=TrotterW(r=0))


# ---------------------------------------------------------------------------
# long runs


_DRIFT_RABI = Rabi(omega0=1.2, omega=0.8, g=1.0, cutoff=50)


@pytest.mark.parametrize(
    "spec, operator_mode",
    [
        (_DRIFT_RABI, ExactW()),
        (_DRIFT_RABI, TrotterW(3)),
        (HarmonicOscillator(omega=1.0, cutoff=60), ExactW()),
    ],
    ids=["rabi-rank8-exact", "rabi-rank8-trotter", "harmonic-thermal"],
)
def test_a_thousand_mixed_steps_keep_rho_a_density_matrix(spec, operator_mode):
    """1,000 steps at tau = 0.05 from a rank-8 Rabi mixture or a thermal state
    (nbar = 2) renormalise the kept branch each time; its Hermiticity defect,
    trace error and least eigenvalue stay at rounding level (measured:
    1.6e-15, 4.4e-16 and -1.8e-15 at worst)."""
    h = build_model(spec)
    hg = h.with_gamma(gamma_for(h, NormBound()))
    if isinstance(spec, Rabi):
        state = random_state(np.random.default_rng(0), h.dim, 8)
    else:
        state = thermal_state(spec, 2.0)
    for _ in range(1000):
        state, _ = cooling_step(state, hg, 0.05, operator_mode)
        rho = state.data
        assert np.abs(rho - rho.conj().T).max() <= 1e-12
        assert abs(np.trace(rho).real - 1) <= 1e-12
    assert -np.linalg.eigvalsh(rho)[0] <= 1e-12
