import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from peigen import (
    CertainFailureError,
    ConfigError,
    Custom,
    Exact,
    ExactW,
    Fixed,
    FixedStep,
    HarmonicOscillator,
    OptimizerConfig,
    QuantumState,
    Rabi,
    RunConfig,
    TrotterW,
    ValidationError,
    Variational,
    basis_vector,
    build_model,
    cooling_step,
    exact_spectrum,
    expectation,
    run,
)
from peigen.config import bundled_config_dir, build_initial_state, load_experiment
from peigen.cooling import BRANCH_PROB_FLOOR
from peigen.models import build_custom
from peigen.operators import validate_and_normalize
from peigen.variational import minimize_stage, stage_objective
from tests import reference
from tests.conftest import random_hermitian, random_state


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


def test_trotter_objective_and_fixed_run_see_certain_failure(harmonic):
    # |1>, tau=pi/2, gamma 0: cos^2((1 + 0) pi/2) = 0 empties the 0-branch
    psi = basis_vector(30, 1)
    assert stage_objective(psi, harmonic, math.pi / 2, TrotterW(1)) == (math.inf, 0.0)
    cfg = RunConfig(mode=FixedStep(math.pi / 2), gamma_policy=Fixed(0.0))
    with pytest.raises(CertainFailureError) as info:
        run(psi, harmonic, cfg)
    assert str(info.value).startswith("cooling stage at tau=1.5708 has zero success probability")


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
@given(st.integers(2, 7), st.integers(0, 33))
@example(coarse_grid=3, extra=0)  # the grid spends the whole budget
@example(coarse_grid=3, extra=1)  # room for one golden-section point only
def test_minimize_never_exceeds_budget(coarse_grid, extra):
    opt = OptimizerConfig(max_evals=max(coarse_grid, 3) + extra, coarse_grid=coarse_grid)
    res = minimize_stage(_plus(), _two_level(), opt)
    assert len(res.trials) <= opt.max_evals
    assert res.trials[coarse_grid - 1].tau == opt.tau_hi  # the grid is never cut short


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
    with pytest.raises(ConfigError, match=r"^max_evals must be >= coarse_grid = 7, got 5$"):
        OptimizerConfig(max_evals=5)


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


# ---------------------------------------------------------------------------
# exact-mode objective against the dense scipy reference


def _dense_objective(state, h, tau):
    """Reference: the 0-branch of the dense scipy step K0 = (U+ + U-)/2 and its energy."""
    (out, p0), _ = reference.step(state.data, h, tau)
    if p0 < BRANCH_PROB_FLOOR:
        return math.inf, 0.0
    return reference.energy(out, h) / p0, p0


def _assert_matches_dense(state, h, tau):
    e, p0 = stage_objective(state, h, tau, ExactW())
    e_ref, p0_ref = _dense_objective(state, h, tau)
    assert abs(p0 - p0_ref) <= 1e-12
    if math.isinf(e_ref):
        assert math.isinf(e) and e > 0 and p0 == 0.0
    else:
        assert abs(e - e_ref) <= 1e-12 * max(1.0, h.total.norm2())
    return e, p0


_FORMS = st.sampled_from(["pure", "rank-1", "low-rank", "full-rank"])


def _rank(form, dim):
    return {"pure": 0, "rank-1": 1, "low-rank": max(1, dim // 3), "full-rank": dim}[form]


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 12),
    _FORMS,
    st.booleans(),
    st.floats(0.01, 3.0),
    st.floats(-1.0, 2.0),
)
def test_exact_objective_matches_dense_step(seed, dim, form, degenerate, tau, gamma):
    rng = np.random.default_rng(seed)
    if degenerate:  # a few levels, each repeated, in a random eigenbasis
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        levels = rng.normal(size=max(1, dim // 3)) * 2
        m = (q * rng.choice(levels, size=dim)) @ q.conj().T
        m = (m + m.conj().T) / 2
    else:
        m = random_hermitian(rng, dim)
    h = build_custom(Custom(terms=(("m", m),))).with_gamma(gamma)
    _assert_matches_dense(random_state(rng, dim, _rank(form, dim)), h, tau)


def _harmonic_near_floor(state, h, target):
    """tau with p0 close to ``target`` for gamma = omega/2, where every level
    has E_n + gamma = (n + 1/2) omega: at tau = pi/omega all cos² vanish, and
    a shift delta gives w_n ≈ ((n + 1/2) omega delta)²."""
    evals, _ = exact_spectrum(h)
    pops = np.diag(state.density()).real
    delta = math.sqrt(target / float(pops @ (evals + h.gamma) ** 2))
    return math.pi + delta  # omega = 1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 10), _FORMS, st.floats(1.5, 9.0))
def test_exact_objective_near_the_floor(seed, levels, form, factor):
    # The harmonic eigenbasis is the computational one, so the dense step
    # is exact to rounding even when p0 is 1e-13. (In a rotated eigenbasis
    # the reference's own ~1e-16 error in K rho K^H is divided by p0.)
    rng = np.random.default_rng(seed)
    h = build_model(HarmonicOscillator(omega=1.0, cutoff=16)).with_gamma(0.5)
    sub = random_state(rng, levels, _rank(form, levels))
    pad = [(0, 16 - levels)] * sub.data.ndim
    state = QuantumState(np.pad(sub.data, pad))
    tau = _harmonic_near_floor(state, h, factor * BRANCH_PROB_FLOOR)
    _, p0 = _assert_matches_dense(state, h, tau)
    assert BRANCH_PROB_FLOOR <= p0 <= 10 * BRANCH_PROB_FLOOR


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 10), st.booleans(), st.floats(1.5, 9.0))
def test_exact_objective_near_the_floor_on_an_eigenstate(seed, dim, degenerate, factor):
    rng = np.random.default_rng(seed)
    m = random_hermitian(rng, dim)
    if degenerate:  # the lowest level twice
        e, q = np.linalg.eigh(m)
        e[1] = e[0]
        m = (q * e) @ q.conj().T
        m = (m + m.conj().T) / 2
    h = build_custom(Custom(terms=(("m", m),))).with_gamma(3.0 + float(np.abs(m).sum()))
    evals, v = exact_spectrum(h)
    shifted = float(evals[0]) + h.gamma
    tau = math.acos(math.sqrt(factor * BRANCH_PROB_FLOOR)) / shifted
    _, p0 = _assert_matches_dense(QuantumState(v[:, 0]), h, tau)
    assert BRANCH_PROB_FLOOR <= p0 <= 10 * BRANCH_PROB_FLOOR


@pytest.mark.parametrize("target", [0.0, 1e-15, 0.5 * BRANCH_PROB_FLOOR])
@pytest.mark.parametrize("mixed", [False, True])
def test_exact_objective_certain_failure_below_the_floor(target, mixed):
    h = build_model(HarmonicOscillator(omega=1.0, cutoff=16)).with_gamma(0.5)
    psi = np.zeros(16)
    psi[[1, 4]] = [0.6, 0.8]
    state = QuantumState(np.outer(psi, psi) if mixed else psi)
    tau = _harmonic_near_floor(state, h, target)
    e, p0 = _assert_matches_dense(state, h, tau)
    assert math.isinf(e) and p0 == 0.0


def test_stage_objective_dimension_mismatch(harmonic):
    with pytest.raises(ValidationError):
        stage_objective(basis_vector(4, 0), harmonic, 0.3, ExactW())


def _rabi_rank4():
    spec = Rabi(omega0=1.2, omega=0.8, g=1.0, cutoff=20)
    rng = np.random.default_rng(7)
    a = rng.normal(size=(40, 4)) + 1j * rng.normal(size=(40, 4))
    rho = a @ a.conj().T
    config = RunConfig(mode=Variational(), gamma_policy=Exact(), epsilon=1e-9, max_stages=6)
    return build_model(spec), QuantumState(rho / np.trace(rho).real), config


def _harmonic_variational():
    ex = load_experiment(bundled_config_dir() / "harmonic_variational.json")
    return build_model(ex.model), build_initial_state(ex), ex.run


# counts: trials per stage of each run when every trial ran the dense step
@pytest.mark.parametrize(
    "make, counts",
    [(_rabi_rank4, (12,) * 6), (_harmonic_variational, (12,) * 8)],
    ids=["rabi20_rank4", "harmonic_variational"],
)
def test_exact_run_trials_match_the_dense_step(make, counts):
    h, initial, config = make()
    tr = run(initial, h, config)
    assert tuple(len(s.trials) for s in tr.stages) == counts
    hg = h.with_gamma(tr.gamma)
    tol = 1e-12 * max(1.0, hg.total.norm2())
    state = validate_and_normalize(initial)
    dense = state  # the same stages replayed by the reference alone
    for s in tr.stages:
        for t in s.trials:
            # the minimizer's log is the public objective, bit for bit
            assert (t.energy, t.p0) == stage_objective(state, hg, t.tau, ExactW())
            e_ref, p0_ref = _dense_objective(dense, hg, t.tau)
            assert abs(t.p0 - p0_ref) <= 1e-12
            assert abs(t.energy - e_ref) <= tol
        assert s.tau == min(s.trials, key=lambda t: (t.energy, t.tau)).tau
        state = cooling_step(state, hg, s.tau, ExactW()).state0
        (out, p0), _ = reference.step(dense.data, hg, s.tau)
        assert abs(s.p0 - p0) <= 1e-12
        assert abs(s.energy - reference.energy(out, hg) / p0) <= tol
        dense = QuantumState(out / p0 if out.ndim == 2 else out / math.sqrt(p0))
