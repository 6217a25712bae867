import importlib
import math
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from peigen import (
    CertainFailureError,
    ConfigError,
    Custom,
    DimensionError,
    Exact,
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
    Variational,
    basis_state,
    basis_vector,
    build_model,
    cooling_step,
    exact_spectrum,
    expectation,
    gamma_for,
    run,
    thermal_state,
)
from peigen.config import bundled_config_dir, build_initial_state, load_experiment
from peigen.cooling import BRANCH_PROB_FLOOR, _start
from peigen.operators import validate_and_normalize
from peigen.variational import _trials, minimize_stage
from tests import reference
from tests.conftest import random_hermitian, random_state


def _objective(state, h, tau, mode):
    """One trial of the stage objective: (energy, p0) at tau."""
    return _trials(state, h, mode)[0]([tau])[0][:2]


def _two_level(e1=1.0):
    return build_model(Custom(terms=(("d", np.diag([0.0, e1])),)))


def _plus(dim=2):
    v = np.zeros(dim)
    v[0] = v[1] = 2**-0.5
    return QuantumState(v)


# ---------------------------------------------------------------------------
# objective


def test_objective_small_tau_is_identity_limit(harmonic, thermal_half):
    e_in = expectation(thermal_half, harmonic.total)
    e, p0 = _objective(thermal_half, harmonic, 1e-8, ExactW())
    assert abs(e - e_in) < 1e-6
    assert abs(p0 - 1.0) < 1e-6


def test_objective_frozen_value(harmonic):
    psi = QuantumState(np.concatenate([[2**-0.5, 2**-0.5], np.zeros(28)]))
    e, p0 = _objective(psi, harmonic, 0.3, ExactW())
    assert abs(e - 0.4771700573918862) < 1e-9
    assert abs(p0 - (1 + math.cos(0.3) ** 2) / 2) < 1e-12


def test_trotter_objective_and_fixed_run_see_certain_failure(harmonic):
    # |1>, tau=pi/2, gamma 0: cos^2((1 + 0) pi/2) = 0 empties the 0-branch
    psi = basis_vector(30, 1)
    assert _objective(psi, harmonic, math.pi / 2, TrotterW(1)) == (math.inf, 0.0)
    cfg = RunConfig(mode=FixedStep(math.pi / 2), gamma_policy=Fixed(0.0))
    with pytest.raises(CertainFailureError) as info:
        run(psi, harmonic, cfg)
    assert str(info.value).startswith("cooling stage at tau=1.5708 has zero success probability")


def test_objective_constant_on_eigenstates(harmonic):
    psi = basis_vector(30, 2)
    es = [_objective(psi, harmonic, t, ExactW())[0] for t in (0.1, 0.4, 0.7)]
    assert max(es) - min(es) < 1e-10


def test_objective_certain_failure_sentinel(harmonic):
    # |1>, tau=pi/2: the 0-branch is empty; the optimizer must see +inf
    e, p0 = _objective(basis_vector(30, 1), harmonic, math.pi / 2, ExactW())
    assert math.isinf(e) and p0 == 0.0


# ---------------------------------------------------------------------------
# 1-D minimizer


def test_minimize_monotone_objective_hits_upper_bound():
    # (|0>+|1>)/sqrt2 on diag(0,1): energy decreases on [0, pi/2] ⊃ [lo, hi]
    opt = OptimizerConfig()
    res = minimize_stage(_plus(), _two_level(), opt)
    assert abs(res.best.tau - opt.tau_hi) <= opt.x_tol
    assert res.trials[-1].trial_index == len(res.trials) - 1


def test_minimize_convex_matches_dense_scan(harmonic, thermal_half):
    opt = OptimizerConfig(max_evals=60)
    res = minimize_stage(thermal_half, harmonic, opt)
    assert not res.budget_exhausted
    taus = np.linspace(opt.tau_lo, opt.tau_hi, 10_000)
    energies = [_objective(thermal_half, harmonic, float(t), ExactW())[0] for t in taus]
    tau_oracle = float(taus[int(np.argmin(energies))])
    assert abs(res.best.tau - tau_oracle) <= opt.x_tol + (opt.tau_hi - opt.tau_lo) / 9_999


def test_minimize_budget_flag_and_best_so_far(harmonic, thermal_half):
    opt = OptimizerConfig(max_evals=12)
    res = minimize_stage(thermal_half, harmonic, opt)
    assert res.budget_exhausted
    assert len(res.trials) == 12
    assert res.best.energy == min(t.energy for t in res.trials)


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
    assert res.best.tau == pytest.approx(0.01, abs=1e-12)


def test_an_int_search_domain_beyond_int64_grids_as_its_float(harmonic):
    # numpy keeps such an int, which a JSON reader passes on, as an object array
    state = basis_vector(30, 2)
    got = minimize_stage(state, harmonic, OptimizerConfig(tau_lo=1, tau_hi=10**20))
    want = minimize_stage(state, harmonic, OptimizerConfig(tau_lo=1.0, tau_hi=1e20))
    assert got.trials == want.trials


def test_optimizer_config_validation():
    with pytest.raises(ConfigError):
        OptimizerConfig(tau_lo=0.5, tau_hi=0.2)
    with pytest.raises(ConfigError):
        OptimizerConfig(x_tol=0.0)
    with pytest.raises(ConfigError):
        OptimizerConfig(max_evals=2)
    with pytest.raises(ConfigError, match=r"^max_evals must be >= coarse_grid = 7, got 5$"):
        OptimizerConfig(max_evals=5)
    with pytest.raises(ConfigError, match="^coarse_grid must be >= 2, got 1$"):
        OptimizerConfig(coarse_grid=1)


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
        state = cooling_step(state, harmonic, s.tau)[0]
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
    e, p0 = _objective(state, h, tau, ExactW())
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
    h = build_model(Custom(terms=(("m", m),))).with_gamma(gamma)
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
    h = build_model(Custom(terms=(("m", m),))).with_gamma(3.0 + float(np.abs(m).sum()))
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


def test_minimize_stage_dimension_mismatch(harmonic):
    with pytest.raises(DimensionError, match="^state dim 4 != operator dim 30$"):
        minimize_stage(basis_vector(4, 0), harmonic, OptimizerConfig(), operator_mode=ExactW())


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
            # the minimizer's log is the one-tau objective, bit for bit
            assert (t.energy, t.p0) == _objective(state, hg, t.tau, ExactW())
            e_ref, p0_ref = _dense_objective(dense, hg, t.tau)
            assert abs(t.p0 - p0_ref) <= 1e-12
            assert abs(t.energy - e_ref) <= tol
        assert s.tau == min(s.trials, key=lambda t: (t.energy, t.tau)).tau
        state = cooling_step(state, hg, s.tau, ExactW())[0]
        (out, p0), _ = reference.step(dense.data, hg, s.tau)
        assert abs(s.p0 - p0) <= 1e-12
        assert abs(s.energy - reference.energy(out, hg) / p0) <= tol
        dense = QuantumState(out / p0 if out.ndim == 2 else out / math.sqrt(p0))


# ---------------------------------------------------------------------------
# Trotter-mode trials: the coarse grid as one block, the best trial accepted


def _bundled(name):
    ex = load_experiment(bundled_config_dir() / f"{name}.json")
    return build_model(ex.model), build_initial_state(ex), ex.run


def _harmonic_trotter():
    spec = HarmonicOscillator(omega=1.0, cutoff=30)
    psi = np.sqrt((1 / 1.5) * (0.5 / 1.5) ** np.arange(30))  # thermal weights, nbar 0.5
    config = RunConfig(mode=Variational(), epsilon=1e-3, max_stages=4, operator_mode=TrotterW(2))
    return build_model(spec), QuantumState(psi), config


def _rabi_rank4_trotter():
    h, rho, config = _rabi_rank4()
    return h, rho, replace(config, max_stages=1, operator_mode=TrotterW(3))


# tolerance on trial energy and p0: 0 (bitwise) where every Trotter group is a
# monomial; the Rabi coupling's dense group runs as a matrix product on the block
_PURE_TROTTER = {
    "hubbard2": (lambda: _bundled("hubbard2_variational"), 0.0),
    "hubbard3": (lambda: _bundled("hubbard3_variational"), 0.0),
    "harmonic": (_harmonic_trotter, 0.0),
    "rabi20": (lambda: _bundled("rabi_variational"), 1e-15),
}


def _first_stage(make):
    h, initial, config = make()
    state, hg = _start(initial, h, config)
    return state, hg, config, minimize_stage(
        state, hg, config.mode.optimizer, operator_mode=config.operator_mode
    )


def _count_calls(monkeypatch, target):
    module, name = target.rsplit(".", 1)
    fn, calls = getattr(importlib.import_module(module), name), []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(target, counting)
    return calls


@pytest.mark.parametrize("name", sorted(_PURE_TROTTER))
def test_trotter_trials_equal_per_tau_stage_objective_calls(name):
    make, tol = _PURE_TROTTER[name]
    state, hg, config, res = _first_stage(make)
    opt = config.mode.optimizer
    assert len(res.trials) == opt.max_evals == 12
    grid = [t.tau for t in res.trials[: opt.coarse_grid]]
    assert grid == [float(x) for x in np.linspace(opt.tau_lo, opt.tau_hi, opt.coarse_grid)]
    for t in res.trials:
        energy, p0 = _objective(state, hg, t.tau, config.operator_mode)
        if tol == 0.0:
            assert (t.energy, t.p0) == (energy, p0)
        else:
            assert abs(t.energy - energy) <= tol and abs(t.p0 - p0) <= tol


def _hubbard_trotter(label, gamma_policy=Exact()):
    """One variational TrotterW(3) stage on the Hubbard chain of the label's sites."""
    spec = Hubbard1D(len(label) // 2, t=1.0, u=2.0)
    config = RunConfig(
        mode=Variational(), gamma_policy=gamma_policy, max_stages=1, operator_mode=TrotterW(3)
    )
    return build_model(spec), basis_state(spec, label), config


_TROTTER_STAGES = {
    "hubbard3": lambda: _bundled("hubbard3_variational"),
    "hubbard6": lambda: _hubbard_trotter("udduudduuddu", NormBound()),  # half filled, d = 4096
}


@pytest.mark.parametrize("name", sorted(_TROTTER_STAGES))
def test_a_trotter_stage_makes_six_sweep_plan_calls_and_none_to_accept(monkeypatch, name):
    h, initial, config = _TROTTER_STAGES[name]()
    plans = _count_calls(monkeypatch, "peigen.trotter._plan")  # one per apply_branches call
    sweeps = _count_calls(monkeypatch, "peigen.trotter._sweep")
    steps = _count_calls(monkeypatch, "peigen.variational.cooling_step")
    energies = _count_calls(monkeypatch, "peigen.variational.expectation")
    tr = run(initial, h, replace(config, max_stages=1))
    assert len(tr.stages[0].trials) == 12
    assert len(plans) == 6  # the 7-point grid as one block, then 5 golden-section steps
    assert len(sweeps) == 6  # a real model on a real state: U_minus x is conj(U_plus x)
    assert len(steps) == 5
    assert len(energies) == 13  # the initial energy and one per trial


def test_a_mixed_trotter_stage_builds_one_dense_pair_per_trial(monkeypatch):
    h, rho, config = _rabi_rank4_trotter()
    pairs = _count_calls(monkeypatch, "peigen.cooling.branch_unitaries")
    tr = run(rho, h, config)
    assert len(pairs) == len(tr.stages[0].trials) == 12


def _rabi_exact_pure():
    h, initial, config = _bundled("rabi_variational")
    return h, initial, replace(config, operator_mode=ExactW())


def _rabi_rank4_exact():
    h, rho, config = _rabi_rank4()
    return h, rho, replace(config, max_stages=1)


_ACCEPTED = {  # Trotter stages, then exact ones
    "pure": lambda: _bundled("hubbard3_variational"),
    "mixed": _rabi_rank4_trotter,
    "exact-pure": _rabi_exact_pure,
    "exact-mixed": _rabi_rank4_exact,
}


@pytest.mark.parametrize("name", sorted(_ACCEPTED))
def test_the_accepted_stage_is_the_best_trials_branch(name):
    state, hg, config, res = _first_stage(_ACCEPTED[name])
    h, initial, _ = _ACCEPTED[name]()
    stage = run(initial, h, replace(config, max_stages=1))
    s = stage.stages[0]
    assert s.tau == res.best.tau
    # the very step the best trial stands for (monomial Trotter groups only, so bitwise here)
    kept, p0 = cooling_step(state, hg, res.best.tau, config.operator_mode)
    energy = expectation(kept, hg.total)
    assert (s.p0, s.energy) == (p0, energy)
    assert np.array_equal(stage.final_state.data, kept.data)
    assert res.branch[1:] == (p0, energy) and np.array_equal(res.branch[0].data, kept.data)
    assert abs(res.best.p0 - s.p0) <= 1e-15
    if isinstance(config.operator_mode, TrotterW):  # a Trotter trial is that step itself
        assert (res.best.p0, res.best.energy) == (p0, energy)


@pytest.mark.parametrize("make", [_rabi_exact_pure, _rabi_rank4_exact], ids=["pure", "mixed"])
def test_an_exact_stage_reads_the_coefficients_once_and_forms_one_branch(monkeypatch, make):
    h, initial, config = make()
    reads = _count_calls(monkeypatch, "peigen.variational._eigen_coefficients")
    branches = _count_calls(monkeypatch, "peigen.variational._eigen_branch")
    steps = _count_calls(monkeypatch, "peigen.variational.cooling_step")
    cooling_reads = _count_calls(monkeypatch, "peigen.cooling._eigen_coefficients")
    tr = run(initial, h, replace(config, max_stages=1))
    assert len(tr.stages[0].trials) == 12
    assert (len(reads), len(branches), len(steps), len(cooling_reads)) == (1, 1, 0, 0)


def test_an_exact_stage_refuses_a_zero_state_as_its_step_would():
    h = build_model(Hubbard1D(2, t=1.0, u=2.0))
    with pytest.raises(CertainFailureError, match="^both branch probabilities vanish; state is corrupt$"):
        minimize_stage(QuantumState(np.zeros(16)), h, OptimizerConfig(), operator_mode=ExactW())


@pytest.mark.parametrize("operator_mode", ["trotter", None, TrotterW, 2], ids=["str", "none", "class", "int"])
@pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixed"])
def test_minimize_stage_refuses_an_operator_mode_of_the_wrong_kind(operator_mode, mixed, harmonic, thermal_half):
    # a string failed on `.r` with an AttributeError
    state = thermal_half if mixed else basis_vector(30, 2)
    message = f"operator_mode must be ExactW or TrotterW, got {operator_mode!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        minimize_stage(state, harmonic, OptimizerConfig(), operator_mode=operator_mode)


# (seed, dim, complex, degenerate): seeded Custom models for the shared read
_SHARED_READ = [(0, 6, False, False), (1, 9, True, False), (2, 8, True, True), (3, 12, False, True)]


@pytest.mark.parametrize("seed, dim, complex_, degenerate", _SHARED_READ)
@pytest.mark.parametrize("rank", [0, 3], ids=["pure", "mixed"])
def test_exact_runs_follow_the_cos2_law_of_a_dense_eigh(seed, dim, complex_, degenerate, rank):
    rng = np.random.default_rng(seed)
    m = random_hermitian(rng, dim)
    m = m if complex_ else m.real
    if degenerate:  # the levels in pairs, in the model's own eigenbasis
        e, q = np.linalg.eigh(m)
        m = (q * np.repeat(e[::2], 2)[:dim]) @ q.conj().T
        m = (m + m.conj().T) / 2
    state = random_state(rng, dim, rank)
    config = RunConfig(mode=Variational(), epsilon=1e-12, max_stages=4)
    tr = run(state, build_model(Custom(terms=(("m", m),))), config)
    evals, v = np.linalg.eigh(m)
    if degenerate:
        assert np.sum(np.abs(np.diff(evals)) < 1e-9) >= dim // 2
    rho = state.density()
    pops = np.einsum("ij,ij->j", v.conj(), rho @ v).real  # P_j = <j|rho|j>
    shifted = evals + tr.gamma
    for s in tr.stages:
        for t in s.trials:
            assert abs(t.p0 - np.cos(shifted * t.tau) ** 2 @ pops) <= 1e-12
        w = np.cos(shifted * s.tau) ** 2
        p0 = w @ pops
        pops = w * pops / p0
        assert abs(s.p0 - p0) <= 1e-12
        assert abs(s.energy - evals @ pops) <= 1e-12


@pytest.mark.parametrize("max_evals", [7, 12], ids=["grid-only", "with-golden"])
def test_a_trotter_grid_refuses_a_zero_state_as_each_step_would(max_evals):
    h = build_model(Hubbard1D(2, t=1.0, u=2.0))
    opt = OptimizerConfig(max_evals=max_evals, coarse_grid=7)
    with pytest.raises(CertainFailureError, match="^both branch probabilities vanish; state is corrupt$"):
        minimize_stage(QuantumState(np.zeros(16)), h, opt, operator_mode=TrotterW(3))


# ---------------------------------------------------------------------------
# gamma from eigenvalues alone: a run solves eigenvectors only if it reads them


# Trotter runs with Exact gamma, on Hubbard L=2-4 and Rabi cutoff 20
_TROTTER_EXACT_GAMMA = {
    "hubbard2": lambda: _bundled("hubbard2_variational"),
    "hubbard3": lambda: _bundled("hubbard3_variational"),
    "hubbard4": lambda: _hubbard_trotter("uudduddu"),
    "rabi20": lambda: _bundled("rabi_variational"),
}


def _trace_numbers(trace) -> np.ndarray:
    """Every number a trace records, flat, in order."""
    out = [trace.gamma, trace.initial_energy, trace.final_energy, trace.p_success]
    for s in trace.stages:  # an ejection records its E_s in place of tau
        out += [s.e_s if s.tau is None else s.tau, s.energy, s.p0, s.p_suc]
        out += [x for t in s.trials for x in (t.tau, t.energy, t.p0)]
    return np.array(out)


def _rabi200_trotter():
    spec = Rabi(omega0=1.2, omega=0.8, g=1.0, cutoff=200)  # d = 400
    config = RunConfig(mode=Variational(), max_stages=1, operator_mode=TrotterW(3))
    return build_model(spec), basis_state(spec, "down,0"), config


# and at the sizes where a dense total (268 MB at Hubbard L=6) would show
_STRUCTURED_EXACT_GAMMA = {
    **_TROTTER_EXACT_GAMMA,
    "hubbard6": lambda: _hubbard_trotter("udduudduuddu"),
    "rabi200": _rabi200_trotter,
}


@pytest.mark.parametrize("name", sorted(_STRUCTURED_EXACT_GAMMA))
def test_a_trotter_run_with_exact_gamma_forms_no_eigenvectors(name):
    h, initial, config = _STRUCTURED_EXACT_GAMMA[name]()
    assert isinstance(config.gamma_policy, Exact) and isinstance(config.operator_mode, TrotterW)
    trace = run(initial, h, config)
    # gamma, the energies and the steps read the terms' structure: no operator
    # formed a dense matrix, and the total solved its eigenvalues alone
    assert all(op._mat is None and op._rest is None for op in (h.total, *(t for _, t in h.terms)))
    assert h.total._eig is None
    assert trace.gamma == -h.total.eigenvalues()[0]


def test_exact_gamma_at_hubbard6_peaks_below_600_mb():
    """The values-only solve of the L=6 chain (d = 4096), in a fresh
    interpreter, so the peak is that of this one solve."""
    code = (
        "import resource\n"
        "from peigen import Exact, Hubbard1D, build_model, gamma_for\n"
        "gamma_for(build_model(Hubbard1D(6, 1.0, 2.0)), Exact())\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) / 1024 < 600  # ru_maxrss is in KiB on Linux


@pytest.mark.parametrize("name", sorted(_TROTTER_EXACT_GAMMA))
def test_a_trotter_run_agrees_whether_or_not_the_eigensystem_was_solved_first(name):
    h, initial, config = _TROTTER_EXACT_GAMMA[name]()
    values_only = _trace_numbers(run(initial, h, config))
    h, initial, config = _TROTTER_EXACT_GAMMA[name]()
    evals, _ = exact_spectrum(h)
    solved = _trace_numbers(run(initial, h, config))
    assert solved[0] == -evals[0]  # gamma
    assert solved.shape == values_only.shape
    assert np.abs(solved - values_only).max() <= 1e-12


def _targeted_exact():
    spec = HarmonicOscillator(omega=1.0, cutoff=30)
    config = RunConfig(
        mode=FixedStep(0.3), gamma_policy=Fixed(0.3), eject_shifted=True, target_level=2
    )
    return build_model(spec), thermal_state(spec, 0.5), config


def _targeted_trotter():
    h, initial, config = _bundled("hubbard2_variational")
    return h, initial, replace(config, target_level=1)


# runs that read the total's eigenvectors: exact mode, or a target level
_EIGENVECTOR_RUNS = {
    "harmonic_variational": _harmonic_variational,
    "rabi20_rank4": _rabi_rank4,
    "targeted_exact": _targeted_exact,
    "targeted_trotter": _targeted_trotter,
}


@pytest.mark.parametrize("name", sorted(_EIGENVECTOR_RUNS))
@pytest.mark.parametrize("first", [gamma_for, exact_spectrum], ids=["gamma_for", "exact_spectrum"])
def test_a_run_reading_eigenvectors_gives_one_trace_whatever_was_solved_first(name, first):
    h, initial, config = _EIGENVECTOR_RUNS[name]()
    fresh = run(initial, h, config)
    h, initial, config = _EIGENVECTOR_RUNS[name]()
    if first is gamma_for:
        gamma_for(h, Exact())  # caches the values-only solve
        assert h.total._evals is not None and h.total._eig is None
    else:
        exact_spectrum(h)
    again = run(initial, h, config)
    assert again.stages == fresh.stages
    assert np.array_equal(_trace_numbers(again), _trace_numbers(fresh))
    assert np.array_equal(again.final_state.data, fresh.final_state.data)
    assert again.target_fidelity == fresh.target_fidelity
