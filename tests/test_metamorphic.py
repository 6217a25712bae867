"""A metamorphic relation: two runs of the library checked against each other,
so it needs no dense reference and holds at any size.

Scale: double every energy parameter and a `Fixed` gamma, halve every time
(`FixedStep` tau, `tau_lo`, `tau_hi`, `x_tol`) and double epsilon. Every
angle (E + gamma) tau is then the same float, since powers of two commute
with rounding, and so is every p0 and trial count; every tau is halved and
every energy and E_s doubled, bit for bit, and the final state is equal.
LAPACK's `eigh` keeps the relation too, so Exact gamma and exact mode hold it."""

from dataclasses import replace

import numpy as np
import pytest

from peigen import (
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
    build_model,
    run,
    thermal_state,
)


def _doubled(spec):
    """The model with every energy parameter doubled."""
    if isinstance(spec, Hubbard1D):
        return replace(spec, t=2 * spec.t, u=2 * spec.u)
    if isinstance(spec, Rabi):
        return replace(spec, omega0=2 * spec.omega0, omega=2 * spec.omega, g=2 * spec.g)
    return replace(spec, omega=2 * spec.omega)


def _halved(config):
    """The run with every time halved, and a Fixed gamma and epsilon doubled."""
    mode = config.mode
    if isinstance(mode, FixedStep):
        mode = FixedStep(mode.tau / 2)
    else:
        opt = mode.optimizer
        mode = Variational(replace(opt, tau_lo=opt.tau_lo / 2, tau_hi=opt.tau_hi / 2, x_tol=opt.x_tol / 2))
    gamma = config.gamma_policy
    if isinstance(gamma, Fixed):
        gamma = Fixed(2 * gamma.value)
    return replace(config, mode=mode, gamma_policy=gamma, epsilon=2 * config.epsilon)


def _scaled_stage(s):
    """The stage record the scaled run should make of ``s``."""
    trials = tuple(replace(t, tau=t.tau / 2, energy=2 * t.energy) for t in s.trials)
    return replace(
        s,
        tau=None if s.tau is None else s.tau / 2,
        energy=2 * s.energy,
        e_s=None if s.e_s is None else 2 * s.e_s,
        trials=trials,
    )


def _hubbard(label, gamma_policy, operator_mode=TrotterW(3), max_stages=4, max_evals=12):
    spec = Hubbard1D(len(label) // 2, t=1.0, u=2.0)
    config = RunConfig(
        mode=Variational(OptimizerConfig(max_evals=max_evals)),
        gamma_policy=gamma_policy,
        max_stages=max_stages,
        operator_mode=operator_mode,
    )
    return spec, basis_state(spec, label), config


def _rabi_mixture(operator_mode):
    spec = Rabi(omega0=1.2, omega=0.8, g=1.0, cutoff=50)  # d = 100, rank 100
    weights = np.random.default_rng(3).dirichlet(np.ones(2 * spec.cutoff))
    config = RunConfig(mode=Variational(), max_stages=3, operator_mode=operator_mode)
    return spec, QuantumState(np.diag(weights).astype(complex)), config


def _harmonic_targeted():
    spec = HarmonicOscillator(omega=1.0, cutoff=60)
    config = RunConfig(
        mode=FixedStep(0.3), gamma_policy=Fixed(0.3), eject_shifted=True, target_level=2,
        max_stages=8,
    )
    return spec, thermal_state(spec, 0.5), config


_RUNS = {
    "hubbard3-norm_bound": lambda: _hubbard("udduud", NormBound()),
    "hubbard3-exact": lambda: _hubbard("udduud", Exact()),
    "hubbard4-norm_bound": lambda: _hubbard("uudduddu", NormBound()),
    "hubbard4-exact": lambda: _hubbard("uudduddu", Exact()),
    "hubbard5-norm_bound": lambda: _hubbard("udduduuddu", NormBound()),
    "hubbard5-exact": lambda: _hubbard("udduduuddu", Exact()),
    # a trial budget that outlasts the search: every stage stops at x_tol
    "hubbard4-exactw": lambda: _hubbard("uudduddu", Exact(), ExactW(), max_evals=30),
    "rabi50-mixture-exactw": lambda: _rabi_mixture(ExactW()),
    "rabi50-mixture-trotter": lambda: _rabi_mixture(TrotterW(3)),
    "harmonic60-targeted": _harmonic_targeted,
    # the largest chain CI runs: an oracle where no dense reference reaches
    "hubbard7-norm_bound": lambda: _hubbard("udduudduudduud", NormBound(), max_stages=1),
}


@pytest.mark.parametrize("name", sorted(_RUNS))
def test_doubled_energies_and_halved_times_give_the_same_run(name):
    spec, initial, config = _RUNS[name]()
    a = run(initial, build_model(spec), config)
    b = run(initial, build_model(_doubled(spec)), _halved(config))
    stages = tuple(_scaled_stage(s) for s in a.stages)
    assert b.stages == stages
    assert np.array_equal(b.final_state.data, a.final_state.data)
    want = replace(
        a,
        stages=stages,
        final_state=None,
        gamma=2 * a.gamma,
        initial_energy=2 * a.initial_energy,
        final_energy=2 * a.final_energy,
    )
    assert replace(b, final_state=None) == want
