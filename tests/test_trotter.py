import functools
import gc
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peigen import (
    ConfigError,
    Custom,
    Exact,
    FixedStep,
    HarmonicOscillator,
    Hubbard1D,
    QuantumState,
    Rabi,
    RunConfig,
    TrotterW,
    TruncationLeakageError,
    ValidationError,
    apply_branches,
    basis_state,
    branch_unitaries,
    build_model,
    cooling_step,
    gamma_for,
    run,
    stochastic_trajectory,
    trotter_error,
    verify_fig2a,
    verify_fig2b,
)
from peigen import operators, trotter
from peigen.models import PAULI_X, PAULI_Y, PAULI_Z
from peigen.trotter import DimensionError, _coupled, _mode_x
from peigen.verify import TROTTER_ORDER_MODELS
from tests import reference
from tests.conftest import failure_step, random_hermitian, random_state_vector

RABI = Rabi(omega0=1.2, omega=0.8, g=1.0, cutoff=20)


def _norm(a):
    return float(np.linalg.norm(a, 2))


# ---------------------------------------------------------------------------
# branch unitaries and the Trotter error


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_joint_unitaries_refuse_a_non_finite_tau(tau, harmonic):
    # a nan tau would give all-nan branches, an infinite one nan columns
    psi = np.eye(30)[1]
    calls = [
        lambda: branch_unitaries(harmonic, tau, 1),
        lambda: apply_branches(harmonic, tau, 1, psi),
        lambda: apply_branches(harmonic, np.array([0.3, tau, 0.5]), 1, np.eye(30)[:, :3]),
        lambda: trotter_error(harmonic, tau, 1),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match=f"^tau must be finite, got {tau}$"):
            call()


def test_apply_branches_needs_a_trotter_step(harmonic):
    with pytest.raises(ValidationError, match="^Trotter steps r must be >= 1, got 0$"):
        apply_branches(harmonic, 0.3, 0, np.eye(30)[0])


@pytest.mark.parametrize("r", [1.5, True], ids=["float", "bool"])
def test_trotter_steps_must_be_an_integer(r, harmonic):
    # a cooling step's TrotterW refuses its r when it is built
    with pytest.raises(ValidationError, match=f"^Trotter steps r must be an integer, got {r}$"):
        apply_branches(harmonic, 0.3, r, np.eye(30)[0])
    with pytest.raises(ConfigError, match=f"^r must be an integer, got {r}$"):
        TrotterW(r)



@pytest.mark.parametrize(
    "model, size",
    [(Hubbard1D(sites=2, t=1.0, u=2.0), 17), (Rabi(omega0=1.2, omega=0.8, g=1.0, cutoff=4), 9)],
    ids=["hubbard", "rabi"],
)
@pytest.mark.parametrize("block", [False, True])
def test_apply_branches_refuses_a_wrong_dimension(model, size, block):
    h = build_model(model)
    x = np.ones((size, 3) if block else size, dtype=complex)
    with pytest.raises(DimensionError, match=f"^state dim {size} != operator dim {h.dim}$"):
        apply_branches(h, 0.3, 3, x)

# a column's branches are bitwise its own call where every group is a monomial;
# the Rabi coupling's dense group runs as one matrix product on the block
_BLOCK_MODELS = {
    "hubbard2": (Hubbard1D(2, t=1.0, u=2.0), 0.0),
    "hubbard3": (Hubbard1D(3, t=0.7, u=1.3), 0.0),
    "hubbard4": (Hubbard1D(4, t=0.9, u=1.7), 0.0),
    "harmonic": (HarmonicOscillator(omega=1.0, cutoff=30), 0.0),
    "rabi20": (RABI, 1e-15),
}


@pytest.mark.parametrize("m", [1, 2, 7])
@pytest.mark.parametrize("name", sorted(_BLOCK_MODELS))
def test_apply_branches_one_tau_per_column_equals_per_tau_calls(name, m):
    spec, tol = _BLOCK_MODELS[name]
    h = build_model(spec).with_gamma(0.37)
    rng = np.random.default_rng(m)
    x = np.stack([random_state_vector(rng, h.dim) for _ in range(m)], axis=1)
    taus = rng.uniform(0.01, 1.0, m)
    block = apply_branches(h, taus, 3, x)
    for j, tau in enumerate(taus):
        for got, want in zip(block, apply_branches(h, float(tau), 3, x[:, j].copy())):
            if tol == 0.0:
                assert np.array_equal(got[:, j], want)
            else:
                assert np.abs(got[:, j] - want).max() <= tol


@pytest.mark.parametrize(
    "tau, shape",
    [(np.array([0.1, 0.2]), (16, 3)), (np.array([0.1, 0.2]), (16,)), (np.full((2, 3), 0.1), (16, 3))],
    ids=["too-few-taus", "taus-for-a-vector", "2-d-taus"],
)
def test_apply_branches_refuses_taus_that_are_not_one_per_column(tau, shape):
    h = build_model(Hubbard1D(2, t=1.0, u=2.0))
    with pytest.raises(DimensionError, match=r"^tau shape .* != one tau per column of x"):
        apply_branches(h, tau, 3, np.ones(shape, dtype=complex))


@pytest.mark.parametrize(
    "tau, shape, need",
    [(0.3, (16,), 2816), (np.array([0.1, 0.2, 0.3]), (16, 3), 8448), (0.3, (16, 16), 14336)],
    ids=["vector", "one-tau-per-column", "identity"],
)
def test_apply_branches_is_refused_over_the_budget_before_its_tables(tau, shape, need, monkeypatch):
    """Hubbard L=2 at r=3 has 4 slots of 16 rows: a cos and a sin table of
    16 * 4 * 16 (* m) complex entries, then y, scratch and U_+ x, 3 * 16 * x.size."""
    h, x = build_model(Hubbard1D(2, t=1.0, u=2.0)), np.ones(shape, dtype=complex)
    with monkeypatch.context() as m:
        m.setattr(operators, "MEMORY_BUDGET_BYTES", need - 1)
        m.setattr(np, "sin", None)  # the first table
        with pytest.raises(DimensionError, match=f"^Trotter step of dim 16 needs at least {need:,} "):
            apply_branches(h, tau, 3, x)
    monkeypatch.setattr(operators, "MEMORY_BUDGET_BYTES", need)
    assert apply_branches(h, tau, 3, x)[0].shape == shape


def test_exact_w_is_unitary_and_block_diagonal_in_x(harmonic):
    # the joint property that lets the library read W through its branches
    w = reference.wgamma(harmonic, 0.3)
    assert w.shape == (60, 60)
    # sigma-x ancilla eigenvectors must be preserved branch-wise
    plus = np.array([1, 1]) / math.sqrt(2)
    v = np.kron(np.eye(30)[0], plus)
    out = w @ v
    # still a product state with ancilla |+>
    m = out.reshape(30, 2)
    s = np.linalg.svd(m, compute_uv=False)
    assert s[1] < 1e-12


def test_single_term_trotter_is_exact(harmonic):
    # one-term Hamiltonian: the symmetric product collapses to the exact map
    assert trotter_error(harmonic, 0.7, 1) < 1e-12


def test_trotter_tau_zero_is_identity():
    h = build_model(RABI)
    for u in branch_unitaries(h, 0.0, 3):
        assert _norm(u - np.eye(h.dim)) < 1e-12


def test_trotter_second_order_scaling():
    # doubling r should cut the error by ~4 (second-order product formula)
    h = build_model(RABI)
    ratio = trotter_error(h, 0.3, 2) / trotter_error(h, 0.3, 4)
    assert 3.4 < ratio < 4.6


def _random_terms(seed, real):
    """Three random dense Hermitian terms on dim 6, real symmetric if ``real``."""
    rng = np.random.default_rng(seed)
    mats = [random_hermitian(rng, 6) for _ in range(3)]
    return tuple((f"t{k}", m.real.astype(complex) if real else m) for k, m in enumerate(mats))


_ERROR_MODELS = {
    "rabi8": Rabi(omega0=1.2, omega=0.8, g=1.0, cutoff=8),
    "rabi20": RABI,
    "hubbard2": Hubbard1D(2, t=1.0, u=2.0),
    "custom-real": Custom(_random_terms(1, real=True)),
    "custom-complex": Custom(_random_terms(2, real=False)),
}


def _joint_distance(exact, trotterized):
    """||W - W~||_2 of the joints assembled from their sigma-x branches."""
    plus, minus = (np.eye(2) + PAULI_X) / 2, (np.eye(2) - PAULI_X) / 2
    (e_plus, e_minus), (t_plus, t_minus) = exact, trotterized
    return _norm(np.kron(e_plus - t_plus, plus) + np.kron(e_minus - t_minus, minus))


@pytest.mark.parametrize("r", [1, 2, 4])
@pytest.mark.parametrize("name", sorted(_ERROR_MODELS))
def test_trotter_error_is_the_dense_joint_distance(name, r, monkeypatch):
    def refuse(*args):
        raise AssertionError("trotter_error formed a 2d x 2d joint")

    h = build_model(_ERROR_MODELS[name]).with_gamma(0.37)
    for tau in (0.1, 0.3, 0.7):
        # the joint of the library's own branches: the branch maximum is its norm
        own = _joint_distance(trotter._exact_branches(h.total, h.gamma, tau), branch_unitaries(h, tau, r))
        # the joint of the scipy reference's branches: they agree with the
        # library's to about 2e-16 absolute, more than 1e-12 of an error of 1e-4
        ref = _joint_distance(reference.exact_branches(h, tau), reference.trotter_branches(h, tau, r))
        with monkeypatch.context() as m:
            m.setattr(trotter, "_assemble", refuse)
            got = trotter_error(h, tau, r)
        assert abs(got - own) <= 1e-12 * own
        assert abs(got - ref) <= 1e-12 * ref + 1e-15


_BRANCH_MODELS = {
    **dict(TROTTER_ORDER_MODELS),
    "custom-complex": Custom(_random_terms(3, real=False)),
}


@pytest.mark.parametrize("r", [1, 2, 4, 8])
@pytest.mark.parametrize("name", list(_BRANCH_MODELS))
def test_trotter_error_reads_one_branch(name, r):
    """The symmetric sweep has U~(-tau) = U~(tau)^-1 and U_-(tau) = U_+(-tau), so
    both branch distances are one number; `trotter_error` reads the U_+ one."""
    h = build_model(_BRANCH_MODELS[name])
    h = h.with_gamma(gamma_for(h, Exact()))
    exact, trotterized = trotter._exact_branches(h.total, h.gamma, 0.3), branch_unitaries(h, 0.3, r)
    plus, minus = (_norm(e - t) for e, t in zip(exact, trotterized))
    assert trotter_error(h, 0.3, r) == plus
    assert abs(minus - plus) <= 1e-12 * plus


@settings(max_examples=25, deadline=None)
@given(
    st.floats(0.01, 1.5, allow_nan=False),
    st.integers(1, 6),
)
def test_trotter_w_always_unitary(tau, r):
    # W is unitary exactly when both of its branches are
    h = build_model(Rabi(omega0=1.2, omega=0.8, g=1.0, cutoff=8))
    for u in branch_unitaries(h, tau, r):
        assert _norm(u @ u.conj().T - np.eye(h.dim)) < 1e-10


def test_wgamma_decomposition_identity(harmonic):
    tau = 0.45
    for h in (harmonic, harmonic.with_gamma(0.7)):  # at gamma 0 the rotation is the identity
        w0, angle = reference.wgamma_decompose(h, tau)
        assert angle == pytest.approx(2 * h.gamma * tau)
        lhs = reference.wgamma(h, tau)
        rhs = w0 @ reference.ancilla_x_rotation(30, angle)
        assert _norm(lhs - rhs) < 1e-12
        # the two factors commute
        assert _norm(rhs - reference.ancilla_x_rotation(30, angle) @ w0) < 1e-12


# ---------------------------------------------------------------------------
# circuit-identity checks


def test_number_x_primitive_matches_direct_exponential():
    # _coupled(O, phi) == exp(-i phi/2 O (x) sigma_x^A), the primitive both
    # Fig. 2 targets rest on: O = n, X X (Fig. 2a) and X (a + a^dag) (Fig. 2b)
    from scipy.linalg import expm

    phi = 0.8
    for o in (
        np.diag(np.arange(6, dtype=float)),
        np.kron(PAULI_X, PAULI_X),
        np.kron(PAULI_X, _mode_x(6)),
    ):
        direct = expm(-1j * phi / 2 * np.kron(o, PAULI_X))
        assert _norm(_coupled(o, phi) - direct) < 1e-12


def test_primitive_rejects_nonfinite_phi():
    with pytest.raises(ValidationError):
        verify_fig2a(math.inf)
    with pytest.raises(ValidationError):
        verify_fig2b(math.inf, 24)


@pytest.mark.parametrize("phi", [0.0, 0.7, math.pi])
def test_xxx_decomposition_identity(phi):
    assert verify_fig2a(phi) < 1e-10


def test_xxx_decomposition_detects_missing_cnot():
    assert verify_fig2a(0.7, drop_final_cnot=True) > 0.01


@pytest.mark.parametrize("phi", [0.0, 0.5])
def test_dipole_decomposition_identity(phi):
    assert verify_fig2b(phi, 24) < 1e-8


def test_dipole_decomposition_detects_missing_cnots():
    assert verify_fig2b(0.5, 24, drop_cnots=True) > 0.01


def test_dipole_check_rejects_tiny_cutoff():
    with pytest.raises(ValidationError):
        verify_fig2b(0.5, 4)


def test_dipole_check_reports_inconclusive_truncation():
    # phi=6 pushes displacement tails far past a cutoff-8 working space
    with pytest.raises(TruncationLeakageError):
        verify_fig2b(6.0, 8)


# ---------------------------------------------------------------------------
# matrix-free Trotter branches against a dense scipy product formula


def _custom_terms(seed):
    """A diagonal, a complex signed-permutation and a dense Hermitian term."""
    rng = np.random.default_rng(seed)
    dim = 6
    diag = np.diag(rng.normal(size=dim)).astype(complex)
    perm = np.zeros((dim, dim), dtype=complex)
    # pairs (0,3) and (1,5); 2 a fixed point, 4 a zero row
    perm[[0, 1], [3, 5]] = rng.normal(size=2) + 1j * rng.normal(size=2)
    perm += perm.conj().T
    perm[2, 2] = rng.normal()
    return (("diag", diag), ("perm", perm), ("dense", random_hermitian(rng, dim)))


def _check_step(state, h, tau, r, tol=1e-10, branches=None):
    """Both outcomes of a Trotter step against the dense reference; outcome 1
    is the kept branch of the step at gamma - pi / (2 tau)."""
    u_plus, u_minus = branches or reference.trotter_branches(h, tau, r)
    steps = (cooling_step(state, h, tau, TrotterW(r)), failure_step(state, h, tau, TrotterW(r)))
    for (p_ref, rho_ref), (out, p) in zip(reference.branch_densities(state, u_plus, u_minus), steps):
        assert abs(p - p_ref) <= tol
        assert out.is_pure == state.is_pure
        assert np.abs(out.density() - rho_ref).max() <= tol
    return u_plus, u_minus


def _pauli(*factors):
    return functools.reduce(np.kron, factors)


def _noncommuting_terms():
    """sigma_x then sigma_y on one qubit: one flip pattern, but they do not
    commute, so they must stay separate factors."""
    i2 = np.eye(2)
    return (
        ("x", 0.7 * _pauli(PAULI_X, i2)),
        ("y", -0.4 * _pauli(PAULI_Y, i2)),
        ("zz", 0.9 * _pauli(PAULI_Z, PAULI_Z)),
    )


def _diagonal_tail_terms(seed):
    """A Pauli string, then three diagonals that fuse into the last,
    full-step group."""
    rng = np.random.default_rng(seed)
    i2 = np.eye(2)
    hop = (
        ("xzx", 0.8 * _pauli(PAULI_X, PAULI_Z, PAULI_X)),
        ("yiy", 0.5 * _pauli(PAULI_Y, i2, PAULI_Y)),
    )
    return hop + tuple((f"d{k}", np.diag(rng.normal(size=8)).astype(complex)) for k in range(3))


DIFFERENTIAL_MODELS = {
    "custom": Custom(_custom_terms(5)),
    "noncommuting": Custom(_noncommuting_terms()),
    "diagonal_tail": Custom(_diagonal_tail_terms(7)),
    "single_term": Custom(_custom_terms(9)[1:2]),
    "rabi8": Rabi(omega0=1.2, omega=0.8, g=1.0, cutoff=8),
    "hubbard2": Hubbard1D(2, t=1.0, u=2.0),
    "hubbard3": Hubbard1D(3, t=0.7, u=1.3),
    "hubbard4": Hubbard1D(4, t=0.9, u=1.7),
}


@pytest.mark.parametrize("r", [1, 2, 3, 8])
@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_MODELS))
def test_trotter_apply_matches_dense_product_formula(name, r):
    h = build_model(DIFFERENTIAL_MODELS[name]).with_gamma(0.37)
    tau = 0.83
    rng = np.random.default_rng(r)
    psi = random_state_vector(rng, h.dim)
    w = random_hermitian(rng, h.dim)
    rho = w @ w.conj().T
    rho /= np.trace(rho).real

    real_psi = psi.real / np.linalg.norm(psi.real)  # one signed sweep on a real model

    u_plus, u_minus = _check_step(QuantumState(psi), h, tau, r)
    _check_step(QuantumState(real_psi), h, tau, r, branches=(u_plus, u_minus))
    _check_step(QuantumState(rho), h, tau, r, branches=(u_plus, u_minus))
    for got, want in zip(branch_unitaries(h, tau, r), (u_plus, u_minus)):
        assert np.abs(got - want).max() <= 1e-10
    for x in (psi, real_psi):
        for got, want in zip(apply_branches(h, tau, r, x), (u_plus @ x, u_minus @ x)):
            assert np.abs(got - want).max() <= 1e-10


def _count_sweeps(monkeypatch):
    """The list that each signed sweep of `apply_branches` appends to."""
    sweeps, sweep = [], trotter._sweep

    def counting(*args):
        sweeps.append(1)
        return sweep(*args)

    monkeypatch.setattr(trotter, "_sweep", counting)
    return sweeps


_REAL_MODELS = {
    name: DIFFERENTIAL_MODELS[name]
    for name in ("hubbard2", "hubbard3", "hubbard4", "rabi8", "diagonal_tail")
} | {"rabi20": RABI}
_COMPLEX_MODELS = ("custom", "noncommuting", "single_term")


def _real_calls(h):
    """(tau, x) of each call shape on real x: one tau on a vector (complex
    dtype, as `QuantumState` holds it, and float), one tau per column of a
    block, and the identity of `branch_unitaries`."""
    rng = np.random.default_rng(h.dim)
    psi = rng.normal(size=h.dim)
    psi /= np.linalg.norm(psi)
    block = rng.normal(size=(h.dim, 3))
    return [
        (0.83, psi.astype(complex)),
        (0.83, psi),
        (np.array([0.2, 0.5, 1.1]), block / np.linalg.norm(block, axis=0)),
        (0.83, np.eye(h.dim, dtype=complex)),
    ]


@pytest.mark.parametrize("name", sorted(_REAL_MODELS))
def test_a_real_model_on_a_real_state_runs_one_signed_sweep(name, monkeypatch):
    h = build_model(_REAL_MODELS[name]).with_gamma(0.37)
    plan = trotter._plan(h)
    assert plan.real
    sweeps = _count_sweeps(monkeypatch)
    for tau, x in _real_calls(h):
        del sweeps[:]
        u_plus, u_minus = apply_branches(h, tau, 3, x)
        assert len(sweeps) == 1
        monkeypatch.setattr(plan, "real", False)  # both signed sweeps, each on its own
        two = apply_branches(h, tau, 3, x)
        monkeypatch.setattr(plan, "real", True)
        assert len(sweeps) == 3
        assert np.array_equal(u_plus, two[0]) and np.array_equal(u_minus, two[1])
    del sweeps[:]
    u = branch_unitaries(h, 0.83, 3)
    assert len(sweeps) == 1 and np.array_equal(u[1], u[0].conj())


@pytest.mark.parametrize("name", _COMPLEX_MODELS)
def test_a_complex_model_runs_both_signed_sweeps(name, monkeypatch):
    h = build_model(DIFFERENTIAL_MODELS[name]).with_gamma(0.37)
    assert not trotter._plan(h).real
    sweeps = _count_sweeps(monkeypatch)
    for tau, x in _real_calls(h):
        del sweeps[:]
        apply_branches(h, tau, 3, x)
        assert len(sweeps) == 2


@pytest.mark.parametrize("name", sorted(_REAL_MODELS))
def test_a_real_model_on_a_complex_state_runs_both_signed_sweeps(name, monkeypatch):
    h = build_model(_REAL_MODELS[name]).with_gamma(0.37)
    sweeps = _count_sweeps(monkeypatch)
    psi = random_state_vector(np.random.default_rng(4), h.dim)
    apply_branches(h, 0.83, 3, psi)
    apply_branches(h, np.array([0.3, 0.7]), 3, np.stack([psi.real, psi], axis=1))
    assert len(sweeps) == 4


def test_custom_terms_structure():
    h = build_model(DIFFERENTIAL_MODELS["custom"])
    kinds = {label: term.monomial() is not None for label, term in h.terms}
    assert kinds == {"diag": True, "perm": True, "dense": False}


def _group_count(name):
    return len(trotter._plan(build_model(DIFFERENTIAL_MODELS[name])).groups)


def test_sweep_plan_fuses_only_commuting_neighbours():
    # XX/YY of each Hubbard bond and spin fuse, and so do the on-site terms
    assert [_group_count(f"hubbard{n}") for n in (2, 3, 4)] == [3, 5, 7]
    assert _group_count("noncommuting") == 3
    assert _group_count("diagonal_tail") == 2
    assert _group_count("custom") == 3


@pytest.mark.parametrize("r", [1, 3])
def test_sweep_plan_merges_seams(r):
    h = build_model(Hubbard1D(4, t=1.0, u=2.0))
    steps, kmag, _, _ = trotter._plan(h).program(r)
    # 7 groups: 12 factors per sweep plus one, against 31 per sweep unfused
    assert len(steps) == 12 * r + 1
    assert len(kmag) == 7 + (r > 1)  # the seams add a full step on group 0
    single, _, _, _ = trotter._plan(build_model(DIFFERENTIAL_MODELS["single_term"])).program(r)
    assert len(single) == 1  # r full steps of one term merge into one


def test_with_gamma_copies_share_the_plan():
    h = build_model(Hubbard1D(2, t=1.0, u=2.0))
    hg = h.with_gamma(0.4)
    plan = trotter._plan(hg)
    assert trotter._plan(h) is plan
    assert trotter._plan(hg.with_gamma(-0.2)) is plan
    assert trotter._plan(h.with_gamma(1.0)) is plan


def test_run_and_trajectories_build_the_plan_once(monkeypatch):
    built = []

    class CountingPlan(trotter._SweepPlan):
        def __init__(self, terms):
            built.append(terms)
            super().__init__(terms)

    monkeypatch.setattr(trotter, "_SweepPlan", CountingPlan)
    spec = Hubbard1D(4, t=1.0, u=2.0)
    h = build_model(spec)
    psi = basis_state(spec, "uuddudud")
    config = RunConfig(mode=FixedStep(0.4), max_stages=2, operator_mode=TrotterW(3))
    trace = run(psi, h, config)
    for seed in (1, 2):
        stochastic_trajectory(psi, h, replace(config, seed=seed), trace.schedule)
    assert len(built) == 1


def test_fresh_models_never_reuse_stale_term_structure():
    # Models are built and freed in a loop, so CPython recycles the ids of
    # their terms; each step must still use its own terms' structure, and
    # each fresh model gets its own sweep plan.
    psi = QuantumState(random_state_vector(np.random.default_rng(11), 16))
    for i in range(30):
        h = build_model(Hubbard1D(2, t=0.5 + 0.1 * i, u=3.0 - 0.07 * i))
        assert h._plan is None
        hg = h.with_gamma(0.2 * i)
        _check_step(psi, hg, 0.6, 2)
        assert hg._plan is None and h._plan is trotter._plan(hg)
        del h, hg
        gc.collect()


@pytest.mark.parametrize(
    "entries",
    [{(0, 1): 1e-13}, {(0, 1): 1e-13, (1, 0): 2e-13}],
    ids=["mirror-zero", "mirror-unequal"],
)
def test_nearly_hermitian_term_falls_back_to_eigensystem(entries):
    # Hermitian only within HERMITICITY_ATOL: the closed form would use a
    # wrong pattern or wrong values, so the term must not be monomial.
    diag = np.diag([1.0, -0.5, 0.3, 0.9]).astype(complex)
    odd = np.diag([0.0, 0.0, 0.4, -1.2]).astype(complex)
    for ij, v in entries.items():
        odd[ij] = v
    h = build_model(Custom((("diag", diag), ("odd", odd)))).with_gamma(0.1)
    assert h.terms[1][1].monomial() is None
    psi = QuantumState(random_state_vector(np.random.default_rng(3), 4))
    for r in (1, 3):
        _check_step(psi, h, 0.9, r)
