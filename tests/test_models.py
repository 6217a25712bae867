import math
import tracemalloc
import warnings
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peigen import (
    ConfigError,
    CutoffError,
    Custom,
    DimensionError,
    Exact,
    Fixed,
    FixedStep,
    HarmonicOscillator,
    HermitianOperator,
    Hubbard1D,
    NegativeShiftWarning,
    NormBound,
    QuantumState,
    Rabi,
    RunConfig,
    SumHamiltonian,
    TargetLevel,
    TrotterW,
    ValidationError,
    Variational,
    apply_branches,
    basis_state,
    build_model,
    exact_spectrum,
    expectation,
    gamma_for,
    hubbard_sector_label,
    run,
    stochastic_trajectory,
    thermal_state,
)
from peigen import models, operators
from peigen.models import (
    I2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    hubbard_basis_index,
    model_dim,
    rabi_basis_index,
)
from tests.conftest import random_state_vector
from tests.reference import hubbard_sector_minimum

RABI_DSC = Rabi(omega0=1.2, omega=0.8, g=1.0, cutoff=20)


# ---------------------------------------------------------------------------
# harmonic oscillator


def test_harmonic_spectrum_is_ladder():
    h = build_model(HarmonicOscillator(omega=1.0, cutoff=5))
    evals, _ = exact_spectrum(h)
    assert np.allclose(evals, [0, 1, 2, 3, 4], atol=1e-12)


def test_harmonic_omega_scales():
    h = build_model(HarmonicOscillator(omega=0.37, cutoff=6))
    evals, _ = exact_spectrum(h)
    assert np.allclose(evals, 0.37 * np.arange(6), atol=1e-12)


def test_thermal_state_weights():
    rho = thermal_state(HarmonicOscillator(omega=1.0, cutoff=30), 0.5)
    d = np.diag(rho.data).real
    # nbar=0.5 -> q=1/3: p_n = (2/3)(1/3)^n
    assert abs(d[0] - 2 / 3) < 1e-9
    assert abs(d[1] - 2 / 9) < 1e-9
    assert abs(d.sum() - 1.0) < 1e-12
    assert np.all(np.diff(d) <= 0)


def test_thermal_state_nbar_zero_is_ground():
    psi = thermal_state(HarmonicOscillator(omega=1.0, cutoff=10), 0.0)
    assert psi.is_pure and abs(psi.data[0] - 1.0) < 1e-15


def test_thermal_state_cutoff_tail_guard():
    with pytest.raises(CutoffError):
        thermal_state(HarmonicOscillator(omega=1.0, cutoff=5), 5.0)


@pytest.mark.parametrize("nbar", [math.nan, math.inf, -math.inf])
def test_thermal_state_refuses_a_non_finite_nbar(nbar):
    with pytest.raises(ValidationError, match=rf"^nbar must be finite, got {nbar!r}$"):
        thermal_state(HarmonicOscillator(omega=1.0, cutoff=30), nbar)


# ---------------------------------------------------------------------------
# quantum Rabi model


def test_rabi_decoupled_spectrum():
    cutoff = 12
    h = build_model(Rabi(omega0=1.2, omega=0.8, g=0.0, cutoff=cutoff))
    evals, _ = exact_spectrum(h)
    want = sorted(s * 0.6 + n * 0.8 for s in (1, -1) for n in range(cutoff))
    assert np.allclose(evals, want, atol=1e-10)


def test_rabi_cutoff_convergence():
    e20 = exact_spectrum(build_model(RABI_DSC))[0][0]
    e40 = exact_spectrum(build_model(Rabi(1.2, 0.8, 1.0, 40)))[0][0]
    assert abs(e20 - e40) < 1e-6


def test_rabi_has_two_terms_in_trotter_order():
    h = build_model(RABI_DSC)
    labels = [name for name, _ in h.terms]
    assert labels == ["free", "coupling"]


def test_rabi_basis_label():
    psi = basis_state(RABI_DSC, "down,0")
    # qubit-first layout: |down> is the second 20-dim block
    assert abs(psi.data[20] - 1.0) < 1e-15
    e = expectation(psi, build_model(RABI_DSC).total)
    assert abs(e - (-0.6)) < 1e-12  # -omega0/2


def test_rabi_bad_label():
    with pytest.raises(ConfigError):
        basis_state(RABI_DSC, "sideways,0")


# ---------------------------------------------------------------------------
# Hubbard chain under Jordan-Wigner


def test_hubbard_single_site_spectrum():
    h = build_model(Hubbard1D(sites=1, t=1.0, u=2.0))
    evals, _ = exact_spectrum(h)
    assert np.allclose(sorted(evals), [0.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_hubbard_two_site_ground_energy_analytic():
    h = build_model(Hubbard1D(sites=2, t=1.0, u=2.0))
    evals, _ = exact_spectrum(h)
    assert abs(evals[0] - (1 - math.sqrt(5))) < 1e-12


def test_hubbard_basis_labels_and_sectors():
    spec = Hubbard1D(sites=2, t=1.0, u=2.0)
    psi = basis_state(spec, "uudd")  # doublon on site 1
    assert hubbard_sector_label(psi, 2) == "n_up=1 n_dn=1"
    psi3 = basis_state(Hubbard1D(sites=3, t=1.0, u=2.0), "dduudd")
    assert hubbard_sector_label(psi3, 3) == "n_up=1 n_dn=1"


def test_hubbard_sector_minimum_matches_global_for_half_filling():
    h = build_model(Hubbard1D(sites=2, t=1.0, u=2.0))
    smin = hubbard_sector_minimum(h, 2, 1, 1)
    assert abs(smin - (1 - math.sqrt(5))) < 1e-12
    # the empty sector holds only the zero of energy
    assert abs(hubbard_sector_minimum(h, 2, 0, 0)) < 1e-12


def test_hubbard_sector_minimum_refuses_a_wrong_chain_length():
    h = build_model(Hubbard1D(sites=4, t=1.0, u=2.0))
    with pytest.raises(DimensionError):
        hubbard_sector_minimum(h, 3, 1, 1)  # L=3 indexes only the first 64 states


@pytest.mark.parametrize("wrong_l", [3, 5])
def test_hubbard_sector_label_refuses_a_wrong_chain_length(wrong_l):
    psi = basis_state(Hubbard1D(sites=4, t=1.0, u=2.0), "udududud")
    with pytest.raises(DimensionError, match=f"L={wrong_l} needs dim {4**wrong_l}"):
        hubbard_sector_label(psi, wrong_l)
    with pytest.raises(DimensionError):
        hubbard_sector_label(QuantumState(psi.density()), wrong_l)


def test_hubbard_sector_label_indefinite():
    spec = Hubbard1D(sites=2, t=1.0, u=2.0)
    a = basis_state(spec, "uudd").data
    b = basis_state(spec, "uddd").data  # one particle fewer
    mix = (a + b) / math.sqrt(2)
    from peigen import QuantumState

    assert hubbard_sector_label(QuantumState(mix), 2) == "indefinite"


# Dense reference: the Jordan-Wigner chain as reduce(np.kron) Pauli strings.


def _pauli_string_ref(n_spins, ops):
    return reduce(np.kron, [ops.get(i, I2) for i in range(n_spins)])


def _hubbard_terms_ref(spec):
    L, t, u = spec.sites, spec.t, spec.u
    n = 2 * L
    terms = []
    for i in range(L - 1):
        for s, sname in ((0, "up"), (1, "dn")):
            p, q = 2 * i + s, 2 * (i + 1) + s
            mid = {r: PAULI_Z for r in range(p + 1, q)}
            xs = _pauli_string_ref(n, {p: PAULI_X, **mid, q: PAULI_X})
            ys = _pauli_string_ref(n, {p: PAULI_Y, **mid, q: PAULI_Y})
            terms.append((f"hop({i + 1}-{i + 2},{sname},xx)", -t / 2 * xs))
            terms.append((f"hop({i + 1}-{i + 2},{sname},yy)", -t / 2 * ys))
    eye = np.eye(2**n)
    for i in range(L):
        n_up = (eye + _pauli_string_ref(n, {2 * i: PAULI_Z})) / 2
        n_dn = (eye + _pauli_string_ref(n, {2 * i + 1: PAULI_Z})) / 2
        terms.append((f"int(site{i + 1})", u * (n_up @ n_dn)))
    return terms


@pytest.mark.parametrize("sites", [1, 2, 3, 4])
@pytest.mark.parametrize("t, u", [(1.0, 2.0), (0.7, -1.3)])
def test_hubbard_structured_terms_match_pauli_strings(sites, t, u):
    spec = Hubbard1D(sites=sites, t=t, u=u)
    h = build_model(spec)
    ref = _hubbard_terms_ref(spec)
    assert [label for label, _ in h.terms] == [label for label, _ in ref]
    acc = np.zeros_like(ref[0][1])
    for _, m in ref:
        acc = acc + m
    assert np.array_equal(h.total.mat, acc)
    # the total scatters the structure; no term formed its dense matrix
    assert all(term._mat is None for _, term in h.terms)
    for (_, term), (_, m) in zip(h.terms, ref):
        assert np.array_equal(term.mat, m)


@pytest.mark.parametrize("cutoff", [8, 100])
def test_rabi_terms_match_dense_build(cutoff):
    spec = Rabi(omega0=1.2, omega=0.8, g=1.0, cutoff=cutoff)
    a = np.diag(np.sqrt(np.arange(1, cutoff, dtype=float)), k=1)
    num = np.diag(np.arange(cutoff, dtype=float))
    free = 0.5 * spec.omega0 * np.kron(PAULI_Z, np.eye(cutoff)) + spec.omega * np.kron(I2, num)
    coupling = spec.g * np.kron(PAULI_X, a + a.conj().T)
    h = build_model(spec)
    assert [label for label, _ in h.terms] == ["free", "coupling"]
    # built from structure: no term and not the total formed a dense matrix
    assert all(term._mat is None for _, term in h.terms)
    assert h.total._mat is None and h.total._rest is None
    assert np.array_equal(h.total.mat, free + coupling)
    assert np.array_equal(h.terms[0][1].mat, free)
    assert np.array_equal(h.terms[1][1].mat, coupling)


def _bits(a):
    return np.asarray(a).tobytes()


@pytest.mark.parametrize("g", [0.0, 1.0, -0.7])
@pytest.mark.parametrize("cutoff", [2, 3, 4, 20, 101])
def test_rabi_coupling_structure_is_bitwise_the_dense_build(cutoff, g):
    # cutoff 2 leaves one monomial part and g = 0 a zero diagonal, as the
    # dense matrix read by HermitianOperator(mat) does
    h = build_model(Rabi(omega0=1.2, omega=0.8, g=g, cutoff=cutoff))
    a = np.diag(np.sqrt(np.arange(1, cutoff, dtype=float)), k=1)
    dense = HermitianOperator(g * np.kron(PAULI_X, a + a.T))
    ref = SumHamiltonian((("free", h.terms[0][1]), ("coupling", dense)))
    coupling = h.terms[1][1]
    # equal values; the dense g * 0 zeros carry the sign of g
    assert np.array_equal(coupling.mat, dense.mat)
    got, want = coupling.monomial(), dense.monomial()
    assert (got is None) == (want is None)
    if got is not None:
        assert _bits(got[0]) == _bits(want[0]) and _bits(got[1]) == _bits(want[1])
    for op, op_ref in ((coupling, dense), (h.total, ref.total)):
        assert all(_bits(x) == _bits(y) for x, y in zip(op.eigensystem(), op_ref.eigensystem()))
    psi = random_state_vector(np.random.default_rng(cutoff), h.dim)
    branches = apply_branches(h.with_gamma(0.4), 0.3, 3, psi)
    want_branches = apply_branches(ref.with_gamma(0.4), 0.3, 3, psi)
    assert all(_bits(x) == _bits(y) for x, y in zip(branches, want_branches))


def test_harmonic_total_matches_dense_build():
    spec = HarmonicOscillator(omega=0.37, cutoff=30)
    h = build_model(spec)
    assert np.array_equal(h.total.mat, np.diag(spec.omega * np.arange(30.0)))
    assert h.terms[0][1]._mat is None


@pytest.mark.parametrize("sites", [1, 2, 3])
def test_hubbard_sector_helpers_match_pauli_strings(sites):
    n = 2 * sites
    eye = np.eye(2**n)
    want = [
        sum((eye + _pauli_string_ref(n, {2 * i + s: PAULI_Z})) / 2 for i in range(sites))
        for s in (0, 1)
    ]
    counts = [np.diag(w).real.astype(int) for w in want]
    h = build_model(Hubbard1D(sites=sites, t=1.0, u=2.0))
    for w in want:  # H conserves N_up and N_dn
        assert np.abs(h.total.mat @ w - w @ h.total.mat).max() < 1e-12
    for idx in range(2**n):
        psi = QuantumState(np.eye(2**n)[idx])
        assert hubbard_sector_label(psi, sites) == f"n_up={counts[0][idx]} n_dn={counts[1][idx]}"
    for nu in range(sites + 1):
        for nd in range(sites + 1):
            keep = np.flatnonzero((counts[0] == nu) & (counts[1] == nd))
            want_min = np.linalg.eigvalsh(h.total.mat[np.ix_(keep, keep)]).min()
            assert abs(hubbard_sector_minimum(h, sites, nu, nd) - want_min) < 1e-12


def test_hubbard_l5_builds_and_steps_without_dense_terms():
    # d = 1024: one dense complex term is 16.8 MB; the chain has 21 terms
    tracemalloc.start()
    try:
        h = build_model(Hubbard1D(sites=5, t=1.0, u=2.0))
        gamma = gamma_for(h, NormBound())
        psi = basis_state(Hubbard1D(sites=5, t=1.0, u=2.0), "uddu" + "duud" + "ud").data
        up, um = apply_branches(h, 0.3, 2, psi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(h.terms) == 21 and h.dim == 1024
    assert all(term._mat is None for _, term in h.terms)
    assert peak < 16 * 2**20
    assert abs(gamma - (16 * 0.5 + 5 * 2.0)) < 1e-12
    assert abs(np.linalg.norm(up) - 1) < 1e-12 and abs(np.linalg.norm(um) - 1) < 1e-12


def test_hubbard_trotter_run_forms_no_dense_term():
    # one variational TrotterW(3) stage with gamma = -E0 on the L=4 chain
    spec = Hubbard1D(sites=4, t=1.0, u=2.0)
    h = build_model(spec)
    config = RunConfig(
        mode=Variational(), gamma_policy=Exact(), max_stages=1, operator_mode=TrotterW(3)
    )
    trace = run(basis_state(spec, "uudduddu"), h, config)
    assert trace.n_stages == 1
    # gamma, energies and the steps all read the structure: no dense H at all
    assert h.total._mat is None
    assert all(term._mat is None for _, term in h.terms)


def test_exact_spectrum_forms_no_dense_total():
    h = build_model(Hubbard1D(sites=5, t=1.0, u=2.0))
    evals, _ = exact_spectrum(h)
    assert evals.shape == (1024,)
    assert h.total._mat is None
    assert all(term._mat is None for _, term in h.terms)


def _over_budget(what, need):
    return f"^{what} needs at least {need} bytes, over the 2,147,483,648-byte budget$"


def test_hubbard_size_guard(no_eigensolver):
    """The one size rule is the memory budget: L=7 builds, but its
    eigenvectors (16 * 16384² bytes) plus the block buffer (16 * 3432², the sum
    of its (N_up, N_dn) sector sizes squared) are refused before either exists."""
    h = build_model(Hubbard1D(sites=7, t=1.0, u=2.0))
    with pytest.raises(DimensionError, match=_over_budget("eigensolve of dim 16384", "4,483,425,280")):
        h.total.eigensystem()
    assert h.total._eig is None and h.total._evals is None


def test_hubbard_build_is_refused_over_the_budget_before_it_allocates(monkeypatch):
    """occ's 2L int64 rows and each of the 5L - 4 terms' perm and complex vals:
    (16 L + 24 (5L - 4)) 4^L bytes, 2,816 at L=2 (test_cli refuses L=12 and 40)."""

    def refuse(L):
        raise AssertionError("the build allocated over the budget")

    with monkeypatch.context() as m:
        m.setattr(models, "_hubbard_occupations", refuse)  # the first array the build makes
        m.setattr(operators, "MEMORY_BUDGET_BYTES", 2815)
        with pytest.raises(DimensionError, match="^Hubbard chain of 2 sites needs at least 2,816 bytes, "):
            build_model(Hubbard1D(sites=2, t=1.0, u=2.0))
    monkeypatch.setattr(operators, "MEMORY_BUDGET_BYTES", 2816)
    assert build_model(Hubbard1D(sites=2, t=1.0, u=2.0)).dim == 16


def test_hubbard_8_exact_gamma_is_refused_by_the_values_only_buffer(no_eigensolver):
    # L=8's values-only block buffer alone, 16 * 12870² bytes, is over the budget:
    # Exact gamma and Fixed gamma below the norm bound (its warning reads E0) need it
    h = build_model(Hubbard1D(sites=8, t=1.0, u=2.0))
    for policy in (Exact(), Fixed(0.5)):
        with pytest.raises(DimensionError, match=_over_budget("eigensolve of dim 65536", "2,650,190,400")):
            gamma_for(h, policy)
    assert gamma_for(h, Fixed(100.0)) == 100.0  # at or above the norm bound: no solve
    assert h.total._eig is None and h.total._evals is None


def test_hubbard_7_trotter_run_solves_no_eigensystem():
    spec = Hubbard1D(sites=7, t=1.0, u=2.0)
    h = build_model(spec)
    config = RunConfig(
        mode=Variational(), gamma_policy=NormBound(), max_stages=1, operator_mode=TrotterW(3)
    )
    trace = run(basis_state(spec, "udduudduudduud"), h, config)
    assert trace.n_stages == 1 and len(trace.stages[0].trials) == 12
    assert h.total._eig is None and h.total._evals is None
    assert all(term._eig is None and term._evals is None for _, term in h.terms)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Hubbard1D(0, 1.0, 2.0), ValidationError, "sites must be >= 1, got 0"),
        (lambda: Rabi(math.nan, 0.8, 1.0, 4), ValidationError, "omega0 must be finite, got nan"),
        (lambda: SumHamiltonian(()), ValidationError, "SumHamiltonian needs at least one term"),
        (
            lambda: SumHamiltonian(
                (("a", HermitianOperator(np.eye(2))), ("b", HermitianOperator(np.eye(3))))
            ),
            DimensionError,
            "terms have mixed dimensions [2, 3]",
        ),
        (
            lambda: thermal_state(HarmonicOscillator(1.0, 4), -1.0),
            ValidationError,
            "nbar must be >= 0, got -1.0",
        ),
        (
            lambda: rabi_basis_index(Rabi(1.2, 0.8, 1.0, 4), "up", 4),
            ConfigError,
            "Fock label 4 out of range for cutoff 4",
        ),
        (
            lambda: hubbard_basis_index(Hubbard1D(2, 1.0, 2.0), "uux"),
            ConfigError,
            "pattern 'uux' must have one u/d per mode (4 modes)",
        ),
        (
            lambda: hubbard_sector_minimum(build_model(Hubbard1D(2, 1.0, 2.0)), 2, 3, 0),
            ConfigError,
            "empty sector n_up=3, n_dn=0 for L=2",
        ),
        (
            lambda: gamma_for(build_model(HarmonicOscillator(1.0, 4)), TargetLevel(99)),
            ConfigError,
            "target level 99 out of range for dim 4",
        ),
    ],
    ids=[
        "hubbard-no-sites",
        "rabi-nan-omega0",
        "sum-of-no-terms",
        "sum-of-mixed-dims",
        "thermal-negative-nbar",
        "rabi-fock-label-at-cutoff",
        "hubbard-bad-pattern",
        "hubbard-empty-sector",
        "gamma-target-out-of-range",
    ],
)
def test_model_inputs_are_refused(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("value", [2.5, True, "3", None], ids=["float", "bool", "str", "none"])
@pytest.mark.parametrize(
    "make, field, error",
    [
        (lambda v: HarmonicOscillator(1.0, cutoff=v), "cutoff", ValidationError),
        (lambda v: Rabi(1.2, 0.8, 1.0, cutoff=v), "cutoff", ValidationError),
        (lambda v: Hubbard1D(v, 1.0, 2.0), "sites", ValidationError),
        (lambda v: TargetLevel(v), "level", ConfigError),
    ],
    ids=["harmonic-cutoff", "rabi-cutoff", "hubbard-sites", "target-level"],
)
def test_integer_fields_refuse_what_the_json_reader_refuses(make, field, error, value):
    # the type is checked before the bound, so no field reaches a bit shift or an index
    with pytest.raises(error) as info:
        make(value)
    assert type(info.value) is error
    assert str(info.value) == f"{field} must be an integer, got {value}"


@pytest.mark.parametrize("value", ["1.2", None, [2.0], True, np.True_], ids=["str", "none", "list", "bool", "np-bool"])
@pytest.mark.parametrize(
    "make, field",
    [
        (lambda v: HarmonicOscillator(v, 30), "omega"),
        (lambda v: Rabi(v, 0.8, 1.0, 20), "omega0"),
        (lambda v: Rabi(1.2, 0.8, v, 20), "g"),
        (lambda v: Hubbard1D(2, v, 2.0), "t"),
        (lambda v: Hubbard1D(2, 1.0, v), "u"),
        (lambda v: Fixed(v), "value"),
        (lambda v: build_model(HarmonicOscillator(1.0, 4)).with_gamma(v), "gamma"),
        (lambda v: thermal_state(HarmonicOscillator(1.0, 30), v), "nbar"),
    ],
    ids=["harmonic-omega", "rabi-omega0", "rabi-g", "hubbard-t", "hubbard-u", "fixed-gamma", "with-gamma", "thermal-nbar"],
)
def test_float_fields_refuse_what_the_json_reader_refuses(make, field, value):
    # a string or None reached numpy's isfinite as a bare TypeError, and a list passed it
    with pytest.raises(ValidationError) as info:
        make(value)
    assert type(info.value) is ValidationError
    assert str(info.value) == f"{field} must be a real number, got {value!r}"


def test_float_fields_take_ints_and_numpy_reals_and_keep_their_messages():
    assert build_model(Rabi(np.float32(1.2), 1, np.int64(1), 4)).dim == 8
    assert Fixed(np.float64(0.5)).value == 0.5
    with pytest.raises(ValidationError, match="^u must be finite, got inf$"):
        Hubbard1D(2, 1.0, math.inf)
    with pytest.raises(ValidationError, match=f"^value must be finite, got {10**400!r}$"):
        Fixed(10**400)  # no float holds it


@pytest.mark.parametrize(
    "spec, twin",
    [(Rabi(1, 10**20, 1, 4), Rabi(1.0, 1e20, 1.0, 4)), (Hubbard1D(2, 1, 10**20), Hubbard1D(2, 1.0, 1e20))],
    ids=["rabi-omega", "hubbard-u"],
)
def test_an_int_field_beyond_int64_builds_as_its_float(spec, twin):
    # the int times an int64 index array overflowed; a JSON reader keeps such an int
    got, want = build_model(spec).terms, build_model(twin).terms
    assert all(np.array_equal(a.mat, b.mat) for (_, a), (_, b) in zip(got, want, strict=True))


def test_integer_fields_take_numpy_integers_and_keep_their_bounds():
    assert model_dim(HarmonicOscillator(1.0, cutoff=np.int64(3))) == 3
    assert model_dim(Hubbard1D(np.int32(2), 1.0, 2.0)) == 16
    assert TargetLevel(np.int64(0)).level == 0
    with pytest.raises(ValidationError, match="^cutoff must be >= 2, got 1$"):
        Rabi(1.2, 0.8, 1.0, cutoff=1)
    with pytest.raises(ConfigError, match="^level must be >= 0, got -1$"):
        TargetLevel(-1)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: build_model(Exact()), ConfigError, "unknown model spec Exact"),
        (lambda: model_dim("harmonic"), ConfigError, "unknown model spec str"),
        (
            lambda: gamma_for(build_model(HarmonicOscillator(1.0, 3)), HarmonicOscillator(1.0, 3)),
            ConfigError,
            "unknown gamma policy HarmonicOscillator",
        ),
        (  # a non-Hermitian rho, built directly: tr(rho Y) = i rho[0, 1]
            lambda: expectation(QuantumState([[0.5, 1.0], [0.0, 0.5]]), HermitianOperator(PAULI_Y)),
            ValidationError,
            "expectation has imaginary residue 1.000e+00",
        ),
    ],
    ids=["build_model", "model_dim", "gamma_for", "expectation"],
)
def test_a_foreign_object_or_a_complex_expectation_is_refused(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


# ---------------------------------------------------------------------------
# spectra and shift policies


def test_exact_spectrum_trace_identity():
    h = build_model(Hubbard1D(sites=2, t=1.0, u=2.0))
    evals, _ = exact_spectrum(h)
    assert abs(float(np.trace(h.total.mat).real) - evals.sum()) < 1e-9


def test_gamma_exact_is_minus_ground():
    h = build_model(Custom(terms=(("d", np.diag([-3.0, -1.0, 2.0])),)))
    assert gamma_for(h, Exact()) == 3.0


def test_gamma_norm_bound_dominates_ground():
    h = build_model(Custom(terms=(("d", np.diag([-3.0, -1.0, 2.0])),)))
    assert gamma_for(h, NormBound()) >= 3.0
    h2 = build_model(Hubbard1D(sites=2, t=1.0, u=2.0))
    assert abs(gamma_for(h2, NormBound()) - 6.0) < 1e-12
    assert gamma_for(h2, NormBound()) >= math.sqrt(5) - 1  # >= -E0


@pytest.mark.parametrize(
    "spec", [Hubbard1D(sites=3, t=0.7, u=1.3), RABI_DSC], ids=["hubbard3", "rabi"]
)
def test_norm_bound_reads_monomial_norms_without_eigh(spec):
    h = build_model(spec)
    want = sum(np.abs(np.linalg.eigvalsh(term.mat)).max() for _, term in h.terms)
    assert abs(gamma_for(h, NormBound()) - want) < 1e-12
    # hops, on-site and the Rabi free term are monomial: no solve for them;
    # the Rabi coupling's norm reads its eigenvalues, with no eigenvectors
    for label, term in h.terms:
        assert term._eig is None
        assert (term._evals is None) == (label != "coupling")


def test_gamma_fixed_warns_when_spectrum_stays_negative():
    h = build_model(Custom(terms=(("d", np.diag([-3.0, -1.0, 2.0])),)))
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        assert gamma_for(h, Fixed(value=1.0)) == 1.0
    assert any(issubclass(x.category, NegativeShiftWarning) for x in w)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gamma_for(h, Fixed(value=3.5)) == 3.5  # no warning


def test_gamma_fixed_at_norm_bound_skips_dense_total():
    # E0 >= -sum ||H_m||: no warning is possible, so no dense H and no eigh
    h = build_model(Hubbard1D(sites=5, t=1.0, u=2.0))
    bound = gamma_for(h, NormBound())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gamma_for(h, Fixed(value=bound)) == bound
    assert h._total is None
    assert all(term._mat is None and term._eig is None for _, term in h.terms)


def test_resolved_copies_leave_the_dense_total_unformed():
    # with_gamma copies share the total through _base: a Trotter trajectory
    # with NormBound gamma needs neither the dense total nor a dense term
    spec = Hubbard1D(sites=5, t=1.0, u=2.0)
    h = build_model(spec)
    cfg = RunConfig(
        mode=FixedStep(tau=0.3), gamma_policy=NormBound(), operator_mode=TrotterW(2), seed=0
    )
    stochastic_trajectory(basis_state(spec, "udduduuddu"), h, cfg, (0.3, 0.2))
    assert h._total is None
    assert all(term._mat is None and term._eig is None for _, term in h.terms)
    assert h.with_gamma(1.0).total is h.total is h._total  # formed once, on the base


def test_gamma_target_level():
    h = build_model(Custom(terms=(("d", np.diag([-3.0, -1.0, 2.0])),)))
    assert gamma_for(h, TargetLevel(level=0)) == 3.0
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        assert gamma_for(h, TargetLevel(level=1)) == 1.0
    assert len(w) == 1  # targeting an excited level breaks the cooling inequality


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
def test_norm_bound_always_clears_exact(seed, dim):
    from tests.conftest import random_hermitian

    rng = np.random.default_rng(seed)
    terms = tuple(
        (f"t{i}", random_hermitian(rng, dim)) for i in range(int(rng.integers(1, 4)))
    )
    h = build_model(Custom(terms=terms))
    assert gamma_for(h, NormBound()) >= gamma_for(h, Exact()) - 1e-12
