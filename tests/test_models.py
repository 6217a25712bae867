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
    HarmonicOscillator,
    Hubbard1D,
    NegativeShiftWarning,
    NormBound,
    QuantumState,
    Rabi,
    RunConfig,
    TargetLevel,
    TrotterW,
    Variational,
    apply_branches,
    basis_state,
    build_model,
    exact_spectrum,
    expectation,
    gamma_for,
    hubbard_sector_label,
    hubbard_sector_minimum,
    run,
    thermal_state,
)
from peigen.models import (
    I2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    build_custom,
    hubbard_number_operators,
)

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


def test_hubbard_number_operators_commute():
    h = build_model(Hubbard1D(sites=2, t=1.0, u=2.0)).total.mat
    n_up, n_dn = hubbard_number_operators(2)
    assert np.linalg.norm(h @ n_up - n_up @ h, 2) < 1e-12
    assert np.linalg.norm(h @ n_dn - n_dn @ h, 2) < 1e-12


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
    assert np.array_equal(h.total.mat, free + coupling)
    assert h.terms[0][1]._mat is None
    assert np.array_equal(h.terms[0][1].mat, free)
    assert np.array_equal(h.terms[1][1].mat, coupling)


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
    got = hubbard_number_operators(sites)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    counts = [np.diag(w).real.astype(int) for w in want]
    h = build_model(Hubbard1D(sites=sites, t=1.0, u=2.0))
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
    assert all(term._mat is None for _, term in h.terms)


def test_hubbard_size_guard():
    with pytest.raises(DimensionError):
        Hubbard1D(sites=7, t=1.0, u=2.0)  # 14 spins > 12


# ---------------------------------------------------------------------------
# spectra and shift policies


def test_exact_spectrum_trace_identity():
    h = build_model(Hubbard1D(sites=2, t=1.0, u=2.0))
    evals, _ = exact_spectrum(h)
    assert abs(float(np.trace(h.total.mat).real) - evals.sum()) < 1e-9


def test_gamma_exact_is_minus_ground():
    h = build_custom(Custom(terms=(("d", np.diag([-3.0, -1.0, 2.0])),)))
    assert gamma_for(h, Exact()) == 3.0


def test_gamma_norm_bound_dominates_ground():
    h = build_custom(Custom(terms=(("d", np.diag([-3.0, -1.0, 2.0])),)))
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
    # hops, on-site and the Rabi free term are monomial: no eigh for them
    for label, term in h.terms:
        assert (term._eig is None) == (label != "coupling")


def test_gamma_fixed_warns_when_spectrum_stays_negative():
    h = build_custom(Custom(terms=(("d", np.diag([-3.0, -1.0, 2.0])),)))
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


def test_gamma_target_level():
    h = build_custom(Custom(terms=(("d", np.diag([-3.0, -1.0, 2.0])),)))
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
    h = build_custom(Custom(terms=terms))
    assert gamma_for(h, NormBound()) >= gamma_for(h, Exact()) - 1e-12
