import math
import warnings

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
    Rabi,
    TargetLevel,
    basis_state,
    build_model,
    exact_spectrum,
    expectation,
    gamma_for,
    hubbard_sector_label,
    hubbard_sector_minimum,
    thermal_state,
)
from peigen.models import build_custom, hubbard_number_operators

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
