"""Dense reference protocol for the differential tests, built on scipy.

Everything here is a plain d x d matrix: the branch unitaries
U± = exp(∓i (H + gamma) tau) by `expm`, or their symmetric Trotter product
from `expm` term exponentials, the ancilla blocks K0 and K1, the ejection
operator by `cosm`, the branch map K psi or K rho K^H, and the lowest
energy of a Hubbard particle-number sector. The joint W_gamma(tau) on
system (x) ancilla is the one 2d x 2d matrix, by `expm`, with its split
into W(tau) and an ancilla x-rotation. It shares no code path with the
eigenbasis-resident exact mode or the sweep-plan Trotter mode under test."""

import math

import numpy as np
from scipy.linalg import cosm, expm

from peigen import ConfigError, DimensionError
from peigen.models import _hubbard_counts

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def hamiltonian(h):
    """The bare total H as a dense matrix, summed from the model's terms."""
    return sum(term.mat for _, term in h.terms)


def blocks(u_plus, u_minus):
    """The ancilla blocks K0 = (U+ + U-)/2 and K1 = (U+ - U-)/2."""
    return (u_plus + u_minus) / 2, (u_plus - u_minus) / 2


def exact_branches(h, tau):
    """The exact U± = exp(∓i (H + gamma) tau)."""
    a = (hamiltonian(h) + h.gamma * np.eye(h.dim)) * tau
    return expm(-1j * a), expm(1j * a)


def kraus(h, tau):
    """K0 and K1 of the exact U± = exp(∓i (H + gamma) tau)."""
    return blocks(*exact_branches(h, tau))


def trotter_branches(h, tau, r):
    """U± as the symmetric product of the terms' `expm` exponentials, to the
    r-th power, times the gamma phase exp(∓i gamma tau)."""
    mats = [term.mat for _, term in h.terms]
    out = []
    for sign in (1.0, -1.0):
        dt = sign * tau / r
        slab = expm(-1j * dt * mats[-1])
        for m in mats[-2::-1]:
            half = expm(-0.5j * dt * m)
            slab = half @ slab @ half
        phase = np.exp(-1j * sign * h.gamma * tau)
        out.append(np.linalg.matrix_power(slab, r) * phase)
    return out


def ejection(h, e_s, *, shifted=False):
    """cos((pi / 2 E_s) H), or cos((pi / 2 (E_s + gamma)) (H + gamma)) shifted."""
    gamma = h.gamma if shifted else 0.0
    return cosm((hamiltonian(h) + gamma * np.eye(h.dim)) * (math.pi / (2.0 * (e_s + gamma))))


def apply(k, data):
    """The unnormalised branch K psi, or K rho K^H, and its probability."""
    if data.ndim == 1:
        out = k @ data
        return out, float(np.vdot(out, out).real)
    out = k @ data @ k.conj().T
    return out, float(np.trace(out).real)


def step(data, h, tau):
    """Both unnormalised branches of one exact cooling step: ((K0 x, p0), (K1 x, p1))."""
    return tuple(apply(k, data) for k in kraus(h, tau))


def branch_densities(state, u_plus, u_minus):
    """[(p0, rho0), (p1, rho1)] of one cooling step from dense branch
    unitaries, each branch as a normalised density matrix."""
    out = []
    for k in blocks(u_plus, u_minus):
        m, p = apply(k, state.density())
        out.append((p, m / p))
    return out


def energy(data, h):
    """<psi|H|psi> or tr(rho H), unnormalised: divide by the branch probability."""
    m = hamiltonian(h)
    if data.ndim == 1:
        return float(np.vdot(data, m @ data).real)
    return float(np.trace(m @ data).real)


def hubbard_sector_minimum(h, L, n_up, n_dn):
    """Lowest eigenvalue within a fixed (n_up, n_dn) particle-number sector
    of a Hubbard chain of L sites, from the sector block of the dense total H."""
    if 4**L != h.dim:
        raise DimensionError(f"L={L} needs dim {4**L}, but H has dim {h.dim}")
    ups, dns = _hubbard_counts(L)
    idx = np.flatnonzero((ups == n_up) & (dns == n_dn))
    if not idx.size:
        raise ConfigError(f"empty sector n_up={n_up}, n_dn={n_dn} for L={L}")
    return float(np.linalg.eigvalsh(h.total.mat[np.ix_(idx, idx)]).min())


def wgamma(h, tau):
    """The joint W_gamma(tau) = exp(-i (H + gamma) sigma_x^A tau) on system (x) ancilla."""
    return expm(-1j * tau * np.kron(hamiltonian(h) + h.gamma * np.eye(h.dim), PAULI_X))


def ancilla_x_rotation(system_dim, angle):
    """R_x(angle) on the ancilla, identity on the system: exp(-i angle X/2)."""
    r = math.cos(angle / 2) * np.eye(2) - 1j * math.sin(angle / 2) * PAULI_X
    return np.kron(np.eye(system_dim), r)


def wgamma_decompose(h, tau):
    """Split W_gamma(tau) into the gamma-free W(tau) = exp(-i H sigma_x^A tau),
    by `expm` on system (x) ancilla, and the angle 2 gamma tau of an ancilla
    x-rotation: W_gamma(tau) = W(tau) @ R_x^A(angle), and the parts commute
    (both diagonal in ancilla sigma-x)."""
    return expm(-1j * tau * np.kron(hamiltonian(h), PAULI_X)), 2.0 * h.gamma * tau
