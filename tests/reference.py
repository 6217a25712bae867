"""Dense reference protocol for the differential tests, built on scipy.

Everything here is a plain d x d matrix: the branch unitaries
U± = exp(∓i (H + gamma) tau) by `expm`, the ancilla blocks K0 and K1, the
ejection operator by `cosm`, and the branch map K psi or K rho K^H. It
shares no code path with the eigenbasis-resident exact mode under test."""

import math

import numpy as np
from scipy.linalg import cosm, expm


def hamiltonian(h):
    """The bare total H as a dense matrix, summed from the model's terms."""
    return sum(term.mat for _, term in h.terms)


def kraus(h, tau):
    """K0 = (U+ + U-)/2 and K1 = (U+ - U-)/2 of U± = exp(∓i (H + gamma) tau)."""
    a = (hamiltonian(h) + h.gamma * np.eye(h.dim)) * tau
    u_plus, u_minus = expm(-1j * a), expm(1j * a)
    return (u_plus + u_minus) / 2, (u_plus - u_minus) / 2


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


def energy(data, h):
    """<psi|H|psi> or tr(rho H), unnormalised: divide by the branch probability."""
    m = hamiltonian(h)
    if data.ndim == 1:
        return float(np.vdot(data, m @ data).real)
    return float(np.trace(m @ data).real)
