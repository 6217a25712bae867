"""Output oracle: checks every protocol run and trajectory of the benchmark.

The replay is independent of peigen's propagation code. Model terms are
rebuilt here from the spec; exact mode applies the closed-form weight
cos((E_j + gamma) tau) in the eigenbasis, and Trotter mode multiplies
``scipy.linalg.expm`` term exponentials in a symmetric product."""

from __future__ import annotations

import math
from functools import reduce

import numpy as np
from scipy.linalg import expm

from peigen import ExactW, Hubbard1D, Rabi, Variational
from peigen.variational import OptimizerConfig

REPLAY_TOL = 1e-8  # replay vs trace, absolute on energy, relative on p0
INVARIANT_TOL = 1e-12
RESTART_SIGMAS = 5.0  # mean-restart agreement with 1/P - 1, in standard errors

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)


def model_terms(spec) -> list[np.ndarray]:
    """Dense terms of the model, in the order its Trotter product uses."""
    if isinstance(spec, Rabi):
        n = spec.cutoff
        a = np.diag(np.sqrt(np.arange(1.0, n)), 1)
        free = 0.5 * spec.omega0 * np.kron(_Z, np.eye(n)) + spec.omega * np.kron(
            np.eye(2), np.diag(np.arange(float(n)))
        )
        return [free, spec.g * np.kron(_X, a + a.T)]
    if isinstance(spec, Hubbard1D):
        return _hubbard_terms(spec)
    raise TypeError(f"no oracle model for {type(spec).__name__}")


def _hubbard_terms(spec: Hubbard1D) -> list[np.ndarray]:
    """Jordan-Wigner Hubbard chain from bit arithmetic on basis indices.

    Mode m is bit (n-1-m) of the index and bit 0 means occupied. Hops
    -(t/2) X Z..Z X and -(t/2) Y Z..Z Y per bond and spin, then u n_up n_dn
    per site, matching the library's documented term order."""
    n = 2 * spec.sites
    idx = np.arange(2**n)
    bits = [(idx >> (n - 1 - m)) & 1 for m in range(n)]
    terms = []
    for i in range(spec.sites - 1):
        for s in (0, 1):
            p, q = 2 * i + s, 2 * i + 2 + s
            zsign = np.prod([1 - 2 * bits[m] for m in range(p + 1, q)], axis=0)
            flipped = idx ^ (1 << (n - 1 - p)) ^ (1 << (n - 1 - q))
            ysign = np.where(bits[p] == bits[q], -1, 1)
            for sign in (1, ysign):
                term = np.zeros((2**n, 2**n), dtype=complex)
                term[flipped, idx] = -spec.t / 2 * zsign * sign
                terms.append(term)
    for i in range(spec.sites):
        occupied = (bits[2 * i] == 0) & (bits[2 * i + 1] == 0)
        terms.append(np.diag(spec.u * occupied.astype(complex)))
    return terms


class Replay:
    """Reference dynamics of one model under one operator mode."""

    def __init__(self, spec, operator_mode) -> None:
        self.terms = model_terms(spec)
        self.h = sum(self.terms)
        self.evals, self.evecs = np.linalg.eigh(self.h)
        self.gamma = -self.evals[0]  # the Exact() shift policy
        self.mode = operator_mode
        self._k0: dict[float, np.ndarray] = {}

    def _kraus0(self, tau: float) -> np.ndarray:
        """K0 = (U+ + U-)/2 with U+- the r-fold symmetric Trotter product."""
        if tau not in self._k0:
            r = self.mode.r
            dt = tau / r
            branches = []
            for sign in (1.0, -1.0):
                halves = [expm(-1j * sign * dt / 2 * t) for t in self.terms[:-1]]
                middle = expm(-1j * sign * dt * self.terms[-1])
                slab = reduce(np.matmul, halves + [middle] + halves[::-1])
                phase = np.exp(-1j * sign * self.gamma * tau)
                branches.append(np.linalg.matrix_power(slab, r) * phase)
            self._k0[tau] = (branches[0] + branches[1]) / 2
        return self._k0[tau]

    def stages(self, state: np.ndarray, schedule) -> list[tuple[float, float]]:
        """(p0, energy) after each post-selected stage of the schedule."""
        out = []
        if isinstance(self.mode, ExactW):
            v = self.evecs
            c = v.conj().T @ state if state.ndim == 1 else v.conj().T @ state @ v
            for tau in schedule:
                w = np.cos((self.evals + self.gamma) * tau)
                c = w * c if c.ndim == 1 else w[:, None] * c * w[None, :]
                pops = np.abs(c) ** 2 if c.ndim == 1 else np.diag(c).real
                p0 = float(pops.sum())
                c = c / (math.sqrt(p0) if c.ndim == 1 else p0)
                out.append((p0, float(self.evals @ pops) / p0))
            return out
        for tau in schedule:
            k = self._kraus0(tau)
            if state.ndim == 1:
                state = k @ state
                p0 = float(np.vdot(state, state).real)
                state = state / math.sqrt(p0)
                energy = np.vdot(state, self.h @ state).real
            else:
                state = k @ state @ k.conj().T
                p0 = float(np.trace(state).real)
                state = state / p0
                energy = np.trace(state @ self.h).real
            out.append((p0, float(energy)))
        return out


def trace_problems(trace, config, replay: Replay, state: np.ndarray, n_stages: int) -> list[str]:
    """Everything wrong with one protocol trace; empty when it is correct."""
    problems = []
    e0, emax = replay.evals[0], replay.evals[-1]
    if len(trace.stages) != n_stages:
        problems.append(f"{len(trace.stages)} stages, expected {n_stages}")
    variational = isinstance(config.mode, Variational)
    max_evals = (config.mode.optimizer or OptimizerConfig()).max_evals if variational else 0
    p_cum = 1.0
    for s in trace.stages:
        p_cum *= s.p0
        if not 0.0 < s.p0 <= 1.0 + INVARIANT_TOL:
            problems.append(f"stage {s.k}: p0={s.p0!r} outside (0, 1]")
        if abs(s.p_suc - p_cum) > INVARIANT_TOL * p_cum:
            problems.append(f"stage {s.k}: p_success {s.p_suc!r} != product of p0 {p_cum!r}")
        if not e0 - REPLAY_TOL <= s.energy <= emax + REPLAY_TOL:
            problems.append(f"stage {s.k}: energy {s.energy!r} outside [E0, Emax]")
        if variational:
            if not 0 < len(s.trials) <= max_evals:
                problems.append(f"stage {s.k}: {len(s.trials)} trials, cap {max_evals}")
            elif s.tau != min(s.trials, key=lambda t: (t.energy, t.tau)).tau:
                problems.append(f"stage {s.k}: tau {s.tau!r} is not the best trial")
    if abs(trace.p_success - p_cum) > INVARIANT_TOL * p_cum:
        problems.append(f"p_success {trace.p_success!r} != product of p0 {p_cum!r}")
    for s, (p0, energy) in zip(trace.stages, replay.stages(state, trace.schedule)):
        if abs(s.p0 - p0) > REPLAY_TOL * p0 or abs(s.energy - energy) > REPLAY_TOL:
            problems.append(
                f"stage {s.k}: (p0, E) = ({s.p0!r}, {s.energy!r}), replay ({p0!r}, {energy!r})"
            )
            break
    return problems


def trajectory_problems(result, n_stages: int) -> list[str]:
    """Per-trajectory invariants of a restart-on-failure sample."""
    if not result.success:
        return ["trajectory did not succeed"]
    if result.restarts < 0 or not (
        n_stages + result.restarts <= result.shots_used <= n_stages * (result.restarts + 1)
    ):
        return [f"{result.restarts} restarts inconsistent with {result.shots_used} shots"]
    return []


def restart_problems(restarts: list[int], p_success: float) -> list[str]:
    """Mean restart count against the geometric mean 1/P - 1."""
    n = len(restarts)
    expected = 1.0 / p_success - 1.0
    stderr = math.sqrt((1.0 - p_success) / p_success**2 / n)
    mean = sum(restarts) / n
    if abs(mean - expected) > RESTART_SIGMAS * stderr:
        return [f"mean restarts {mean:.4f} over {n}, expected {expected:.4f} +- {stderr:.4f}"]
    return []


def csv_problems(trace, expected_csv: str) -> list[str]:
    """Value-for-value match with a frozen trace at its 9 significant digits."""
    rows = ["stage,tau,energy,p0,p_success,trial_count"]
    for s in trace.stages:
        rows.append(f"{s.k},{s.tau:.9g},{s.energy:.9g},{s.p0:.9g},{s.p_suc:.9g},{len(s.trials)}")
    expected = expected_csv.splitlines()
    for got, want in zip(rows, expected):
        if got != want:
            return [f"frozen trace differs: {got!r} != {want!r}"]
    if len(rows) != len(expected):
        return [f"{len(rows) - 1} stages, frozen trace has {len(expected) - 1}"]
    return []

