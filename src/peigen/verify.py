"""Randomized property suites and identity checks: the cooling inequality,
Trotter-order scaling, and the circuit decomposition identities. Each suite
returns a plain-dict report consumed by both the test suite and the CLI;
its ``summary`` is the one line ``peigen verify`` prints for it."""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .cooling import cooling_step
from .errors import TruncationLeakageError
from .models import (
    Exact,
    HarmonicOscillator,
    Hubbard1D,
    Rabi,
    SumHamiltonian,
    build_model,
    gamma_for,
)
from .operators import HermitianOperator, QuantumState, expectation
from .trotter import trotter_error, verify_fig2a, verify_fig2b


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def random_pure_state(rng: np.random.Generator, dim: int) -> QuantumState:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return QuantumState(v / np.linalg.norm(v))


def _single_term(mat: np.ndarray, gamma: float = 0.0) -> SumHamiltonian:
    return SumHamiltonian((("random", HermitianOperator(mat)),), gamma)


# ---------------------------------------------------------------------------
# cooling-inequality suite


def appendix_a_suite(n_instances: int = 1000, seed: int = 7, dim_max: int = 8) -> dict:
    """Randomized check of <H>_0 <= <H> < <H>_1 for gamma = -E0, small tau.

    Instances are random Hermitian H (dim <= dim_max) and random pure states
    with support on at least two distinct eigenvalues; tau is drawn from
    (0, 0.1 / ||H + gamma||]. Eigenstate inputs are checked separately for
    equality of all three energies within 1e-10."""
    rng = np.random.default_rng(seed)
    violations = []
    worst_margin = math.inf
    for i in range(n_instances):
        dim = int(rng.integers(2, dim_max + 1))
        h = _single_term(random_hermitian(rng, dim))
        evals, v = h.total.eigensystem()
        hg = h.with_gamma(float(-evals[0]))
        state = random_pure_state(rng, dim)
        weights = np.abs(v.conj().T @ state.data) ** 2
        distinct = np.unique(np.round(evals[weights > 1e-12], 9))
        if len(distinct) < 2:  # essentially impossible for random inputs
            continue
        norm_shifted = float(evals[-1] - evals[0])
        tau = float(rng.uniform(0.0, 0.1 / norm_shifted)) or 1e-4
        step = cooling_step(state, hg, tau)
        e_in = expectation(state, hg.total)
        e0 = expectation(step.state0, hg.total)
        ok = e0 <= e_in + 1e-12
        if step.state1 is not None:
            e1 = expectation(step.state1, hg.total)
            ok = ok and (e1 - e_in) > 0
            worst_margin = min(worst_margin, e1 - e_in)
        if not ok:
            violations.append(i)
    eig_max_dev = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, dim_max + 1))
        h = _single_term(random_hermitian(rng, dim))
        evals, v = h.total.eigensystem()
        hg = h.with_gamma(float(-evals[0]))
        j = int(rng.integers(0, dim))
        state = QuantumState(v[:, j])
        tau = float(rng.uniform(1e-3, 0.1 / max(evals[-1] - evals[0], 1e-6)))
        step = cooling_step(state, hg, tau)
        e_in = expectation(state, hg.total)
        devs = [abs(expectation(step.state0, hg.total) - e_in)] if step.state0 is not None else []
        if step.state1 is not None:
            devs.append(abs(expectation(step.state1, hg.total) - e_in))
        eig_max_dev = max(eig_max_dev, max(devs))
    return {
        "name": "appendix-a",
        "instances": n_instances,
        "violations": violations,
        "strict_margin_min": worst_margin,
        "eigenstate_max_deviation": eig_max_dev,
        "passed": not violations and eig_max_dev <= 1e-10,
        "summary": (
            f"{n_instances} instances, {len(violations)} violations, "
            f"eigenstate deviation {eig_max_dev:.3g}"
        ),
    }


# ---------------------------------------------------------------------------
# Trotter-order scaling


BENCHMARK_MODELS: tuple[tuple[str, object], ...] = (
    ("harmonic", HarmonicOscillator(omega=1.0, cutoff=30)),
    ("rabi", Rabi(omega0=1.2, omega=0.8, g=1.0, cutoff=20)),
    ("hubbard-2", Hubbard1D(sites=2, t=1.0, u=2.0)),
    ("hubbard-3", Hubbard1D(sites=3, t=1.0, u=2.0)),
)


def trotter_scaling_suite(
    tau: float = 0.3, rs: Sequence[int] = (1, 2, 4, 8), slope_window: tuple[float, float] = (-2.2, -1.8)
) -> dict:
    """Log-log slope of the global Trotter error versus r for each model.

    A single-term Hamiltonian is Trotter-exact, so the harmonic model is
    checked for exactness (error <= 1e-12) instead of a slope fitted to
    rounding noise."""
    checks, parts = [], []
    for name, spec in BENCHMARK_MODELS:
        h = build_model(spec)
        hg = h.with_gamma(gamma_for(h, Exact()))
        errs = [trotter_error(hg, tau, r) for r in rs]
        if len(h.terms) == 1:
            passed = max(errs) <= 1e-12
            parts.append(f"{name} exact ({max(errs):.2g})")
            checks.append(
                {"model": name, "errors": errs, "slope": None, "exact": True, "passed": passed}
            )
        else:
            slope = float(np.polyfit(np.log(list(rs)), np.log(errs), 1)[0])
            passed = slope_window[0] <= slope <= slope_window[1]
            parts.append(f"{name} slope {slope:.3f}")
            checks.append(
                {"model": name, "errors": errs, "slope": slope, "exact": False, "passed": passed}
            )
    return {
        "name": "trotter-order",
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
        "summary": "; ".join(parts),
    }


# ---------------------------------------------------------------------------
# circuit identity sweeps


def fig2a_suite(n_points: int = 100, *, broken: bool = False) -> dict:
    phis = np.linspace(0.0, 2 * math.pi, n_points, endpoint=False)
    dists = [verify_fig2a(float(phi), drop_final_cnot=broken) for phi in phis]
    max_dist = float(max(dists))
    return {
        "name": "fig2a-identity",
        "points": n_points,
        "max_distance": max_dist,
        "passed": max_dist <= 1e-10,
        "summary": f"max distance {max_dist:.3g} over {n_points} points",
    }


def fig2b_suite(
    phis: Iterable[float] = (0.1, 0.5, 1.0), cutoff: int = 24, *, broken: bool = False
) -> dict:
    dists = {}
    inconclusive = None
    for phi in phis:
        try:
            dists[phi] = verify_fig2b(float(phi), cutoff, drop_cnots=broken)
        except TruncationLeakageError as exc:
            inconclusive = str(exc)
            break
    max_dist = float(max(dists.values())) if dists else math.inf
    listed = ", ".join(f"phi={k:g}: {v:.3g}" for k, v in dists.items())
    return {
        "name": "fig2b-identity",
        "cutoff": cutoff,
        "distances": {f"{k:g}": v for k, v in dists.items()},
        "inconclusive": inconclusive,
        "passed": inconclusive is None and max_dist <= 1e-8,
        "summary": f"inconclusive: {inconclusive}" if inconclusive else f"cutoff {cutoff}; {listed}",
    }


_SUITES: dict[str, Callable[..., dict]] = {
    "fig2a": fig2a_suite,
    "fig2b": fig2b_suite,
    "trotter": trotter_scaling_suite,
    "appendix-a": lambda: appendix_a_suite(n_instances=200),
}


def run_all(names: Sequence[str] | None = None, *, break_circuits: bool = False) -> dict:
    """Run the named verification suites in order (all of them by default).
    An unknown name raises ``KeyError`` before any suite runs;
    ``break_circuits`` drops gates from the fig2a and fig2b circuits."""
    names = list(_SUITES) if names is None else names
    for name in names:
        if name not in _SUITES:
            raise KeyError(f"unknown check {name!r}; available: {', '.join(sorted(_SUITES))}")
    checks = [
        _SUITES[n](broken=True) if break_circuits and n in ("fig2a", "fig2b") else _SUITES[n]()
        for n in names
    ]
    return {"checks": checks, "all_passed": all(c["passed"] for c in checks)}
