"""Second-order Trotter construction of the cooling unitary's branches and the
two gate decompositions of the paper's Fig. 2
(a CNOT ladder for exp(-i phi/2 XXX), a CNOT-conjugated analog block for
exp(-i phi/2 (a+a^dag) X X)), checked as dense products of lifted gates.

In Trotter mode the branch unitaries U_pm are never built factor by factor
as dense matrices. A model's terms compile once into a sweep plan, shared
by its `with_gamma` copies: adjacent monomial terms (diagonals, Pauli
strings) with one pattern that commute exactly fuse into one group, and the
half steps at the seam of two sweeps merge. `apply_branches` runs the plan
on a vector or a block, at one tau or at one tau per column, monomial
groups in closed form at O(d) per column, dense terms through their cached
eigensystem; `branch_unitaries` runs it on the identity. A real plan on a
real x (every bundled model and state) runs one signed sweep: U_minus x is
conj(U_plus x), bit for bit up to the sign of a zero.

Wire convention everywhere: system factors first, ancilla qubit last."""

from __future__ import annotations

import cmath
import math
from functools import reduce

import numpy as np

from .errors import DimensionError, TruncationLeakageError, ValidationError
from .models import I2, PAULI_X, PAULI_Y, PAULI_Z, SumHamiltonian, _check_finite, _check_integer
from .operators import HermitianOperator, _within_budget

# ---------------------------------------------------------------------------
# branch construction of W_gamma(tau) = exp(-i (H + gamma) sigma_x tau)


class _SweepPlan:
    """A model's ordered terms compiled for the symmetric product formula.

    Adjacent monomial terms with one ``perm`` that commute exactly (``a *
    b[perm] == b * a[perm]`` bit for bit with every member) fuse into one
    group with the summed ``vals``; a term of several parts (the Rabi
    coupling) or with a remainder is a dense group. A group is ``(perm, eig,
    mag, unit)``: ``perm`` if a non-diagonal monomial, ``(V, V^H)`` if
    dense, else None; ``|vals|`` and ``vals / |vals|`` (0 at zeros), or
    eigenvalues and ones. ``real``: every ``unit`` and every V is real."""

    def __init__(self, terms) -> None:
        runs: list = []  # (perm, [vals, ...]) per monomial run, (None, term) per dense term
        for _, term in terms:
            mono = term.monomial()
            p = runs[-1][0] if runs else None
            if mono is not None and p is not None and np.array_equal(p, mono[0]) and all(
                (a * mono[1][p] == mono[1] * a[p]).all() for a in runs[-1][1]
            ):
                runs[-1][1].append(mono[1])
            else:
                runs.append((mono[0], [mono[1]]) if mono is not None else (None, term))
        self.groups = []
        for p, parts in runs:
            if p is None:
                evals, v = parts.eigensystem()
                eig = (v, np.ascontiguousarray(v.conj().T))
                self.groups.append((None, eig, evals, np.ones_like(evals)))
                continue
            vals = reduce(np.add, parts)
            mag = np.abs(vals)
            unit = np.divide(vals, mag, out=np.zeros_like(vals), where=mag > 0)
            self.groups.append((None if (p == np.arange(p.size)).all() else p, None, mag, unit))
        self.real = not any(np.imag(g[3] if g[1] is None else g[1][0]).any() for g in self.groups)
        self._programs: dict = {}

    def program(self, r: int):
        """``(steps, kmag, nunit, n_sum)`` of r sweeps: half steps over the
        groups, a full step on the last, the half steps in reverse, with the
        seam of two sweeps merged into one full step. Row i of ``kmag = k *
        mag`` and ``nunit = -1j * unit`` is slot i, a (group, multiple k of
        tau / 2r) pair; ``steps`` lists ``(perm, eig, slot)`` in order. The
        first ``n_sum`` slots are those of diagonal and dense groups, the
        steps that read cos + sin."""
        if r not in self._programs:
            n = len(self.groups)
            sweep = [(g, 1) for g in range(n - 1)] + [(n - 1, 2)]
            seq: list[tuple[int, int]] = []
            for g, k in (sweep + sweep[-2::-1]) * r:
                if seq and seq[-1][0] == g:
                    seq[-1] = (g, seq[-1][1] + k)
                else:
                    seq.append((g, k))
            order = sorted(dict.fromkeys(seq), key=lambda gk: self.groups[gk[0]][0] is not None)
            slots = {gk: i for i, gk in enumerate(order)}
            steps = [self.groups[g][:2] + (slots[g, k],) for g, k in seq]
            kmag = np.array([k * self.groups[g][2] for g, k in slots])
            nunit = np.array([-1j * self.groups[g][3] for g, _ in slots])
            n_sum = sum(self.groups[g][0] is None for g, _ in slots)
            self._programs[r] = (steps, kmag, nunit, n_sum)
        return self._programs[r]


def _plan(h: SumHamiltonian) -> _SweepPlan:
    """The sweep plan of h's terms, built once and shared by with_gamma copies."""
    base = h._base or h
    if base._plan is None:
        base._plan = _SweepPlan(base.terms)
    return base._plan


def apply_branches(
    h: SumHamiltonian, tau: float | np.ndarray, r: int, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(U_plus x, U_minus x) for the r-step second-order Trotter branches.

    ``x`` is a state vector or a matrix whose columns are transformed, by
    one code path: the model's sweep plan, then the exact gamma phase.
    ``tau`` is one float, or a 1-D array of one tau per column of ``x``; the
    tables then gain a column axis and the gamma phase becomes a row, each
    column bitwise its own one-tau call where every group is a monomial. A
    monomial group acts as cos(theta |m|) y - i sin(theta |m|) (m / |m|)
    y[perm], one multiply if diagonal, a dense group as V (e^{-i theta
    lambda} V^H y). One cos and one sin table of all slots are computed per
    call and shared by both branches (U_minus negates the sin table in
    place); their sum is formed per branch for the diagonal and dense
    slots only. A real plan on an x with no imaginary part runs the U_plus
    sweep only and returns its conjugate as U_minus x, bit for bit the
    U_minus sweep up to the sign of a zero: that sweep negates a purely
    imaginary sin table, its gamma phase is exp of the opposite angle, and
    each factor with real m / |m| or real V maps conj(y) to conj(its image).
    A non-finite tau, or a tau array holding one, is refused, as are tables over the budget."""
    _check_integer("Trotter steps r", r, 1)
    if x.shape[0] != h.dim:
        raise DimensionError(f"state dim {x.shape[0]} != operator dim {h.dim}")
    rows = isinstance(tau, np.ndarray)  # one tau per column of a block
    if rows and (tau.ndim != 1 or x.ndim != 2 or len(tau) != x.shape[1]):
        raise DimensionError(f"tau shape {tau.shape} != one tau per column of x {x.shape}")
    for t in tau.tolist() if rows else (tau,):
        _check_finite("tau", t)  # a nan p0 is a success that no draw fails
    plan = _plan(h)
    steps, kmag, nunit, n_sum = plan.program(r)
    cells = kmag.size * (len(tau) if rows else 1)  # a cos or sin table: (slots, d) or (slots, d, m)
    _within_budget(f"Trotter step of dim {h.dim}", 16 * (2 * cells + 3 * x.size))  # + y, scratch, U_+ x
    cols = (1,) * (x.ndim - 1)  # tables broadcast over the columns of a block
    theta = (0.5 * tau / r) * kmag.reshape(kmag.shape + cols)
    s = np.sin(theta) * nunit.reshape(nunit.shape + cols)
    c = np.cos(theta, out=theta).astype(complex)  # complex: faster y *= c
    del theta  # a block's tables are (slots, d, m): keep no third one
    real = plan.real and not np.imag(x).any()  # U_minus x = conj(U_plus x)
    out = []
    for sign in (+1.0,) if real else (+1.0, -1.0):
        if sign < 0:
            np.negative(s, out=s)
        y = _sweep(steps, c, s, n_sum, x)
        if rows:
            y *= np.array([cmath.exp(-1j * sign * h.gamma * t) for t in tau.tolist()])
        else:
            y *= cmath.exp(-1j * sign * h.gamma * tau)
        out.append(y)
    return out[0], out[0].conj() if real else out[1]


def _sweep(steps, c, s, n_sum: int, x: np.ndarray) -> np.ndarray:
    """One signed sweep on a copy of x; factors update it in place through one scratch array."""
    e = c[:n_sum] + s[:n_sum]
    y = np.array(x, dtype=complex)
    scratch = np.empty_like(y)
    for perm, eig, i in steps:
        if eig is not None:
            np.matmul(eig[1], y, out=scratch)
            scratch *= e[i]
            np.matmul(eig[0], scratch, out=y)
        elif perm is None:
            y *= e[i]
        else:
            y.take(perm, axis=0, out=scratch)
            scratch *= s[i]
            y *= c[i]
            y += scratch
    return y


def branch_unitaries(h: SumHamiltonian, tau: float, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense r-step second-order Trotter branches (U_plus, U_minus) of W_gamma(tau).

    U_pm approximate exp(∓ i (H + gamma) tau) on the ancilla sigma-x = ±1
    branches: the model's sweep plan, times the exact gamma phase, run by
    `apply_branches` on the identity. They serve the Trotter error and
    Trotter-mode mixed-state steps."""
    return apply_branches(h, tau, r, np.eye(h.dim, dtype=complex))


def _exact_branches(op: HermitianOperator, shift: float, t: float) -> tuple[np.ndarray, np.ndarray]:
    """The dense branches U_pm = V exp(∓ i (E + shift) t) V^H of
    exp(-i t (O + shift) sigma_x^A), from O's eigensystem."""
    evals, v = op.eigensystem()
    x, vh = (evals + shift) * t, v.conj().T
    return (v * np.exp(-1j * x)) @ vh, (v * np.exp(1j * x)) @ vh


def trotter_error(h: SumHamiltonian, tau: float, r: int) -> float:
    """Operator-norm distance ||U_+ - U~_+||_2 of exact and Trotterized W_gamma(tau), block
    diagonal in ancilla sigma-x; U_-(tau) = U_+(-tau) and U~(-tau) = U~(tau)^-1 give the same."""
    u_plus = branch_unitaries(h, tau, r)[0]
    return float(np.linalg.norm(_exact_branches(h.total, h.gamma, tau)[0] - u_plus, 2))


# ---------------------------------------------------------------------------
# Fig. 2 gate decompositions, checked as dense products of lifted gates


def _lift(dims: tuple[int, ...], ops: dict[int, np.ndarray]) -> np.ndarray:
    """Kronecker product over the factors ``dims``: ``ops[i]`` on factor i,
    identity elsewhere."""
    return reduce(np.kron, [ops.get(i, np.eye(d)) for i, d in enumerate(dims)])


def _mode_x(cutoff: int) -> np.ndarray:
    a = np.diag(np.sqrt(np.arange(1, cutoff, dtype=float)), k=1)
    return a + a.conj().T


def _rotation(sigma: np.ndarray, angle: float) -> np.ndarray:
    """exp(-i angle sigma / 2) for a Pauli matrix sigma."""
    return math.cos(angle / 2) * I2 - 1j * math.sin(angle / 2) * sigma


def _cnot(dims: tuple[int, ...], c: int, t: int) -> np.ndarray:
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    return _lift(dims, {c: p0}) + _lift(dims, {c: p1, t: PAULI_X})


def _assemble(u_plus: np.ndarray, u_minus: np.ndarray) -> np.ndarray:
    """The 2d x 2d joint with ancilla sigma-x = ±1 branches U_pm; only Fig. 2 forms one."""
    return np.kron(u_plus, (I2 + PAULI_X) / 2) + np.kron(u_minus, (I2 - PAULI_X) / 2)


def _coupled(o: np.ndarray, phi: float) -> np.ndarray:
    """exp(-i (phi/2) O sigma_x^A) on O's space (x) ancilla."""
    _check_finite("phi", phi)
    return _assemble(*_exact_branches(HermitianOperator(o), 0.0, phi / 2))


# V = exp(i pi sigma_y / 4) == R_y(-pi/2); V^H Z V = X, so conjugating each
# wire of the CNOT/Rz phase gadget by V turns exp(-i phi/2 ZZZ) into
# exp(-i phi/2 XXX).
_RY_TO_X = -math.pi / 2


def verify_fig2a(phi: float, *, drop_final_cnot: bool = False) -> float:
    """Operator-norm distance of the XXX gate decomposition from its target.

    Wires: system qubits 0 and 1, ancilla 2. The circuit is R_y(-pi/2) on
    every wire, CNOTs 0->A and 1->A, R_z(phi) on the ancilla, CNOTs 1->A and
    0->A (the last one omitted with ``drop_final_cnot``), R_y(pi/2) on every
    wire; the target is exp(-i phi/2 X X X)."""
    target = _coupled(np.kron(PAULI_X, PAULI_X), phi)
    dims = (2, 2, 2)
    ladder = [_cnot(dims, 0, 2), _cnot(dims, 1, 2)]
    core = ladder + [_lift(dims, {2: _rotation(PAULI_Z, phi)})] + ladder[::-1]
    if drop_final_cnot:
        core = core[:-1]
    v = _lift(dims, dict.fromkeys(range(3), _rotation(PAULI_Y, _RY_TO_X)))
    u = reduce(lambda acc, g: g @ acc, [v, *core, v.conj().T])
    return float(np.linalg.norm(u - target, 2))


def _boson_index_sets(cutoff: int, n_max: int) -> np.ndarray:
    """Flat (qubit, mode, ancilla) indices whose boson occupation is below
    ``n_max``."""
    q, n, a = np.indices((2, n_max, 2))
    return ((q * cutoff + n) * 2 + a).ravel()


def verify_fig2b(phi: float, cutoff: int, *, drop_cnots: bool = False) -> float:
    """Subspace distance of the analog-block decomposition from its target.

    Wires: one system qubit, a boson mode truncated at ``cutoff``, the
    ancilla. The circuit is the analog block exp(-i phi/2 (a+a^dag)
    sigma_x^A) between two ancilla-controlled CNOTs onto the qubit, which
    conjugate its sigma_x^A into sigma_x^A sigma_x^(qubit); ``drop_cnots``
    leaves the bare block. The target is exp(-i phi/2 (a+a^dag) X X).

    The reference unitary is evaluated at twice the working cutoff and the
    comparison is restricted to a truncation-safe zone of low boson
    occupations, starting at n < cutoff/2 and shrinking until the reference
    leaks at most 1e-8 amplitude out of the working space from those
    columns. (a+a†) is unbounded, so larger phi needs a smaller zone: the
    displacement tail from Fock level n reaches m levels up with amplitude
    ~ (phi/2)^m sqrt(binom(n+m, m)/m!). If no zone with n_safe >= 2 is
    conclusive, raises TruncationLeakageError."""
    if cutoff < 8:
        raise ValidationError(f"cutoff must be >= 8 for a conclusive check, got {cutoff}")
    block = np.kron(np.eye(2), _coupled(_mode_x(cutoff), phi))
    cnot = _cnot((2, cutoff, 2), 2, 0)
    u = block if drop_cnots else cnot @ (block @ cnot)
    big = 2 * cutoff
    target = _coupled(np.kron(PAULI_X, _mode_x(big)), phi)
    rows_small = _boson_index_sets(cutoff, cutoff)  # the whole working space
    rows_big = _boson_index_sets(big, cutoff)
    outside = np.setdiff1d(np.arange(target.shape[0]), rows_big)
    leakage = math.inf
    for n_safe in range(cutoff // 2, 1, -1):
        cols_big = _boson_index_sets(big, n_safe)
        leakage = float(np.linalg.norm(target[np.ix_(outside, cols_big)], 2))
        if leakage <= 1e-8:
            break
    else:
        raise TruncationLeakageError(
            f"reference leaks {leakage:.3e} amplitude above the working cutoff "
            f"{cutoff} at phi={phi} even from the smallest subspace; increase "
            f"the cutoff for a conclusive check"
        )
    cols_small = _boson_index_sets(cutoff, n_safe)
    diff = u[np.ix_(rows_small, cols_small)] - target[np.ix_(rows_big, cols_big)]
    return float(np.linalg.norm(diff, 2))
