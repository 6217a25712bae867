"""Complex-matrix algebra: Hermitian operators kept as their structure
(monomial parts ``(perm, vals)`` plus an optional dense remainder, the
dense matrix formed only on demand), their block eigensystems,
expectations read from the structure, and the pure/mixed state
bookkeeping that every other module builds on."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Sequence

import numpy as np

from .errors import DimensionError, EigenDecompositionError, ValidationError

HERMITICITY_ATOL = 1e-12
# how far a state's norm or trace may miss 1, and rho's least eigenvalue fall below 0
NORMALIZATION_TOL = 1e-6
MEMORY_BUDGET_BYTES = 2**31  # bytes one eigensolve, model build or Trotter call may allocate


def _within_budget(what: str, need: int) -> None:
    """Refuse, before they are allocated, arrays of ``need`` bytes above the budget."""
    if need > MEMORY_BUDGET_BYTES:
        budget = f"over the {MEMORY_BUDGET_BYTES:,}-byte budget"
        raise DimensionError(f"{what} needs at least {need:,} bytes, {budget}")


def _as_square_matrix(m: object) -> np.ndarray:
    """Coerce ``m`` to a finite non-empty square complex ndarray (read-only copy)."""
    a = np.array(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise DimensionError(f"expected a non-empty square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError("matrix has non-finite entries")
    a.setflags(write=False)
    return a


def _monomial_defect(perm: np.ndarray, vals: np.ndarray) -> str | None:
    """Why an in-range ``(perm, vals)`` is not a Hermitian monomial, or None.

    Both checks are exact: ``perm`` must be an involution and
    ``vals[perm] == vals.conj()`` must hold bit for bit."""
    if not (perm[perm] == np.arange(perm.size)).all():
        return "perm is not an involution"
    if not (vals[perm] == vals.conj()).all():
        return "vals[perm] != conj(vals): the operator is not Hermitian"
    return None


def _checked_hermitian(a: np.ndarray) -> np.ndarray:
    """``a``, after checking it is Hermitian within HERMITICITY_ATOL."""
    defect = float(np.abs(a - a.conj().T).max())
    if defect > HERMITICITY_ATOL:
        raise ValidationError(f"matrix is not Hermitian (max |A - A^H| = {defect:.3e})")
    return a


def _block_eigh(
    r: np.ndarray, c: np.ndarray, v: np.ndarray, d: int, vectors: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """``np.linalg.eigh`` of the d x d matrix with nonzeros ``(r, c, v)``
    (`HermitianOperator._entries`), solved per connected component of the
    pattern of its strict lower triangle (all that ``eigh`` reads), without
    forming the matrix.

    Components are found in O(nnz) memory by root hooking: each pass hooks
    every root under its least neighbouring root, then pointer jumping sends
    every index to its root, until no edge joins two roots. ``root[x] <= x``
    holds throughout (a root is only hooked under a smaller one), so pointers
    form no cycle, each pass removes at least one root, and a component's
    root is its least index; with no off-diagonal entry the search ends at
    its first test. Blocks are gathered into one flat buffer, grouped by
    size and then by kind, with the entries of ``mat`` bit for bit. The
    blocks of a group share one stacked call, real ones the real solver, so
    a matrix that is one complex component gets exactly ``eigh(mat)``;
    ``vectors=False`` calls ``eigvalsh`` instead and returns no eigenvectors.
    A buffer (16 Σ size² bytes) plus eigenvectors (16 d²) over the budget is refused first."""
    lower = r > c
    er, ec = r[lower], c[lower]
    root = np.arange(d)
    while True:
        rr, rc = root[er], root[ec]
        if (rr == rc).all():
            break
        np.minimum.at(root, rr, rc)
        np.minimum.at(root, rc, rr)
        while True:
            hop = root[root]
            if (hop == root).all():
                break
            root = hop
    # an upper entry of a remainder Hermitian only within tolerance may have
    # a zero mirror and lie between two blocks; eigh never reads it
    same = root[r] == root[c]
    r, c, v = r[same], c[same], v[same]
    size = np.bincount(root)[root]
    _within_budget(f"eigensolve of dim {d}", 16 * (int(size.sum()) + d * d * vectors))
    cplx = np.zeros(d, dtype=bool)  # cplx[x]: the block rooted at x is complex
    cplx[root[r[v.imag != 0]]] = True
    group = 2 * size + cplx[root]  # blocks of one size, real before complex
    order = np.argsort(group * d + root, kind="stable")
    pos = np.empty(d, dtype=np.intp)  # pos[x]: place of x in order
    pos[order] = np.arange(d)
    loc = pos - pos[root]  # place of x within its block
    start = np.zeros(d + 1, dtype=np.intp)  # buffer offset of place s
    np.cumsum(size[order], out=start[1:])
    buf = np.zeros(start[-1], dtype=complex)
    np.add.at(buf, start[pos[root[r]]] + loc[r] * size[r] + loc[c], v)
    groups = group[order]
    cuts = np.flatnonzero(groups[1:] != groups[:-1]) + 1
    solved = []  # (block indices, eigenvalues, eigenvectors), one stack per group
    for a, b in zip([0, *cuts.tolist()], [*cuts.tolist(), d]):
        n = int(size[order[a]])
        idx = order[a:b].reshape(-1, n)
        sub = (buf if groups[a] % 2 else buf.real)[start[a] : start[b]].reshape(-1, n, n)
        solved.append((idx, *(np.linalg.eigh(sub) if vectors else (np.linalg.eigvalsh(sub), None))))
    w = np.concatenate([s[1].ravel() for s in solved])
    ascending = np.argsort(w, kind="stable")
    if not vectors:
        return w[ascending], None
    rank = np.empty(d, dtype=np.intp)  # rank[k]: ascending position of w[k]
    rank[ascending] = np.arange(d)
    evecs = np.zeros((d, d), dtype=complex)
    offset = 0
    for idx, _, vecs in solved:
        cols = rank[offset : offset + idx.size].reshape(idx.shape)
        evecs[idx[:, :, None], cols[:, None, :]] = vecs
        offset += idx.size
    return w[ascending], evecs


class HermitianOperator:
    """A Hermitian operator kept as its structure: monomial parts
    ``((perm, vals), ...)`` with ``P_g x == vals_g * x[perm_g]``, plus an
    optional dense remainder R, so that ``A = sum_g P_g + R``.

    `HermitianOperator(mat)` reads a matrix's structure once: one part if it
    passes the exact checks of `from_monomial` (diagonal terms, signed Pauli
    strings), else the remainder. `sum` fuses the structure of several
    operators. The dense ``mat`` is formed only when first read: the
    eigensystem or eigenvalues (solved per block of the nonzero pattern by
    `_block_eigh`) and `expectation` read the structure. Each cache
    (``mat``, eigensystem, eigenvalues) is written once, read-only and never
    mutated; concurrent readers observe either no cache or the completed value.
    """

    __slots__ = ("_mat", "dim", "_eig", "_evals", "_parts", "_rest")

    def __init__(self, mat: object) -> None:
        a = _checked_hermitian(_as_square_matrix(mat))
        nz = a != 0
        rows = np.arange(len(a))
        perm = np.where(nz.any(axis=1), nz.argmax(axis=1), rows)
        vals = a[rows, perm]
        perm.setflags(write=False)
        vals.setflags(write=False)
        mono = bool((nz.sum(axis=1) <= 1).all()) and _monomial_defect(perm, vals) is None
        self._parts, self._rest = (((perm, vals),), None) if mono else ((), a)
        self._mat, self.dim, self._eig, self._evals = a, len(a), None, None

    @classmethod
    def _structured(cls, parts, rest: np.ndarray | None, dim: int) -> "HermitianOperator":
        """The operator ``sum_g P_g + R`` from exactly Hermitian read-only
        parts and a checked read-only remainder (or None)."""
        op = cls.__new__(cls)
        op._parts, op._rest, op.dim, op._eig, op._evals = tuple(parts), rest, dim, None, None
        op._mat = rest if not parts else None
        return op

    @classmethod
    def from_monomial(cls, perm: object, vals: object) -> "HermitianOperator":
        """The operator with ``A x == vals * x[perm]``, i.e. ``A[i, perm[i]] ==
        vals[i]`` and zeros elsewhere, without forming the dense matrix.

        Checks exactly that ``perm`` is an in-range involution, that
        ``vals[perm] == vals.conj()`` (so ``A`` is exactly Hermitian) and
        that ``vals`` is finite."""
        p, v = np.array(perm), np.array(vals, dtype=complex)
        if p.ndim != 1 or not p.size or v.shape != p.shape:
            raise DimensionError(
                f"perm and vals must be non-empty 1-D arrays of one length, "
                f"got shapes {p.shape} and {v.shape}"
            )
        if not np.issubdtype(p.dtype, np.integer) or not ((p >= 0) & (p < p.size)).all():
            raise ValidationError(f"perm must hold integer indices in [0, {p.size})")
        if not np.isfinite(v).all():
            raise ValidationError("vals has non-finite entries")
        p = p.astype(np.intp)
        defect = _monomial_defect(p, v)
        if defect is not None:
            raise ValidationError(defect)
        p.setflags(write=False)
        v.setflags(write=False)
        return cls._structured(((p, v),), None, int(p.size))

    @classmethod
    def sum(cls, ops: "Sequence[HermitianOperator]") -> "HermitianOperator":
        """``sum(ops)`` kept as structure, with no d x d array unless an
        operator has a dense remainder.

        Parts with one ``perm`` fuse, their ``vals`` added in operator order
        (so a pair that cancels does so exactly), in order of first
        appearance; the remainders add into one, checked for Hermiticity
        when there are several."""
        if not ops:
            raise ValidationError("HermitianOperator.sum needs at least one operator")
        dims = {op.dim for op in ops}
        if len(dims) != 1:
            raise DimensionError(f"operators have mixed dimensions {sorted(dims)}")
        fused: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
        dense = []
        for op in ops:
            for perm, vals in op._parts:
                key = perm.tobytes()
                if key in fused:
                    vals = fused[key][1] + vals
                    vals.setflags(write=False)
                fused[key] = (perm, vals)
            if op._rest is not None:
                dense.append(op._rest)
        rest = reduce(np.add, dense) if dense else None
        if len(dense) > 1:  # terms Hermitian within tolerance may sum past it
            rest = _checked_hermitian(rest)
            rest.setflags(write=False)
        return cls._structured(tuple(fused.values()), rest, ops[0].dim)

    def _entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows, columns and values of the nonzeros: each part's ``(i,
        perm[i], vals[i])`` in part order, then the remainder's.

        Two sources may share an entry; every gather adds them in this
        order, so a gathered entry equals the one in ``mat`` bit for bit."""
        parts = self._parts
        r, c, v = [np.arange(self.dim)] * len(parts), [p for p, _ in parts], [w for _, w in parts]
        if self._rest is not None:
            rr, rc = np.nonzero(self._rest)
            r, c, v = r + [rr], c + [rc], v + [self._rest[rr, rc]]
        r, c, v = np.concatenate(r), np.concatenate(c), np.concatenate(v)
        nz = v != 0
        return r[nz], c[nz], v[nz]

    @property
    def mat(self) -> np.ndarray:
        """The dense read-only matrix, materialised from the structure on
        first access."""
        if self._mat is None:
            r, c, v = self._entries()
            a = np.zeros(self.dim * self.dim, dtype=complex)
            np.add.at(a, r * self.dim + c, v)  # zeros, then each part's entries, then the remainder's
            a = a.reshape(self.dim, self.dim)
            a.setflags(write=False)
            self._mat = a
        return self._mat

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and matching orthonormal complex columns, a
        dense d x d matrix (`eigenvalues` forms none)."""
        if self._eig is None:
            self._eig = self._solve(vectors=True)
        return self._eig

    def eigenvalues(self) -> np.ndarray:
        """Ascending read-only eigenvalues: `eigensystem`'s own once it is
        solved, else one cached values-only `_block_eigh` solve, which may
        differ from those by a few ulps of the largest |eigenvalue|."""
        if self._eig is not None:
            return self._eig[0]
        if self._evals is None:
            self._evals = self._solve(vectors=False)[0]
        return self._evals

    def _solve(self, vectors: bool) -> tuple[np.ndarray, np.ndarray | None]:
        """`_block_eigh` of the structure, its arrays made read-only."""
        try:
            solved = _block_eigh(*self._entries(), self.dim, vectors)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
            raise EigenDecompositionError(self.dim, str(exc)) from exc
        for a in solved:
            if a is not None:
                a.setflags(write=False)
        return solved

    def monomial(self) -> tuple[np.ndarray, np.ndarray] | None:
        """``(perm, vals)`` with ``A x == vals * x[perm]`` if the operator is
        one monomial part, else None. Then ``A @ A == diag(|vals|^2)``, so
        matrix functions of ``A`` have closed forms. A matrix Hermitian only
        within HERMITICITY_ATOL fails the exact check and gets None, as do an
        operator of several parts and a summed remainder (`sum` keeps it
        whole)."""
        return self._parts[0] if len(self._parts) == 1 and self._rest is None else None

    def norm2(self) -> float:
        """Spectral norm, i.e. the largest eigenvalue magnitude.

        Monomial operators read it as ``max |vals|`` without a solve, others
        from `eigenvalues`."""
        mono = self.monomial()
        if mono is not None:
            return float(np.abs(mono[1]).max())
        return float(np.abs(self.eigenvalues()).max())

    def __repr__(self) -> str:
        return f"HermitianOperator(dim={self.dim})"


@dataclass(frozen=True)
class QuantumState:
    """System state: pure (1-D amplitude vector) or mixed (2-D density matrix).

    Construction checks shape and finiteness only, and keeps a read-only copy
    of ``data``; `validate_and_normalize` enforces the invariants at protocol
    boundaries, hands on its `support`, and keeps a pass on the state it checked.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.data, dtype=complex)
        if a.ndim not in (1, 2):
            raise DimensionError(f"state must be 1-D or 2-D, got ndim={a.ndim}")
        if a.ndim == 2 and a.shape[0] != a.shape[1]:
            raise DimensionError(f"density matrix must be square, got {a.shape}")
        if a.shape[0] == 0:
            raise DimensionError("empty state")
        if not np.isfinite(a).all():
            raise ValidationError("state has non-finite entries")
        a.setflags(write=False)
        object.__setattr__(self, "data", a)

    @property
    def dim(self) -> int:
        return int(self.data.shape[0])

    @property
    def is_pure(self) -> bool:
        return self.data.ndim == 1

    def density(self) -> np.ndarray:
        """Density-matrix view (|psi><psi| for pure input)."""
        if self.is_pure:
            return np.outer(self.data, self.data.conj())
        return self.data

    @cached_property
    def support(self) -> np.ndarray:
        """Ascending indices of psi's nonzeros, or of rho's rows and columns holding one."""
        nz = self.data != 0
        return np.flatnonzero(nz if self.is_pure else nz.any(axis=0) | nz.any(axis=1))


def check_dim(state: QuantumState, dim: int) -> None:
    """Refuse, as a `DimensionError`, a state that does not live in ``dim`` dimensions."""
    if state.dim != dim:
        raise DimensionError(f"state dim {state.dim} != operator dim {dim}")


def expectation(state: QuantumState, h: HermitianOperator) -> float:
    """<H> for a pure or mixed state; asserts the imaginary residue is tiny.

    Reads an operator's structure: ``sum_g vals_g * x[perm_g]`` (plus
    ``R @ x``) for a pure state x, ``sum_g sum_i vals_g[i] rho[perm_g[i],
    i]`` (plus ``tr(rho R)``) for a mixed one, so no dense H is formed."""
    parts, rest, dim = h._parts, h._rest, h.dim
    check_dim(state, dim)
    x = state.data
    if state.is_pure:
        hx = np.zeros(dim, dtype=complex) if rest is None else rest @ x
        for perm, vals in parts:
            hx += vals * x[perm]
        val = complex(np.vdot(x, hx))
    else:
        val = 0j if rest is None else complex(np.einsum("ij,ji->", x, rest))
        cols = np.arange(dim)
        for perm, vals in parts:
            val += complex(vals @ x[perm, cols])
    if abs(val.imag) > 1e-9:
        raise ValidationError(f"expectation has imaginary residue {val.imag:.3e}")
    return float(val.real)


def validate_and_normalize(state: QuantumState) -> QuantumState:
    """Check the state invariants within NORMALIZATION_TOL and return it exactly normalized.

    One scan of a density matrix's nonzeros (r, c, v) gives its Hermiticity defect
    (the dense one to the bit), its PSD blocks (`_block_eigh`) and the `support` of rho * (1/tr).
    A pass is kept on ``state``: a state's data is its own read-only copy, so
    a second call returns the same object without a scan. A refusal is not
    kept, and the output's own check is not seeded (normalizing twice is not
    bitwise idempotent)."""
    if "_normalized" not in state.__dict__:
        state.__dict__["_normalized"] = _normalized(state)
    return state.__dict__["_normalized"]


def _normalized(state: QuantumState) -> QuantumState:
    tol = NORMALIZATION_TOL
    if state.is_pure:
        nrm = float(np.linalg.norm(state.data))
        if abs(nrm - 1.0) > tol:
            raise ValidationError(f"pure-state norm {nrm:.6g} deviates from 1 by more than {tol:g}")
        return QuantumState(state.data / nrm)
    d = state.data
    nz = d != 0
    r, c = np.nonzero(nz)
    v = d[r, c]
    defect = float(np.abs(v - d[c, r].conj()).max()) if v.size else 0.0
    if defect > HERMITICITY_ATOL:
        raise ValidationError(f"density matrix not Hermitian (defect {defect:.3e})")
    tr = float(np.trace(d).real)
    if abs(tr - 1.0) > tol:
        raise ValidationError(f"density trace {tr:.6g} deviates from 1 by more than {tol:g}")
    evmin = _block_eigh(r, c, v, len(d), vectors=False)[0][0]
    if evmin < -tol:
        raise ValidationError(f"density matrix not positive semidefinite (min eigenvalue {evmin:.3e})")
    out = QuantumState(d * (1.0 / tr))
    out.__dict__["support"] = np.flatnonzero(nz.any(axis=0) | nz.any(axis=1))
    return out


def basis_vector(dim: int, index: int) -> QuantumState:
    """Computational-basis pure state |index> in a ``dim``-dimensional space."""
    if not 0 <= index < dim:
        raise DimensionError(f"basis index {index} out of range for dim {dim}")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return QuantumState(v)
