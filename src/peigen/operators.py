"""Complex-matrix algebra: Hermitian operators (dense, or built from their
monomial structure with the dense matrix formed on demand), matrix
functions, and pure/mixed state bookkeeping that every other module
builds on."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import DimensionError, EigenDecompositionError, ValidationError

HERMITICITY_ATOL = 1e-12


def as_square_matrix(m: object) -> np.ndarray:
    """Coerce ``m`` to a finite square complex ndarray (read-only copy)."""
    a = np.array(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
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


def _block_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh(a)`` solved per connected component of the pattern of
    ``a``'s strict lower triangle (all that ``eigh`` reads).

    Components are found in O(nnz) memory by root hooking: each pass hooks
    every root under its least neighbouring root, then pointer jumping sends
    every index to its root, until no edge joins two roots. ``root[x] <= x``
    holds throughout (a root is only hooked under a smaller one), so pointers
    form no cycle and each pass removes at least one root. Components of one
    size share a stacked call, real ones the real solver; a matrix that is
    one component is solved whole, so a complex one by exactly ``eigh(a)``."""
    r, c = np.nonzero(a)
    lower = r > c
    r, c = r[lower], c[lower]
    d = a.shape[0]
    root = np.arange(d)
    while True:
        rr, rc = root[r], root[c]
        if (rr == rc).all():
            break
        np.minimum.at(root, rr, rc)
        np.minimum.at(root, rc, rr)
        while True:
            hop = root[root]
            if (hop == root).all():
                break
            root = hop
    if not root.any():
        w, v = np.linalg.eigh(a if a.imag.any() else a.real)
        return w, v.astype(complex, copy=False)
    size = np.bincount(root)[root]
    order = np.lexsort((root, size))
    parts = []  # (block indices, eigenvalues, eigenvectors), stacked by size
    for n in np.unique(size):
        idx = order[size[order] == n].reshape(-1, n)
        sub = a[idx[:, :, None], idx[:, None, :]]
        real = ~sub.imag.any(axis=(1, 2))
        if real.any():
            parts.append((idx[real], *np.linalg.eigh(sub[real].real)))
        if not real.all():
            parts.append((idx[~real], *np.linalg.eigh(sub[~real])))
    w = np.concatenate([p[1].ravel() for p in parts])
    rank = np.empty(d, dtype=np.intp)  # rank[k]: ascending position of w[k]
    rank[np.argsort(w, kind="stable")] = np.arange(d)
    evecs = np.zeros((d, d), dtype=complex)
    start = 0
    for idx, _, v in parts:
        cols = rank[start : start + idx.size].reshape(idx.shape)
        evecs[idx[:, :, None], cols[:, None, :]] = v
        start += idx.size
    return np.sort(w, kind="stable"), evecs


class HermitianOperator:
    """A Hermitian matrix with a lazily cached eigendecomposition and
    monomial structure.

    Built from a dense matrix, or by `from_monomial` from its structure
    ``(perm, vals)`` alone (diagonal terms, signed Pauli strings); the dense
    ``mat`` of the latter is materialised only when first read. The eigensystem
    is solved per block of the nonzero pattern (`_block_eigh`). Each cache
    (``mat``, eigensystem, monomial structure) is written once, read-only and
    never mutated; concurrent readers observe either no cache or the
    completed value.
    """

    __slots__ = ("_mat", "dim", "_eig", "_mono")

    def __init__(self, mat: object) -> None:
        a = as_square_matrix(mat)
        defect = float(np.abs(a - a.conj().T).max()) if a.size else 0.0
        if defect > HERMITICITY_ATOL:
            raise ValidationError(
                f"matrix is not Hermitian (max |A - A^H| = {defect:.3e})"
            )
        self._mat: np.ndarray | None = a
        self.dim = int(a.shape[0])
        self._eig: tuple[np.ndarray, np.ndarray] | None = None
        self._mono: tuple[np.ndarray, np.ndarray] | bool | None = None

    @classmethod
    def from_monomial(cls, perm: object, vals: object) -> "HermitianOperator":
        """The operator with ``A x == vals * x[perm]``, i.e. ``A[i, perm[i]] ==
        vals[i]`` and zeros elsewhere, without forming the dense matrix.

        Applies the exact checks of `monomial`: ``perm`` is an in-range
        involution, ``vals[perm] == vals.conj()`` holds exactly (so ``A`` is
        exactly Hermitian) and ``vals`` is finite."""
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
        op = cls.__new__(cls)
        op._mat, op.dim, op._eig, op._mono = None, int(p.size), None, (p, v)
        return op

    @property
    def mat(self) -> np.ndarray:
        """The dense read-only matrix, materialised from the monomial
        structure on first access when the operator was built without it."""
        if self._mat is None:
            perm, vals = self._mono
            a = np.zeros((self.dim, self.dim), dtype=complex)
            a[np.arange(self.dim), perm] = vals
            a.setflags(write=False)
            self._mat = a
        return self._mat

    def add_to(self, acc: np.ndarray) -> None:
        """``acc += A`` in place; an unmaterialised monomial operator scatters
        its ``dim`` nonzeros instead of forming ``mat``."""
        if self._mat is None:
            perm, vals = self._mono
            acc[np.arange(self.dim), perm] += vals
        else:
            acc += self._mat

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and matching orthonormal complex columns."""
        if self._eig is None:
            try:
                evals, evecs = _block_eigh(self.mat)
            except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
                raise EigenDecompositionError(self.dim, str(exc)) from exc
            evals.setflags(write=False)
            evecs.setflags(write=False)
            self._eig = (evals, evecs)
        return self._eig

    def matfunc(self, f: Callable[[float], complex]) -> np.ndarray:
        """Evaluate ``V diag(f(lambda)) V^H`` for a scalar function ``f``."""
        evals, v = self.eigensystem()
        fl = np.array([complex(f(float(x))) for x in evals])
        return (v * fl) @ v.conj().T

    def monomial(self) -> tuple[np.ndarray, np.ndarray] | None:
        """``(perm, vals)`` with ``A x == vals * x[perm]``, or None.

        Set when every row has at most one nonzero, ``perm`` is an involution
        and ``vals[perm] == vals.conj()`` holds exactly: diagonal terms and
        signed Pauli strings. Then ``A @ A == diag(|vals|^2)``, so matrix
        functions of ``A`` have closed forms. A matrix that is Hermitian only
        within HERMITICITY_ATOL fails the exact check and gets None."""
        if self._mono is None:
            nz = self.mat != 0
            rows = np.arange(self.dim)
            perm = np.where(nz.any(axis=1), nz.argmax(axis=1), rows)
            vals = self.mat[rows, perm]
            ok = bool((nz.sum(axis=1) <= 1).all()) and _monomial_defect(perm, vals) is None
            if ok:
                perm.setflags(write=False)
                vals.setflags(write=False)
            self._mono = (perm, vals) if ok else False
        return self._mono or None

    def norm2(self) -> float:
        """Spectral norm, i.e. the largest eigenvalue magnitude.

        Monomial operators read it as ``max |vals|`` without an ``eigh``."""
        mono = self.monomial()
        if mono is not None:
            return float(np.abs(mono[1]).max())
        evals, _ = self.eigensystem()
        return float(np.abs(evals).max())

    def __repr__(self) -> str:
        return f"HermitianOperator(dim={self.dim})"


@dataclass(frozen=True)
class QuantumState:
    """System state: pure (1-D amplitude vector) or mixed (2-D density matrix).

    Construction checks shape and finiteness only; `validate_and_normalize`
    enforces the norm/positivity invariants at protocol boundaries.
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


MatrixLike = Union[HermitianOperator, np.ndarray]


def expectation(state: QuantumState, h: MatrixLike) -> float:
    """<H> for a pure or mixed state; asserts the imaginary residue is tiny."""
    m = h.mat if isinstance(h, HermitianOperator) else np.asarray(h, dtype=complex)
    if m.shape[0] != state.dim:
        raise DimensionError(f"operator dim {m.shape[0]} != state dim {state.dim}")
    if state.is_pure:
        val = complex(np.vdot(state.data, m @ state.data))
    else:
        val = complex(np.einsum("ij,ji->", state.data, m))
    if abs(val.imag) > 1e-9:
        raise ValidationError(f"expectation has imaginary residue {val.imag:.3e}")
    return float(val.real)


def validate_and_normalize(state: QuantumState, tol: float = 1e-6) -> QuantumState:
    """Check the state invariants within ``tol`` and return it exactly normalized."""
    if state.is_pure:
        nrm = float(np.linalg.norm(state.data))
        if abs(nrm - 1.0) > tol:
            raise ValidationError(f"pure-state norm {nrm:.6g} deviates from 1 by more than {tol:g}")
        return QuantumState(state.data / nrm)
    d = state.data
    defect = float(np.abs(d - d.conj().T).max())
    if defect > HERMITICITY_ATOL:
        raise ValidationError(f"density matrix not Hermitian (defect {defect:.3e})")
    tr = float(np.trace(d).real)
    if abs(tr - 1.0) > tol:
        raise ValidationError(f"density trace {tr:.6g} deviates from 1 by more than {tol:g}")
    evmin = float(np.linalg.eigvalsh(d).min())
    if evmin < -tol:
        raise ValidationError(f"density matrix not positive semidefinite (min eigenvalue {evmin:.3e})")
    return QuantumState(d / tr)


def basis_vector(dim: int, index: int) -> QuantumState:
    """Computational-basis pure state |index> in a ``dim``-dimensional space."""
    if not 0 <= index < dim:
        raise DimensionError(f"basis index {index} out of range for dim {dim}")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return QuantumState(v)
