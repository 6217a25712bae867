import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peigen import (
    DimensionError,
    HermitianOperator,
    Hubbard1D,
    QuantumState,
    Rabi,
    ValidationError,
    basis_vector,
    build_model,
    expectation,
    validate_and_normalize,
)
from tests.conftest import random_hermitian, random_state_vector


def test_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_rejects_non_square():
    with pytest.raises(DimensionError):
        HermitianOperator(np.zeros((2, 3)))


def test_matfunc_frozen_diagonal_values():
    # f(x) = cos^2(0.3 x) on diag(0,1,2): the per-stage reweighting profile
    h = HermitianOperator(np.diag([0.0, 1.0, 2.0]))
    f = h.matfunc(lambda x: math.cos(0.3 * x) ** 2)
    expected = [1.0, math.cos(0.3) ** 2, math.cos(0.6) ** 2]
    assert np.allclose(np.diag(f).real, expected, atol=1e-12)
    assert abs(math.cos(0.3) ** 2 - 0.9126678074548392) < 1e-15
    assert abs(math.cos(0.6) ** 2 - 0.6811788772383368) < 1e-15


def test_matfunc_identity_function_reproduces_matrix():
    rng = np.random.default_rng(5)
    m = random_hermitian(rng, 6)
    h = HermitianOperator(m)
    assert np.allclose(h.matfunc(lambda x: x), m, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_matfunc_exp_is_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    h = HermitianOperator(random_hermitian(rng, dim))
    u = h.matfunc(lambda x: np.exp(-1j * x))
    assert np.linalg.norm(u @ u.conj().T - np.eye(dim), 2) < 1e-12


def test_eigensystem_sorted_and_cached():
    rng = np.random.default_rng(7)
    h = HermitianOperator(random_hermitian(rng, 5))
    evals, vecs = h.eigensystem()
    assert np.all(np.diff(evals) >= 0)
    evals2, vecs2 = h.eigensystem()
    assert evals is evals2 and vecs is vecs2  # cached, not recomputed
    with pytest.raises(ValueError):
        evals[0] = 99.0  # read-only


def test_pure_state_basics():
    psi = basis_vector(4, 2)
    assert psi.is_pure and psi.dim == 4
    assert psi.data[2] == 1.0
    rho = psi.density()
    assert rho.shape == (4, 4) and abs(rho[2, 2] - 1.0) < 1e-15


def test_state_rejects_nonfinite():
    with pytest.raises(ValidationError):
        QuantumState(np.array([1.0, np.nan]))


def test_state_data_read_only():
    psi = basis_vector(3, 0)
    with pytest.raises(ValueError):
        psi.data[0] = 0.0


def test_expectation_pure_and_mixed_agree():
    rng = np.random.default_rng(11)
    h = HermitianOperator(random_hermitian(rng, 5))
    v = random_state_vector(rng, 5)
    pure = QuantumState(v)
    mixed = QuantumState(np.outer(v, v.conj()))
    assert abs(expectation(pure, h) - expectation(mixed, h)) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 7), st.integers(0, 2**32 - 1))
def test_expectation_within_spectral_range(dim, seed):
    rng = np.random.default_rng(seed)
    h = HermitianOperator(random_hermitian(rng, dim))
    psi = QuantumState(random_state_vector(rng, dim))
    e = expectation(psi, h)
    evals, _ = h.eigensystem()
    assert evals[0] - 1e-10 <= e <= evals[-1] + 1e-10


def test_validate_and_normalize_pure():
    v = np.array([1.0, 1.0]) / math.sqrt(2) * (1 + 5e-7)  # within tol
    out = validate_and_normalize(QuantumState(v))
    assert abs(np.linalg.norm(out.data) - 1.0) < 1e-14
    with pytest.raises(ValidationError):
        validate_and_normalize(QuantumState(np.array([1.0, 1.0])))  # norm sqrt(2)


def test_validate_and_normalize_mixed():
    rho = np.diag([0.5, 0.5])
    out = validate_and_normalize(QuantumState(rho))
    assert abs(np.trace(out.data).real - 1.0) < 1e-14
    with pytest.raises(ValidationError):
        validate_and_normalize(QuantumState(np.diag([1.5, -0.5])))  # not PSD


def test_basis_vector_bounds():
    with pytest.raises(DimensionError):
        basis_vector(3, 3)


# ---------------------------------------------------------------------------
# operators built from their monomial structure


def _random_monomial(rng: np.random.Generator, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """A random Hermitian signed permutation: ``perm`` an involution with
    fixed points, ``vals[perm] == vals.conj()`` exactly."""
    perm = np.arange(dim)
    order = rng.permutation(dim)
    for a, b in zip(order[0 : dim - 2 : 2], order[1 : dim - 1 : 2]):
        perm[a], perm[b] = b, a
    vals = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    fixed = perm == np.arange(dim)
    vals[fixed] = vals[fixed].real
    low = np.arange(dim) < perm
    vals[perm[low]] = vals[low].conj()
    return perm, vals


@pytest.mark.parametrize(
    "perm, vals, error",
    [
        ([1, 2, 0], [1.0, 1.0, 1.0], ValidationError),  # a 3-cycle, not an involution
        ([0, 3, 2], [1.0, 1.0, 1.0], ValidationError),  # index past the end
        ([-1, 1], [1.0, 1.0], ValidationError),  # negative index
        ([0.0, 1.0], [1.0, 1.0], ValidationError),  # non-integer perm
        ([1, 0], [1j, 1j], ValidationError),  # vals[perm] != conj(vals)
        ([0, 1], [1j, 1.0], ValidationError),  # complex diagonal
        ([0, 1], [np.nan, 1.0], ValidationError),
        ([1, 0], [np.inf, np.inf], ValidationError),
        ([0, 1], [1.0, 2.0, 3.0], DimensionError),  # mismatched lengths
        ([], [], DimensionError),
        ([[0]], [[1.0]], DimensionError),
    ],
)
def test_from_monomial_rejects_bad_structure(perm, vals, error):
    with pytest.raises(error):
        HermitianOperator.from_monomial(perm, vals)


def test_from_monomial_materialises_lazily():
    rng = np.random.default_rng(13)
    perm, vals = _random_monomial(rng, 9)
    op = HermitianOperator.from_monomial(perm, vals)
    assert op.dim == 9 and op._mat is None
    p, v = op.monomial()
    assert np.array_equal(p, perm) and np.array_equal(v, vals)
    assert abs(op.norm2() - np.abs(vals).max()) < 1e-15
    assert op._mat is None  # the structure and the norm need no dense matrix
    dense = np.zeros((9, 9), dtype=complex)
    for i in range(9):
        dense[i, perm[i]] = vals[i]
    m = op.mat
    assert np.array_equal(m, dense) and op.mat is m
    with pytest.raises(ValueError):
        m[0, 0] = 1.0  # read-only
    # the dense constructor derives the same structure
    q, w = HermitianOperator(dense).monomial()
    assert np.array_equal(q, perm) and np.array_equal(w, vals)
    x = random_state_vector(rng, 9)
    assert np.allclose(vals * x[perm], dense @ x, atol=1e-15)


def test_add_to_scatters_or_adds_dense():
    rng = np.random.default_rng(17)
    ops = [
        HermitianOperator.from_monomial(*_random_monomial(rng, 6)),
        HermitianOperator(random_hermitian(rng, 6)),
    ]
    acc = np.zeros((6, 6), dtype=complex)
    for op in ops:
        op.add_to(acc)
    assert ops[0]._mat is None
    assert np.array_equal(acc, ops[0].mat + ops[1].mat)


# ---------------------------------------------------------------------------
# the block eigensolver against a dense eigh


def _check_eigensystem(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`eigensystem` of ``m`` checked against ``np.linalg.eigh`` of the
    dense matrix: spectrum, reconstruction, orthonormality, array form."""
    evals, v = HermitianOperator(m).eigensystem()
    scale = max(1.0, float(np.linalg.norm(m, 2)))
    assert np.all(np.diff(evals) >= 0)
    assert np.abs(evals - np.linalg.eigh(m)[0]).max(initial=0.0) <= 1e-12 * scale
    assert np.linalg.norm((v * evals) @ v.conj().T - m, 2) <= 1e-12
    assert np.linalg.norm(v.conj().T @ v - np.eye(len(m)), 2) <= 1e-12
    assert v.dtype == complex and v.flags.c_contiguous and not v.flags.writeable
    assert not evals.flags.writeable
    return evals, v


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_block_eigensystem_matches_dense(seed):
    """Random blocks (real or complex, some 1x1, some exact copies of an
    earlier block) under a random permutation, some nearly Hermitian."""
    rng = np.random.default_rng(seed)
    blocks: list[np.ndarray] = []
    for _ in range(int(rng.integers(1, 7))):
        if blocks and rng.random() < 0.3:
            blocks.append(blocks[int(rng.integers(len(blocks)))])  # exact degeneracy
            continue
        n = int(rng.integers(1, 7))
        b = random_hermitian(rng, n)
        blocks.append(b.real + 0j if rng.random() < 0.5 else b)
    d = sum(len(b) for b in blocks)
    m = np.zeros((d, d), dtype=complex)
    start = 0
    for b in blocks:
        m[start : start + len(b), start : start + len(b)] = b
        start += len(b)
    if rng.random() < 0.3:  # Hermitian within 1e-12 only, inside one block
        i = int(rng.integers(d))
        j = int(rng.choice(np.flatnonzero(m[i])))
        m[i, j] += 4e-13 * (1 + 1j)
    perm = rng.permutation(d)
    _check_eigensystem(m[np.ix_(perm, perm)])


def test_block_eigensystem_zero_and_diagonal():
    evals, v = _check_eigensystem(np.zeros((5, 5)))
    assert np.array_equal(evals, np.zeros(5))
    evals, v = _check_eigensystem(np.diag([2.0, -1.0, 2.0, 0.5]))
    assert np.array_equal(evals, [-1.0, 0.5, 2.0, 2.0])
    assert np.array_equal(np.abs(v), np.eye(4)[:, [1, 3, 0, 2]])


def test_one_complex_block_is_plain_eigh():
    m = random_hermitian(np.random.default_rng(19), 12)
    evals, v = _check_eigensystem(m)
    w0, v0 = np.linalg.eigh(m)
    assert np.array_equal(evals, w0) and np.array_equal(v, v0)


@pytest.mark.parametrize(
    "spec, components",
    [
        (Hubbard1D(2, 1.0, 2.0), 9),
        (Hubbard1D(3, 1.0, 2.0), 16),
        (Hubbard1D(4, 1.0, 2.0), 25),
        (Rabi(1.0, 1.0, 0.5, cutoff=20), 2),
        (Rabi(1.0, 1.0, 0.5, cutoff=100), 2),
    ],
)
def test_model_hamiltonians_split_into_blocks(spec, components):
    """Hubbard conserves (N_up, N_dn), (L+1)^2 sectors; Rabi conserves parity.
    Each eigenvector lies in one component, so each block was solved apart."""
    from scipy.sparse.csgraph import connected_components

    m = build_model(spec).total.mat
    n, label = connected_components(m != 0, directed=False)
    assert n == components
    _, v = _check_eigensystem(m)
    support = np.abs(v) > 0
    assert all(len(set(label[col])) == 1 for col in support.T)
