import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peigen import (
    DimensionError,
    HermitianOperator,
    QuantumState,
    ValidationError,
    basis_vector,
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
