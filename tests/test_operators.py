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
    SumHamiltonian,
    ValidationError,
    basis_vector,
    build_model,
    expectation,
    validate_and_normalize,
)
from peigen.operators import _block_eigh
from tests.conftest import random_hermitian, random_state_vector, with_signed_zeros


def test_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_rejects_non_square():
    for shape in [(2, 3), (0, 0)]:  # an empty matrix too
        with pytest.raises(DimensionError):
            HermitianOperator(np.zeros(shape))


def test_rejects_non_finite():
    with pytest.raises(ValidationError, match="^matrix has non-finite entries$"):
        HermitianOperator([[np.nan]])


@pytest.mark.parametrize(
    "data, message",
    [
        (np.zeros((2, 2, 2)), "state must be 1-D or 2-D, got ndim=3"),
        (np.zeros((2, 3)), r"density matrix must be square, got \(2, 3\)"),
        (np.zeros(0), "empty state"),
    ],
    ids=["ndim-3", "not-square", "empty"],
)
def test_state_rejects_bad_shapes(data, message):
    with pytest.raises(DimensionError, match=f"^{message}$"):
        QuantumState(data)


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


@pytest.mark.parametrize(
    "rho, message",
    [
        ([[0.5, 0.1], [0.2, 0.5]], r"density matrix not Hermitian \(defect 1\.000e-01\)"),
        ([[0.5, 2e-12 * (0.6 - 0.8j)], [0, 0.5]], r"density matrix not Hermitian \(defect 2\.000e-12\)"),
        (np.eye(2), "density trace 2 deviates from 1 by more than 1e-06"),
    ],
    ids=["not-hermitian", "zero-mirror", "trace-2"],
)
def test_validate_and_normalize_rejects_a_bad_density_matrix(rho, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        validate_and_normalize(QuantumState(np.array(rho)))


def test_basis_vector_bounds():
    with pytest.raises(DimensionError):
        basis_vector(3, 3)


# ---------------------------------------------------------------------------
# operators built from their monomial structure


def _random_vals(rng: np.random.Generator, perm: np.ndarray) -> np.ndarray:
    """Random complex ``vals`` with ``vals[perm] == vals.conj()`` exactly."""
    dim = perm.size
    vals = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    fixed = perm == np.arange(dim)
    vals[fixed] = vals[fixed].real
    low = np.arange(dim) < perm
    vals[perm[low]] = vals[low].conj()
    return vals


def _random_monomial(rng: np.random.Generator, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """A random Hermitian signed permutation: ``perm`` an involution with
    fixed points, ``vals[perm] == vals.conj()`` exactly."""
    perm = np.arange(dim)
    order = rng.permutation(dim)
    for a, b in zip(order[0 : dim - 2 : 2], order[1 : dim - 1 : 2]):
        perm[a], perm[b] = b, a
    return perm, _random_vals(rng, perm)


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
    # the dense constructor derives the same structure, as its one part
    from_dense = HermitianOperator(dense)
    q, w = from_dense.monomial()
    assert np.array_equal(q, perm) and np.array_equal(w, vals)
    assert from_dense._rest is None and from_dense.mat is not None
    x = random_state_vector(rng, 9)
    assert np.allclose(vals * x[perm], dense @ x, atol=1e-15)


def _random_terms(rng: np.random.Generator) -> list[HermitianOperator]:
    """Terms of a structured sum: random involution monomials, one ``perm``
    repeated in two non-adjacent terms, a pair that cancels exactly where a
    perm-symmetric mask is set (as an XX+YY hop pair does where its two bits
    agree), diagonals and 0-2 sparse dense terms, in random order."""
    d = int(rng.integers(2, 13))
    perm, vals = _random_monomial(rng, d)
    first = HermitianOperator.from_monomial(perm, vals)
    repeat = HermitianOperator.from_monomial(perm, _random_vals(rng, perm))
    p, v = _random_monomial(rng, d)
    agree = rng.random(d) < 0.5
    agree &= agree[p]
    middle = [
        HermitianOperator.from_monomial(p, v),
        HermitianOperator.from_monomial(p, np.where(agree, -v, v)),
        HermitianOperator.from_monomial(np.arange(d), rng.normal(size=d)),
    ]
    middle += [
        HermitianOperator.from_monomial(*_random_monomial(rng, d))
        for _ in range(int(rng.integers(0, 3)))
    ]
    for _ in range(int(rng.integers(0, 3))):
        m = random_hermitian(rng, d)
        mask = rng.random((d, d)) < 0.2
        m = np.where(mask | mask.T, m, 0)
        middle.append(HermitianOperator(m.real + 0j if rng.random() < 0.5 else m))
    return [first, *(middle[k] for k in rng.permutation(len(middle))), repeat]


def _structured_total(rng: np.random.Generator) -> tuple[HermitianOperator, list[HermitianOperator]]:
    terms = _random_terms(rng)
    return SumHamiltonian([(f"t{k}", t) for k, t in enumerate(terms)]).total, terms


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_structured_total_mat_is_the_sum_of_term_mats(seed):
    """Bitwise: the total adds the terms of each perm in term order, then
    those sums in order of first appearance, then the sum of the dense terms;
    `block` gathers the same entries without forming ``mat``."""
    rng = np.random.default_rng(seed)
    total, terms = _structured_total(rng)
    groups: dict[bytes, np.ndarray] = {}
    dense = []
    for term in terms:
        if term._rest is not None:
            dense.append(term.mat)
            continue
        key = term.monomial()[0].tobytes()
        groups[key] = groups[key] + term.mat if key in groups else term.mat
    want = np.zeros((total.dim, total.dim), dtype=complex)
    for m in [*groups.values(), *([sum(dense[1:], dense[0])] if dense else [])]:
        want = want + m
    idx = rng.permutation(total.dim)[: int(rng.integers(1, total.dim + 1))]
    assert np.array_equal(total.block(idx), want[np.ix_(idx, idx)])
    assert total._mat is None  # neither the block nor the sum formed it
    assert np.array_equal(total.mat, want)


def test_total_keeps_a_summed_remainder_whole():
    # neither term is a monomial, their sum is the identity
    a = HermitianOperator(np.array([[1.0, 1.0], [1.0, 0.0]]))
    b = HermitianOperator(np.array([[0.0, -1.0], [-1.0, 1.0]]))
    assert a.monomial() is None and b.monomial() is None
    total = SumHamiltonian([("a", a), ("b", b)]).total
    assert total._parts == () and total.monomial() is None
    assert np.array_equal(total.mat, np.eye(2)) and not total.mat.flags.writeable


def test_total_checks_the_sum_of_dense_terms():
    m = np.zeros((2, 2), dtype=complex)
    m[0, 1] = 7e-13  # each term is Hermitian within 1e-12, their sum is not
    h = SumHamiltonian([("a", HermitianOperator(m)), ("b", HermitianOperator(m))])
    with pytest.raises(ValidationError):
        h.total


def test_sum_refuses_mixed_dimensions_and_no_operators():
    ops = [HermitianOperator(np.diag([1.0, 2.0])), HermitianOperator(np.diag([1.0, 2.0, 3.0]))]
    with pytest.raises(DimensionError, match=r"^operators have mixed dimensions \[2, 3\]$"):
        HermitianOperator.sum(ops)
    with pytest.raises(ValidationError, match="^HermitianOperator.sum needs at least one operator$"):
        HermitianOperator.sum([])


# ---------------------------------------------------------------------------
# the block eigensolver against a dense eigh


def _check_eigensystem(a: np.ndarray | HermitianOperator) -> tuple[np.ndarray, np.ndarray]:
    """`eigensystem` of a matrix or an operator checked against
    ``np.linalg.eigh`` of the dense matrix: spectrum, reconstruction,
    orthonormality, array form."""
    op = a if isinstance(a, HermitianOperator) else HermitianOperator(a)
    evals, v = op.eigensystem()
    m = op.mat
    scale = max(1.0, float(np.linalg.norm(m, 2)))
    assert np.all(np.diff(evals) >= 0)
    assert np.abs(evals - np.linalg.eigh(m)[0]).max(initial=0.0) <= 1e-12 * scale
    assert np.linalg.norm((v * evals) @ v.conj().T - m, 2) <= 1e-12
    assert np.linalg.norm(v.conj().T @ v - np.eye(len(m)), 2) <= 1e-12
    assert v.dtype == complex and v.flags.c_contiguous and not v.flags.writeable
    assert not evals.flags.writeable
    return evals, v


def _random_blocks(rng: np.random.Generator) -> np.ndarray:
    """Random blocks (real or complex, some 1x1, some exact copies of an
    earlier block) under a random permutation, some nearly Hermitian: one
    entry off by 4e-13, which may lie between two blocks."""
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
    if rng.random() < 0.3:  # Hermitian within 1e-12 only: inside one block,
        i = int(rng.integers(d))  # or anywhere, perhaps with a zero mirror
        j = int(rng.choice(np.flatnonzero(m[i]))) if rng.random() < 0.5 else int(rng.integers(d))
        m[i, j] += 4e-13 * (1 + 1j)
    perm = rng.permutation(d)
    return m[np.ix_(perm, perm)]


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_block_eigensystem_matches_dense(seed, structured):
    """Dense random blocks, or a structured sum (`_random_terms`) whose
    eigensystem and expectations are read from its structure."""
    rng = np.random.default_rng(seed)
    if not structured:
        _check_eigensystem(_random_blocks(rng))
        return
    total, _ = _structured_total(rng)
    x = random_state_vector(rng, total.dim)
    y = random_state_vector(rng, total.dim)
    rho = 0.75 * np.outer(x, x.conj()) + 0.25 * np.outer(y, y.conj())
    e_pure, e_mixed = expectation(QuantumState(x), total), expectation(QuantumState(rho), total)
    _check_eigensystem(total)
    m = total.mat
    scale = max(1.0, float(np.linalg.norm(m, 2)))
    assert abs(e_pure - np.vdot(x, m @ x).real) <= 1e-12 * scale
    assert abs(e_mixed - np.einsum("ij,ji->", rho, m).real) <= 1e-12 * scale


def test_block_eigensystem_zero_and_diagonal():
    evals, v = _check_eigensystem(np.zeros((5, 5)))
    assert np.array_equal(evals, np.zeros(5))
    evals, v = _check_eigensystem(np.diag([2.0, -1.0, 2.0, 0.5]))
    assert np.array_equal(evals, [-1.0, 0.5, 2.0, 2.0])
    assert np.array_equal(np.abs(v), np.eye(4)[:, [1, 3, 0, 2]])


def test_block_eigensystem_skips_an_unread_entry_between_blocks():
    # Hermitian within 1e-12, the upper entry (1, 2) has a zero mirror: eigh
    # never reads it, so it neither joins the blocks nor enters one
    m = np.array([[1.0, 0.5, 0, 0], [0.5, 2.0, 0, 0], [0, 0, 3.0, 0.25], [0, 0, 0.25, 4.0]])
    want = HermitianOperator(m).eigensystem()
    m = m + 0j
    m[1, 2] = 4e-13 * (1 + 1j)
    got = _check_eigensystem(m)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


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
    Each eigenvector lies in one component, so each block was solved apart,
    and the structured total's eigensystem is bitwise that of its ``mat``."""
    from scipy.sparse.csgraph import connected_components

    total = build_model(spec).total
    evals, v = total.eigensystem()
    m = total.mat
    n, label = connected_components(m != 0, directed=False)
    assert n == components
    w0, v0 = _check_eigensystem(m)
    assert np.array_equal(evals, w0) and np.array_equal(v, v0)  # structure reads as mat
    support = np.abs(v) > 0
    assert all(len(set(label[col])) == 1 for col in support.T)


# ---------------------------------------------------------------------------
# the block PSD check of a density matrix against a dense eigvalsh


def _unitary(rng: np.random.Generator, n: int, real: bool) -> np.ndarray:
    a = rng.normal(size=(n, n)) + (0 if real else 1j * rng.normal(size=(n, n)))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _density_blocks(rng: np.random.Generator, least: float) -> np.ndarray:
    """Unit-trace Hermitian blocks, real or complex, with one eigenvalue
    ``least`` and every other eigenvalue positive, plus zero rows, under a
    random permutation. Some carry an entry Hermitian only within 1e-13
    whose mirror is zero, so it may join two blocks or lie unread between
    them."""
    spectra = [rng.uniform(0.1, 1.0, int(rng.integers(1, 6))) for _ in range(int(rng.integers(2, 6)))]
    total = sum(w.sum() for w in spectra) - spectra[0][0]
    spectra = [w * (1.0 - least) / total for w in spectra]
    spectra[0][0] = least
    d = sum(len(w) for w in spectra) + int(rng.integers(0, 4))
    m = np.zeros((d, d), dtype=complex)
    start = 0
    for w in spectra:
        u = _unitary(rng, len(w), real=rng.random() < 0.5)
        m[start : start + len(w), start : start + len(w)] = (u * w) @ u.conj().T
        start += len(w)
    if rng.random() < 0.4:
        i, j = (int(x) for x in rng.integers(d, size=2))
        if m[j, i] == 0 and i != j:
            m[i, j] = 5e-14 * (1 + 1j)
    perm = rng.permutation(d)
    return m[np.ix_(perm, perm)]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.2, -1e-3]))
def test_block_psd_check_matches_dense_eigvalsh(seed, least):
    m = _density_blocks(np.random.default_rng(seed), least)
    got = _block_eigh(*np.nonzero(m), m[m != 0], len(m), vectors=False)
    dense = np.linalg.eigvalsh(m)
    assert got[1] is None and np.all(np.diff(got[0]) >= 0)
    assert np.abs(got[0] - dense).max() <= 1e-12
    assert abs(got[0][0] - dense.min()) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([-1.0, 1.0]))
def test_validate_refuses_what_the_dense_check_refuses(seed, side):
    """Least eigenvalue just past -tol (side -1) or just inside it (side +1)."""
    tol = 1e-6
    m = _density_blocks(np.random.default_rng(seed), -tol + side * 1e-9)
    dense_refuses = bool(np.linalg.eigvalsh(m).min() < -tol)
    assert dense_refuses == (side < 0)
    try:
        validate_and_normalize(QuantumState(m), tol)
    except ValidationError as exc:
        assert str(exc).startswith("density matrix not positive semidefinite")
        refused = True
    else:
        refused = False
    assert refused == dense_refuses


def test_diagonal_density_validates_without_a_dense_solve(monkeypatch):
    """A diagonal 2000 x 2000 rho is 2000 blocks of size 1, so every
    ``eigvalsh`` call sees 1 x 1 matrices, never the whole rho."""
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    d = 2000
    rho = np.diag(np.random.default_rng(5).dirichlet(np.ones(d))).astype(complex)
    out = validate_and_normalize(QuantumState(rho))
    assert abs(np.trace(out.data).real - 1.0) < 1e-14
    assert shapes and all(s[-2:] == (1, 1) for s in shapes)
    assert sum(math.prod(s[:-2]) for s in shapes) == d


def _dense_defect(m: np.ndarray) -> float:
    return float(np.abs(m - m.conj().T).max())


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["lone", "pair", "diagonal"]),
    st.sampled_from([5e-14, *(float(np.nextafter(1e-12, x)) for x in (0, 1)), 1e-12, 2e-12, 1e-3]),
)
def test_hermiticity_check_matches_the_dense_defect(seed, kind, delta):
    """The entry-wise defect accepts exactly what ``max |rho - rho^H|``
    accepts, and a refusal prints that dense defect. Perturbations: an
    off-diagonal entry whose mirror is zero, a mirror pair off by delta, and
    a complex diagonal entry."""
    rng = np.random.default_rng(seed)
    m = _density_blocks(rng, 0.2)
    phase = complex(*rng.choice([(1.0, 0.0), (0.0, -1.0), (0.6, 0.8)]))
    off = ~np.eye(len(m), dtype=bool)
    if kind == "lone":
        i, j = rng.permutation(np.argwhere(off & (m == 0) & (m.T == 0)))[0]
        m[i, j] = delta * phase
    elif kind == "pair":
        i, j = rng.permutation(np.argwhere(off))[0]
        m[i, j] += delta * phase
    else:
        i = int(rng.integers(len(m)))
        m[i, i] += 1j * delta
    dense = _dense_defect(m)
    try:
        validate_and_normalize(QuantumState(m))
    except ValidationError as exc:
        assert dense > 1e-12
        assert str(exc) == f"density matrix not Hermitian (defect {dense:.3e})"
    else:
        assert dense <= 1e-12


def _scanned_support(data: np.ndarray) -> np.ndarray:
    nz = data != 0
    return np.flatnonzero(nz if nz.ndim == 1 else nz.any(axis=0) | nz.any(axis=1))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-1e-7, 1e-7))
def test_normalised_density_is_rho_over_its_trace(seed, off):
    """Random support, signed zeros, trace off 1 by up to 1e-7: the output
    equals ``rho / tr`` entry for entry and carries the support of a fresh scan."""
    rng = np.random.default_rng(seed)
    m = with_signed_zeros(rng, _density_blocks(rng, 0.2) * (1.0 + off))
    out = validate_and_normalize(QuantumState(m))
    assert np.array_equal(out.data, m / float(np.trace(m).real))
    assert np.array_equal(out.support, _scanned_support(out.data))
    assert np.array_equal(out.support, _scanned_support(m))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_support_is_a_scan_of_the_nonzeros_read_once(seed, rank):
    """Pure states (rank 0) and mixed ones on a random support."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 12))
    keep = rng.random(dim) < 0.6
    if rank == 0:
        data = random_state_vector(rng, dim) * keep
    else:
        a = (rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))) * keep[:, None]
        data = a @ a.conj().T
    state = QuantumState(with_signed_zeros(rng, data))
    assert np.array_equal(state.support, _scanned_support(state.data))
    assert state.support is state.support


def test_complex_over_real_scalar_is_times_its_reciprocal():
    """Numpy divides a complex array by a real scalar t as ``x * (1/t)``,
    which the one-pass normalisations rely on; value for value, although a
    zero's sign may differ."""
    rng = np.random.default_rng(23)
    for t in [1.0 + 3e-8, 1.0 - 7e-8, *rng.uniform(1e-14, 10.0, 20), *10.0 ** rng.uniform(-14, 3, 20)]:
        x = rng.normal(size=(60, 60)) + 1j * rng.normal(size=(60, 60))
        x[rng.random(x.shape) < 0.3] = 0
        x = with_signed_zeros(rng, x * 10.0 ** rng.uniform(-300, 250, x.shape))
        assert np.array_equal(x / t, x * (1.0 / t))
