"""Example Hamiltonians (harmonic mode, qubit-boson Rabi, 1-D Hubbard chain
mapped through Jordan-Wigner), their initial states, the exact-diagonalization
oracle, and spectral-shift (gamma) policies."""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import (
    ConfigError,
    CutoffError,
    DimensionError,
    NegativeShiftWarning,
    ValidationError,
)
from .operators import HermitianOperator, QuantumState, _within_budget, basis_vector

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# ---------------------------------------------------------------------------
# model specs


@dataclass(frozen=True)
class HarmonicOscillator:
    """Single bosonic mode, H = omega * n, truncated at `cutoff` Fock states."""

    omega: float
    cutoff: int

    def __post_init__(self) -> None:
        _check_integer("cutoff", self.cutoff, 2)
        _check_finite("omega", self.omega)


@dataclass(frozen=True)
class Rabi:
    """Qubit-boson model H1 = (omega0/2) sz + omega n, H2 = g (a + a^dag) sx."""

    omega0: float
    omega: float
    g: float
    cutoff: int

    def __post_init__(self) -> None:
        _check_integer("cutoff", self.cutoff, 2)
        for name in ("omega0", "omega", "g"):
            _check_finite(name, getattr(self, name))


@dataclass(frozen=True)
class Hubbard1D:
    """Open 1-D Hubbard chain: L sites, hopping t, on-site interaction u."""

    sites: int
    t: float
    u: float

    def __post_init__(self) -> None:
        _check_integer("sites", self.sites, 1)
        _check_finite("t", self.t)
        _check_finite("u", self.u)


@dataclass(frozen=True)
class Custom:
    """Explicit labeled Hermitian terms."""

    terms: tuple[tuple[str, np.ndarray], ...]

    def __post_init__(self) -> None:
        shapes = sorted({np.shape(mat) for _, mat in self.terms})
        square = len(shapes) == 1 and len(shapes[0]) == 2 and shapes[0][0] == shapes[0][1] > 0
        if not square:
            raise DimensionError(
                f"terms must be non-empty square matrices of one size, got shapes {shapes}"
            )


ModelSpec = Union[HarmonicOscillator, Rabi, Hubbard1D, Custom]


def _check_integer(name: str, value: object, low: int, error: type = ValidationError) -> None:
    """An integer field's checks, the type first; a bool is not an integer, as in JSON."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {value}")
    if value < low:
        raise error(f"{name} must be >= {low}, got {value}")


def _is_real(value: object) -> bool:
    """A real number; a bool is not one, as in JSON."""
    return isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))


def _is_finite(value: object) -> bool:
    """A finite real number; an int beyond the float range is not one."""
    try:
        return _is_real(value) and math.isfinite(value)
    except OverflowError:
        return False


def _check_finite(name: str, value: object, error: type = ValidationError) -> None:
    """A float field's checks: a real number, then finite."""
    if not _is_finite(value):
        raise error(f"{name} must be {'finite' if _is_real(value) else 'a real number'}, got {value!r}")


# ---------------------------------------------------------------------------
# sum Hamiltonian


class SumHamiltonian:
    """Ordered labeled terms H_m with total H = sum_m H_m and a shift gamma.

    `gamma` is kept separate from the terms: the cooling unitary acts with
    H + gamma while spectra and recorded energies always refer to the bare H.
    `with_gamma` copies share the terms and, through `_base`, the total and
    the Trotter sweep plan, each built on first use.
    """

    __slots__ = ("terms", "gamma", "dim", "_total", "_base", "_plan")

    def __init__(
        self,
        terms: Sequence[tuple[str, HermitianOperator]],
        gamma: float = 0.0,
        *,
        _base: "SumHamiltonian | None" = None,
    ) -> None:
        if not terms:
            raise ValidationError("SumHamiltonian needs at least one term")
        dims = {term.dim for _, term in terms}
        if len(dims) != 1:
            raise DimensionError(f"terms have mixed dimensions {sorted(dims)}")
        _check_finite("gamma", gamma)
        self.terms: tuple[tuple[str, HermitianOperator], ...] = tuple(
            (str(label), term) for label, term in terms
        )
        self.gamma = float(gamma)
        self.dim = dims.pop()
        self._base, self._total, self._plan = _base, None, None

    @property
    def total(self) -> HermitianOperator:
        """The bare total H = sum_m H_m (gamma excluded) as structure
        (`HermitianOperator.sum`), built on first read and cached on the base
        model that `with_gamma` copies share.

        Monomial terms with one ``perm`` fuse, their ``vals`` summed in term
        order, so each XX+YY hop pair cancels exactly where its two bits
        agree; dense terms add into the remainder. Nothing d x d is allocated
        unless a term is dense: the eigensystem and energies read the
        structure."""
        base = self._base or self
        if base._total is None:
            base._total = HermitianOperator.sum([term for _, term in self.terms])
        return base._total

    def with_gamma(self, gamma: float) -> "SumHamiltonian":
        """Copy with a different shift, sharing the total H and Trotter plan."""
        return SumHamiltonian(self.terms, gamma, _base=self._base or self)

    def __repr__(self) -> str:
        return f"SumHamiltonian(dim={self.dim}, terms={len(self.terms)}, gamma={self.gamma})"


# ---------------------------------------------------------------------------
# builders


def _diagonal(vals: np.ndarray) -> HermitianOperator:
    return HermitianOperator.from_monomial(np.arange(len(vals)), vals)


def _build_harmonic(spec: HarmonicOscillator) -> SumHamiltonian:
    _within_budget(f"harmonic mode of cutoff {spec.cutoff}", 24 * spec.cutoff)  # perm, complex vals
    n = np.arange(spec.cutoff, dtype=float)
    return SumHamiltonian((("omega*n", _diagonal(spec.omega * n)),))


def _build_rabi(spec: Rabi) -> SumHamiltonian:
    """Qubit-major terms "free" and "coupling", with no dense matrix. The
    coupling g sx (x) (a + a^dag) is one term of two monomial parts, the even
    and the odd bonds (n, n+1) of the Fock ladder: each maps |q,n> to
    |1-q,n+-1> with value g sqrt(max(n, n+-1)). An all-zero part is dropped,
    so cutoff 2 keeps one part and g = 0 none (the coupling is then a zero
    diagonal). Several parts make a dense-eigensystem Trotter group."""
    nfock, d = spec.cutoff, 2 * spec.cutoff
    _within_budget(f"Rabi model of cutoff {nfock}", 3 * 24 * d)  # three monomials' perm, complex vals
    idx = np.arange(d)
    q, n = np.divmod(idx, nfock)
    h1 = 0.5 * spec.omega0 * (1 - 2 * q) + float(spec.omega) * n  # an int omega times int64 n may overflow
    parts = []
    for parity in (0, 1):
        m = np.where(n % 2 == parity, n + 1, n - 1)  # bond partner of n
        bonded = (m >= 0) & (m < nfock)
        perm = np.where(bonded, (1 - q) * nfock + m, idx)
        vals = np.where(bonded, spec.g * np.sqrt(np.maximum(n, m)), 0.0)
        if vals.any():
            parts.append(HermitianOperator.from_monomial(perm, vals))
    coupling = HermitianOperator.sum(parts) if parts else _diagonal(np.zeros(d))
    return SumHamiltonian((("free", _diagonal(h1)), ("coupling", coupling)))


def _hubbard_occupations(L: int) -> np.ndarray:
    """``occ[m, idx]`` is 1 when Jordan-Wigner mode m is occupied in basis
    state idx, else 0.

    Mode m is bit ``2L-1-m`` of the index (mode 0 is the leading tensor
    factor) and an occupied mode is the sz = +1 state, bit 0."""
    n = 2 * L
    shifts = (n - 1 - np.arange(n))[:, None]
    return 1 - ((np.arange(2**n) >> shifts) & 1)


def _build_hubbard_jw(spec: Hubbard1D) -> SumHamiltonian:
    """Jordan-Wigner spin form of the open Hubbard chain.

    Mode order is site-major: (site1 up, site1 dn, site2 up, site2 dn, ...),
    with an occupied mode encoded as the sz = +1 basis state. Each hopping
    bond and spin species contributes the two Pauli strings
    -(t/2) X Z..Z X and -(t/2) Y Z..Z Y (string over the modes in between);
    each site contributes one on-site term u * n_up n_dn.

    Every term is built in monomial form ``(perm, vals)`` by bit arithmetic
    on basis indices, without a dense matrix: a hop maps index i to i with
    bits p and q flipped, with sign (-1)^(empty modes between p and q) from
    the Z string, times -1 for Y Y when bits p and q agree; an on-site term
    is the diagonal u * occ_up * occ_dn.
    """
    L, t, u = spec.sites, spec.t, float(spec.u)  # an int u times int64 occ may overflow
    # occ's 2L int64 rows, then each of the 5L - 4 terms' perm and complex vals
    _within_budget(f"Hubbard chain of {L} sites", (16 * L + 24 * (5 * L - 4)) * 4**L)
    n = 2 * L
    occ = _hubbard_occupations(L)
    idx = np.arange(2**n)
    terms: list[tuple[str, HermitianOperator]] = []
    for i in range(L - 1):
        for s, sname in ((0, "up"), (1, "dn")):
            p, q = 2 * i + s, 2 * (i + 1) + s
            flipped = idx ^ (1 << (n - 1 - p)) ^ (1 << (n - 1 - q))
            zsign = np.prod(2 * occ[p + 1 : q] - 1, axis=0)
            ysign = np.where(occ[p] == occ[q], -1, 1)
            xx = HermitianOperator.from_monomial(flipped, -t / 2 * zsign)
            yy = HermitianOperator.from_monomial(flipped, -t / 2 * (zsign * ysign))
            terms.append((f"hop({i + 1}-{i + 2},{sname},xx)", xx))
            terms.append((f"hop({i + 1}-{i + 2},{sname},yy)", yy))
    for i in range(L):
        terms.append((f"int(site{i + 1})", _diagonal(u * (occ[2 * i] * occ[2 * i + 1]))))
    return SumHamiltonian(terms)


def _build_custom(spec: Custom) -> SumHamiltonian:
    return SumHamiltonian(
        tuple((label, HermitianOperator(mat)) for label, mat in spec.terms)
    )


def build_model(spec: ModelSpec) -> SumHamiltonian:
    if isinstance(spec, HarmonicOscillator):
        return _build_harmonic(spec)
    if isinstance(spec, Rabi):
        return _build_rabi(spec)
    if isinstance(spec, Hubbard1D):
        return _build_hubbard_jw(spec)
    if isinstance(spec, Custom):
        return _build_custom(spec)
    raise ConfigError(f"unknown model spec {type(spec).__name__}")


# ---------------------------------------------------------------------------
# initial states


def thermal_state(spec: HarmonicOscillator, nbar: float) -> QuantumState:
    """Truncated geometric (thermal) mixture with mean occupation ``nbar``."""
    _check_finite("nbar", nbar)
    if nbar < 0:
        raise ValidationError(f"nbar must be >= 0, got {nbar}")
    if nbar == 0:
        return basis_vector(spec.cutoff, 0)
    q = nbar / (1.0 + nbar)
    tail = q**spec.cutoff  # exact residual weight of the geometric law
    if tail > 1e-6:
        raise CutoffError(
            f"cutoff {spec.cutoff} truncates {tail:.3e} thermal weight (> 1e-6) at nbar={nbar}"
        )
    _within_budget(f"thermal state of cutoff {spec.cutoff}", 16 * spec.cutoff**2)  # complex rho
    p = (1.0 - q) * q ** np.arange(spec.cutoff)
    p = p / p.sum()
    return QuantumState(np.diag(p.astype(complex)))


def rabi_basis_index(spec: Rabi, qubit: str, n: int) -> int:
    """Index of |qubit>|n> in the qubit-major product basis."""
    q = {"up": 0, "u": 0, "down": 1, "d": 1}.get(qubit.strip().lower())
    if q is None:
        raise ConfigError(f"qubit label must be 'up' or 'down', got {qubit!r}")
    if not 0 <= n < spec.cutoff:
        raise ConfigError(f"Fock label {n} out of range for cutoff {spec.cutoff}")
    return q * spec.cutoff + n


def hubbard_basis_index(spec: Hubbard1D, pattern: str) -> int:
    """Index of a mode-occupation pattern over the site-major JW mode order.

    One character per mode ('u'/up-arrow = occupied = sz +1, 'd'/down-arrow =
    empty), e.g. "uudd" for a doubly occupied first site of a 2-site chain.
    """
    trans = {"u": 0, "↑": 0, "d": 1, "↓": 1}
    bits = [trans.get(ch) for ch in pattern.strip()]
    if len(bits) != 2 * spec.sites or any(b is None for b in bits):
        raise ConfigError(
            f"pattern {pattern!r} must have one u/d per mode ({2 * spec.sites} modes)"
        )
    idx = 0
    for b in bits:  # mode 0 is the leading tensor factor
        idx = (idx << 1) | int(b)  # type: ignore[arg-type]
    return idx


def model_dim(spec: ModelSpec) -> int:
    """Hilbert-space dimension of the model, read off the spec unbuilt."""
    if isinstance(spec, HarmonicOscillator):
        return spec.cutoff
    if isinstance(spec, Rabi):
        return 2 * spec.cutoff
    if isinstance(spec, Hubbard1D):
        return 4**spec.sites
    if isinstance(spec, Custom):
        return spec.terms[0][1].shape[0]
    raise ConfigError(f"unknown model spec {type(spec).__name__}")


def basis_state(spec: ModelSpec, label: str) -> QuantumState:
    """Computational-basis state from a human-readable per-model label."""
    dim = model_dim(spec)
    if isinstance(spec, Hubbard1D):
        return basis_vector(dim, hubbard_basis_index(spec, label))
    rabi = isinstance(spec, Rabi)
    try:
        qubit, level = label.split(",") if rabi else ("", label)
        n = int(level)
    except ValueError:  # a wrong number of fields, or a level that is not an integer
        form = "'up|down,<n>'" if rabi else "an integer level"
        raise ConfigError(f"basis label must be {form}, got {label!r}") from None
    return basis_vector(dim, rabi_basis_index(spec, qubit, n) if rabi else n)


# ---------------------------------------------------------------------------
# oracle and sectors


def exact_spectrum(h: SumHamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """Full spectrum of the bare total H (ascending) and its dense d x d
    eigenvectors; ``h.total.eigenvalues()`` gives the spectrum alone."""
    return h.total.eigensystem()


def _hubbard_counts(L: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals of the particle-number operators (N_up, N_dn)."""
    occ = _hubbard_occupations(L)
    return occ[0::2].sum(axis=0), occ[1::2].sum(axis=0)


def hubbard_sector_label(state: QuantumState, L: int) -> str:
    """Particle-number sector of a state, or 'indefinite' if not sharp.

    N_up and N_dn are diagonal, so <N> and <N^2> are exact sums over the
    basis populations |psi|^2 (or diag rho)."""
    if 4**L != state.dim:
        raise DimensionError(f"L={L} needs dim {4**L}, but the state has dim {state.dim}")
    data = state.data
    weights = np.abs(data) ** 2 if state.is_pure else np.diag(data).real
    vals = []
    for counts in _hubbard_counts(L):
        mean = float(weights @ counts)
        var = float(weights @ counts**2) - mean**2
        if var > 1e-9 or abs(mean - round(mean)) > 1e-9:
            return "indefinite"
        vals.append(int(round(mean)))
    return f"n_up={vals[0]} n_dn={vals[1]}"


# ---------------------------------------------------------------------------
# gamma policies


@dataclass(frozen=True)
class Exact:
    """gamma = -E0 from the oracle (shifted ground energy exactly zero)."""


@dataclass(frozen=True)
class NormBound:
    """gamma = sum of per-term spectral norms (guarantees E0 + gamma >= 0)."""


@dataclass(frozen=True)
class Fixed:
    value: float

    def __post_init__(self) -> None:
        _check_finite("value", self.value)


@dataclass(frozen=True)
class TargetLevel:
    """gamma = -E_j, centering the shift on a chosen target level."""

    level: int

    def __post_init__(self) -> None:
        _check_integer("level", self.level, 0, ConfigError)


GammaPolicy = Union[Exact, NormBound, Fixed, TargetLevel]


def gamma_for(h: SumHamiltonian, policy: GammaPolicy) -> float:
    """Resolve a shift policy to a concrete gamma for this Hamiltonian.
    `Exact`, `TargetLevel` and the `Fixed` warning read only the total's
    `eigenvalues` (those of its eigensystem, if solved)."""
    if isinstance(policy, NormBound):
        return float(sum(term.norm2() for _, term in h.terms))
    if isinstance(policy, Fixed):
        # E0 >= -sum ||H_m||, so a value at or above the bound cannot warn
        if policy.value >= gamma_for(h, NormBound()):
            return float(policy.value)
        evals = h.total.eigenvalues()
        if evals[0] + policy.value < 0:
            warnings.warn(
                f"E0 + gamma = {evals[0] + policy.value:.6g} < 0; "
                "the energy-decrease guarantee is void",
                NegativeShiftWarning,
                stacklevel=2,
            )
        return float(policy.value)
    evals = h.total.eigenvalues()
    if isinstance(policy, Exact):
        return float(-evals[0])
    if isinstance(policy, TargetLevel):
        if not 0 <= policy.level < len(evals):
            raise ConfigError(
                f"target level {policy.level} out of range for dim {len(evals)}"
            )
        if policy.level > 0:
            warnings.warn(
                f"TargetLevel({policy.level}): spectrum below the target is shifted "
                "negative; the energy-decrease guarantee is void there",
                NegativeShiftWarning,
                stacklevel=2,
            )
        return float(-evals[policy.level])
    raise ConfigError(f"unknown gamma policy {type(policy).__name__}")
