"""Versioned JSON experiment configs: strict parsing (unknown keys are
errors), model/initial-state builders, and access to the bundled configs."""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, dataclass, fields
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Union

import numpy as np

from .cooling import ExactW, FixedStep, OptimizerConfig, RunConfig, TrotterW, Variational
from .errors import ConfigError, PeigenError
from .models import (
    Custom,
    Exact,
    Fixed,
    HarmonicOscillator,
    Hubbard1D,
    ModelSpec,
    NormBound,
    Rabi,
    TargetLevel,
    basis_state,
    build_model,
    model_dim,
    thermal_state,
)
from .operators import QuantumState, validate_and_normalize

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class InitialThermal:
    nbar: float


@dataclass(frozen=True)
class InitialBasis:
    label: str


@dataclass(frozen=True)
class InitialGroundOf:
    model: ModelSpec


@dataclass(frozen=True)
class InitialAmplitudes:
    amplitudes: np.ndarray


InitialSpec = Union[InitialThermal, InitialBasis, InitialGroundOf, InitialAmplitudes]


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelSpec
    initial: InitialSpec
    run: RunConfig
    output_stem: str = "trace"

    def __post_init__(self) -> None:
        initial, dim = self.initial, model_dim(self.model)
        if isinstance(initial, InitialThermal) and not isinstance(self.model, HarmonicOscillator):
            kind = next(k for k, (cls, _) in _MODELS.items() if isinstance(self.model, cls))
            raise ConfigError(f"initial_state.kind thermal needs a harmonic model, got {kind}")
        if isinstance(initial, InitialAmplitudes) and np.shape(initial.amplitudes)[:1] != (dim,):
            shape = np.shape(initial.amplitudes)
            raise ConfigError(f"initial_state.re has shape {shape}, the model has dim {dim}")
        if isinstance(initial, InitialGroundOf) and (d := model_dim(initial.model)) != dim:
            raise ConfigError(f"initial_state.model has dim {d}, the model has dim {dim}")


# ---------------------------------------------------------------------------
# strict dict walking


class _Node:
    """A dict under inspection; leftover keys at close() are config errors."""

    def __init__(self, data: Any, path: str) -> None:
        if not isinstance(data, dict):
            got = "null" if data is None else type(data).__name__
            raise ConfigError(f"'{path}' must be an object, got {got}")
        self.data = dict(data)
        self.path = path

    def take(self, key: str, default: Any = ...) -> Any:
        if key in self.data:
            return self.data.pop(key)
        if default is ...:
            raise ConfigError(f"missing required key '{self.path}.{key}'")
        return default

    def child(self, key: str) -> "_Node":
        return _Node(self.take(key), f"{self.path}.{key}")

    def close(self) -> None:
        if self.data:
            extra = ", ".join(f"'{self.path}.{k}'" for k in sorted(self.data))
            raise ConfigError(f"unknown key(s): {extra}")


def _reader(ok: Callable[[Any], bool], what: str, convert: Callable = lambda raw: raw):
    """Reader of ``node[key]`` that refuses a value failing ``ok``, naming its path."""

    def read(node: _Node, key: str, default: Any = ...) -> Any:
        raw = node.take(key, default)
        if not ok(raw):
            raise ConfigError(f"'{node.path}.{key}' must be {what}, got {raw!r}")
        return convert(raw)

    return read


def _is_int(raw: Any) -> bool:
    return isinstance(raw, int) and not isinstance(raw, bool)


def _is_finite(raw: Any) -> bool:  # Python's json reader accepts Infinity, NaN and huge integers
    if _is_int(raw):
        return abs(raw) <= sys.float_info.max
    return isinstance(raw, float) and math.isfinite(raw)


_number = _reader(_is_finite, "a finite number", float)
_integer = _reader(_is_int, "an integer", int)
_boolean = _reader(lambda raw: isinstance(raw, bool), "a boolean")
_string = _reader(lambda raw: isinstance(raw, str), "a string")
_seed = _reader(lambda raw: raw is None or _is_int(raw), "an integer or null")


def _array(node: _Node, key: str) -> np.ndarray:
    """A list, or a regular nested list, of finite numbers as a float array."""
    try:
        arr = np.array(node.take(key))
    except ValueError:  # rows of different lengths
        arr = None
    if arr is None or arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
        raise ConfigError(f"'{node.path}.{key}' must be a regular list of finite numbers")
    return arr.astype(float)


def _complex_array(node: _Node, key: str) -> np.ndarray:
    """``re + 1j * im`` from ``key`` (the real part) and an optional ``im`` beside it."""
    re = _array(node, key)
    im = _array(node, "im") if "im" in node.data else np.zeros_like(re)
    if im.shape != re.shape:
        raise ConfigError(f"'{node.path}.im' has shape {im.shape}, '.re' has {re.shape}")
    return re + 1j * im


def _build(node: _Node, cls: type, readers: dict, **given: Any) -> Any:
    """``cls`` from ``node`` and ``given``: ``readers`` maps each JSON key to its
    reader, or to (field name, reader) where the names differ. An absent key
    keeps its field's default, or is missing if the field has none. The
    constructor's checks name their field first, so they get the node's path."""
    no_default = (f for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING)
    required = {f.name for f in no_default}
    for key, reader in readers.items():
        name, read = reader if isinstance(reader, tuple) else (key, reader)
        if key in node.data or name in required:
            given[name] = read(node, key)
    node.close()
    try:
        return cls(**given)
    except PeigenError as exc:
        raise ConfigError(f"{node.path}.{exc}") from None


def _tagged(node: _Node, tag: str, kinds: dict) -> Any:
    """The dataclass that ``node[tag]`` names in ``kinds``, built from the node."""
    kind = _string(node, tag)
    if kind not in kinds:
        raise ConfigError(f"'{node.path}.{tag}' must be {'|'.join(kinds)}, got {kind!r}")
    return _build(node, *kinds[kind])


def _section(tag: str, kinds: dict):
    """Reader of the tagged object ``node[key]``."""
    return lambda node, key: _tagged(node.child(key), tag, kinds)


# ---------------------------------------------------------------------------
# sections: each kind is a dataclass and the readers of its JSON keys, in read order


def _terms(node: _Node, key: str) -> tuple:
    raw_terms = node.take(key)
    if not isinstance(raw_terms, list) or not raw_terms:
        raise ConfigError(f"'{node.path}.{key}' must be a non-empty list")
    terms = []
    for i, raw in enumerate(raw_terms):
        tn = _Node(raw, f"{node.path}.{key}[{i}]")
        terms.append((_string(tn, "label", f"term{i}"), _complex_array(tn, "re")))
        tn.close()
    return tuple(terms)


_MODELS = {
    "harmonic": (HarmonicOscillator, dict(omega=_number, cutoff=_integer)),
    "rabi": (Rabi, dict(omega0=_number, omega=_number, g=_number, cutoff=_integer)),
    "hubbard": (Hubbard1D, dict(sites=_integer, t=_number, u=_number)),
    "custom": (Custom, dict(terms=_terms)),
}

_INITIAL_STATES = {
    "thermal": (InitialThermal, dict(nbar=_number)),
    "basis": (InitialBasis, dict(label=_string)),
    "ground_of": (InitialGroundOf, dict(model=_section("kind", _MODELS))),
    "amplitudes": (InitialAmplitudes, dict(re=("amplitudes", _complex_array))),
}

_GAMMA_POLICIES = {
    "exact": (Exact, {}),
    "norm_bound": (NormBound, {}),
    "fixed": (Fixed, dict(value=_number)),
    "target_level": (TargetLevel, dict(level=_integer)),
}

_OPERATORS = {"exact": (ExactW, {}), "trotter": (TrotterW, dict(r=_integer))}


def _operator(node: _Node, key: str):
    raw = node.take(key)
    if raw == "exact":  # shorthand for {"kind": "exact"}
        return ExactW()
    return _tagged(_Node(raw, f"{node.path}.{key}"), "kind", _OPERATORS)


_OPTIMIZER_READERS = dict(
    tau_lo=_number, tau_hi=_number, x_tol=_number, max_evals=_integer, coarse_grid=_integer
)


def _mode(node: _Node) -> Union[FixedStep, Variational]:
    """The run mode and its own key, read from the run object itself."""
    name = _string(node, "mode")
    if name == "fixed":
        mode: Union[FixedStep, Variational] = FixedStep(tau=_number(node, "tau"))
        if "optimizer" in node.data:
            raise ConfigError(f"'{node.path}.optimizer' is only valid in variational mode")
    elif name == "variational":
        mode = Variational()
        if "optimizer" in node.data:
            mode = Variational(_build(node.child("optimizer"), OptimizerConfig, _OPTIMIZER_READERS))
        if "tau" in node.data:
            raise ConfigError(f"'{node.path}.tau' is only valid in fixed mode")
    else:
        raise ConfigError(f"'{node.path}.mode' must be fixed|variational, got {name!r}")
    return mode


_RUN_READERS = {
    "gamma": ("gamma_policy", _section("policy", _GAMMA_POLICIES)),
    "epsilon": _number,
    "max_stages": _integer,
    "operator": ("operator_mode", _operator),
    "seed": _seed,
    "target_level": lambda node, key: _integer(node, key) or None,  # level 0 ejects nothing
    "eject_shifted": _boolean,
    "f_tol": _number,
}


def _run(node: _Node, key: str) -> RunConfig:
    run = node.child(key)
    return _build(run, RunConfig, _RUN_READERS, mode=_mode(run))


def _stem(node: _Node, key: str) -> str:
    output = node.child(key)
    stem = _string(output, "stem", ExperimentConfig.output_stem)
    if stem in ("", ".", "..") or Path(stem).name != stem or "\0" in stem:  # joined to --out
        raise ConfigError(f"'{output.path}.stem' must be a file name, got {stem!r}")
    output.close()
    return stem


def parse_experiment(data: Any, source: str = "config") -> ExperimentConfig:
    root = _Node(data, source)
    schema = root.take("schema")
    if schema != SCHEMA_VERSION:
        raise ConfigError(f"'{source}.schema' must be {SCHEMA_VERSION}, got {schema!r}")
    readers = {
        "model": _section("kind", _MODELS),
        "initial_state": ("initial", _section("kind", _INITIAL_STATES)),
        "run": _run,
        "output": ("output_stem", _stem),
    }
    return _build(root, ExperimentConfig, readers)


def read_json(path: Path) -> Any:
    """The JSON document at ``path``; an unreadable or invalid file is a config error."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path.name}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def load_experiment(path: str | Path) -> ExperimentConfig:
    p = Path(path)
    return parse_experiment(read_json(p), source=p.name)


def build_initial_state(cfg: ExperimentConfig) -> QuantumState:
    """Materialize the configured initial state; the config has checked that
    its dimension is the model's."""
    spec = cfg.model
    if isinstance(cfg.initial, InitialThermal):
        return thermal_state(spec, cfg.initial.nbar)
    if isinstance(cfg.initial, InitialBasis):
        return basis_state(spec, cfg.initial.label)
    if isinstance(cfg.initial, InitialGroundOf):
        evals, vecs = build_model(cfg.initial.model).total.eigensystem()
        if evals.size > 1 and (gap := evals[1] - evals[0]) <= 1e-9:  # else vecs[:, 0] is arbitrary
            raise ConfigError(f"ground_of: degenerate ground level (E1 - E0 = {gap:.3e})")
        return QuantumState(vecs[:, 0])
    return validate_and_normalize(QuantumState(cfg.initial.amplitudes), tol=1e-6)


# ---------------------------------------------------------------------------
# bundled configs


def bundled_config_dir():
    return resources.files("peigen") / "configs"


def list_bundled() -> list[str]:
    try:
        entries = list(bundled_config_dir().iterdir())
    except (FileNotFoundError, NotADirectoryError):
        return []
    return sorted(p.name.removesuffix(".json") for p in entries if p.name.endswith(".json"))


def resolve_config_path(name_or_path: str) -> Path:
    """Accept a filesystem path or the bare name of a bundled config (no
    directory part, no ``.json`` suffix); a missing path never falls back."""
    p = Path(name_or_path)
    if p.exists():
        return p
    candidate = bundled_config_dir() / f"{name_or_path}.json"
    try:
        if p.name == name_or_path and p.suffix != ".json" and candidate.is_file():
            return Path(str(candidate))
    except OSError:  # pragma: no cover - packaged-resource oddities
        pass
    raise ConfigError(
        f"config {name_or_path!r} not found (not a file, not one of the bundled "
        f"configs: {', '.join(list_bundled()) or 'none'})"
    )
