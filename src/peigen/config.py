"""Versioned JSON experiment configs: strict parsing (unknown keys are
errors), model/initial-state builders, and access to the bundled configs."""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Optional, Union

import numpy as np

from .cooling import ExactW, FixedStep, OptimizerConfig, RunConfig, TrotterW, Variational
from .errors import ConfigError
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

    def child(self, key: str, default: Any = ...) -> Optional["_Node"]:
        if key not in self.data and default is not ...:
            return default
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


def _complex_array(node: _Node) -> np.ndarray:
    """``re + 1j * im`` from the keys ``re`` and ``im`` (zeros if absent)."""
    re = _array(node, "re")
    im = _array(node, "im") if "im" in node.data else np.zeros_like(re)
    if im.shape != re.shape:
        raise ConfigError(f"'{node.path}.im' has shape {im.shape}, '.re' has {re.shape}")
    return re + 1j * im


def _fields(node: _Node, readers: dict) -> dict:
    """Dataclass keyword arguments from the keys present in ``node``, so an
    absent key keeps the field's default. ``readers`` maps a JSON key to its
    reader, or to (field name, reader) where the names differ."""
    out = {}
    for key, reader in readers.items():
        name, read = reader if isinstance(reader, tuple) else (key, reader)
        if key in node.data:
            out[name] = read(node, key)
    return out


# ---------------------------------------------------------------------------
# section parsers


def _parse_model(node: _Node) -> ModelSpec:
    kind = _string(node, "kind")
    if kind == "harmonic":
        spec: ModelSpec = HarmonicOscillator(
            omega=_number(node, "omega"), cutoff=_integer(node, "cutoff")
        )
    elif kind == "rabi":
        spec = Rabi(
            omega0=_number(node, "omega0"),
            omega=_number(node, "omega"),
            g=_number(node, "g"),
            cutoff=_integer(node, "cutoff"),
        )
    elif kind == "hubbard":
        spec = Hubbard1D(
            sites=_integer(node, "sites"), t=_number(node, "t"), u=_number(node, "u")
        )
    elif kind == "custom":
        raw_terms = node.take("terms")
        if not isinstance(raw_terms, list) or not raw_terms:
            raise ConfigError(f"'{node.path}.terms' must be a non-empty list")
        terms = []
        for i, raw in enumerate(raw_terms):
            tn = _Node(raw, f"{node.path}.terms[{i}]")
            label = _string(tn, "label", f"term{i}")
            mat = _complex_array(tn)
            tn.close()
            terms.append((label, mat))
        spec = Custom(terms=tuple(terms))
    else:
        raise ConfigError(f"'{node.path}.kind' must be harmonic|rabi|hubbard|custom, got {kind!r}")
    node.close()
    return spec


def _parse_initial(node: _Node) -> InitialSpec:
    kind = _string(node, "kind")
    if kind == "thermal":
        out: InitialSpec = InitialThermal(nbar=_number(node, "nbar"))
    elif kind == "basis":
        out = InitialBasis(label=_string(node, "label"))
    elif kind == "ground_of":
        out = InitialGroundOf(model=_parse_model(node.child("model")))
    elif kind == "amplitudes":
        out = InitialAmplitudes(amplitudes=_complex_array(node))
    else:
        raise ConfigError(
            f"'{node.path}.kind' must be thermal|basis|ground_of|amplitudes, got {kind!r}"
        )
    node.close()
    return out


def _parse_gamma(parent: _Node, key: str):
    node = parent.child(key)
    policy = _string(node, "policy")
    if policy == "exact":
        out = Exact()
    elif policy == "norm_bound":
        out = NormBound()
    elif policy == "fixed":
        out = Fixed(value=_number(node, "value"))
    elif policy == "target_level":
        out = TargetLevel(level=_integer(node, "level"))
    else:
        raise ConfigError(
            f"'{node.path}.policy' must be exact|norm_bound|fixed|target_level, got {policy!r}"
        )
    node.close()
    return out


def _parse_operator(node: _Node, key: str):
    raw = node.take(key)
    if raw == "exact":
        return ExactW()
    sub = _Node(raw, f"{node.path}.{key}")
    kind = _string(sub, "kind")
    if kind == "exact":
        sub.close()
        return ExactW()
    if kind == "trotter":
        r = _integer(sub, "r")
        sub.close()
        return TrotterW(r=r)
    raise ConfigError(f"'{sub.path}.kind' must be exact|trotter, got {kind!r}")


_OPTIMIZER_FIELDS = dict(
    tau_lo=_number, tau_hi=_number, x_tol=_number, max_evals=_integer, coarse_grid=_integer
)


def _parse_optimizer(node: _Node) -> OptimizerConfig:
    kwargs = _fields(node, _OPTIMIZER_FIELDS)
    node.close()
    return OptimizerConfig(**kwargs)


def _target_level(node: _Node, key: str) -> Optional[int]:
    return _integer(node, key) or None  # level 0 ejects nothing and reports no fidelity


_RUN_FIELDS = {
    "gamma": ("gamma_policy", _parse_gamma),
    "epsilon": _number,
    "max_stages": _integer,
    "operator": ("operator_mode", _parse_operator),
    "seed": _seed,
    "target_level": _target_level,
    "eject_shifted": _boolean,
    "f_tol": _number,
}


def _parse_run(node: _Node) -> RunConfig:
    mode_name = _string(node, "mode")
    if mode_name == "fixed":
        mode = FixedStep(tau=_number(node, "tau"))
        if "optimizer" in node.data:
            raise ConfigError(f"'{node.path}.optimizer' is only valid in variational mode")
    elif mode_name == "variational":
        opt = node.child("optimizer", None)
        mode = Variational() if opt is None else Variational(_parse_optimizer(opt))
        if "tau" in node.data:
            raise ConfigError(f"'{node.path}.tau' is only valid in fixed mode")
    else:
        raise ConfigError(f"'{node.path}.mode' must be fixed|variational, got {mode_name!r}")
    kwargs = _fields(node, _RUN_FIELDS)
    node.close()
    try:
        return RunConfig(mode=mode, **kwargs)
    except ConfigError as exc:  # each message starts with the field's name
        raise ConfigError(f"{node.path}.{exc}") from None


def parse_experiment(data: Any, source: str = "config") -> ExperimentConfig:
    root = _Node(data, source)
    schema = root.take("schema")
    if schema != SCHEMA_VERSION:
        raise ConfigError(f"'{source}.schema' must be {SCHEMA_VERSION}, got {schema!r}")
    model = _parse_model(root.child("model"))
    initial = _parse_initial(root.child("initial_state"))
    run = _parse_run(root.child("run"))
    out_node = root.child("output", None)
    stem = "trace"
    if out_node is not None:
        stem = _string(out_node, "stem", "trace")
        out_node.close()
    root.close()
    return ExperimentConfig(model=model, initial=initial, run=run, output_stem=stem)


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
    """Materialize the configured initial state, dim-checked against the model."""
    spec = cfg.model
    if isinstance(cfg.initial, InitialThermal):
        if not isinstance(spec, HarmonicOscillator):
            raise ConfigError("thermal initial state requires the harmonic model")
        state = thermal_state(spec, cfg.initial.nbar)
    elif isinstance(cfg.initial, InitialBasis):
        state = basis_state(spec, cfg.initial.label)
    elif isinstance(cfg.initial, InitialGroundOf):
        evals, vecs = build_model(cfg.initial.model).total.eigensystem()
        if evals.size > 1 and (gap := evals[1] - evals[0]) <= 1e-9:  # else vecs[:, 0] is arbitrary
            raise ConfigError(f"ground_of: degenerate ground level (E1 - E0 = {gap:.3e})")
        state = QuantumState(vecs[:, 0])
    else:
        state = validate_and_normalize(QuantumState(cfg.initial.amplitudes), tol=1e-6)
    dim = model_dim(spec)
    if state.dim != dim:
        raise ConfigError(f"initial state dim {state.dim} != model dim {dim}")
    return state


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
    """Accept a filesystem path or the bare name of a bundled config."""
    p = Path(name_or_path)
    if p.exists():
        return p
    candidate = bundled_config_dir() / f"{Path(name_or_path).stem}.json"
    try:
        if candidate.is_file():
            return Path(str(candidate))
    except OSError:  # pragma: no cover - packaged-resource oddities
        pass
    raise ConfigError(
        f"config {name_or_path!r} not found (not a file, not one of the bundled "
        f"configs: {', '.join(list_bundled()) or 'none'})"
    )
