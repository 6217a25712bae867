"""Versioned JSON experiment configs: strict parsing (unknown keys are
errors), model/initial-state builders, and access to the bundled configs."""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Optional, Union

import numpy as np

from .cooling import ExactW, FixedStep, RunConfig, TrotterW, Variational
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
from .variational import OptimizerConfig

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
    target_level: int = 0
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


def _number(node: _Node, key: str, default: Any = ...) -> float:
    raw = node.take(key, default)
    if not isinstance(raw, (int, float)) or isinstance(raw, bool):
        raise ConfigError(f"'{node.path}.{key}' must be a number, got {raw!r}")
    return float(raw)


def _integer(node: _Node, key: str, default: Any = ...) -> int:
    raw = node.take(key, default)
    if not isinstance(raw, int) or isinstance(raw, bool):
        raise ConfigError(f"'{node.path}.{key}' must be an integer, got {raw!r}")
    return int(raw)


def _string(node: _Node, key: str, default: Any = ...) -> str:
    raw = node.take(key, default)
    if not isinstance(raw, str):
        raise ConfigError(f"'{node.path}.{key}' must be a string, got {raw!r}")
    return raw


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
            re = np.array(tn.take("re"), dtype=float)
            im = np.array(tn.take("im", np.zeros_like(re).tolist()), dtype=float)
            tn.close()
            terms.append((label, re + 1j * im))
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
        re = np.array(node.take("re"), dtype=float)
        im = np.array(node.take("im", np.zeros_like(re).tolist()), dtype=float)
        out = InitialAmplitudes(amplitudes=re + 1j * im)
    else:
        raise ConfigError(
            f"'{node.path}.kind' must be thermal|basis|ground_of|amplitudes, got {kind!r}"
        )
    node.close()
    return out


def _parse_gamma(node: Optional[_Node]):
    if node is None:
        return Exact()
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
    raw = node.take(key, "exact")
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


def _parse_optimizer(node: Optional[_Node]) -> OptimizerConfig:
    d = OptimizerConfig()
    if node is None:
        return d
    kwargs = dict(
        tau_lo=_number(node, "tau_lo", d.tau_lo),
        tau_hi=_number(node, "tau_hi", d.tau_hi),
        x_tol=_number(node, "x_tol", d.x_tol),
        max_evals=_integer(node, "max_evals", d.max_evals),
        coarse_grid=_integer(node, "coarse_grid", d.coarse_grid),
    )
    node.close()
    return OptimizerConfig(**kwargs)


def _parse_run(node: _Node) -> tuple[RunConfig, int]:
    mode_name = _string(node, "mode")
    if mode_name == "fixed":
        mode = FixedStep(tau=_number(node, "tau"))
        if "optimizer" in node.data:
            raise ConfigError(f"'{node.path}.optimizer' is only valid in variational mode")
    elif mode_name == "variational":
        mode = Variational(optimizer=_parse_optimizer(node.child("optimizer", None)))
        if "tau" in node.data:
            raise ConfigError(f"'{node.path}.tau' is only valid in fixed mode")
    else:
        raise ConfigError(f"'{node.path}.mode' must be fixed|variational, got {mode_name!r}")
    epsilon = _number(node, "epsilon", 1e-3)
    if epsilon <= 0:
        raise ConfigError(f"'{node.path}.epsilon' must be > 0, got {epsilon}")
    max_stages = _integer(node, "max_stages", 100)
    gamma = _parse_gamma(node.child("gamma", None))
    operator = _parse_operator(node, "operator")
    seed_raw = node.take("seed", None)
    if seed_raw is not None and (not isinstance(seed_raw, int) or isinstance(seed_raw, bool)):
        raise ConfigError(f"'{node.path}.seed' must be an integer, got {seed_raw!r}")
    target_level = _integer(node, "target_level", 0)
    eject_shifted = node.take("eject_shifted", False)
    if not isinstance(eject_shifted, bool):
        raise ConfigError(f"'{node.path}.eject_shifted' must be a boolean")
    f_tol = _number(node, "f_tol", 1e-3)
    node.close()
    run = RunConfig(
        mode=mode,
        gamma_policy=gamma,
        epsilon=epsilon,
        max_stages=max_stages,
        operator_mode=operator,
        seed=seed_raw,
        eject_shifted=eject_shifted,
        f_tol=f_tol,
    )
    return run, target_level


def parse_experiment(data: Any, source: str = "config") -> ExperimentConfig:
    root = _Node(data, source)
    schema = root.take("schema")
    if schema != SCHEMA_VERSION:
        raise ConfigError(f"'{source}.schema' must be {SCHEMA_VERSION}, got {schema!r}")
    model = _parse_model(root.child("model"))
    initial = _parse_initial(root.child("initial_state"))
    run, target_level = _parse_run(root.child("run"))
    out_node = root.child("output", None)
    stem = "trace"
    if out_node is not None:
        stem = _string(out_node, "stem", "trace")
        out_node.close()
    root.close()
    return ExperimentConfig(
        model=model, initial=initial, run=run, target_level=target_level, output_stem=stem
    )


def load_experiment(path: str | Path) -> ExperimentConfig:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return parse_experiment(data, source=p.name)


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
