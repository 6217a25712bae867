"""The names that the benchmark, the scripts and CI read from peigen still
resolve. The benchmark and scripts are parsed, not run, so the check is
cheap and guards every pruning of the public API."""

import ast
import importlib.util
from pathlib import Path

import pytest

import peigen

ROOT = Path(__file__).resolve().parent.parent
USERS = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))

# names the benchmark's tracer and CI's inline checks rebind while they run
REBOUND = [
    ("peigen.cooling", "branch_unitaries"),
    ("peigen.cooling", "cooling_step"),
    ("peigen.cooling", "trajectory_probabilities"),
    ("peigen.variational", "cooling_step"),
    ("peigen.variational", "expectation"),
    ("peigen.variational", "minimize_stage"),
    ("peigen.cli", "build_model"),
    ("peigen.trotter", "_plan"),
]


def _peigen_imports(path):
    """(module, name) of each name ``path`` imports from peigen; name None
    for a plain ``import peigen...``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            if module == "peigen" or module.startswith("peigen."):
                yield from ((module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from (
                (alias.name, None)
                for alias in node.names
                if alias.name == "peigen" or alias.name.startswith("peigen.")
            )


def test_the_benchmark_and_scripts_import_from_peigen():
    assert USERS and any(list(_peigen_imports(p)) for p in USERS)


@pytest.mark.parametrize("path", USERS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_name_a_user_imports_resolves(path):
    missing = []
    for module, name in _peigen_imports(path):
        try:
            owner = importlib.import_module(module)
        except ImportError:
            missing.append(module)
            continue
        if name is not None and not hasattr(owner, name):
            # `from peigen import cli` names a submodule
            if importlib.util.find_spec(f"{module}.{name}") is None:
                missing.append(f"{module}.{name}")
    assert missing == []


def test_every_exported_name_exists():
    assert len(set(peigen.__all__)) == len(peigen.__all__)
    assert [n for n in peigen.__all__ if not hasattr(peigen, n)] == []


@pytest.mark.parametrize("module, name", REBOUND, ids=[f"{m}.{n}" for m, n in REBOUND])
def test_rebound_names_exist(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))
