"""The names that the benchmark and the scripts read from peigen still
resolve. The benchmark and the scripts are parsed, not run, so the check is
cheap and guards every pruning of the public API."""

import ast
import importlib.util
from pathlib import Path

import pytest

import peigen

ROOT = Path(__file__).resolve().parent.parent

# (id, source) of every user: the benchmark and the scripts
USERS = [
    (f"{p.parent.name}/{p.name}", p.read_text())
    for p in sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
]

# names rebound while peigen runs: by the benchmark's tracer, and by the tests
# that count calls (the last two)
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


def _peigen_imports(source, name):
    """(module, name) of each name ``source`` imports from peigen; name None
    for a plain ``import peigen...``."""
    for node in ast.walk(ast.parse(source, filename=name)):
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
    assert USERS and any(list(_peigen_imports(source, name)) for name, source in USERS)


@pytest.mark.parametrize("user, source", USERS, ids=[name for name, _ in USERS])
def test_every_name_a_user_imports_resolves(user, source):
    missing = []
    for module, name in _peigen_imports(source, user):
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
