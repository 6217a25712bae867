"""The suite's own pytest settings: a failing property test is reported as
one failure, and the tests after it still run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, deadline=None)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_property_test_does_not_abort_the_run(tmp_path):
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
    assert "INTERNALERROR" not in done.stdout + done.stderr
