import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n", [1, 0, -3])
def test_restart_statistics_refuses_fewer_than_two_trajectories(n, capsys):
    assert _script("restart_statistics").main(["--trajectories", str(n)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "--trajectories must be >= 2" in err


def test_restart_statistics_samples_a_targeted_config(tmp_path, capsys):
    cfg = tmp_path / "targeted.json"
    run = {"mode": "fixed", "tau": 0.3, "gamma": {"policy": "fixed", "value": 0.3},
           "eject_shifted": True, "target_level": 1}
    cfg.write_text(json.dumps({
        "schema": 1,
        "model": {"kind": "harmonic", "omega": 1.0, "cutoff": 30},
        "initial_state": {"kind": "thermal", "nbar": 0.5},
        "run": run,
    }))
    assert _script("restart_statistics").main(["--config", str(cfg), "--trajectories", "200"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"{cfg}: 14 stages, P_success = 0.021973"
    mean, se = (float(x) for x in lines[1].split(": ")[1].split(" ± "))
    expected = float(lines[2].split()[-1])
    assert abs(mean - expected) <= 5 * se


def test_restart_statistics_two_trajectories(capsys):
    assert _script("restart_statistics").main(["--trajectories", "2"]) == 0
    # neither trajectory restarts, so the sample's standard error would read 0;
    # the printed one is the law's, sqrt(1 - P) / (P sqrt(2)) at P = 0.666728
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "mean restarts over 2 trajectories: 0.000 ± 0.612"


def test_restart_statistics_fails_off_the_geometric_law(monkeypatch, capsys):
    script = _script("restart_statistics")
    real = script.stochastic_trajectory

    def ten_more_restarts(*args):  # far off the geometric law
        result = real(*args)
        return replace(result, restarts=result.restarts + 10)

    monkeypatch.setattr(script, "stochastic_trajectory", ten_more_restarts)
    assert script.main(["--trajectories", "20"]) == 1
    out, err = capsys.readouterr()
    assert "geometric-law expectation 1/P - 1:" in out
    assert err.startswith("error: harmonic_fixed: mean restarts ")
    assert "more than 5 standard errors" in err


def test_eigensystem_ladder_checks_both_solves_against_a_dense_eigh(monkeypatch, capsys):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # the script's default, restored afterwards
    assert _script("eigensystem_ladder").main(["--sites", "2", "3"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert "gamma_for (s)" in header and "eigensystem (s)" in header
    assert [row.split()[:2] for row in rows] == [["2", "16"], ["3", "64"]]
    assert all(float(row.split()[-1]) <= 1e-12 for row in rows)


def test_eigensystem_ladder_reports_a_refused_rung_and_goes_on(monkeypatch, capsys):
    from peigen import operators

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    # L=3 builds (19,968 bytes) and solves its values (6,400), but not its 64 x 64 eigenvectors
    monkeypatch.setattr(operators, "MEMORY_BUDGET_BYTES", 30_000)
    assert _script("eigensystem_ladder").main(["--sites", "2", "3", "2"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert [row.split()[:2] for row in rows] == [["2", "16"], ["3", "64"], ["2", "16"]]
    assert float(rows[1].split()[2]) >= 0  # the values-only time
    assert rows[1].endswith(
        "refused: eigensolve of dim 64 needs at least 71,936 bytes, over the 30,000-byte budget"
    )
    assert all(float(row.split()[-1]) <= 1e-12 for row in (rows[0], rows[2]))
