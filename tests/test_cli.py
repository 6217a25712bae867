"""End-to-end CLI contract tests: bundled configs, trace files, exit codes,
determinism, spectrum/verify/sweep subcommands."""

import csv
import json
import math
import subprocess
import sys

import pytest

from peigen.cli import main
from peigen.config import bundled_config_dir

BUNDLED = bundled_config_dir()


def _run_cli(cfg, tmp_path, *extra):
    return main(["run", "--config", str(cfg), "--out", str(tmp_path), *extra])


def _read_trace(tmp_path, stem):
    doc = json.loads((tmp_path / f"{stem}.json").read_text())
    with open(tmp_path / f"{stem}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return doc, rows


def _write_cfg(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def _harmonic_cfg(**run_overrides):
    run = {"mode": "fixed", "tau": 0.3, "epsilon": 1e-3, "max_stages": 150}
    run.update(run_overrides)
    return {
        "schema": 1,
        "model": {"kind": "harmonic", "omega": 1.0, "cutoff": 30},
        "initial_state": {"kind": "thermal", "nbar": 0.5},
        "run": run,
        "output": {"stem": "t"},
    }


# ---------------------------------------------------------------------------
# bundled configs


def test_bundled_harmonic_fixed_contract(tmp_path):
    assert _run_cli(BUNDLED / "harmonic_fixed.json", tmp_path) == 0
    doc, rows = _read_trace(tmp_path, "harmonic_fixed")
    assert doc["converged"] and doc["n_stages"] == 90
    assert doc["final_energy"] <= 1e-3
    assert abs(doc["p_success"] - 2 / 3) < 1e-3
    assert rows[-1]["stage"] == "90" and rows[-1]["tau"] == "0.3"
    assert len(rows) == doc["n_stages"]


def test_bundled_rabi_variational_contract(tmp_path):
    assert _run_cli(BUNDLED / "rabi_variational.json", tmp_path) == 0
    doc, rows = _read_trace(tmp_path, "rabi_variational")
    assert doc["converged"] and doc["n_stages"] == 4
    assert all(r["trial_count"] == "12" for r in rows)
    assert doc["energy_unit"]["divisor"] == 1.0  # g
    energies = [float(r["energy"]) for r in rows]
    assert energies == sorted(energies, reverse=True)


@pytest.mark.parametrize(
    "name",
    [
        "harmonic_fixed",
        "harmonic_variational",
        "rabi_fixed",
        "rabi_variational",
        "hubbard2_variational",
        "hubbard3_variational",
    ],
)
def test_bundled_configs_match_frozen_traces(name, tmp_path):
    assert main(["run", "--config", name, "--out", str(tmp_path), "--format", "csv"]) == 0
    got = (tmp_path / f"{name}.csv").read_bytes()
    want = (BUNDLED / "expected" / f"{name}.csv").read_bytes()
    assert got == want


def test_trace_csv_header_and_formats(tmp_path):
    cfg = _write_cfg(tmp_path, "h.json", _harmonic_cfg())
    assert _run_cli(cfg, tmp_path) == 0
    text = (tmp_path / "t.csv").read_text()
    assert text.splitlines()[0] == "stage,tau,energy,p0,p_success,trial_count"
    doc, rows = _read_trace(tmp_path, "t")
    # telescoping: product of per-stage p0 equals reported p_success
    # (CSV values carry %.9g precision, so allow the rounding to accumulate)
    prod = math.prod(float(r["p0"]) for r in rows)
    assert abs(prod - doc["p_success"]) < 1e-7
    assert doc["schema"] == 1
    assert doc["config"]["model"]["kind"] == "harmonic"
    state = doc["final_state"]
    assert state["kind"] == "mixed" and len(state["re"]) == 30


def test_json_only_format_skips_csv(tmp_path):
    cfg = _write_cfg(tmp_path, "h.json", _harmonic_cfg())
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path), "--format", "json"]) == 0
    assert (tmp_path / "t.json").exists()
    assert not (tmp_path / "t.csv").exists()


# ---------------------------------------------------------------------------
# determinism


def test_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        out.mkdir()
        code = subprocess.run(
            [sys.executable, "-m", "peigen", "run", "--config", "rabi_variational", "--out", str(out)],
            capture_output=True,
        ).returncode
        assert code == 0
    for ext in ("json", "csv"):
        fa = (a / f"rabi_variational.{ext}").read_bytes()
        fb = (b / f"rabi_variational.{ext}").read_bytes()
        assert fa == fb


# ---------------------------------------------------------------------------
# config validation


def test_bad_epsilon_names_the_field(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "bad_eps.json", _harmonic_cfg(epsilon=0.0))
    assert _run_cli(cfg, tmp_path) == 1
    assert "run.epsilon" in capsys.readouterr().err


def test_unknown_key_is_rejected(tmp_path, capsys):
    doc = _harmonic_cfg()
    doc["run"]["typo_field"] = 1
    cfg = _write_cfg(tmp_path, "bad_key.json", doc)
    assert _run_cli(cfg, tmp_path) == 1
    assert "typo_field" in capsys.readouterr().err


def test_malformed_json_reports_location(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"schema": 1,,}')
    assert _run_cli(p, tmp_path) == 1
    err = capsys.readouterr().err
    assert "line" in err


def test_missing_config_file(tmp_path, capsys):
    assert _run_cli(tmp_path / "nope.json", tmp_path) == 1


def test_usage_error_exits_one():
    assert main(["run"]) == 1  # missing config argument
    assert main(["frobnicate"]) == 1


def test_seed_flag_echoed_in_trace(tmp_path):
    cfg = _write_cfg(tmp_path, "h.json", _harmonic_cfg())
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path), "--seed", "42"]) == 0
    doc, _ = _read_trace(tmp_path, "t")
    assert doc["config"]["run"]["seed"] == 42


def test_target_keys_only_in_targeted_traces(tmp_path):
    keys = {"target_level", "target_fidelity", "converged_to_target"}
    assert _run_cli(_write_cfg(tmp_path, "plain.json", _harmonic_cfg()), tmp_path) == 0
    doc, _ = _read_trace(tmp_path, "t")
    assert not keys & doc.keys()
    targeted = _harmonic_cfg(
        gamma={"policy": "fixed", "value": 1.0}, eject_shifted=True, target_level=1
    )
    assert _run_cli(_write_cfg(tmp_path, "targeted.json", targeted), tmp_path) == 0
    doc, rows = _read_trace(tmp_path, "t")
    assert keys <= doc.keys() and doc["target_level"] == 1
    assert rows[0]["tau"] == ""  # the ejection stage


# ---------------------------------------------------------------------------
# non-convergence and certain failure


def test_non_convergence_exits_three(tmp_path):
    cfg = _write_cfg(tmp_path, "short.json", _harmonic_cfg(max_stages=2))
    assert _run_cli(cfg, tmp_path) == 3
    doc, _ = _read_trace(tmp_path, "t")  # trace still written
    assert not doc["converged"] and doc["stop_reason"] == "max_stages"


def test_certain_failure_exits_two(tmp_path, capsys):
    # ejecting the shifted E_s = 0 level from |0> annihilates the state
    doc = {
        "schema": 1,
        "model": {"kind": "harmonic", "omega": 1.0, "cutoff": 30},
        "initial_state": {"kind": "basis", "label": "0"},
        "run": {
            "mode": "fixed",
            "tau": 0.3,
            "epsilon": 1e-3,
            "max_stages": 10,
            "gamma": {"policy": "fixed", "value": 1.0},
            "eject_shifted": True,
            "target_level": 1,
        },
        "output": {"stem": "t"},
    }
    cfg = _write_cfg(tmp_path, "fail.json", doc)
    assert _run_cli(cfg, tmp_path) == 2
    assert "zero success probability" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_text_output(capsys):
    assert main(["spectrum", "--config", str(BUNDLED / "hubbard2_variational.json")]) == 0
    out = capsys.readouterr().out
    assert "-1.23606798" in out
    assert "0.236067977" in out  # spectral gap
    assert "norm_bound" in out


def test_spectrum_json_output(tmp_path):
    assert (
        main(
            [
                "spectrum",
                "--config",
                str(BUNDLED / "hubbard2_variational.json"),
                "--format",
                "json",
                "--out",
                str(tmp_path),
            ]
        )
        == 0
    )
    doc = json.loads((tmp_path / "spectrum.json").read_text())
    assert doc["dim"] == 16
    assert doc["eigenvalues"] == sorted(doc["eigenvalues"])
    assert abs(doc["eigenvalues"][0] - (1 - math.sqrt(5))) < 1e-9
    assert doc["gamma"]["norm_bound"] == 6.0
    assert abs(doc["gamma"]["exact"] - (math.sqrt(5) - 1)) < 1e-9


# ---------------------------------------------------------------------------
# verify


def test_verify_all_ok(capsys):
    assert main(["verify", "--only", "fig2a,trotter"]) == 0
    out = capsys.readouterr().out
    assert "ok   fig2a-identity" in out
    assert "ok   trotter-order" in out


def test_verify_unknown_check(capsys):
    assert main(["verify", "--only", "bogus"]) == 1


def test_verify_broken_circuits_exit_four(tmp_path, capsys):
    code = main(
        ["verify", "--only", "fig2a", "--debug-break-circuits", "--out", str(tmp_path)]
    )
    assert code == 4
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "fig2a-identity" in captured.err
    rep = json.loads((tmp_path / "report.json").read_text())
    assert not rep["all_passed"]


# ---------------------------------------------------------------------------
# sweep


def test_sweep_expectation_mode(tmp_path, capsys):
    code = main(
        [
            "sweep",
            "--config",
            str(BUNDLED / "harmonic_fixed.json"),
            "--param",
            "run.tau",
            "--values",
            "0.2,0.3,0.4",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "value,seed,stages,converged,final_energy,p_success,restarts"
    assert len(lines) == 4
    row = lines[2].split(",")
    assert row[0] == "0.3" and row[2] == "90" and row[1] == "" and row[6] == ""


def test_sweep_writes_csv(tmp_path):
    code = main(
        [
            "sweep",
            "--config",
            str(BUNDLED / "harmonic_fixed.json"),
            "--param",
            "run.epsilon",
            "--values",
            "0.01,0.001",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert int(rows[0]["stages"]) < int(rows[1]["stages"])  # looser epsilon stops sooner


def test_sweep_seeded_trajectories(capsys):
    code = main(
        [
            "sweep",
            "--config",
            str(BUNDLED / "harmonic_fixed.json"),
            "--param",
            "run.tau",
            "--values",
            "0.3",
            "--seeds",
            "3",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    seeds = [line.split(",")[1] for line in lines[1:]]
    assert seeds == ["0", "1", "2"]
    for line in lines[1:]:
        assert line.split(",")[6] != ""  # restart counts present


def test_sweep_unknown_param(capsys):
    code = main(
        [
            "sweep",
            "--config",
            str(BUNDLED / "harmonic_fixed.json"),
            "--param",
            "run.nonsense",
            "--values",
            "1,2",
        ]
    )
    assert code == 1
    assert "unknown sweep parameter" in capsys.readouterr().err


def test_sweep_empty_values(capsys):
    code = main(
        ["sweep", "--config", str(BUNDLED / "harmonic_fixed.json"), "--param", "run.epsilon", "--values", ""]
    )
    assert code == 1


def test_sweep_respects_thread_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PEIGEN_THREADS", "1")
    code = main(
        [
            "sweep",
            "--config",
            str(BUNDLED / "harmonic_fixed.json"),
            "--param",
            "run.tau",
            "--values",
            "0.25,0.35",
        ]
    )
    assert code == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 3
