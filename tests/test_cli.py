"""End-to-end CLI contract tests: bundled configs, trace files, exit codes,
determinism, spectrum/verify/sweep subcommands."""

import csv
import json
import math
import re
import subprocess
import sys
from dataclasses import replace

import pytest

from peigen import (
    ConfigError,
    build_model,
    exact_spectrum,
    expectation,
    run,
    stochastic_trajectory,
)
from peigen.cli import main
from peigen.config import build_initial_state, bundled_config_dir, parse_experiment

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


@pytest.mark.parametrize("field", ["tau_lo", "max_evals"])
def test_null_optimizer_field_names_the_field(field, tmp_path, capsys):
    doc = _harmonic_cfg(mode="variational", optimizer={field: None})
    del doc["run"]["tau"]
    assert _run_cli(_write_cfg(tmp_path, "null_opt.json", doc), tmp_path) == 1
    assert f"run.optimizer.{field}" in capsys.readouterr().err


@pytest.mark.parametrize("section", ["run.gamma", "run.optimizer", "output"])
def test_null_section_names_the_section(section, tmp_path, capsys):
    doc = _harmonic_cfg(mode="variational")
    del doc["run"]["tau"]
    parent, _, key = section.rpartition(".")
    (doc[parent] if parent else doc)[key] = None
    assert _run_cli(_write_cfg(tmp_path, "null_section.json", doc), tmp_path) == 1
    assert f"{section}' must be an object, got null" in capsys.readouterr().err


def _fixed_cfg(**changes):
    doc = {
        "schema": 1,
        "model": {"kind": "harmonic", "omega": 1.0, "cutoff": 5},
        "initial_state": {"kind": "basis", "label": "0"},
        "run": {"mode": "fixed", "tau": 0.3},
    }
    for dotted, value in changes.items():
        *parents, key = dotted.split(".")
        node = doc
        for name in parents:
            node = node[name]
        if value is None:
            del node[key]
        else:
            node[key] = value
    return doc


@pytest.mark.parametrize(
    "doc, message",
    [
        (_fixed_cfg(schema=2), "'cfg.json.schema' must be 1, got 2"),
        (
            _fixed_cfg(**{"model.kind": "bogus"}),
            "'cfg.json.model.kind' must be harmonic|rabi|hubbard|custom, got 'bogus'",
        ),
        (_fixed_cfg(**{"model.cutoff": None}), "missing required key 'cfg.json.model.cutoff'"),
        (
            _fixed_cfg(**{"run.mode": "variational"}),
            "'cfg.json.run.tau' is only valid in fixed mode",
        ),
        (
            _fixed_cfg(**{"run.optimizer": {}}),
            "'cfg.json.run.optimizer' is only valid in variational mode",
        ),
        (
            _fixed_cfg(**{"run.mode": "annealed"}),
            "'cfg.json.run.mode' must be fixed|variational, got 'annealed'",
        ),
        (
            _fixed_cfg(model={"kind": "custom", "terms": []}),
            "'cfg.json.model.terms' must be a non-empty list",
        ),
    ],
    ids=[
        "schema-2",
        "unknown-model-kind",
        "harmonic-without-cutoff",
        "tau-in-variational-mode",
        "optimizer-in-fixed-mode",
        "unknown-run-mode",
        "no-custom-terms",
    ],
)
def test_config_rejection_names_the_key(doc, message):
    with pytest.raises(ConfigError) as info:
        parse_experiment(doc, source="cfg.json")
    assert str(info.value) == message


def _ground_of_cfg(sites: int, u: float) -> dict:
    model = {"kind": "hubbard", "sites": sites, "t": 1.0, "u": u}
    return {
        "schema": 1,
        "model": model,
        "initial_state": {"kind": "ground_of", "model": model},
        "run": {"mode": "fixed", "tau": 0.3},
    }


def test_ground_of_is_the_ground_state():
    cfg = parse_experiment(_ground_of_cfg(2, 2.0))
    h = build_model(cfg.model)
    e0 = exact_spectrum(h)[0][0]
    assert abs(expectation(build_initial_state(cfg), h.total) - e0) < 1e-12


def test_ground_of_refuses_a_degenerate_ground_level():
    # one site: empty, up and down all have E = 0 < u, a three-fold ground
    cfg = parse_experiment(_ground_of_cfg(1, 2.0))
    with pytest.raises(ConfigError, match="degenerate"):
        build_initial_state(cfg)


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


@pytest.mark.parametrize(
    "path", ["/nonexistent/dir/harmonic_fixed.json", "harmonic_fixed.json", "./harmonic_fixed"]
)
def test_missing_path_never_falls_back_to_a_bundled_config(path, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # so that no relative path exists
    assert main(["run", "--config", path]) == 1
    assert capsys.readouterr().err.startswith(f"error: config {path!r} not found")
    assert not list(tmp_path.iterdir())


def test_bare_name_resolves_to_the_bundled_config(tmp_path, capsys):
    assert main(["run", "--config", "harmonic_fixed", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "harmonic_fixed.json").is_file()


def test_usage_error_exits_one():
    assert main(["run"]) == 1  # missing config argument
    assert main(["frobnicate"]) == 1
    assert main([]) == 1  # no subcommand: the help, and exit 1


def test_seed_needs_a_run_object(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "no_run.json", {**_harmonic_cfg(), "run": 5})
    assert _run_cli(cfg, tmp_path, "--seed", "1") == 1
    assert capsys.readouterr().err == "error: cannot apply --seed: config has no 'run' object\n"


def _basis_cfg(model, initial):
    return {
        "schema": 1,
        "model": model,
        "initial_state": initial,
        "run": {"mode": "fixed", "tau": 0.3},
        "output": {"stem": "t"},
    }


HARMONIC_5 = {"kind": "harmonic", "omega": 1.0, "cutoff": 5}


def _variational_cfg(**optimizer):
    doc = _harmonic_cfg(mode="variational", optimizer=optimizer)
    del doc["run"]["tau"]
    return doc


@pytest.mark.parametrize(
    "doc",
    [
        _basis_cfg({**HARMONIC_5, "cutoff": 1}, {"kind": "basis", "label": "0"}),
        _basis_cfg(
            {"kind": "hubbard", "sites": 7, "t": 1.0, "u": 2.0},
            {"kind": "basis", "label": "ud" * 7},
        ),
        _basis_cfg(HARMONIC_5, {"kind": "thermal", "nbar": 3}),
        _basis_cfg({**HARMONIC_5, "cutoff": 2}, {"kind": "amplitudes", "re": [1, 1]}),
        _basis_cfg(
            {"kind": "custom", "terms": [{"re": [[0, 1], [0, 0]]}]},
            {"kind": "basis", "label": "0"},
        ),
    ],
    ids=["cutoff-1", "hubbard-7-sites", "thermal-nbar-3", "unnormalised", "non-hermitian"],
)
def test_invalid_model_or_state_values_exit_one(doc, tmp_path, capsys):
    assert _run_cli(_write_cfg(tmp_path, "bad.json", doc), tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_hubbard_json_reports_sector_and_hopping_unit(tmp_path):
    argv = ["run", "--config", "hubbard2_variational", "--out", str(tmp_path), "--format", "json"]
    assert main(argv) == 0
    doc = json.loads((tmp_path / "hubbard2_variational.json").read_text())
    assert doc["sector_info"] == "n_up=1 n_dn=1"
    assert doc["energy_unit"] == {"divisor": 1.0, "label": "t"}
    assert not (tmp_path / "hubbard2_variational.csv").exists()


def test_custom_model_reports_raw_energy_unit(tmp_path):
    # a Pauli X (one monomial part) and a dense term
    terms = [{"re": [[0, 1], [1, 0]]}, {"re": [[0.5, 0.2], [0.2, -0.5]]}]
    cfg = _basis_cfg({"kind": "custom", "terms": terms}, {"kind": "basis", "label": "0"})
    assert _run_cli(_write_cfg(tmp_path, "custom.json", cfg), tmp_path) == 0
    doc, _ = _read_trace(tmp_path, "t")
    assert doc["energy_unit"] == {"divisor": 1.0, "label": "raw"}
    assert "sector_info" not in doc


@pytest.mark.parametrize(
    "doc, named",
    [
        (_basis_cfg(HARMONIC_5, {"kind": "amplitudes", "re": [1, "0", 0, 0, 0]}), "initial_state.re"),
        (
            _basis_cfg(HARMONIC_5, {"kind": "amplitudes", "re": [1, 0, 0, 0, 0], "im": [0, 0]}),
            "initial_state.im",
        ),
        (
            _basis_cfg(
                {"kind": "custom", "terms": [{"re": [[1, 0], [0]]}]}, {"kind": "basis", "label": "0"}
            ),
            "terms[0].re",
        ),
        (_basis_cfg(HARMONIC_5, {"kind": "basis", "label": "abc"}), "'abc'"),
        (
            _basis_cfg(
                {"kind": "custom", "terms": [{"re": [[1, 0], [0, 2]]}]},
                {"kind": "basis", "label": "abc"},
            ),
            "'abc'",
        ),
        (
            _basis_cfg(
                {"kind": "rabi", "omega0": 1.2, "omega": 0.8, "g": 1.0, "cutoff": 5},
                {"kind": "basis", "label": "up,x"},
            ),
            "'up,x'",
        ),
        ({**_harmonic_cfg(), "run": {"mode": "fixed", "tau": math.inf}}, "run.tau"),
        ({**_harmonic_cfg(), "run": {"mode": "fixed", "tau": 10**400}}, "run.tau"),
        (_basis_cfg({**HARMONIC_5, "cutoff": 1}, {"kind": "basis", "label": "0"}), "model.cutoff"),
        (
            _basis_cfg(
                {"kind": "hubbard", "sites": 7, "t": 1.0, "u": 2.0},
                {"kind": "basis", "label": "ud" * 7},
            ),
            "model.sites",
        ),
        (
            _basis_cfg(HARMONIC_5, {"kind": "ground_of", "model": {**HARMONIC_5, "cutoff": 1}}),
            "initial_state.model.cutoff",
        ),
        (_variational_cfg(tau_lo=2), "run.optimizer.tau_lo"),
        (_variational_cfg(max_evals=2), "run.optimizer.max_evals"),
        (
            _variational_cfg(max_evals=5),
            "bad.json.run.optimizer.max_evals must be >= coarse_grid = 7, got 5",
        ),
        (
            _basis_cfg(
                {"kind": "rabi", "omega0": 1.2, "omega": 0.8, "g": 1.0, "cutoff": 5},
                {"kind": "thermal", "nbar": 0.5},
            ),
            "bad.json.initial_state.kind thermal needs a harmonic model, got rabi",
        ),
        (
            _basis_cfg(HARMONIC_5, {"kind": "amplitudes", "re": [1, 0, 0]}),
            "bad.json.initial_state.re has shape (3,), the model has dim 5",
        ),
        (
            _basis_cfg(HARMONIC_5, {"kind": "ground_of", "model": {**HARMONIC_5, "cutoff": 6}}),
            "bad.json.initial_state.model has dim 6, the model has dim 5",
        ),
        (
            _basis_cfg({"kind": "custom", "terms": [{"re": 1.0}]}, {"kind": "amplitudes", "re": [1]}),
            "bad.json.model.terms must be non-empty square matrices of one size, got shapes [()]",
        ),
        ({**_harmonic_cfg(), "output": {"stem": "sub/x"}}, "output.stem"),
        ({**_harmonic_cfg(), "output": {"stem": "../x"}}, "output.stem"),
    ],
    ids=[
        "string-in-re",
        "re-im-lengths",
        "ragged-custom",
        "harmonic-label",
        "custom-label",
        "rabi-label",
        "infinite-tau",
        "huge-integer-tau",
        "cutoff-1",
        "hubbard-7-sites",
        "ground-of-cutoff-1",
        "optimizer-tau-lo",
        "optimizer-max-evals",
        "optimizer-max-evals-below-grid",
        "thermal-on-rabi",
        "amplitudes-of-another-dim",
        "ground-of-another-dim",
        "custom-term-not-square",
        "stem-in-a-subdirectory",
        "stem-outside-out",
    ],
)
def test_malformed_config_values_exit_one(doc, named, tmp_path, capsys):
    assert _run_cli(_write_cfg(tmp_path, "bad.json", doc), tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err and named in err


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


def test_verify_summarises_fig2b_and_appendix_a(capsys):
    assert main(["verify", "--only", "fig2b,appendix-a"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("ok   fig2b-identity: cutoff 24; phi=0.1: ")
    assert re.fullmatch(
        r"ok   appendix-a: 200 instances, 0 violations, eigenstate deviation \S+", lines[1]
    )


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


def test_sweep_trotter_trajectories_are_frozen(capsys):
    argv = ["sweep", "--config", "rabi_fixed", "--param", "run.tau", "--values", "0.2,0.3"]
    assert main([*argv, "--seeds", "3"]) == 0
    assert capsys.readouterr().out == (
        "value,seed,stages,converged,final_energy,p_success,restarts\n"
        "0.2,0,130,true,-1.31143101,0.423313558,4\n"
        "0.2,1,130,true,-1.31143101,0.423313558,0\n"
        "0.2,2,130,true,-1.31143101,0.423313558,0\n"
        "0.3,0,80,true,-1.34544716,0.401348507,2\n"
        "0.3,1,80,true,-1.34544716,0.401348507,2\n"
        "0.3,2,80,true,-1.34544716,0.401348507,0\n"
    )


def _targeted_harmonic_cfg():
    return _harmonic_cfg(
        gamma={"policy": "fixed", "value": 0.3}, eject_shifted=True, target_level=1
    )


def test_sweep_honours_target_level(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "targeted.json", _targeted_harmonic_cfg())
    assert _run_cli(cfg, tmp_path) == 0
    doc, _ = _read_trace(tmp_path, "t")
    capsys.readouterr()
    assert main(["sweep", "--config", str(cfg), "--param", "run.tau", "--values", "0.3"]) == 0
    row = capsys.readouterr().out.strip().splitlines()[1].split(",")
    assert row[2:6] == [
        str(doc["n_stages"]),
        "true",
        f"{doc['final_energy']:.9g}",
        f"{doc['p_success']:.9g}",
    ]
    assert abs(doc["final_energy"] - 1.0) < 0.01  # the first excited level, not E_0 = 0


def test_sweep_restarts_replay_the_ejections_of_a_targeted_config(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "targeted.json", _targeted_harmonic_cfg())
    argv = ["sweep", "--config", str(cfg), "--param", "run.target_level", "--values", "0,1"]
    assert main([*argv, "--seeds", "3"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
    assert [row[:2] for row in rows] == [[v, s] for v in "01" for s in "012"]
    parsed = parse_experiment(_targeted_harmonic_cfg(), source="targeted.json")
    h, initial = build_model(parsed.model), build_initial_state(parsed)
    trace = run(initial, h, parsed.run)
    assert rows[3][2] == str(trace.n_stages) and trace.stages[0].kind == "eject"
    for seed, row in enumerate(rows[3:]):
        traj = stochastic_trajectory(initial, h, replace(parsed.run, seed=seed), trace.schedule)
        assert row[6] == str(traj.restarts)


def test_sweep_refuses_negative_seeds(capsys):
    argv = ["sweep", "--config", str(BUNDLED / "harmonic_fixed.json"), "--param", "run.tau"]
    assert main([*argv, "--values", "0.3", "--seeds", "-2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "--seeds must be >= 0" in err


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


@pytest.mark.parametrize(
    "param, message",
    [
        ("run.optimizer.tau_lo", "unknown sweep parameter 'run.optimizer.tau_lo' (missing 'optimizer')"),
        ("run.gamma", "sweep parameter 'run.gamma' is not a scalar field"),
    ],
)
def test_sweep_refuses_a_param_that_is_no_scalar_field(param, message, capsys):
    argv = ["sweep", "--config", "harmonic_fixed", "--param", param, "--values", "1"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_sweep_value_that_is_not_json_is_a_string(capsys):
    argv = ["sweep", "--config", "harmonic_fixed", "--param", "run.mode", "--values", "fixed"]
    assert main(argv) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 2 and rows[1].startswith("fixed,,")


def test_sweep_empty_values(capsys):
    code = main(
        ["sweep", "--config", str(BUNDLED / "harmonic_fixed.json"), "--param", "run.epsilon", "--values", ""]
    )
    assert code == 1
