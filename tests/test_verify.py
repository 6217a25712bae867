"""Suite-level checks of the randomized verification battery: small runs
pass, the broken-circuit controls fail, and the report dicts carry what the
CLI needs. The spectral-weight and ejection suites live in the tests
(`tests.eigenbasis_suites`), checked against an independent eigensystem."""

import re

import pytest

from peigen import verify
from peigen.verify import (
    appendix_a_suite,
    fig2a_suite,
    fig2b_suite,
    run_all,
    trotter_scaling_suite,
)
from tests.eigenbasis_suites import eject_overlap, spectral_weight_deviation


def test_appendix_a_small_run_passes():
    rep = appendix_a_suite(n_instances=60, seed=3)
    assert rep["passed"]
    assert rep["violations"] == []
    assert rep["strict_margin_min"] > 0
    assert rep["eigenstate_max_deviation"] <= 1e-10


def test_spectral_weight_small_run_passes():
    assert spectral_weight_deviation(n_instances=40, seed=5) <= 1e-10


def test_eject_support_small_run_passes():
    assert eject_overlap(n_instances=40, seed=9) <= 1e-12


def test_trotter_scaling_suite_covers_all_models():
    rep = trotter_scaling_suite()
    assert rep["passed"]
    by_model = {c["model"]: c for c in rep["checks"]}
    assert set(by_model) == {"harmonic", "rabi", "hubbard-2", "hubbard-3"}
    assert by_model["harmonic"]["exact"] and by_model["harmonic"]["slope"] is None
    for name in ("rabi", "hubbard-2", "hubbard-3"):
        assert -2.2 <= by_model[name]["slope"] <= -1.8


def test_fig2a_suite_pass_and_broken_control():
    assert fig2a_suite(n_points=24)["passed"]
    broken = fig2a_suite(n_points=24, broken=True)
    assert not broken["passed"] and broken["max_distance"] > 0.01


def test_fig2b_suite_pass_and_broken_control():
    rep = fig2b_suite()
    assert rep["passed"] and rep["inconclusive"] is None
    assert set(rep["distances"]) == {"0.1", "0.5", "1"}
    broken = fig2b_suite(broken=True)
    assert not broken["passed"]


def test_fig2b_suite_reports_inconclusive_truncation():
    rep = fig2b_suite(phis=(6.0,), cutoff=8)
    assert not rep["passed"]
    assert rep["inconclusive"] is not None
    assert rep["distances"] == {}


def test_run_all_structure():
    rep = run_all()
    assert rep["all_passed"]
    assert [c["name"] for c in rep["checks"]] == [
        "fig2a-identity",
        "fig2b-identity",
        "trotter-order",
        "appendix-a",
    ]


def test_run_all_single_suite_and_unknown_name():
    rep = run_all(["fig2a"])
    assert len(rep["checks"]) == 1 and rep["checks"][0]["name"] == "fig2a-identity"
    with pytest.raises(KeyError):
        run_all(["nope"])


def test_run_all_runs_names_in_order_and_refuses_an_unknown_one_first(monkeypatch):
    ran = []
    for name in ("fig2a", "trotter"):
        monkeypatch.setitem(
            verify._SUITES, name, lambda name=name: ran.append(name) or {"passed": True}
        )
    assert run_all(["trotter", "fig2a"])["all_passed"] and ran == ["trotter", "fig2a"]
    with pytest.raises(KeyError, match="unknown check 'nope'"):
        run_all(["fig2a", "nope"])
    assert ran == ["trotter", "fig2a"]  # nothing ran before the refusal


def test_every_report_carries_its_summary_line():
    assert re.fullmatch(r"max distance \S+ over 4 points", fig2a_suite(n_points=4)["summary"])
    inconclusive = fig2b_suite(phis=(6.0,), cutoff=8)
    assert inconclusive["summary"] == f"inconclusive: {inconclusive['inconclusive']}"
    rep = appendix_a_suite(n_instances=5, seed=3)
    assert rep["summary"].startswith("5 instances, 0 violations, eigenstate deviation ")
