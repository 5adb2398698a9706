import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import pickle
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from histories_lab import cli, histories, scenarios
from histories_lab.analysis import (
    PROBE_CELLS_CAP,
    SCHEMA_VERSION,
    AnalysisOptions,
    _check_uniqueness,
    analyze,
    decode_value,
    encode_value,
    report_to_json,
    reverify,
)
from histories_lab.cli import _sweep_threads, main
from histories_lab.config import parse_config, scenario_to_config
from histories_lab.errors import ConfigValidationError, NumericError, ValidationError
from histories_lab.operators import DEFAULT_TOL, identity_deviation
from histories_lab.scenarios import build_scenario, three_box
from histories_lab.simplex import verify_certificate
from histories_lab.unify import TABLE_TOL, build_constraint_system, extract_marginals, probe_uniqueness

from test_analysis_stacks import _documents


@pytest.fixture()
def three_box_config():
    return scenario_to_config(three_box())


def test_config_round_trip_matches_builtin(three_box_config):
    desc = parse_config(three_box_config)
    assert desc.name == "three_box"
    roundtrip = analyze(desc)
    builtin = analyze(three_box())
    assert roundtrip["sets"] == builtin["sets"]
    assert roundtrip["unification"] == builtin["unification"]


def test_config_complex_entries_parse_exactly():
    doc = {
        "dim": 2,
        "initial": [[[0.5, 0.0], [0.0, -0.5]], [[0.0, 0.5], [0.5, 0.0]]],  # (1 + sigma_y)/2
        "final": None,
        "hamiltonian": [[0, 0], [0, 0]],
        "sets": [{"name": "y", "slots": [{
            "time": 0.0,
            "projectors": [
                [[[0.5, 0.0], [0.0, -0.5]], [[0.0, 0.5], [0.5, 0.0]]],
                [[[0.5, 0.0], [0.0, 0.5]], [[0.0, -0.5], [0.5, 0.0]]],
            ],
            "labels": ["+", "-"],
        }]}],
    }
    desc = parse_config(doc)
    _, projectors, _ = desc.grid.slots["y"][0]
    p = projectors[0, 0]  # point 0, first projector
    assert p[0, 1] == -0.5j and p[1, 0] == 0.5j


def test_config_ket_and_tagged_forms():
    doc = {
        "dim": 3,
        "initial": [1, 1, 1],  # flat list = ket, normalized internally
        "final": {"ket": [1, 1, -1]},
        "hamiltonian": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
        "sets": [{"name": "s", "slots": [{
            "time": 0.0,
            "projectors": [
                [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
                [[0, 0, 0], [0, 1, 0], [0, 0, 1]],
            ],
            "labels": ["1", "23"],
        }]}],
    }
    desc = parse_config(doc)
    assert abs(desc.initial.matrix[0, 0] - 1 / 3) < 1e-12
    assert desc.final is not None


def test_config_errors_are_exhaustive():
    doc = {
        "dim": 2,
        "initial": [[1, 0], [0, 0]],
        "hamiltonian": [[0, 1], [0, 0]],  # not Hermitian
        "sets": [{"name": "bad", "slots": [{
            "time": "soon",  # not a number
            "projectors": [[[0.7, 0], [0, 0.3]], [[0.3, 0], [0, 0.7]]],  # not projectors
            "labels": ["a", "b"],
        }]}],
    }
    with pytest.raises(ConfigValidationError) as err:
        parse_config(doc)
    paths = [path for path, _ in err.value.problems]
    assert any(p == "$.hamiltonian" for p in paths)
    assert any("slots[0].time" in p for p in paths)
    assert any("slots[0].projectors[0]" in p for p in paths)
    assert any("slots[0].projectors[1]" in p for p in paths)
    assert len(err.value.problems) >= 4


def test_config_unify_mapping_validation():
    doc = scenario_to_config(three_box())
    doc["unify"]["map"]["box1"][0]["groups"]["23"] = ["2", "nope"]
    with pytest.raises(ConfigValidationError) as err:
        parse_config(doc)
    assert any("groups" in path for path, _ in err.value.problems)


def test_config_non_unit_state_reports_field():
    doc = {
        "dim": 2,
        "initial": [[0.7, 0.0], [0.0, 0.7]],  # trace 1.4
        "hamiltonian": [[0, 0], [0, 0]],
        "sets": [{"name": "s", "slots": [{
            "time": 0.0,
            "projectors": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
            "labels": ["a", "b"],
        }]}],
    }
    with pytest.raises(ConfigValidationError) as err:
        parse_config(doc)
    assert any(path == "$.initial" for path, _ in err.value.problems)


def test_config_non_finite_numbers_are_named_at_their_paths():
    doc = scenario_to_config(build_scenario("leggett_garg"))
    doc["hamiltonian"][0][1][0] = math.inf
    doc["initial"] = {"ket": [1.0, math.nan]}
    doc["sets"][1]["slots"][0]["projectors"][0][1][1] = -math.inf
    with pytest.raises(ConfigValidationError) as err:
        parse_config(doc)
    assert sorted(path for path, _ in err.value.problems) == [
        "$.hamiltonian[0][1]", "$.initial.ket[1]", "$.sets[1].slots[0].projectors[0][1][1]"]


def test_config_bad_hamiltonian_is_one_problem():
    doc = scenario_to_config(build_scenario("leggett_garg"))
    doc["hamiltonian"][0][1] = [1.0, 0.0]  # [1][0] stays 0.5
    with pytest.raises(ConfigValidationError) as err:
        parse_config(doc)
    assert err.value.problems == [("$.hamiltonian", "must be Hermitian")]


def test_config_bad_entry_of_a_matrix_is_named_at_its_entry():
    doc = scenario_to_config(build_scenario("leggett_garg"))
    doc["hamiltonian"][0][1] = "x"
    doc["initial"][1][1] = True  # a 2x2 matrix, not a ket of two pairs
    with pytest.raises(ConfigValidationError) as err:
        parse_config(doc)
    assert err.value.problems == [
        ("$.hamiltonian[0][1]", "expected a finite number or [re, im] pair, got 'x'"),
        ("$.initial[1][1]", "expected a number, got a boolean")]


def test_config_scalar_problems_are_listed_in_document_order():
    # the final state and the second projector mix numbers with [re, im] pairs and are fine
    doc = json.loads("""{
      "dim": 3,
      "initial": {"ket": [1, [0.5, NaN], [1, true]]},
      "final": [[1, [0, 0], 0], [[0, 0], 0, [0.0, 0.0]], [0, 0, 0]],
      "hamiltonian": [[true, "x", NaN], [Infinity, 1%s, [1]], [[1, true], -Infinity, [2.5, -1]]],
      "sets": [{"name": "s", "slots": [{"time": 0.0, "labels": ["a", "b"], "projectors": [
        [[1, 0, 0], [0, 0, 0], [0, 0, false]], [[0, 0, 0], [0, 1, [0, 0]], [0, 0, 1]]]}]}]
    }""" % ("0" * 400))
    with pytest.raises(ConfigValidationError) as err:
        parse_config(doc)
    bad = "expected a finite number or [re, im] pair, got "
    assert list(err.value.problems) == [
        ("$.hamiltonian[0][0]", "expected a number, got a boolean"),
        ("$.hamiltonian[0][1]", bad + "'x'"),
        ("$.hamiltonian[0][2]", bad + "nan"),
        ("$.hamiltonian[1][0]", bad + "inf"),
        ("$.hamiltonian[1][1]", bad + str(10**400)),
        ("$.hamiltonian[1][2]", bad + "[1]"),
        ("$.hamiltonian[2][0]", bad + "[1, True]"),
        ("$.hamiltonian[2][1]", bad + "-inf"),
        ("$.initial.ket[1]", bad + "[0.5, nan]"),
        ("$.initial.ket[2]", bad + "[1, True]"),
        ("$.sets[0].slots[0].projectors[0][2][2]", "expected a number, got a boolean"),
    ]


def test_config_map_naming_a_variable_twice_is_a_parse_problem():
    # the combined set is inconsistent, so analysis would never have built its table
    doc = scenario_to_config(build_scenario("leggett_garg"))
    doc["unify"]["map"]["combined"] = ["q1", "q1", "q2"]
    with pytest.raises(ConfigValidationError) as err:
        parse_config(doc)
    assert err.value.problems == [
        ("$.unify.map.combined", "marginal table variables must be distinct")]


def test_config_overlapping_groups_are_a_parse_problem():
    doc = scenario_to_config(three_box())
    doc["unify"]["map"]["box1"][0]["groups"]["1"] = ["1", "2"]
    with pytest.raises(ConfigValidationError) as err:
        parse_config(doc)
    assert err.value.problems == [("$.unify.map.box1", "groups of variable 'box' overlap")]


@pytest.mark.parametrize("edit, path", [
    (lambda doc: doc["sets"][0]["slots"][0]["labels"].__setitem__(0, 1.5),
     "$.sets[0].slots[0].labels[0]"),
    (lambda doc: doc["unify"]["variables"][0]["outcomes"].__setitem__(0, 1.5),
     "$.unify.variables[0].outcomes[0]"),
], ids=["slot-label", "variable-outcome"])
def test_config_bad_label_is_not_reported_again_at_the_map(edit, path):
    doc = scenario_to_config(build_scenario("leggett_garg"))
    edit(doc)
    with pytest.raises(ConfigValidationError) as err:
        parse_config(doc)
    assert err.value.problems == [(path, "labels must be strings or integers, got 1.5")]


def test_config_checks_every_slot_of_a_set():
    doc = scenario_to_config(build_scenario("leggett_garg"))
    slots = doc["sets"][0]["slots"]
    slots[0]["projectors"][0][0][0] = "x"
    slots[1]["projectors"][1] = slots[1]["projectors"][0]  # P + P is not the identity
    with pytest.raises(ConfigValidationError) as err:
        parse_config(doc)
    assert [path for path, _ in err.value.problems] == [
        "$.sets[0].slots[0].projectors[0][0][0]", "$.sets[0].slots[1]"]


def _edited(doc, *edits):
    for path, value in edits:
        *parents, last = path
        target = doc
        for step in parents:
            target = target[step]
        target[last] = value
    return doc


def _lg_doc(*edits):
    return _edited(scenario_to_config(build_scenario("leggett_garg")), *edits)


def _three_box_doc(*edits):
    return _edited(scenario_to_config(three_box()), *edits)


_NOT_A_DECOMPOSITION = "slot is not a projective decomposition (max violation 1.000e+00)"

INVALID_DOCUMENTS = {
    "unordered-times": (
        lambda: _lg_doc((("sets", 0, "slots", 1, "time"), -1.0)),
        [("$.sets[0]", "slot times must be strictly increasing, got [0.0, -1.0]")]),
    "equal-times": (
        lambda: _lg_doc((("sets", 3, "slots", 2, "time"), 1.0)),
        [("$.sets[3]", "slot times must be strictly increasing, got [0.0, 1.0, 1.0]")]),
    "non-hermitian-projector": (
        lambda: _lg_doc((("sets", 1, "slots", 0, "projectors", 0), [[1, 1], [0, 0]])),
        [("$.sets[1].slots[0].projectors[0]", "projector must be Hermitian")]),
    "non-idempotent-projector": (
        lambda: _lg_doc((("sets", 2, "slots", 1, "projectors", 0), [[0.5, 0], [0, 0.5]])),
        [("$.sets[2].slots[1].projectors[0]", "projector must be idempotent")]),
    "duplicate-labels": (
        lambda: _lg_doc((("sets", 0, "slots", 0, "labels"), [1, 1])),
        [("$.sets[0].slots[0]", "slot symbols must be distinct")]),
    "bad-third-projector": (
        lambda: _three_box_doc((("sets", 2, "slots", 0, "projectors", 2), np.diag([0, 0, 0.5]).tolist())),
        [("$.sets[2].slots[0].projectors[2]", "projector must be idempotent")]),
    "bad-hamiltonian-and-sets": (
        lambda: _lg_doc((("hamiltonian",), [[0, 1], [0, 0]]),
                        (("sets", 0, "slots", 1, "time"), 0.0),
                        (("sets", 1, "slots", 1, "projectors", 1), [[0, 0], [0, 1]])),  # projector 0 again
        [("$.hamiltonian", "must be Hermitian"),
         ("$.sets[0]", "slot times must be strictly increasing, got [0.0, 0.0]"),
         ("$.sets[1].slots[1]", _NOT_A_DECOMPOSITION)]),
    "degenerate-final-and-unknown-variable": (  # the final state is orthogonal to the initial |up>
        lambda: _edited(scenario_to_config(build_scenario("griffiths_spin")),
                        (("final",), [0, 1]), (("unify", "map", "z", 0), "nope")),
        [("$.final", "Tr(rho_f rho) = 0.000e+00 is too small to normalize by"),
         ("$.unify.map.z[0]", "unknown variable 'nope'")]),
    "bad-map-on-bad-set": (  # the map of a set with a problem is not checked
        lambda: _three_box_doc((("sets", 0, "slots", 0, "projectors", 1), np.diag([1, 0, 0]).tolist()),
                               (("unify", "map", "box1", 0, "groups", "23"), ["2", "nope"])),
        [("$.sets[0].slots[0]", _NOT_A_DECOMPOSITION)]),
}


@pytest.mark.parametrize("name", sorted(INVALID_DOCUMENTS))
def test_config_problem_lists_are_pinned(name):
    build, problems = INVALID_DOCUMENTS[name]
    with pytest.raises(ConfigValidationError) as err:
        parse_config(build())
    assert err.value.problems == problems


def test_cli_prints_each_config_problem_and_exits_2(tmp_path, capsys):
    build, problems = INVALID_DOCUMENTS["bad-hamiltonian-and-sets"]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(build()))
    assert main(["analyze", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "config error at $.hamiltonian: must be Hermitian",
        "config error at $.sets[0]: slot times must be strictly increasing, got [0.0, 0.0]",
        f"config error at $.sets[1].slots[1]: {_NOT_A_DECOMPOSITION}"]


def test_cli_lists_a_degenerate_final_with_every_other_problem(tmp_path, capsys):
    build, problems = INVALID_DOCUMENTS["degenerate-final-and-unknown-variable"]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(build()))
    assert main(["analyze", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "config error at $.final: Tr(rho_f rho) = 0.000e+00 is too small to normalize by",
        "config error at $.unify.map.z[0]: unknown variable 'nope'"]


@pytest.mark.parametrize("source", [1.5, None, [], b"config.json"])
def test_parse_config_refuses_a_source_that_is_not_a_path(source):
    with pytest.raises(ValidationError, match="config must be a file path"):
        parse_config(source)


def test_parse_config_leaves_an_integer_source_unopened():
    fd = os.dup(2)
    try:
        with pytest.raises(ValidationError, match="got int"):
            parse_config(fd)
        os.fstat(fd)  # raises OSError once the descriptor is closed
    finally:
        os.close(fd)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_analyze_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["analyze", "--scenario", "griffiths_spin", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema_version"] == SCHEMA_VERSION
    assert report["unification"]["verdict"]["status"] == "feasible"
    reverify(report)


def test_cli_analyze_exact_three_box(tmp_path):
    out = tmp_path / "report.json"
    assert main(["analyze", "--scenario", "three_box", "--exact", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    verdict = report["unification"]["verdict"]
    assert verdict["status"] == "infeasible" and verdict["mode"] == "exact"
    reverify(report)


def test_cli_reports_are_byte_identical(tmp_path):
    paths = [tmp_path / f"r{i}.json" for i in (1, 2)]
    for p in paths:
        assert main(["analyze", "--scenario", "eprb", "--out", str(p)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_cli_parser_is_built_once_and_keeps_no_state(monkeypatch, capsys, tmp_path, three_box_config):
    monkeypatch.setenv("HISTORIES_LAB_THREADS", "1")
    parser = cli._build_parser()
    assert cli._build_parser() is parser

    # the --param and --range append actions share one default=[] list
    assert main(["sweep", "--scenario", "eprb", "--param", "theta4", "--range", "2:2.8:2",
                 "--param", "theta3", "--range", "0:1:2"]) == 0
    assert capsys.readouterr().out.splitlines()[0].startswith("theta4,theta3,")
    assert main(["sweep", "--scenario", "eprb", "--param", "theta1", "--range", "0:0.5:3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "theta1,combined_consistent,max_combination,feasible" and len(lines) == 4
    args = parser.parse_args(["sweep", "--scenario", "eprb"])
    assert args.param == [] and args.ranges == []

    with pytest.raises(SystemExit) as usage:
        main(["analyze", "--scenario", "no_such_scenario"])
    assert usage.value.code == 2
    capsys.readouterr()

    config = tmp_path / "three_box.json"
    config.write_text(json.dumps(three_box_config))
    sources = [["--scenario", "three_box"], ["--config", str(config)]] * 2
    reports = []
    for i, source in enumerate(sources):
        out = tmp_path / f"report{i}.json"
        assert main(["analyze", *source, "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[2] != reports[1] == reports[3]
    assert parser.parse_args(["analyze", "--config", str(config)]).scenario is None


def test_cli_missing_config_is_exit_2(capsys):
    assert main(["analyze", "--config", "does-not-exist.json"]) == 2
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"\xff\xfe\x00", b"[" * 100000],
                         ids=["not-utf8", "too-deep"])
@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_cli_undecodable_json_is_exit_2(tmp_path, capsys, command, content):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    argv = ["analyze", "--config", str(path)] if command == "analyze" else ["verify", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "not valid JSON" in err and "Traceback" not in err


def test_cli_nan_time_config_is_exit_2(tmp_path, capsys):
    doc = scenario_to_config(build_scenario("leggett_garg"))
    doc["sets"][0]["slots"][0]["time"] = math.nan
    path = tmp_path / "lg.json"
    path.write_text(json.dumps(doc))  # Python's json writes and reads NaN
    assert main(["analyze", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "config error at $.sets[0].slots[0].time: expected a finite number, got nan"]


def _overflowing_phase_document(hamiltonian) -> dict:
    doc = scenario_to_config(build_scenario("leggett_garg"))
    doc["hamiltonian"] = hamiltonian
    for sset in doc["sets"]:
        for slot in sset["slots"]:
            slot["time"] *= 1e10
    return doc


def test_cli_overflowing_propagator_is_exit_2(tmp_path, capsys):
    # finite inputs whose H * t overflows would give NaN class operators: the parse refuses
    # every slot of a nonzero time, at its path
    doc = _overflowing_phase_document([[0, 1e300], [1e300, 0]])
    path = tmp_path / "lg.json"
    path.write_text(json.dumps(doc))
    with np.errstate(all="raise"):  # the check itself overflows silently
        assert main(["analyze", "--config", str(path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    refused = [f"$.sets[{i}].slots[{k}].time" for i, sset in enumerate(doc["sets"])
               for k, slot in enumerate(sset["slots"]) if slot["time"] != 0]
    assert [line.split(": ")[0] for line in lines] == [f"config error at {p}" for p in refused]
    assert all(": eigenvalue * time must be finite, got |eigenvalue|=" in line for line in lines)


def test_an_infinite_eigenvalue_refuses_every_slot_time(capsys):
    # the largest eigenvalue of this Hamiltonian overflows, so even a time of 0 gives no phase
    doc = _overflowing_phase_document([[1e308, 1e308], [1e308, 1e308]])
    with pytest.raises(ConfigValidationError) as info:
        parse_config(doc)
    assert info.value.problems == [
        (f"$.sets[{i}].slots[{k}].time", f"eigenvalue * time must be finite, got |eigenvalue|=inf, "
                                         f"time={slot['time']!r}")
        for i, sset in enumerate(doc["sets"]) for k, slot in enumerate(sset["slots"])]


def test_a_phase_is_checked_with_every_other_problem_of_the_document():
    doc = _overflowing_phase_document([[0, 1e300], [1e300, 0]])
    doc["initial"] = [0, 0]
    with pytest.raises(ConfigValidationError) as info:
        parse_config(doc)
    paths = [path for path, _ in info.value.problems]
    assert paths[0] == "$.initial.ket" and "$.sets[0].slots[1].time" in paths


def _drifting_document(eps: float, sets: dict) -> dict:
    """dim 2, rho = I/2 and H = 0.3 sigma_x; every slot uses the family {diag(1 + eps, 0),
    diag(0, 1)}, which passes the projector checks within DEFAULT_TOL while a product of
    several drifts further from the identity.  ``sets`` maps each set name to its slot
    times, and the slot at time t is read as the variable q{t + 1}."""
    family = [[[1 + eps, 0], [0, 0]], [[0, 0], [0, 1]]]
    times = sorted({t for ts in sets.values() for t in ts})
    return {"dim": 2, "initial": [[0.5, 0], [0, 0.5]], "hamiltonian": [[0, 0.3], [0.3, 0]],
            "sets": [{"name": name, "slots": [{"time": float(t), "projectors": family, "labels": [1, -1]}
                                              for t in ts]} for name, ts in sets.items()],
            "unify": {"variables": [{"name": f"q{t + 1}", "outcomes": [1, -1]} for t in times],
                      "map": {name: [f"q{t + 1}" for t in ts] for name, ts in sets.items()}}}


THREE_TIMES = {"three": (0, 1, 2), "p12": (0, 1), "p23": (1, 2)}


def test_products_of_checked_families_are_analyzed_however_far_they_drift(tmp_path):
    doc = _drifting_document(9e-11, THREE_TIMES)
    stacks = parse_config(doc).grid.class_operators("three")
    assert identity_deviation(stacks)[0] > DEFAULT_TOL  # what analyze no longer checks
    path, out = tmp_path / "drift.json", tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", "--config", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["unification"] is not None
    assert main(["verify", str(out)]) == 0


@pytest.mark.parametrize("slots", [1, 2, 3, 4])
@pytest.mark.parametrize("eps", [3e-11, 6e-11, 9e-11])
def test_a_drifting_family_parses_analyzes_and_verifies(tmp_path, eps, slots):
    doc = _drifting_document(eps, {"all": tuple(range(slots)), **{f"t{t}": (t,) for t in range(slots)}})
    parse_config(doc)
    path, out = tmp_path / "drift.json", tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    for mode in [], ["--exact"]:  # the tables sum to 1 + about slots * eps, within TABLE_TOL
        assert main(["analyze", "--config", str(path), *mode, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["unification"] is not None
        reverify(report)


@st.composite
def _near_slack_documents(draw):
    """``(document, options)``: a ``_documents`` document, a drifting one (eps up
    to DEFAULT_TOL, one to four slots, every slot as its own set or each pair of
    neighbouring slots), or one or two sets of one z slot read from the ket [1, x]
    post-selected on [1, 1].  Such a set has Re D(up, down) and a sum defect of
    about x and 2x, so at tol 1e-9 its table misses 1 by up to about TABLE_TOL."""
    kind = draw(st.sampled_from(["documents", "drifting", "ket"]))
    if kind == "documents":
        return draw(_documents()), []
    if kind == "drifting":
        eps, slots = draw(st.floats(0, DEFAULT_TOL)), draw(st.integers(1, 4))
        parts = {f"t{t}": (t,) for t in range(slots)} if draw(st.booleans()) else \
            {f"p{t}": (t, t + 1) for t in range(slots - 1)}
        return _drifting_document(eps, {"all": tuple(range(slots)), **parts}), []
    x = draw(st.floats(-TABLE_TOL / 2, TABLE_TOL / 2))
    z = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
    names = ["z", "z1"][:draw(st.integers(1, 2))]
    variables = draw(st.sampled_from([["sz"] * len(names), [f"s{name}" for name in names]]))
    return {"dim": 2, "initial": [1, x], "final": [1, 1], "hamiltonian": [[0, 0], [0, 0]],
            "sets": [{"name": n, "slots": [{"time": float(t), "projectors": z, "labels": [1, -1]}]}
                     for t, n in enumerate(names)],
            "unify": {"variables": [{"name": v, "outcomes": [1, -1]} for v in sorted(set(variables))],
                      "map": {n: [v] for n, v in zip(names, variables)}}}, ["--tol", "1e-9"]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_near_slack_documents())
def test_exact_mode_analyzes_every_document_float_mode_analyzes(case):
    doc, options = case
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        path, out = Path(tmp, "doc.json"), Path(tmp, "report.json")
        path.write_text(json.dumps(doc))
        if main(["analyze", "--config", str(path), *options, "--out", os.devnull]) != 0:
            return
        assert main(["analyze", "--config", str(path), "--exact", *options, "--out", str(out)]) == 0
        assert main(["verify", str(out)]) == 0


@pytest.mark.parametrize("mode", [[], ["--exact"]], ids=["float", "exact"])
def test_a_consistent_set_without_a_probability_table_is_named(capsys, mode):
    # at tol 1.0 the post-selected fine set counts as consistent, but its probabilities sum to 3
    assert main(["analyze", "--scenario", "three_box", "--tol", "1.0", *mode]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("error: set 'fine' is consistent at tol 1.0 but gives no probability table: "
                       "marginal values must sum to 1, got 3.0\n")


def test_a_table_float_mode_accepts_snaps_in_exact_mode(tmp_path):
    # the set is consistent (its largest off-diagonal Re D is 1e-11) and its table sums to
    # 0.99999999998, within TABLE_TOL, so float mode accepts it, and so does exact mode:
    # snapping reads values with the same slack the table was accepted with
    z = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
    doc = {"dim": 2, "initial": [1, 1e-11], "final": [1, 1], "hamiltonian": [[0, 0], [0, 0]],
           "sets": [{"name": "z", "slots": [{"time": 0.0, "projectors": z, "labels": [1, -1]}]}],
           "unify": {"variables": [{"name": "sz", "outcomes": [1, -1]}], "map": {"z": ["sz"]}}}
    path, out = tmp_path / "snap.json", tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", "--config", str(path), "--out", str(out)]) == 0
    assert main(["analyze", "--config", str(path), "--exact", "--out", str(out)]) == 0
    verdict = json.loads(out.read_text())["unification"]["verdict"]
    assert verdict["mode"] == "exact" and verdict["status"] == "feasible"
    assert main(["verify", str(out)]) == 0


def test_a_non_hermitian_hamiltonian_is_reported_without_a_phase_check():
    doc = _overflowing_phase_document([[0, 1e300], [0, 0]])
    with pytest.raises(ConfigValidationError) as info:
        parse_config(doc)
    assert info.value.problems == [("$.hamiltonian", "must be Hermitian")]


def test_cli_history_cap_is_exit_2_before_any_class_operator(tmp_path, capsys, monkeypatch):
    z = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
    doc = {"dim": 2, "initial": [1, 0], "hamiltonian": [[0, 0], [0, 0]],
           "sets": [{"name": "big", "slots": [{"time": float(t), "projectors": z, "labels": [1, -1]}
                                              for t in range(13)]}]}
    path = tmp_path / "cap.json"
    path.write_text(json.dumps(doc))
    built = []  # every class-operator product goes through these two helpers
    for helper in ("heisenberg_stack", "extend_prefix"):
        def counted(*args, helper=helper, real=getattr(histories, helper)):
            built.append(helper)
            return real(*args)
        for module in (histories, scenarios):
            monkeypatch.setattr(module, helper, counted)
    assert main(["analyze", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "error: schedule yields 8192 histories, cap is 4096\n"
    assert built == []


def test_cli_dim_above_cap_is_exit_2(tmp_path, capsys):
    # a dim of a million must be refused before any dim x dim array exists
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"dim": 1_000_000}))
    assert main(["analyze", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error at $.dim" in err and "exceeds the cap" in err
    assert "Traceback" not in err


def test_cli_config_analysis(tmp_path, three_box_config):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(three_box_config))
    out = tmp_path / "report.json"
    assert main(["analyze", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["unification"]["verdict"]["status"] == "infeasible"


def test_cli_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--scenario", "leggett_garg",
                 "--param", "omega", "--range", f"0:{math.pi}:5", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "omega,combined_consistent,max_combination,feasible"
    assert len(lines) == 6
    feasible = [line.split(",")[-1] for line in lines[1:]]
    assert feasible == ["1", "0", "1", "0", "1"]  # flips at 0, pi/2, pi


def test_cli_sweep_of_a_negative_range_in_the_equals_form(tmp_path):
    # "--range -1:1:3" would stop at argparse, which reads -1:1:3 as an option
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--scenario", "eprb", "--param", "theta4", "--range=-1:1:3",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "theta4,combined_consistent,max_combination,feasible"
    assert [line.split(",")[0] for line in lines[1:]] == ["-1.0", "0.0", "1.0"]


def test_cli_sweep_grid_is_row_major(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--scenario", "eprb",
                 "--param", "theta3", "--range", "0:1:2",
                 "--param", "theta4", "--range", "0:1:3", "--out", str(out)])
    assert code == 0
    rows = [line.split(",")[:2] for line in out.read_text().splitlines()[1:]]
    assert rows == [["0.0", "0.0"], ["0.0", "0.5"], ["0.0", "1.0"],
                    ["1.0", "0.0"], ["1.0", "0.5"], ["1.0", "1.0"]]


def test_sweep_through_tsirelson_excludes_the_peak():
    # theta4 grid straddling 3*pi/4: feasibility agrees with the CHSH check
    # at every point and the peak itself is infeasible
    from histories_lab.cli import evaluate_sweep_point

    peak = 3 * math.pi / 4
    for theta4 in np.linspace(peak - 0.8, peak + 0.8, 9):
        row = evaluate_sweep_point("eprb", {"theta1": 0.0, "theta2": math.pi / 2,
                                            "theta3": math.pi / 4, "theta4": float(theta4)})
        expected = int(row["max_combination"] <= 2.0 + 1e-9)
        assert row["feasible"] == expected
        if abs(theta4 - peak) < 1e-12:
            assert row["feasible"] == 0
            assert abs(row["max_combination"] - 2 * math.sqrt(2)) < 1e-9


def test_sweep_thread_cap_env(tmp_path, monkeypatch):
    # HISTORIES_LAB_THREADS is ignored: the sweep runs in this process whatever it says
    argv = ["sweep", "--scenario", "leggett_garg", "--param", "omega", "--range", "0.2:1.2:4"]
    outs = []
    for raw in ("2", "junk", None):
        if raw is None:
            monkeypatch.delenv("HISTORIES_LAB_THREADS", raising=False)
        else:
            monkeypatch.setenv("HISTORIES_LAB_THREADS", raw)
        out = tmp_path / f"sweep_{raw}.csv"
        assert main([*argv, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2] and len(outs[0].splitlines()) == 5


def test_sweep_workers_are_capped_whatever_the_environment_says(monkeypatch):
    # only reads the variable: no process is started
    for raw in ("500", str(10**12), "3", "0", "-4", "junk"):
        monkeypatch.setenv("HISTORIES_LAB_THREADS", raw)
        assert _sweep_threads() == 1


def _no_child_left():
    """Whether this process has no child process, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


README_SWEEPS = (["--scenario", "leggett_garg", "--param", "omega", "--range", "0:3.14159:181"],
                 ["--scenario", "eprb", "--param", "theta4", "--range", "2:2.8:41"])


@pytest.mark.parametrize("argv, err", [
    # t1 reaches t2 = 1 at the eleventh of 20 points, so the last ten fail
    (["--scenario", "leggett_garg", "--param", "t1", "--range", "0:1.9:20"],
     "error: times must be strictly increasing, got (1.0999999999999999, 1.0, 2.0)\n"),
    # omega * (t3 - t2) overflows from the second of three points on
    (["--scenario", "leggett_garg", "--param", "omega", "--range", "1:1e300:3",
      "--param", "t3", "--range", "1e10:1e10:1"],
     "error: omega * (t3 - t2) must be finite, got omega=5e+299, t2=1.0, t3=10000000000.0\n"),
    # t1 reaches t2 = 1 at point 316 of 600, in the second chunk of the grid
    (["--scenario", "leggett_garg", "--param", "t1", "--range", "0:1.9:600"],
     "error: times must be strictly increasing, got (1.002337228714524, 1.0, 2.0)\n"),
], ids=["unordered-times", "overflowing-phase", "second-chunk"])
def test_sweep_failure_is_the_first_in_grid_order(capsys, argv, err):
    assert main(["sweep", *argv]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == err


def test_sweep_point_of_a_gap_that_fits_and_a_time_that_overflows_is_exit_2(capsys):
    # omega * (t3 - t1) = 1e307 fits, omega * t1 = 1e309 does not, from the second point on
    assert main(["sweep", "--scenario", "leggett_garg", "--param", "omega", "--range", "1:1e307:2",
                 "--param", "t1", "--range", "100:100:1", "--param", "t2", "--range", "100.5:100.5:1",
                 "--param", "t3", "--range", "101:101:1"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: omega * t1 must be finite, got omega=1e+307, t1=100.0\n"


def test_a_chunk_with_a_refused_point_computes_no_physics(monkeypatch, capsys):
    def no_physics(*args):
        raise AssertionError("a refused chunk computed its physics")

    monkeypatch.setattr(cli, "decoherence_stack", no_physics)
    assert main(["sweep", "--scenario", "leggett_garg", "--param", "t1", "--range", "0:1.9:20"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: times must be strictly increasing, got (1.0999999999999999, 1.0, 2.0)\n"


# with these times, omega = 1e308 overflows a gap, and 1e307 or 1e300 overflows a time
# near 100 or 1e10
_LG_OMEGAS = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([1e300, -1e307, 1e307, 1e308]))
_LG_TIMES = {"t1": (-1.0, 1.2), "t2": (0.8, 2.2), "t3": (1.8, 3.0)}  # overlapping: some points unordered


@st.composite
def _refused_leggett_garg_sweeps(draw):
    """A ``leggett_garg`` sweep's arguments, and the stderr of the first point in
    its grid order that ``build_scenario`` refuses."""
    params = draw(st.permutations(["t1", "t2", "t3"] + (["omega"] if draw(st.booleans()) else [])))
    offset = draw(st.sampled_from([0.0, 100.0, 1e10]))
    ends = lambda p: draw(_LG_OMEGAS) if p == "omega" else offset + draw(st.floats(*_LG_TIMES[p]))
    ranges = [(ends(p), ends(p), draw(st.integers(1, 3))) for p in params]
    argv = ["sweep", "--scenario", "leggett_garg"]
    for param, (lo, hi, steps) in zip(params, ranges):
        argv += ["--param", param, f"--range={lo!r}:{hi!r}:{steps}"]
    for values in itertools.product(*(np.linspace(*r).tolist() for r in ranges)):  # row-major
        try:
            build_scenario("leggett_garg", dict(zip(params, values)))
        except ValidationError as exc:
            return argv, f"error: {exc}\n"
    reject()  # every point is accepted


@settings(max_examples=60, deadline=None)
@given(_refused_leggett_garg_sweeps())
def test_a_refused_sweep_reports_what_build_scenario_raises_for_its_first_refused_point(sweep):
    argv, err = sweep
    out, errs = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(errs):
        assert main(argv) == 2
    assert out.getvalue() == "" and errs.getvalue() == err


def test_leggett_garg_near_its_unifier_boundary_has_no_numeric_failure(capsys):
    code = main(["sweep", "--scenario", "leggett_garg", "--param", "omega", "--range", "0.0001:0.00012:21"])
    capsys.readouterr()
    failures = []
    for omega in np.geomspace(1.05e-4, 1.2e-4, 100).tolist():
        desc = build_scenario("leggett_garg", {"omega": omega})
        tables = [extract_marginals(desc.build(n), desc.set_named(n).mapping)
                  for n in ("pair_12", "pair_23", "pair_13")]
        try:
            probe_uniqueness(desc.space, tables)
            # a verdict and verify check a certificate with the same slack
            reverify(json.loads(report_to_json(analyze(desc))))
        except NumericError as exc:
            failures.append((omega, str(exc)))
    assert code == 0 and failures == []


def test_one_sweep_worker_forks_nothing(monkeypatch, capsys):
    def no_fork():
        raise AssertionError("a worker was forked")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setenv("HISTORIES_LAB_THREADS", "2")
    assert main(["sweep", *README_SWEEPS[1]]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 42
    assert _no_child_left()


def test_out_rewrites_a_longer_file_in_place(tmp_path):
    out = tmp_path / "report.json"
    out.write_bytes(b"x" * 100_000)
    assert main(["analyze", "--scenario", "three_box", "--out", str(out)]) == 0
    expected = report_to_json(analyze(three_box())).encode()
    assert out.read_bytes() == expected
    assert main(["sweep", *README_SWEEPS[1], "--out", str(out)]) == 0
    assert out.read_bytes().startswith(b"theta4,") and len(out.read_bytes().splitlines()) == 42


def test_out_to_dev_null_exits_0():
    assert main(["analyze", "--scenario", "three_box", "--out", os.devnull]) == 0
    assert main(["sweep", *README_SWEEPS[1], "--out", os.devnull]) == 0


@pytest.mark.parametrize("command", [["analyze", "--scenario", "three_box"], ["sweep", *README_SWEEPS[1]]],
                         ids=["analyze", "sweep"])
@pytest.mark.parametrize("target, reason", [("missing/out.txt", "No such file or directory"),
                                            (".", "Is a directory")], ids=["missing-parent", "directory"])
def test_out_that_cannot_be_written_is_exit_2(tmp_path, capsys, command, target, reason):
    out = tmp_path / target
    assert main([*command, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {out}: {reason}\n"
    assert "Traceback" not in captured.err


def test_config_validation_error_survives_pickling():
    problems = [("$", "bad"), ("$.dim", "expected an integer, got 'x'")]
    clone = pickle.loads(pickle.dumps(ConfigValidationError(problems)))
    assert type(clone) is ConfigValidationError
    assert clone.problems == problems
    assert str(clone) == str(ConfigValidationError(problems))


def test_cli_non_finite_tol_and_delta_are_exit_2(capsys):
    assert main(["analyze", "--scenario", "eprb", "--tol", "nan", "--delta", "inf"]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: analysis options must be finite and non-negative: "
                                "tol=nan, delta=inf"]
    assert main(["analyze", "--scenario", "eprb", "--delta=-1e-9"]) == 2
    assert "delta=-1e-09" in capsys.readouterr().err


def test_cli_sweep_zero_steps_is_exit_2(capsys):
    assert main(["sweep", "--scenario", "leggett_garg",
                 "--param", "omega", "--range", "0:3:0"]) == 2
    assert "at least one step" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["0:inf:2", "nan:1:2", "-1e308:1e308:3"])
def test_cli_sweep_non_finite_range_is_exit_2(capsys, spec):
    assert main(["sweep", "--scenario", "eprb", "--param", "theta4", f"--range={spec}"]) == 2
    assert capsys.readouterr().err == f"error: range {spec!r} must give finite grid values\n"


def test_cli_sweep_unknown_param_is_exit_2(capsys):
    assert main(["sweep", "--scenario", "leggett_garg",
                 "--param", "bogus", "--range", "0:1:2"]) == 2


def test_cli_unsupported_sweep_scenario_is_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--scenario", "three_box", "--param", "x", "--range", "0:1:2"])
    assert err.value.code == 2


def test_cli_sweep_mismatched_ranges_is_exit_2(capsys):
    assert main(["sweep", "--scenario", "eprb", "--param", "theta1"]) == 2


def test_cli_sweep_grid_above_the_cap_is_exit_2(monkeypatch, capsys):
    from histories_lab import cli

    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(cli.np, "linspace", no_grid)
    assert main(["sweep", "--scenario", "leggett_garg",
                 "--param", "omega", "--range", "0:1:1000000000000"]) == 2
    assert capsys.readouterr().err == \
        f"error: sweep grid has 1000000000000 points, cap is {cli.SWEEP_POINT_CAP}\n"
    assert main(["sweep", "--scenario", "eprb", "--param", "theta1", "--param", "theta2",
                 "--range", "0:1:1001", "--range", "0:1:1000"]) == 2
    assert "sweep grid has 1001000 points" in capsys.readouterr().err


def test_cli_analyze_delta_band_without_an_exact_unifier(tmp_path):
    # z and z tilted by 0.02 rad, both read as v: the marginals differ by
    # about 1e-4, inside a 1e-3 band, but no table matches both exactly
    def slot(angle):  # the state angle is half the Bloch-sphere tilt
        up = np.array([math.cos(angle), math.sin(angle)])
        down = np.array([-math.sin(angle), math.cos(angle)])
        return {"time": 0.0, "labels": ["up", "down"],
                "projectors": [np.outer(up, up).tolist(), np.outer(down, down).tolist()]}
    doc = {"dim": 2, "initial": [1, 0], "hamiltonian": [[0, 0], [0, 0]],
           "sets": [{"name": "z", "slots": [slot(0.0)]},
                    {"name": "tilted", "slots": [slot(0.01)]}],
           "unify": {"variables": [{"name": "v", "outcomes": ["up", "down"]}],
                     "map": {"z": ["v"], "tilted": ["v"]}}}
    path, out = tmp_path / "tilt.json", tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", "--config", str(path), "--delta", "1e-3", "--out", str(out)]) == 0
    verdict = json.loads(out.read_text())["unification"]["verdict"]
    assert verdict["status"] == "feasible"
    assert verdict["unique"] is None and verdict["component_bounds"] is None
    assert main(["verify", str(out)]) == 0
    assert main(["analyze", "--config", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["unification"]["verdict"]["status"] == "infeasible"


def test_cli_exact_tables_that_disagree_on_a_shared_variable(tmp_path):
    # z and x both read as v from |0>: P(v = up) is 1 in one table and 1/2 in
    # the other.  The row basis keeps z's two rows, where the LP is feasible;
    # x's up row is z's up row again with another value, and that dependency
    # is the certificate
    half = [[0.5, 0.5], [0.5, 0.5]], [[0.5, -0.5], [-0.5, 0.5]]
    doc = {"dim": 2, "initial": [1, 0], "hamiltonian": [[0, 0], [0, 0]],
           "sets": [{"name": "z", "slots": [{"time": 0.0, "labels": ["up", "down"],
                                             "projectors": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]}]},
                    {"name": "x", "slots": [{"time": 0.0, "labels": ["up", "down"],
                                             "projectors": list(half)}]}],
           "unify": {"variables": [{"name": "v", "outcomes": ["up", "down"]}],
                     "map": {"z": ["v"], "x": ["v"]}}}
    path, out = tmp_path / "zx.json", tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", "--config", str(path), "--exact", "--out", str(out)]) == 0
    verdict = json.loads(out.read_text())["unification"]["verdict"]
    assert verdict["status"] == "infeasible"
    y = [decode_value(v) for v in verdict["farkas_certificate"]]
    assert y == [-1, 0, 1, 0, 0] and all(type(v) is Fraction for v in y)
    rows = np.array([[1, 0], [0, 1], [1, 0], [0, 1], [1, 1]])  # z up, z down, x up, x down, sum
    assert not (np.array(y, dtype=object) @ rows).any()
    assert main(["verify", str(out)]) == 0


def test_cli_numeric_failure_is_exit_3(monkeypatch, capsys):
    from histories_lab import cli
    from histories_lab.errors import NumericError

    def boom(descriptor, options):
        raise NumericError("synthetic failure")

    monkeypatch.setattr(cli, "analyze", boom)
    assert main(["analyze", "--scenario", "three_box"]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_report_json_round_trips(tmp_path):
    for exact in (False, True):
        report = analyze(build_scenario("leggett_garg"), AnalysisOptions(exact=exact))
        text = report_to_json(report)
        assert json.loads(text) == json.loads(report_to_json(json.loads(text)))
        reverify(json.loads(text))


def test_reverify_rejects_tampered_evidence():
    for exact in (False, True):
        options = AnalysisOptions(exact=exact)
        report = json.loads(report_to_json(analyze(build_scenario("griffiths_spin"), options)))
        reverify(report)
        cells = report["unification"]["verdict"]["witness"]
        i = next(k for k, (_, value) in enumerate(cells) if value != cells[0][1])
        cells[0][1], cells[i][1] = cells[i][1], cells[0][1]
        with pytest.raises(NumericError):
            reverify(report)

    report = json.loads(report_to_json(analyze(three_box(), AnalysisOptions(exact=True))))
    reverify(report)
    verdict = report["unification"]["verdict"]
    verdict["farkas_certificate"] = encode_value(
        [-y for y in decode_value(verdict["farkas_certificate"])])
    with pytest.raises(NumericError):
        reverify(report)

    # float three_box: scale the certificate and add the normalization row so
    # that y.b is just below 0.  That still refutes the hard equalities, but
    # not the +-delta bands of the marginal rows: delta * sum|y| over those
    # rows (2.0e-9; the normalization row has no band) outweighs y.b = -1.5e-9
    desc = three_box()
    report = json.loads(report_to_json(analyze(desc, AnalysisOptions())))
    reverify(report)
    unification = report["unification"]
    marginals = [extract_marginals(desc.build(name), desc.set_named(name).mapping)
                 for name in unification["marginal_sets"]]
    hard = build_constraint_system(desc.space, marginals, 0.0)
    y = np.array(unification["verdict"]["farkas_certificate"])
    y = -(1 + 1.5e-9) / float(y @ hard.rhs) * y
    y[-1] += 1.0  # the normalization row
    assert verify_certificate(hard.matrix, hard.rhs, y)
    unification["verdict"]["farkas_certificate"] = y.tolist()
    with pytest.raises(NumericError):
        reverify(report)


@pytest.mark.parametrize("edit, message", [
    (lambda cells: cells.pop(0), r"no value for cell \(1, 1\)"),
    (lambda cells: cells.append([[7, 7], 0.75]), r"cell \(7, 7\) is not in the sample space"),
    (lambda cells: cells[0].__setitem__(1, "0.5"), r"'0.5' for cell \(1, 1\)"),
    (lambda cells: cells[0].__setitem__(1, float("nan")), r"nan for cell \(1, 1\)"),
], ids=["missing-cell", "extra-cell", "string-value", "nan-value"])
@pytest.mark.parametrize("exact", [False, True])
def test_reverify_rejects_malformed_witness(exact, edit, message):
    report = json.loads(report_to_json(analyze(build_scenario("griffiths_spin"),
                                               AnalysisOptions(exact=exact))))
    edit(report["unification"]["verdict"]["witness"])
    with pytest.raises(ValidationError, match=message):
        reverify(report)


def test_reverify_rejects_other_schema_versions():
    report = json.loads(report_to_json(analyze(three_box(), AnalysisOptions())))
    report["schema_version"] = 1
    with pytest.raises(ValidationError, match=f"1.*{SCHEMA_VERSION}"):
        reverify(report)


def _griffiths_report(exact=False):
    return json.loads(report_to_json(analyze(build_scenario("griffiths_spin"),
                                             AnalysisOptions(exact=exact))))


def _nested(depth):
    value = 1
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize("edit, message", [
    (lambda u: u["verdict"]["witness"][0].__setitem__(0, [[1], 1]),
     r"unification\.verdict\.witness\[0\] holds a list or object where a scalar belongs"),
    (lambda u: u["verdict"]["witness"][0].__setitem__(0, _nested(900)),
     r"unification\.verdict\.witness\[0\] holds a list or object"),
    (lambda u: u["verdict"].__setitem__("witness", None),
     r"unification\.verdict\.witness has the wrong type NoneType"),
    (lambda u: u["verdict"].__setitem__("witness", 5),
     r"unification\.verdict\.witness has the wrong type int"),
    (lambda u: u.pop("marginals"), r"no field unification\.marginals"),
    (lambda u: u["verdict"]["witness"].append(list(u["verdict"]["witness"][0])),
     r"unification\.verdict\.witness\[4\] repeats the cell \(1, 1\)"),
    (lambda u: u["verdict"].__setitem__("delta", "1e-9"),
     r"unification\.verdict\.delta has the wrong type str"),
    (lambda u: u["marginals"][0]["values"][0].__setitem__(1, {"$fraction": [1, 0]}),
     r"\$fraction needs"),
], ids=["list-in-cell", "deeply-nested-cell", "null-witness", "int-witness", "no-marginals", "duplicate-cell",
        "string-delta", "zero-denominator"])
@pytest.mark.parametrize("exact", [False, True])
def test_reverify_names_the_malformed_field(exact, edit, message):
    report = _griffiths_report(exact)
    edit(report["unification"])
    with pytest.raises(ValidationError, match=message):
        reverify(report)


_REPLACEMENTS = (None, 5, -1.5, True, "x", [], {}, [[1]], {"$fraction": [1, 0]},
                 {"$fraction": [1.5, 2]}, {"$complex": ["a", 1]})


def _nodes(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _nodes(child, path + (key,))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from _nodes(child, path + (i,))


def _mutate(report, path, how, replacement):
    """Apply one edit at ``path``: drop it, replace it, duplicate it or wrap it in a list."""
    if not path:
        return replacement if how == "swap" else report
    parent = report
    for step in path[:-1]:
        parent = parent[step]
    key = path[-1]
    if how == "drop":
        del parent[key]
    elif how == "swap":
        parent[key] = replacement
    elif how == "duplicate" and isinstance(parent, list):
        parent.insert(key, json.loads(json.dumps(parent[key])))
    elif how == "nest":
        parent[key] = [parent[key]]
    return report


_FUZZ_REPORTS = {
    (name, exact): report_to_json(analyze(build_scenario(name), AnalysisOptions(exact=exact)))
    for name in ("griffiths_spin", "three_box") for exact in (False, True)
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_reverify_of_a_mutated_report_raises_only_library_errors(data):
    report = json.loads(data.draw(st.sampled_from(sorted(_FUZZ_REPORTS.items())))[1])
    for _ in range(data.draw(st.integers(1, 3))):
        unification = report.get("unification") if isinstance(report, dict) else None
        # mutate the fields reverify reads, and the report object itself
        paths = [()] + [("unification",) + p for p in _nodes(unification)] \
            if isinstance(unification, dict) else [()]
        report = _mutate(report, data.draw(st.sampled_from(paths)),
                         data.draw(st.sampled_from(("drop", "swap", "duplicate", "nest"))),
                         json.loads(json.dumps(data.draw(st.sampled_from(_REPLACEMENTS)))))
    try:
        reverify(report)
    except (ValidationError, NumericError):
        pass


_CONFIG_REPLACEMENTS = (None, True, False, math.nan, math.inf, -math.inf, 0, -1.5, "x",
                        [], {}, [[1]], [1.0, math.nan])
_FUZZ_CONFIGS = {name: json.dumps(scenario_to_config(build_scenario(name)))
                 for name in ("three_box", "leggett_garg", "griffiths_spin")}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_cli_analyze_of_a_mutated_config_exits_0_or_2(data):
    doc = json.loads(data.draw(st.sampled_from(sorted(_FUZZ_CONFIGS.items())))[1])
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(doc, data.draw(st.sampled_from(list(_nodes(doc)))),
                      data.draw(st.sampled_from(("drop", "swap", "duplicate", "nest"))),
                      json.loads(json.dumps(data.draw(st.sampled_from(_CONFIG_REPLACEMENTS)))))
    try:
        parse_config(doc)
    except ValidationError:  # ConfigValidationError included
        pass
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        out = os.path.join(tmp, "report.json")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["analyze", "--config", path, "--out", out])
        assert code in (0, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 0:  # the report is strict JSON: no NaN or Infinity tokens
            with open(out) as fh:
                json.load(fh, parse_constant=_reject_constant)


def _reject_constant(name):
    raise AssertionError(f"report holds {name}")


# ---------------------------------------------------------------------------
# histories-lab verify
# ---------------------------------------------------------------------------

def _write_report(tmp_path, report):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    return str(path)


@pytest.mark.parametrize("scenario, exact", [("griffiths_spin", False), ("eprb", True),
                                             ("three_box", True), ("three_box", False)])
def test_cli_verify_accepts_reports(tmp_path, capsys, scenario, exact):
    out = tmp_path / "report.json"
    assert main(["analyze", "--scenario", scenario, "--out", str(out)]
                + (["--exact"] if exact else [])) == 0
    assert main(["verify", str(out)]) == 0
    assert "evidence verified" in capsys.readouterr().out


def test_cli_verify_exit_codes(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "missing.json")]) == 2
    assert "cannot read report" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    bad.write_bytes(b"\xff\xfe\x00")
    assert main(["verify", str(bad)]) == 2
    bad.write_text("[" * 100000)
    assert main(["verify", str(bad)]) == 2

    report = _griffiths_report()
    del report["unification"]["marginals"]
    assert main(["verify", _write_report(tmp_path, report)]) == 2
    assert "unification.marginals" in capsys.readouterr().err

    report = _griffiths_report()
    report["schema_version"] = 1
    assert main(["verify", _write_report(tmp_path, report)]) == 2
    assert "schema_version" in capsys.readouterr().err

    # a tampered witness value: well formed, but the evidence fails
    report = _griffiths_report()
    cells = report["unification"]["verdict"]["witness"]
    i = next(k for k, (_, value) in enumerate(cells) if value != cells[0][1])
    cells[0][1], cells[i][1] = cells[i][1], cells[0][1]
    assert main(["verify", _write_report(tmp_path, report)]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_cli_verify_checks_an_exact_reports_float_certificate_exactly(tmp_path, capsys):
    # y.A = -1e-13 at box "1": within the float slack, but no exact Farkas certificate
    golden = Path(__file__).resolve().parent / "golden" / "analyze_three_box_exact.json"
    report = json.loads(golden.read_text())
    report["unification"]["verdict"]["farkas_certificate"] = [-1.0000000000001, 0.0, 1.0, 0.0, 0.0]
    assert main(["verify", _write_report(tmp_path, report)]) == 3
    assert "stored Farkas certificate failed verification" in capsys.readouterr().err
    report["unification"]["verdict"]["farkas_certificate"] = [-1.0, 0.0, 1.0, 0.0, 0.0]
    assert main(["verify", _write_report(tmp_path, report)]) == 0


def test_exact_bounds_are_read_as_the_rationals_they_are():
    # float(1/3) is below 1/3, so these bounds cross; in float arithmetic 1/3 - float(1/3) is 0
    verdict = {"unique": True, "component_bounds": [[[1], {"$fraction": [1, 3]}, 1 / 3]]}
    with pytest.raises(NumericError, match="in the wrong order"):
        _check_uniqueness(verdict, {(1,): Fraction(1, 3)}, exact=True)
    _check_uniqueness(verdict, {(1,): Fraction(1, 3)}, exact=False)


def _tampered_bounds(exact):
    """A griffiths_spin report whose ``unique`` still agrees with its bounds,
    but whose first cell's bounds no longer hold: in exact mode both move to
    the witness value plus 1 (still pinned, now excluding the witness), in
    float mode ``hi`` moves to ``lo + 2 TABLE_TOL`` (no longer pinned)."""
    report = _griffiths_report(exact)
    verdict = report["unification"]["verdict"]
    entry = verdict["component_bounds"][0]
    if exact:
        entry[1] = entry[2] = encode_value(decode_value(verdict["witness"][0][1]) + 1)
    else:
        entry[2] = entry[1] + 2 * TABLE_TOL
    return report


@pytest.mark.parametrize("exact", [False, True])
def test_cli_verify_rejects_tampered_uniqueness(tmp_path, capsys, exact):
    report = _griffiths_report(exact)
    assert report["unification"]["verdict"]["unique"] is True
    assert main(["verify", _write_report(tmp_path, report)]) == 0
    capsys.readouterr()

    report["unification"]["verdict"]["unique"] = False
    assert main(["verify", _write_report(tmp_path, report)]) == 3
    assert "unique is False, but its component bounds say True" in capsys.readouterr().err

    assert main(["verify", _write_report(tmp_path, _tampered_bounds(exact))]) == 3
    assert ("exclude its witness value" if exact
            else "unique is True, but its component bounds say False") in capsys.readouterr().err

    # bounds in the wrong order, which no hi - lo rule alone would catch
    report = _griffiths_report(exact)
    entry = report["unification"]["verdict"]["component_bounds"][0]
    entry[1], entry[2] = (encode_value(Fraction(9, 10)), encode_value(Fraction(1, 10))) if exact \
        else (0.9, 0.1)
    assert main(["verify", _write_report(tmp_path, report)]) == 3
    assert "are in the wrong order" in capsys.readouterr().err


def _coin_document():
    """Two independent fair coins: the maximally mixed qubit read along z
    (``sz``) and along x (``sx``) at t = 0, each in a set of its own."""
    up, down = [[1, 0], [0, 0]], [[0, 0], [0, 1]]
    plus, minus = [[0.5, 0.5], [0.5, 0.5]], [[0.5, -0.5], [-0.5, 0.5]]
    return {"dim": 2, "initial": [[0.5, 0], [0, 0.5]], "hamiltonian": [[0, 0], [0, 0]],
            "sets": [{"name": name, "slots": [{"time": 0.0, "labels": [1, -1], "projectors": pair}]}
                     for name, pair in (("z", [up, down]), ("x", [plus, minus]))],
            "unify": {"variables": [{"name": v, "outcomes": [1, -1]} for v in ("sz", "sx")],
                      "map": {"z": ["sz"], "x": ["sx"]}}}


@pytest.mark.parametrize("exact", [False, True])
def test_cli_a_wide_band_leaves_the_coins_free_and_verify_holds_it(tmp_path, capsys, exact):
    config, out = tmp_path / "coins.json", tmp_path / "report.json"
    config.write_text(json.dumps(_coin_document()))
    assert main(["analyze", "--config", str(config), "--delta", "0.6", "--out", str(out)]
                + (["--exact"] if exact else [])) == 0
    report = json.loads(out.read_text())
    verdict = report["unification"]["verdict"]
    assert verdict["status"] == "feasible" and verdict["unique"] is False
    assert [decode_value(b) for _, *bounds in verdict["component_bounds"] for b in bounds] \
        == [0, Fraction(1, 2)] * 4
    assert main(["verify", str(out)]) == 0
    capsys.readouterr()

    verdict["unique"] = True
    assert main(["verify", _write_report(tmp_path, report)]) == 3
    assert "unique is True, but its component bounds say False" in capsys.readouterr().err


def test_cli_a_float_report_at_delta_0_verifies(tmp_path):
    """griffiths_spin's float bounds cross by about 4e-16 (its x table sums to
    1.0000000000000004); verify allows that crossing whatever the report's
    delta, so the report ``--delta 0`` writes verifies."""
    out = tmp_path / "report.json"
    assert main(["analyze", "--scenario", "griffiths_spin", "--delta", "0", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["unification"]["verdict"]["unique"] is True
    assert main(["verify", str(out)]) == 0


@pytest.mark.parametrize("edit, message", [
    (lambda verdict: verdict.__setitem__("unique", None), "must both be null or both be set"),
    (lambda verdict: verdict["component_bounds"].pop(), "one entry per witness cell"),
    (lambda verdict: verdict["component_bounds"][0].pop(),
     r"component_bounds\[0\] must be a \[cell, lo, hi\]"),
    (lambda verdict: verdict["component_bounds"][1].__setitem__(0, [1, 1]),
     r"names the cell \(1, 1\)"),
    (lambda verdict: verdict["component_bounds"][0].__setitem__(1, "0"),
     r"component_bounds\[0\] is not a finite"),
], ids=["unique-null", "short", "pair", "repeated-cell", "string-bound"])
def test_reverify_rejects_malformed_uniqueness(edit, message):
    report = _griffiths_report(exact=True)
    edit(report["unification"]["verdict"])
    with pytest.raises(ValidationError, match=message):
        reverify(report)


# Taken from the reports (three_box since the LP solves the row basis of the
# constraint matrix, leggett_garg since its violated Leggett-Garg inequality
# is its certificate): the verdict fields are all rationals in
# exact mode, so the hashes hold on every platform.
EXACT_VERDICT_SHA256 = {
    "griffiths_spin": "43450abfe3036e49720ed293143a4563bd9b13f94b8bab8537234d3e6c88b769",
    "three_box": "cb4f9b41f7d7c8224342a70199ba9655754c18caa99e21ab64e05aa2b83bda6b",
    "eprb": "694a114accaacb7b9d95d1afb13d9d9a672d644532eb979c87641bb6b11742eb",
    "leggett_garg": "814199514a9fc991496cd5691bb7b2e20ed190982be3f2c5aded18803f2c51dc",
}


@pytest.mark.parametrize("scenario", sorted(EXACT_VERDICT_SHA256))
def test_exact_verdicts_are_pinned(scenario):
    verdict = analyze(build_scenario(scenario), AnalysisOptions(exact=True))["unification"]["verdict"]
    text = json.dumps(verdict, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == EXACT_VERDICT_SHA256[scenario]


@pytest.mark.parametrize("exact", [False, True])
def test_analyze_above_the_probe_cap_finds_a_unifier_without_bounds(tmp_path, exact):
    # seven one-slot sigma_z sets read as v0..v6: 128 joint cells, above the
    # cap, so no uniqueness probe runs and unique stays null
    document = Path(__file__).parent / "data" / "seven_sigma_z.json"
    out = tmp_path / "report.json"
    assert main(["analyze", "--config", str(document), *(["--exact"] if exact else []),
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    unification = report["unification"]
    assert 2 ** len(unification["variables"]) == 128 > PROBE_CELLS_CAP
    verdict = unification["verdict"]
    assert verdict["status"] == "feasible" and verdict["mode"] == ("exact" if exact else "float")
    assert verdict["unique"] is None and verdict["component_bounds"] is None
    reverify(report)


def test_float_and_exact_analyze_agree_on_a_generic_eprb_config(tmp_path):
    # exact mode once snapped each pair table on its own, and proved tables
    # whose shared one-spin marginals differed by ~1e-15 infeasible
    config = tmp_path / "eprb.json"
    config.write_text(json.dumps(scenario_to_config(build_scenario("eprb", {"theta3": 0.3, "theta4": 0.3}))))
    for mode in ([], ["--exact"]):
        out = tmp_path / "report.json"
        assert main(["analyze", "--config", str(config), *mode, "--out", str(out)]) == 0
        unification = json.loads(out.read_text())["unification"]
        assert unification["chsh"]["satisfied"] is True
        assert unification["verdict"]["status"] == "feasible"
        assert main(["verify", str(out)]) == 0


def _singlet_document(sets, outcomes, mapping):
    """Two spins in the singlet state, ``sets`` of two slots (spin 1, then
    spin 2) read as variables ``a`` and ``b`` with ``outcomes``."""
    s = 2 ** -0.5
    return {"dim": 4, "initial": [0, s, -s, 0], "hamiltonian": np.zeros((4, 4)).tolist(),
            "sets": sets, "unify": {"variables": [{"name": n, "outcomes": outcomes} for n in "ab"],
                                    "map": mapping}}


def _spin_set(name, second, labels):
    """Spin 1 along z at t = 0, then spin 2 along ``second`` ("z" or "x") at t = 1."""
    up, down = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    plus, minus = np.full((2, 2), 0.5), np.array([[0.5, -0.5], [-0.5, 0.5]])
    second = (up, down) if second == "z" else (plus, minus)
    return {"name": name, "slots": [
        {"time": 0.0, "labels": labels, "projectors": [np.kron(p, np.eye(2)).tolist() for p in (up, down)]},
        {"time": 1.0, "labels": labels, "projectors": [np.kron(np.eye(2), p).tolist() for p in second]}]}


def _pair_documents() -> dict:
    """Each document whose tables give no pair correlation, with its twin:
    the same verdict, from tables of which ``twin_pairs`` give one."""
    signs = _singlet_document([_spin_set("zz", "z", [1, -1])], [1, -1], {"zz": ["a", "b"]})
    strings = _singlet_document([_spin_set("zz", "z", ["up", "down"])], ["up", "down"], {"zz": ["a", "b"]})
    grouped = _singlet_document([_spin_set("zz", "z", ["up", "down"])], [1, -1], {"zz": [
        {"variable": "a", "groups": {"up": [1, -1], "down": [1, -1]}},
        {"variable": "b", "groups": {"up": [1], "down": [-1]}}]})
    zz_zx = [_spin_set("zz", "z", [1, -1]), _spin_set("zx", "x", [1, -1])]
    swapped = _singlet_document(zz_zx, [1, -1], {"zz": ["a", "b"], "zx": ["b", "a"]})
    same_order = _singlet_document(zz_zx, [1, -1], {"zz": ["a", "b"], "zx": ["a", "b"]})
    lg = scenario_to_config(build_scenario("leggett_garg", {"omega": math.pi / 3}))
    bits = json.loads(json.dumps(lg))  # +1 -> 0, -1 -> 1, in every label and outcome
    for item in [slot for s in bits["sets"] for slot in s["slots"]] + bits["unify"]["variables"]:
        key = "labels" if "labels" in item else "outcomes"
        item[key] = [(1 - v) // 2 for v in item[key]]
    return {"strings": (strings, signs, ["a,b"]), "grouped": (grouped, signs, ["a,b"]),
            "bits": (bits, lg, ["q1,q2", "q1,q3", "q2,q3"]),
            "swapped": (swapped, same_order, []), "same_order": (same_order, swapped, [])}


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("name", ["strings", "grouped", "bits", "swapped", "same_order"])
def test_cli_pair_correlations_come_only_from_one_sign_table_per_pair(tmp_path, name, exact):
    # string, 0/1 or grouped outcomes, or a pair that two tables cover, give no
    # correlation, so no n-cycle check; the verdict does not depend on them
    *docs, twin_pairs = _pair_documents()[name]
    unifications = []
    for k, doc in enumerate(docs):
        path, out = tmp_path / f"{k}.json", tmp_path / f"{k}_report.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", "--config", str(path), *(["--exact"] if exact else []),
                     "--out", str(out)]) == 0
        assert main(["verify", str(out)]) == 0
        unifications.append(json.loads(out.read_text())["unification"])
    unification, twin = unifications
    assert (unification["correlations"], unification["bell"], unification["chsh"]) == ({}, None, None)
    assert unification["verdict"]["status"] == twin["verdict"]["status"]
    assert sorted(twin["correlations"]) == twin_pairs
    assert (twin["bell"] is not None) == (len(twin["correlations"]) == 3)
