import json
import math

import numpy as np
import pytest

from histories_lab.analysis import (
    SCHEMA_VERSION,
    AnalysisOptions,
    analyze,
    decode_value,
    encode_value,
    report_to_json,
    reverify,
)
from histories_lab.cli import main
from histories_lab.config import parse_config, scenario_to_config
from histories_lab.errors import ConfigValidationError, NumericError, ValidationError
from histories_lab.scenarios import build_scenario, three_box
from histories_lab.simplex import verify_certificate
from histories_lab.unify import build_constraint_system, extract_marginals


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
    p = desc.sets[0].schedule.slots[0].projectors[0].matrix
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


def test_cli_missing_config_is_exit_2(capsys):
    assert main(["analyze", "--config", "does-not-exist.json"]) == 2
    assert "cannot read config" in capsys.readouterr().err


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
    monkeypatch.setenv("HISTORIES_LAB_THREADS", "2")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--scenario", "leggett_garg",
                 "--param", "omega", "--range", "0.2:1.2:4", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 5
    monkeypatch.setenv("HISTORIES_LAB_THREADS", "junk")
    assert main(["sweep", "--scenario", "leggett_garg",
                 "--param", "omega", "--range", "0.2:1.2:2"]) == 2


def test_cli_sweep_zero_steps_is_exit_2(capsys):
    assert main(["sweep", "--scenario", "leggett_garg",
                 "--param", "omega", "--range", "0:3:0"]) == 2
    assert "at least one step" in capsys.readouterr().err


def test_cli_sweep_unknown_param_is_exit_2(capsys):
    assert main(["sweep", "--scenario", "leggett_garg",
                 "--param", "bogus", "--range", "0:1:2"]) == 2


def test_cli_unsupported_sweep_scenario_is_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--scenario", "three_box", "--param", "x", "--range", "0:1:2"])
    assert err.value.code == 2


def test_cli_sweep_mismatched_ranges_is_exit_2(capsys):
    assert main(["sweep", "--scenario", "eprb", "--param", "theta1"]) == 2


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
    # not the +-delta bands: delta * sum|y| outweighs y.b
    desc = three_box()
    report = json.loads(report_to_json(analyze(desc, AnalysisOptions())))
    reverify(report)
    unification = report["unification"]
    marginals = [extract_marginals(desc.build(name), desc.set_named(name).mapping)
                 for name in unification["marginal_sets"]]
    hard = build_constraint_system(desc.space, marginals, 0.0)
    y = np.array(unification["verdict"]["farkas_certificate"])
    y = -(1 + 3e-9) / float(y @ hard.rhs) * y
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
