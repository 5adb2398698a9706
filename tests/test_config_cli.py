import contextlib
import hashlib
import io
import json
import math
import os
import pickle
import signal
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from histories_lab import cli
from histories_lab.analysis import (
    SCHEMA_VERSION,
    AnalysisOptions,
    analyze,
    decode_value,
    encode_value,
    report_to_json,
    reverify,
)
from histories_lab.cli import SWEEP_WORKER_CAP, _sweep_threads, main
from histories_lab.config import parse_config, scenario_to_config
from histories_lab.errors import ConfigValidationError, NumericError, ValidationError
from histories_lab.histories import HistorySchedule, Slot, history_probabilities
from histories_lab.operators import PAULI_X, DensityOperator, Projector, projector_onto
from histories_lab.scenarios import ScenarioDescriptor, ScenarioSet, build_scenario, three_box
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


def test_scenario_to_config_refuses_several_hamiltonians():
    up = np.array([1.0, 0.0])
    z_slot = Slot(1.0, (Projector(projector_onto(up)), Projector(projector_onto([0.0, 1.0]))),
                  (1, -1))
    desc = ScenarioDescriptor(
        name="mixed", initial=DensityOperator.pure(up), final=None,
        sets=(ScenarioSet("a", HistorySchedule((z_slot,), np.zeros((2, 2)))),
              ScenarioSet("b", HistorySchedule((z_slot,), PAULI_X))),
        space=None)
    assert abs(history_probabilities(desc.build("b"))[(1,)] - math.cos(1.0) ** 2) < 1e-12
    with pytest.raises(ValidationError, match="one hamiltonian"):
        scenario_to_config(desc)


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


def test_cli_overflowing_propagator_is_exit_2(tmp_path, capsys):
    # finite inputs whose H * t overflows give NaN class operators
    doc = scenario_to_config(build_scenario("leggett_garg"))
    doc["hamiltonian"] = [[0, 1e300], [1e300, 0]]
    for sset in doc["sets"]:
        for slot in sset["slots"]:
            slot["time"] *= 1e10
    path = tmp_path / "lg.json"
    path.write_text(json.dumps(doc))
    with np.errstate(all="ignore"):
        assert main(["analyze", "--config", str(path)]) == 2
    assert "must sum to the identity (deviation nan)" in capsys.readouterr().err


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


def test_sweep_workers_are_capped_whatever_the_environment_says(monkeypatch):
    # only reads the variable: no process is started
    for raw, expected in (("500", SWEEP_WORKER_CAP), (str(10**12), SWEEP_WORKER_CAP),
                          ("3", 3), ("0", 1), ("-4", 1)):
        monkeypatch.setenv("HISTORIES_LAB_THREADS", raw)
        assert _sweep_threads() == expected
    assert SWEEP_WORKER_CAP == 8


def _no_child_left():
    """Whether this process has no child process, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _sweep(monkeypatch, capsys, workers, argv):
    monkeypatch.setenv("HISTORIES_LAB_THREADS", str(workers))
    code = main(["sweep", *argv])
    return code, capsys.readouterr()


README_SWEEPS = (["--scenario", "leggett_garg", "--param", "omega", "--range", "0:3.14159:181"],
                 ["--scenario", "eprb", "--param", "theta4", "--range", "2:2.8:41"])


@pytest.mark.parametrize("argv", README_SWEEPS, ids=["leggett_garg", "eprb"])
def test_sweep_csv_is_the_same_in_process_and_forked(monkeypatch, capsys, argv):
    serial = _sweep(monkeypatch, capsys, 1, argv)
    pooled = _sweep(monkeypatch, capsys, 2, argv)
    assert serial[0] == pooled[0] == 0
    assert serial[1].out == pooled[1].out
    assert len(pooled[1].out.splitlines()) == int(argv[-1].rsplit(":", 1)[1]) + 1
    assert _no_child_left()


@pytest.mark.parametrize("argv", [
    # t1 reaches t2 = 1 at the eleventh of 20 points, so the last ten fail
    ["--scenario", "leggett_garg", "--param", "t1", "--range", "0:1.9:20"],
    # omega * (t3 - t2) overflows from the second of three points on
    ["--scenario", "leggett_garg", "--param", "omega", "--range", "1:1e300:3",
     "--param", "t3", "--range", "1e10:1e10:1"],
], ids=["unordered-times", "overflowing-phase"])
def test_sweep_failure_is_the_first_in_grid_order_in_process_and_forked(monkeypatch, capsys, argv):
    serial = _sweep(monkeypatch, capsys, 1, argv)
    pooled = _sweep(monkeypatch, capsys, 2, argv)
    assert serial[0] == pooled[0] == 2
    assert serial[1] == pooled[1]
    assert len(serial[1].err.splitlines()) == 1 and "Traceback" not in serial[1].err
    assert _no_child_left()


def test_one_sweep_worker_forks_nothing(monkeypatch, capsys):
    def no_fork():
        raise AssertionError("a worker was forked")

    monkeypatch.setattr(os, "fork", no_fork)
    code, out = _sweep(monkeypatch, capsys, 1, README_SWEEPS[1])
    assert code == 0 and len(out.out.splitlines()) == 42


def _slice_work(monkeypatch, in_children, in_parent=None):
    """Replace the slice work of forked workers by ``in_children`` and, when
    given, the slice work of this process by ``in_parent``."""
    parent = os.getpid()
    in_parent = in_parent or cli._evaluate_slice

    def slice_work(scenario, points):
        return (in_parent if os.getpid() == parent else in_children)(scenario, points)

    monkeypatch.setattr(cli, "_evaluate_slice", slice_work)


def test_sweep_worker_without_a_result_is_an_internal_error(monkeypatch, capsys):
    _slice_work(monkeypatch, lambda scenario, points: os._exit(1))
    code, out = _sweep(monkeypatch, capsys, 2, README_SWEEPS[1])
    assert code == 3 and out.out == ""
    assert out.err.splitlines() == ["internal error: sweep worker 1 exited without a result"]
    assert _no_child_left()


def test_failing_first_slice_does_not_wait_on_a_full_pipe(monkeypatch, capsys):
    def first_slice_fails(scenario, points):
        raise ValidationError("the first slice failed")

    # a child's rows pickle to far more than a 64 KiB pipe buffer holds
    _slice_work(monkeypatch, lambda scenario, points: [{"padding": "x" * (1 << 20)}],
                first_slice_fails)

    def hung(signum, frame):
        raise AssertionError("the sweep waited on a worker")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(10)
    try:
        code, out = _sweep(monkeypatch, capsys, 2, README_SWEEPS[1])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 2 and out.err == "error: the first slice failed\n"
    assert _no_child_left()


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


# Taken from the reports before the uniqueness probes shared one phase 1: the
# verdict fields are all rationals in exact mode, so the hashes hold on every
# platform.
EXACT_VERDICT_SHA256 = {
    "griffiths_spin": "43450abfe3036e49720ed293143a4563bd9b13f94b8bab8537234d3e6c88b769",
    "three_box": "23fd112a971fcc8f752c3527217d9376ed548baae4c318fe67b1a39d2ed8b5c1",
    "eprb": "694a114accaacb7b9d95d1afb13d9d9a672d644532eb979c87641bb6b11742eb",
    "leggett_garg": "02ffb56314832ca90185519c81fa3bb59b32ccf4c9985e88be6fe1d3f9d60726",
}


@pytest.mark.parametrize("scenario", sorted(EXACT_VERDICT_SHA256))
def test_exact_verdicts_are_pinned(scenario):
    verdict = analyze(build_scenario(scenario), AnalysisOptions(exact=True))["unification"]["verdict"]
    text = json.dumps(verdict, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == EXACT_VERDICT_SHA256[scenario]
