"""A sweep is one stacked computation per chunk of its grid.

The stacked rows must equal point-by-point ``evaluate_sweep_point`` rows,
the README sweeps must reproduce their committed CSVs byte for byte, every
infeasible verdict must carry a certificate that verifies against its own
point's constraint system, and memory must not grow with the grid.
"""

import functools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from histories_lab import cli
from histories_lab.classicality import classify
from histories_lab.cli import SWEEP_CHUNK, Carry, _evaluate_points, evaluate_sweep_point, main
from histories_lab.scenarios import build_scenario
from histories_lab.simplex import DEFAULT_FEAS_TOL, farkas_test
from histories_lab.unify import (
    DEFAULT_DELTA,
    EVIDENCE_TOL,
    band_test,
    build_constraint_system,
    extract_marginals,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
README_SWEEPS = (
    (["--scenario", "leggett_garg", "--param", "omega", "--range", "0:3.14159:181"],
     "sweep_leggett_garg_omega.csv"),
    (["--scenario", "eprb", "--param", "theta4", "--range", "2:2.8:41"], "sweep_eprb_theta4.csv"),
    (["--scenario", "leggett_garg", "--param", "omega", "--range", "0:6:50", "--param", "t3",
      "--range", "2.1:5:13"], "sweep_leggett_garg_omega_t3.csv"),  # 650 points, three chunks
)
BOUNDS = {"eprb": 2.0, "leggett_garg": 1.0}


@pytest.mark.parametrize("argv, golden", README_SWEEPS,
                         ids=["leggett_garg", "eprb", "leggett_garg_omega_t3"])
def test_readme_sweeps_reproduce_their_committed_csvs(tmp_path, argv, golden):
    out = tmp_path / golden
    assert main(["sweep", *argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def _rows(columns):
    """``evaluate_sweep_point`` dicts read from ``_evaluate_points`` columns."""
    return [{"combined_consistent": c, "max_combination": m, "feasible": f}
            for c, m, f in zip(*(column.tolist() for column in columns))]


def _stacked_rows(scenario, points):
    columns = {name: np.array([p[name] for p in points]) for name in points[0]}
    return _rows(_evaluate_points(scenario, columns, len(points), Carry()))


def _grid(names, values):
    return [dict(zip(names, combo)) for combo in np.array(np.meshgrid(*values, indexing="ij"))
            .reshape(len(names), -1).T.tolist()]


angles = st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=4)
signed_zero = st.booleans()


@st.composite
def grids(draw):
    """A random 1- or 2-parameter grid, sometimes through -0.0."""
    if draw(st.booleans()):
        scenario = "eprb"
        names = draw(st.lists(st.sampled_from([f"theta{k}" for k in (1, 2, 3, 4)]),
                              min_size=1, max_size=2, unique=True))
        values = [draw(angles) for _ in names]
    else:
        scenario = "leggett_garg"
        ranges = {"t1": (-3.0, 0.9), "t2": (0.05, 1.95), "t3": (1.05, 5.0)}
        names = ["omega"] + draw(st.lists(st.sampled_from(sorted(ranges)), max_size=1))
        values = [draw(st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=4))]
        values += [draw(st.lists(st.floats(*ranges[name]), min_size=1, max_size=4))
                   for name in names[1:]]
    if draw(signed_zero):
        values[0] = values[0] + [-0.0, 0.0]
    return scenario, _grid(names, values)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(grids())
def test_stacked_rows_match_fresh_points(grid):
    scenario, points = grid
    for params, row in zip(points, _stacked_rows(scenario, points)):
        fresh = evaluate_sweep_point(scenario, params)
        assert row["combined_consistent"] == fresh["combined_consistent"]
        assert repr(row["max_combination"]) == repr(fresh["max_combination"])
        if abs(BOUNDS[scenario] - row["max_combination"]) > 1e-6:
            assert row == fresh


def test_two_chunks_and_a_point_match_carried_points(capsys):
    steps = 2 * SWEEP_CHUNK + 1
    assert main(["sweep", "--scenario", "leggett_garg", "--param", "omega",
                 "--range", f"0:3:{steps}"]) == 0
    lines = capsys.readouterr().out.splitlines()
    carry = Carry()
    expected = []
    for omega in np.linspace(0, 3, steps).tolist():
        row = evaluate_sweep_point("leggett_garg", {"omega": omega}, carry)
        expected.append(f"{omega!r},{row['combined_consistent']},{row['max_combination']!r},"
                        f"{row['feasible']}")
    assert lines[1:] == expected


def _carried_rows(scenario, points):
    """The serial reference: one ``evaluate_sweep_point`` per point, sharing one ``Carry``."""
    carry = Carry()
    return [evaluate_sweep_point(scenario, params, carry) for params in points]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(grids())
def test_runs_match_carried_points(grid):
    scenario, points = grid
    assert list(map(repr, _stacked_rows(scenario, points))) \
        == list(map(repr, _carried_rows(scenario, points)))


@pytest.mark.parametrize("scenario, name, lo, hi", [("leggett_garg", "omega", 0.0, 3.14159),
                                                    ("eprb", "theta4", 2.0, 2.8)])
def test_runs_cross_chunk_boundaries_as_carried_points_do(monkeypatch, scenario, name, lo, hi):
    solves = []
    find = cli.find_unifying_probability
    monkeypatch.setattr(cli, "find_unifying_probability", lambda *a: solves.append(1) or find(*a))
    values = np.linspace(lo, hi, 2 * SWEEP_CHUNK + 3)
    carry = Carry()
    rows = []
    for start in range(0, len(values), SWEEP_CHUNK):
        chunk = values[start:start + SWEEP_CHUNK]
        rows += _rows(_evaluate_points(scenario, {name: chunk}, len(chunk), carry))
    stacked_solves = len(solves)
    expected = _carried_rows(scenario, [{name: v} for v in values.tolist()])
    assert list(map(repr, rows)) == list(map(repr, expected))
    assert len(solves) == 2 * stacked_solves  # the serial loop solves as many LPs
    # runs of infeasible points settled by a carried certificate span both chunk boundaries
    assert stacked_solves < 6
    assert all(rows[k]["feasible"] == 0 for k in (SWEEP_CHUNK - 1, SWEEP_CHUNK, 2 * SWEEP_CHUNK))


@pytest.mark.parametrize("argv, solves", [(README_SWEEPS[0][0], 4), (README_SWEEPS[1][0], 1)],
                         ids=["leggett_garg", "eprb"])
def test_readme_sweeps_solve_their_pinned_lp_counts(monkeypatch, capsys, argv, solves):
    calls = []
    find = cli.find_unifying_probability
    monkeypatch.setattr(cli, "find_unifying_probability", lambda *a: calls.append(1) or find(*a))
    assert main(["sweep", *argv]) == 0
    assert len(calls) == solves


@functools.cache
def _readme_certificates():
    """(matrix, certificate) for each certificate the two one-parameter README sweeps carry."""
    found = []
    for scenario, name, grid in (("leggett_garg", "omega", np.linspace(0, 3.14159, 181)),
                                 ("eprb", "theta4", np.linspace(2, 2.8, 41))):
        carry = Carry()
        for value in grid.tolist():
            evaluate_sweep_point(scenario, {name: value}, carry)
            if carry.certificate is not None and all(carry.certificate is not c for _, c in found):
                found.append((_point_system(scenario, {name: value}).matrix, carry.certificate))
    return found


def _aim(rows, y, shift, threshold):
    """Move every second row along its largest ``y`` entry until ``y.(row +
    shift)`` rounds to about ``threshold``: rows whose two products may fall
    on either side of it."""
    k = int(np.argmax(np.abs(y)))
    for row in rows[1::2]:
        if y[k]:
            row[k] += (threshold - y @ (row + shift)) / y[k]


finite = st.floats(-1e3, 1e3, allow_subnormal=False)
small_fractions = st.fractions(-5, 5, max_denominator=7)


@st.composite
def certified_stacks(draw):
    """A ``refutes`` and a ``(P, m)`` stack of right-hand sides, P from 1: a
    README sweep certificate under ``band_test``, or a random float or
    ``Fraction`` one under ``farkas_test``, with its matrix's columns turned
    so that ``y.A >= 0``."""
    kind = draw(st.sampled_from(["readme", "float", "exact"]))
    size = draw(st.integers(1, 6))
    if kind == "readme":
        matrix, certificate = draw(st.sampled_from(_readme_certificates()))
        y = np.asarray(certificate, dtype=float)
        m = len(y)
        shift = np.append(DEFAULT_DELTA * np.sign(y[:-1]), 0.0)
        stack = np.array(draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m),
                                       min_size=size, max_size=size)))
        _aim(stack, y, shift, -EVIDENCE_TOL * max(1.0, float(np.max(np.abs(y)))))
        return band_test(matrix, certificate, DEFAULT_DELTA), stack
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    entries = small_fractions if kind == "exact" else finite
    dtype = object if kind == "exact" else float
    y = np.array(draw(st.lists(entries, min_size=m, max_size=m)), dtype=dtype)
    A = np.array(draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m)),
                 dtype=dtype)
    A[:, (y @ A) < 0] *= -1  # negating a column negates its product exactly
    stack = np.array(draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=size,
                                   max_size=size)), dtype=dtype)
    if kind == "float":
        _aim(stack, y, 0.0, -DEFAULT_FEAS_TOL * max(1.0, float(np.max(np.abs(y)))))
    else:
        _aim(stack, y, 0, 0)  # exactly on the threshold: not refuted
    refutes = farkas_test(A, y.tolist())
    assert refutes is not None
    return refutes, stack


@settings(max_examples=150, deadline=None, derandomize=True)
@given(certified_stacks())
def test_a_stacked_refutes_gives_each_rows_one_row_answer(case):
    refutes, stack = case
    answers = refutes(stack)
    assert answers.dtype == bool and answers.shape == (len(stack),)
    for row, answer in zip(stack, answers.tolist()):
        one = refutes(row)
        assert type(one) is bool and one == answer


def _point_system(scenario, params):
    desc = build_scenario(scenario, params)
    tables = [extract_marginals(desc.build(s.name), s.mapping) for s in desc.sets
              if s.name != "combined" and classify(desc.build(s.name)).consistent]
    return build_constraint_system(desc.space, tables)


def test_every_infeasible_point_reports_a_certificate_of_its_own_system(monkeypatch):
    verdicts = []  # per point: the certificate it reports, None when feasible
    band_test = cli.band_test
    find = cli.find_unifying_probability

    def carried(A, certificate, delta):
        refutes = band_test(A, certificate, delta)

        def logged(b):
            refuted = refutes(b)
            for hit in np.atleast_1d(refuted):  # a stack settles its rows up to the first miss
                if not hit:
                    break
                verdicts.append(certificate)
            return refuted
        return logged

    def solved(space, tables):
        verdict = find(space, tables)
        verdicts.append(verdict.farkas_certificate)
        return verdict

    monkeypatch.setattr(cli, "band_test", carried)
    monkeypatch.setattr(cli, "find_unifying_probability", solved)
    points = _grid(["theta3", "theta4"], [np.linspace(0.0, 1.0, 3).tolist(),
                                         np.linspace(2.0, 2.8, 9).tolist()])
    rows = _stacked_rows("eprb", points)
    assert len(verdicts) == len(points)
    assert sum(row["feasible"] == 0 for row in rows) > 2
    for params, row, certificate in zip(points, rows, verdicts):
        assert row["feasible"] == int(certificate is None)
        if certificate is not None:
            system = _point_system("eprb", params)
            assert band_test(system.matrix, certificate, DEFAULT_DELTA)(system.rhs)


def _stacking_peak(chunks):
    points = np.linspace(-3.0, 3.0, chunks * SWEEP_CHUNK)
    tracemalloc.start()
    carry = Carry()
    for start in range(0, len(points), SWEEP_CHUNK):
        chunk = points[start:start + SWEEP_CHUNK]
        _evaluate_points("eprb", {"theta4": chunk}, len(chunk), carry)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak


def test_stacking_memory_does_not_grow_with_the_grid():
    _stacking_peak(1)  # settle one-time allocations
    assert _stacking_peak(4) <= 2 * _stacking_peak(1)
