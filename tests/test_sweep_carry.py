"""A sweep carries each infeasible point's Farkas certificate to the points after it.

``evaluate_sweep_point(..., carry)`` reports the carried certificate only
when ``band_test`` finds that it refutes the point's own delta band; otherwise the point solves its LP as without it.  Carried verdicts
must therefore equal fresh ones away from the feasibility boundary, and
every certificate a sweep reports must verify against its own point's
constraint system.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from histories_lab import cli, unify
from histories_lab.classicality import classify
from histories_lab.cli import SWEEPABLE, Carry, evaluate_sweep_point, main
from histories_lab.scenarios import build_scenario, scenario_grid
from histories_lab.unify import (
    DEFAULT_DELTA,
    band_test,
    build_constraint_system,
    extract_marginals,
    find_unifying_probability,
    stacked_rhs,
    verify_witness,
)

BOUNDARY = 1e-6
TSIRELSON = {"theta1": 0.0, "theta2": math.pi / 2, "theta3": math.pi / 4, "theta4": 3 * math.pi / 4}
BOUNDS = {"eprb": 2.0, "leggett_garg": 1.0}


def _point_tables(scenario, params):
    """The sample space and the tables ``evaluate_sweep_point`` hands the LP."""
    desc = build_scenario(scenario, params)
    tables = []
    for sset in desc.sets:
        hset = desc.build(sset.name)
        if sset.name != "combined" and sset.mapping is not None and classify(hset).consistent:
            tables.append(extract_marginals(hset, sset.mapping))
    return desc.space, tables


def _certified(space, tables, certificate):
    system = build_constraint_system(space, tables)
    refutes = band_test(system.matrix, certificate, DEFAULT_DELTA)
    return refutes is not None and refutes(system.rhs)


def _carried(scenario, params):
    """The certificate a sweep carries away from the point ``params``."""
    carry = Carry()
    evaluate_sweep_point(scenario, params, carry)
    return carry.certificate


def test_a_tampered_certificate_gives_the_fresh_verdict():
    space, tables = _point_tables("eprb", TSIRELSON)
    fresh = _carried("eprb", TSIRELSON)
    assert _certified(space, tables, fresh)
    row = evaluate_sweep_point("eprb", TSIRELSON)
    for tampered in ([-v for v in fresh], [0.0] * len(fresh), fresh[:-1]):
        assert not _certified(space, tables, tampered)
        carry = Carry(tampered)
        assert evaluate_sweep_point("eprb", TSIRELSON, carry) == row
        assert np.array_equal(carry.certificate, fresh)


def test_a_feasible_system_handed_a_certificate_returns_its_verified_witness(monkeypatch):
    carry = Carry(_carried("eprb", TSIRELSON))
    solves = []
    solve = cli.find_unifying_probability

    def recorded(space, tables):
        solves.append((space, tables, solve(space, tables)))
        return solves[-1][2]

    monkeypatch.setattr(cli, "find_unifying_probability", recorded)
    row = evaluate_sweep_point("eprb", {}, carry)  # the z/x axes: a unifier exists
    assert row["feasible"] == 1 and carry.certificate is None
    [(space, tables, verdict)] = solves
    assert verdict.feasible and verdict.farkas_certificate is None
    verify_witness(space, tables, verdict.witness)


def test_a_valid_certificate_is_reported_without_a_solve(monkeypatch):
    certificate = _carried("eprb", TSIRELSON)
    nearby = dict(TSIRELSON, theta4=TSIRELSON["theta4"] + 0.01)
    monkeypatch.setattr(cli, "find_unifying_probability", None)  # any solve would fail
    carry = Carry(certificate)
    assert evaluate_sweep_point("eprb", nearby, carry)["feasible"] == 0
    assert carry.certificate is certificate
    assert _certified(*_point_tables("eprb", nearby), certificate)


def test_the_readme_eprb_slice_solves_no_lp(monkeypatch, capsys):
    # the first point's violated CHSH inequality refutes it and is carried
    # through the other 40
    solves = []
    solve_lp = unify.solve_lp
    monkeypatch.setattr(unify, "solve_lp", lambda *a, **k: solves.append(1) or solve_lp(*a, **k))
    assert main(["sweep", "--scenario", "eprb", "--param", "theta4", "--range", "2:2.8:41"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [r.rsplit(",", 1)[1] for r in rows] == ["0"] * 41
    assert not solves


def test_the_readme_leggett_garg_sweep_solves_three_lps(monkeypatch, capsys):
    """omega = 0 solves its LP; every infeasible point is refuted by a
    violated Leggett-Garg inequality, its own or a carried one; omega =
    3.14159 solves its width-0 LP and then its band LP."""
    solves = []
    solve_lp = unify.solve_lp
    monkeypatch.setattr(unify, "solve_lp", lambda *a, **k: solves.append(a[0].shape) or solve_lp(*a, **k))
    assert main(["sweep", "--scenario", "leggett_garg", "--param", "omega", "--range", "0:3.14159:181"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [r.rsplit(",", 1)[1] for r in rows] == ["1"] + ["0"] * 179 + ["1"]
    assert solves == [(7, 8), (7, 8), (25, 32)]


def test_the_readme_leggett_garg_end_point_is_decided_by_the_band_lp(monkeypatch):
    """At omega = 3.14159 the width-0 witness has a cell at about -1.8e-12,
    which the witness check refuses; the band LP then gives the verdict."""
    solves = []
    solve_lp = unify.solve_lp
    monkeypatch.setattr(unify, "solve_lp", lambda *a, **k: solves.append(a[0].shape) or solve_lp(*a, **k))
    assert evaluate_sweep_point("leggett_garg", {"omega": 3.14159})["feasible"] == 1
    assert solves == [(7, 8), (25, 32)]  # the width-0 row basis, then 12 rows doubled with slacks


def _runs(scenario, params, name, start, step):
    return scenario, [dict(params, **{name: start + k * step}) for k in range(5)]


angles = st.floats(-math.pi, math.pi)
steps = st.floats(-0.2, 0.2)
eprb_runs = st.builds(
    _runs, st.just("eprb"),
    st.fixed_dictionaries({f"theta{k}": angles for k in (1, 2, 3)}),
    st.sampled_from(("theta1", "theta2", "theta3", "theta4")), angles, steps)
leggett_garg_runs = st.builds(
    _runs, st.just("leggett_garg"),
    st.builds(lambda t1, gap12, gap23: {"t1": t1, "t2": t1 + gap12, "t3": t1 + gap12 + gap23},
              st.floats(-2.0, 2.0), st.floats(0.3, 3.0), st.floats(0.3, 3.0)),
    st.just("omega"), st.floats(-3.0, 3.0), steps)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.one_of(eprb_runs, leggett_garg_runs))
def test_carried_verdicts_match_fresh_ones_and_their_certificates_verify(run):
    scenario, points = run
    carry = Carry()
    for params in points:
        row = evaluate_sweep_point(scenario, params, carry)
        if carry.certificate is not None:
            assert _certified(*_point_tables(scenario, params), carry.certificate)
        else:
            assert row["feasible"] == 1
        if abs(BOUNDS[scenario] - row["max_combination"]) > BOUNDARY:
            assert row == evaluate_sweep_point(scenario, params)


def test_exact_mode_reports_only_a_rational_certificate():
    space, tables = _point_tables("eprb", TSIRELSON)
    tables = [t.as_exact() for t in tables]
    verdict = find_unifying_probability(space, tables, exact=True)
    assert not verdict.feasible
    assert all(isinstance(v, Fraction) for v in verdict.farkas_certificate)
    system = build_constraint_system(space, tables, exact=True)
    refutes = band_test(system.matrix, verdict.farkas_certificate, 0)
    assert refutes is not None and refutes(system.rhs)


@st.composite
def sweep_pair_tables(draw):
    """A sweepable scenario's pair sets, each with random probabilities in
    label order: what a sweep point hands ``stacked_rhs`` and, through the
    set's mapping, ``build_constraint_system``."""
    grid = scenario_grid(draw(st.sampled_from(SWEEPABLE)), {})
    pairs = []
    for name in grid.slots:
        if name != "combined":
            labels = grid.labels(name)
            weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=len(labels),
                                             max_size=len(labels))))
            p = weights / weights.sum() if weights.sum() > 0 else np.full(len(labels), 1 / len(labels))
            pairs.append((grid.fixed.mappings[name], labels, p))
    return grid.fixed.space, pairs


@settings(max_examples=100, deadline=None, derandomize=True)
@given(sweep_pair_tables())
def test_stacked_rhs_is_the_constraint_systems_rhs(drawn):
    """The sweep tests a carried certificate against ``stacked_rhs``, while
    the LP solves ``build_constraint_system``'s rhs: they are one array."""
    space, pairs = drawn
    tables = [mapping.marginal_table(dict(zip(labels, p.tolist()))) for mapping, labels, p in pairs]
    values = np.concatenate([p for *_, p in pairs])[None, :]
    system = build_constraint_system(space, tables)
    assert stacked_rhs(values)[0].tobytes() == system.rhs.tobytes()
