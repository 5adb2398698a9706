"""A sweep slice carries each infeasible point's Farkas certificate to the next.

``find_unifying_probability(..., certificate=y)`` reports ``y`` only when
``verify_certificate`` accepts it against the system at hand; otherwise the
LP solves as without it.  Carried verdicts must therefore equal fresh ones
away from the feasibility boundary, and every certificate a slice reports
must verify against its own point's constraint system.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from histories_lab import unify
from histories_lab.classicality import classify
from histories_lab.cli import Carry, _evaluate_slice, evaluate_sweep_point
from histories_lab.scenarios import build_scenario
from histories_lab.simplex import verify_certificate
from histories_lab.unify import (
    build_constraint_system,
    extract_marginals,
    find_unifying_probability,
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
    return verify_certificate(system.matrix, system.rhs, certificate, system.upper)


def test_a_tampered_certificate_gives_the_fresh_verdict():
    space, tables = _point_tables("eprb", TSIRELSON)
    fresh = find_unifying_probability(space, tables)
    assert not fresh.feasible and _certified(space, tables, fresh.farkas_certificate)
    for tampered in ([-v for v in fresh.farkas_certificate],
                     [0.0] * len(fresh.farkas_certificate),
                     fresh.farkas_certificate[:-1]):
        assert not _certified(space, tables, tampered)
        carried = find_unifying_probability(space, tables, certificate=tampered)
        assert carried.status == fresh.status
        assert np.array_equal(carried.farkas_certificate, fresh.farkas_certificate)


def test_a_feasible_system_handed_a_certificate_returns_its_verified_witness():
    space, tables = _point_tables("eprb", TSIRELSON)
    certificate = find_unifying_probability(space, tables).farkas_certificate
    space, tables = _point_tables("eprb", {})  # the z/x axes: a unifier exists
    fresh = find_unifying_probability(space, tables)
    carried = find_unifying_probability(space, tables, certificate=certificate)
    assert carried.feasible and carried.farkas_certificate is None
    assert carried.witness == fresh.witness
    verify_witness(space, tables, carried.witness)


def test_a_valid_certificate_is_reported_without_a_solve(monkeypatch):
    space, tables = _point_tables("eprb", TSIRELSON)
    certificate = find_unifying_probability(space, tables).farkas_certificate
    nearby = dict(TSIRELSON, theta4=TSIRELSON["theta4"] + 0.01)
    space, tables = _point_tables("eprb", nearby)
    monkeypatch.setattr(unify, "solve_lp", None)  # any solve would fail
    carried = find_unifying_probability(space, tables, certificate=certificate)
    assert not carried.feasible
    assert carried.farkas_certificate == list(certificate)
    assert _certified(space, tables, carried.farkas_certificate)


def test_the_readme_eprb_slice_solves_one_lp(monkeypatch):
    solves = []
    solve_lp = unify.solve_lp
    monkeypatch.setattr(unify, "solve_lp", lambda *a, **k: solves.append(1) or solve_lp(*a, **k))
    points = [{"theta4": float(v)} for v in np.linspace(2, 2.8, 41)]
    rows = _evaluate_slice("eprb", points)
    assert [r["feasible"] for r in rows] == [0] * 41
    assert len(solves) == 1


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
    fresh = find_unifying_probability(space, tables, exact=True)
    assert not fresh.feasible
    carried = find_unifying_probability(space, tables, exact=True,
                                        certificate=[float(v) for v in fresh.farkas_certificate])
    assert carried.farkas_certificate == fresh.farkas_certificate
    assert all(isinstance(v, Fraction) for v in carried.farkas_certificate)
