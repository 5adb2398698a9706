"""Scenario pieces are memoized across builds; results must not depend on it.

``eprb`` and ``leggett_garg`` hand out the same validated projectors, slots
and schedules for the same parameter values, a schedule keeps its history
set, and a history set keeps its classification diagnostics.  Every output
must be byte-identical whether the memos start cold or warm, signed zeros
included.
"""

import itertools
import math

import numpy as np
import pytest

from histories_lab.analysis import analyze, report_to_json
from histories_lab.classicality import classify
from histories_lab.cli import evaluate_sweep_point
from histories_lab.histories import history_set
from histories_lab.scenarios import _MEMOS, MEMO_SIZE, build_scenario


def _cold():
    for memo in _MEMOS:
        memo.cache_clear()


def _row(scenario, params):
    return repr(evaluate_sweep_point(scenario, params))


def _report(scenario, params):
    return report_to_json(analyze(build_scenario(scenario, params)))


SIGNED_ZERO_POINTS = (
    [("eprb", {f"theta{k}": z}) for k in (1, 2, 3, 4) for z in (0.0, -0.0)]
    + [("leggett_garg", {name: z}) for name in ("t1", "omega") for z in (0.0, -0.0)]
)
OTHER_POINTS = (("eprb", {"theta4": 3 * math.pi / 4, "theta3": math.pi / 4}),
                ("eprb", {}), ("leggett_garg", {"omega": 2.0, "t1": -0.5}), ("leggett_garg", {}))


@pytest.mark.parametrize("scenario,params", SIGNED_ZERO_POINTS + list(OTHER_POINTS))
def test_cold_and_warm_builds_give_identical_rows_and_reports(scenario, params):
    _cold()
    cold = (_row(scenario, params), _report(scenario, params))
    _cold()
    # warm every memo with the other signed zero and other points first
    for other_scenario, other in SIGNED_ZERO_POINTS + list(OTHER_POINTS):
        evaluate_sweep_point(other_scenario, other)
    assert (_row(scenario, params), _report(scenario, params)) == cold
    assert (_row(scenario, params), _report(scenario, params)) == cold


@pytest.mark.parametrize("scenario,names,grids", (
    ("eprb", ("theta1", "theta4"), (np.linspace(-0.6, 0.6, 5), np.linspace(-0.4, 2.6, 6))),
    ("leggett_garg", ("t1", "omega"), (np.linspace(-1.0, 0.5, 4), np.linspace(-2.0, 2.0, 7))),
))
def test_two_parameter_grids_match_cold_points(scenario, names, grids):
    values = [[float(v) for v in g] + [0.0, -0.0] for g in grids]
    points = [dict(zip(names, combo)) for combo in itertools.product(*values)]
    assert len(points) > MEMO_SIZE // 2  # long enough for memo entries to be evicted and rebuilt
    warm = [_row(scenario, p) for p in points]
    cold = []
    for p in points:
        _cold()
        cold.append(_row(scenario, p))
    assert warm == cold


def test_memoized_pieces_are_shared_and_signed_zeros_are_not():
    _cold()
    a = build_scenario("eprb", {"theta4": 2.1})
    b = build_scenario("eprb", {"theta4": 2.2})
    for name in ("pair_13", "pair_23"):  # untouched by theta4
        assert a.set_named(name).schedule is b.set_named(name).schedule
        assert a.build(name) is b.build(name)
    for name in ("pair_14", "pair_24", "combined"):
        assert a.set_named(name).schedule is not b.set_named(name).schedule
    plus = build_scenario("leggett_garg", {"t1": 0.0}).set_named("pair_12").schedule
    minus = build_scenario("leggett_garg", {"t1": -0.0}).set_named("pair_12").schedule
    assert plus is not minus
    assert math.copysign(1.0, minus.slots[0].time) == -1.0
    assert build_scenario("leggett_garg", {"t1": 0.0}).set_named("pair_12").schedule is plus


def test_a_schedule_reuses_its_set_only_for_the_same_boundary_states():
    desc = build_scenario("leggett_garg")
    schedule = desc.set_named("pair_12").schedule
    hset = history_set(schedule, desc.initial)
    assert history_set(schedule, desc.initial) is hset
    other = build_scenario("griffiths_spin").initial
    assert history_set(schedule, other) is not hset
    assert history_set(schedule, other, other).final is other


@pytest.mark.parametrize("scenario", ("eprb", "leggett_garg"))
def test_memoized_matrices_are_read_only(scenario):
    desc = build_scenario(scenario)
    for sset in desc.sets:
        for slot in sset.schedule.slots:
            for projector in slot.projectors:
                with pytest.raises(ValueError):
                    projector.matrix[0, 0] = 2.0
        with pytest.raises(ValueError):
            sset.schedule.hamiltonian[0, 0] = 1.0
    with pytest.raises(ValueError):
        desc.initial.matrix[0, 0] = 1.0


def test_classify_on_a_cached_set_matches_fresh_sets_at_every_tolerance():
    for scenario in ("eprb", "leggett_garg"):
        _cold()
        cached = {s.name: build_scenario(scenario).build(s.name)
                  for s in build_scenario(scenario).sets}
        reports = {(name, tol): classify(hset, tol)
                   for name, hset in cached.items() for tol in (1e-10, 0.3)}
        for (name, tol), report in reports.items():
            _cold()
            fresh = build_scenario(scenario).build(name)
            assert fresh is not cached[name]
            assert classify(fresh, tol) == report
            assert report.tolerance_used == tol
        # a loose tolerance turns flags on that the default leaves off
        assert any(reports[(n, 0.3)] != reports[(n, 1e-10)] for n in cached)
