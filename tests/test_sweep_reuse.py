"""Results must not depend on what was built or evaluated before.

No scenario piece is reused across builds: only the parameter-free parts of
``eprb`` and ``leggett_garg`` are built once per process, and a sweep
evaluates its grid as stacks.  Every output must be byte-identical whichever
points came first and whether a point is evaluated alone or in a grid,
signed zeros included.
"""

import itertools
import math

import numpy as np
import pytest

from histories_lab.analysis import analyze, report_to_json
from histories_lab.classicality import classify
from histories_lab.cli import Carry, _evaluate_points, evaluate_sweep_point
from histories_lab.config import parse_config, scenario_to_config
from histories_lab.scenarios import SCENARIO_NAMES, build_scenario, scenario_grid


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
    first = (_row(scenario, params), _report(scenario, params))
    # evaluate every other point, the other signed zero included, in between
    for other_scenario, other in SIGNED_ZERO_POINTS + list(OTHER_POINTS):
        evaluate_sweep_point(other_scenario, other)
    assert (_row(scenario, params), _report(scenario, params)) == first
    assert (_row(scenario, params), _report(scenario, params)) == first


@pytest.mark.parametrize("scenario,names,grids", (
    ("eprb", ("theta1", "theta4"), (np.linspace(-0.6, 0.6, 5), np.linspace(-0.4, 2.6, 6))),
    ("leggett_garg", ("t1", "omega"), (np.linspace(-1.0, 0.5, 4), np.linspace(-2.0, 2.0, 7))),
))
def test_two_parameter_grids_match_cold_points(scenario, names, grids):
    values = [[float(v) for v in g] + [0.0, -0.0] for g in grids]
    points = [dict(zip(names, combo)) for combo in itertools.product(*values)]
    columns = {name: np.array([p[name] for p in points]) for name in names}
    combined, maxima, feasible = _evaluate_points(scenario, columns, len(points), Carry())
    stacked = [repr({"combined_consistent": c, "max_combination": m, "feasible": f})
               for c, m, f in zip(combined.tolist(), maxima.tolist(), feasible.tolist())]
    assert stacked == [_row(scenario, p) for p in points]


def test_signed_zero_parameters_are_kept():
    plus = build_scenario("leggett_garg", {"t1": 0.0}).grid.slots["pair_12"]
    minus = build_scenario("leggett_garg", {"t1": -0.0}).grid.slots["pair_12"]
    assert math.copysign(1.0, plus[0][0][0]) == 1.0  # the first slot's time at point 0
    assert math.copysign(1.0, minus[0][0][0]) == -1.0
    eprb = build_scenario("eprb", {"theta1": -0.0})
    assert math.copysign(1.0, eprb.parameters["theta1"]) == -1.0


def _assert_read_only(grid):
    arrays = [grid.hamiltonians, grid.invalid, grid.fixed.initial.matrix]
    arrays += [a for slots in grid.slots.values() for times, projectors, _ in slots
               for a in (times, projectors)]
    for a in arrays:
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = a[(0,) * a.ndim]


@pytest.mark.parametrize("source", SCENARIO_NAMES + ("config",))
def test_descriptor_grids_are_read_only(source):
    desc = parse_config(scenario_to_config(build_scenario("three_box"))) if source == "config" \
        else build_scenario(source)
    _assert_read_only(desc.grid)
    if desc.final is not None:
        with pytest.raises(ValueError):
            desc.final.matrix[0, 0] = 1.0


@pytest.mark.parametrize("scenario,param", (("eprb", "theta4"), ("leggett_garg", "omega"),
                                            ("leggett_garg", "t1")))
def test_a_sweep_grid_is_read_only_and_its_parameters_stay_writable(scenario, param):
    chunk = np.array([[-0.5], [-0.25]])
    values = chunk.T[0]  # a view of the caller's chunk, as the sweep passes its columns
    grid = scenario_grid(scenario, {param: values})
    assert len(grid.invalid) == 2 and not grid.invalid.any()
    _assert_read_only(grid)
    values[0] = 0.25
    chunk[1, 0] = 0.5
    assert values.tolist() == [0.25, 0.5]


def test_classify_on_a_cached_set_matches_fresh_sets_at_every_tolerance():
    for scenario in ("eprb", "leggett_garg"):
        cached = {s.name: build_scenario(scenario).build(s.name)
                  for s in build_scenario(scenario).sets}
        reports = {(name, tol): classify(hset, tol)
                   for name, hset in cached.items() for tol in (1e-10, 0.3)}
        for (name, tol), report in reports.items():
            fresh = build_scenario(scenario).build(name)
            assert fresh is not cached[name]
            assert classify(fresh, tol) == report
            assert report.tolerance_used == tol
        # a loose tolerance turns flags on that the default leaves off
        assert any(reports[(n, 0.3)] != reports[(n, 1e-10)] for n in cached)
