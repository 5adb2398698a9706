"""Property tests on drawn eprb and leggett_garg points.

Fine's theorem (Fine 1982; Araujo et al. 2013) gives an independent oracle:
away from the bound, a unifying probability exists exactly when every
n-cycle inequality holds.  Float and exact mode must agree with it, and
every report must re-verify after a round trip through a config document
and the report JSON.
"""

import json
import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from histories_lab.analysis import AnalysisOptions, analyze, report_to_json, reverify
from histories_lab.config import parse_config, scenario_to_config
from histories_lab.scenarios import build_scenario
from histories_lab.unify import (
    correlations_from_marginals,
    cycle_check,
    extract_marginals,
    find_unifying_probability,
    snap_tables,
)

BOUNDARY = 1e-6
PAIRS = {"eprb": ("pair_13", "pair_14", "pair_23", "pair_24"),
         "leggett_garg": ("pair_12", "pair_23", "pair_13")}

angles = st.floats(-math.pi, math.pi, allow_nan=False)
eprb_points = st.fixed_dictionaries({f"theta{k}": angles for k in (1, 2, 3, 4)})
leggett_garg_points = st.builds(
    lambda omega, t1, gap12, gap23: {"omega": omega, "t1": t1, "t2": t1 + gap12,
                                     "t3": t1 + gap12 + gap23},
    st.floats(-3.0, 3.0), st.floats(-2.0, 2.0), st.floats(0.05, 3.0), st.floats(0.05, 3.0))
points = st.one_of(st.tuples(st.just("eprb"), eprb_points),
                   st.tuples(st.just("leggett_garg"), leggett_garg_points))


def _verdicts(scenario, params):
    """Float verdict, exact verdict and the cycle check of one point's pair tables."""
    desc = build_scenario(scenario, params)
    tables = [extract_marginals(desc.build(n), desc.set_named(n).mapping) for n in PAIRS[scenario]]
    check = cycle_check(correlations_from_marginals(tables))
    assume(abs(check.slack) > BOUNDARY)
    exact = find_unifying_probability(desc.space, snap_tables(desc.space, tables), exact=True)
    return find_unifying_probability(desc.space, tables).feasible, exact.feasible, check.satisfied


@settings(max_examples=60, deadline=None, derandomize=True)
@given(points)
def test_float_verdict_is_the_cycle_inequalities_away_from_the_bound(point):
    float_feasible, _, satisfied = _verdicts(*point)
    assert float_feasible == satisfied


@settings(max_examples=40, deadline=None, derandomize=True)
@given(leggett_garg_points)
def test_float_and_exact_verdicts_agree_on_leggett_garg_points(params):
    float_feasible, exact_feasible, _ = _verdicts("leggett_garg", params)
    assert exact_feasible == float_feasible


@settings(max_examples=40, deadline=None, derandomize=True)
@given(eprb_points)
def test_float_and_exact_verdicts_agree_on_eprb_points(params):
    float_feasible, exact_feasible, _ = _verdicts("eprb", params)
    assert exact_feasible == float_feasible


@settings(max_examples=30, deadline=None, derandomize=True)
@given(points, st.booleans())
def test_reports_reverify_after_a_config_and_json_round_trip(point, exact):
    scenario, params = point
    document = json.loads(json.dumps(scenario_to_config(build_scenario(scenario, params))))
    report = analyze(parse_config(document), AnalysisOptions(exact=exact))
    assert report["unification"] is not None
    reverify(json.loads(report_to_json(report)))
