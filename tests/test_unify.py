import fractions
import itertools
import json
import math
import re
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from histories_lab import _kernels, cli, simplex, unify
from histories_lab.analysis import AnalysisOptions, analyze, decode_value, encode_value, report_to_json, reverify
from histories_lab.classicality import classify
from histories_lab.errors import InconsistentSetError, NumericError, ValidationError
from histories_lab.histories import HistorySchedule, Slot, history_set, quasi_probabilities
from histories_lab.operators import DensityOperator, Projector, ket, projector_onto
from histories_lab.scenarios import build_scenario
from histories_lab.simplex import OPTIMAL, farkas_test, solve_lp_exact, solve_lp_float, verify_certificate
from histories_lab.unify import (
    DEFAULT_DELTA,
    CorrelationSet,
    JointSampleSpace,
    MarginalTable,
    Variable,
    VariableMapping,
    band_test,
    build_constraint_system,
    classify_quasiprobability,
    correlations_from_marginals,
    cycle_check,
    extract_marginals,
    find_unifying_probability,
    TABLE_TOL,
    pair_correlation,
    pinned,
    probe_uniqueness,
    snap_tables,
    table_layout,
    verify_witness,
)
from histories_lab.unify import (
    _bounds,
    _cell_keys,
    _checked_verdict,
    _constraint_rows,
    _interned,
    _layout,
    _on_every_row,
    _table_rows,
    _verdict,
    _verify_witness,
)

SA = Variable("a", (1, -1))
SB = Variable("b", (1, -1))
SC = Variable("c", (1, -1))
BOX = Variable("box", ("1", "2", "3"))


def anticorrelated(u, v):
    return MarginalTable((u, v), {(1, 1): 0.0, (1, -1): 0.5, (-1, 1): 0.5, (-1, -1): 0.0})


def uniform(u):
    return MarginalTable((u,), {(1,): 0.5, (-1,): 0.5})


# ---------------------------------------------------------------------------
# marginal tables
# ---------------------------------------------------------------------------

def test_marginal_table_canonical_ordering_and_sum():
    table = MarginalTable((SA,), {(-1,): 0.25, (1,): 0.75})
    assert list(table.values) == [((1,),), ((-1,),)]
    with pytest.raises(ValidationError):
        MarginalTable((SA,), {(1,): 0.9, (-1,): 0.3})  # sums to 1.2


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_values_are_rejected_naming_the_key(value):
    with pytest.raises(ValidationError, match=r"for key \(\(1,\),\) is not finite"):
        MarginalTable((SA,), {(1,): value, (-1,): value})
    with pytest.raises(ValidationError, match=r"\('a', 'b'\)"):
        CorrelationSet({("a", "b"): value})


@pytest.mark.parametrize("values", [{1: True, -1: False}, {1: "0.5", -1: "0.5"},
                                    {1: None, -1: 1.0}, {1: [1.0], -1: 0.0}])
def test_non_number_values_are_rejected_naming_the_key(values):
    # bools are not probabilities: {1: True, -1: False} once built an "exact" table
    with pytest.raises(ValidationError, match=r"for key \(\(1,\),\) is not finite"):
        MarginalTable((SA,), values)


@pytest.mark.parametrize("value", [True, "x", None, 0.5j])
def test_non_number_correlations_are_rejected_naming_the_pair(value):
    with pytest.raises(ValidationError, match=r"\('a', 'b'\) = .* is not a finite number"):
        CorrelationSet({("b", "a"): value})


def test_nan_table_never_reaches_a_verdict():
    with pytest.raises(ValidationError):
        find_unifying_probability(JointSampleSpace((SA,)),
                                  [MarginalTable((SA,), {(1,): math.nan, (-1,): math.nan})])


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("cell", [(1,), (-1,)])
def test_verify_witness_rejects_a_nan_cell(exact, cell):
    table = uniform(SA).as_exact() if exact else uniform(SA)
    space = JointSampleSpace((SA,))
    witness = {(1,): Fraction(1, 2), (-1,): Fraction(1, 2)}
    witness[cell] = math.nan
    values = [witness[c] for c in space.cells()]  # the private check takes cell values in order
    system = build_constraint_system(space, [table], exact)
    with pytest.raises(NumericError, match="negative or undefined cell"), np.errstate(invalid="ignore"):
        _verify_witness(system.cell_rows, [table], system.rhs, values, DEFAULT_DELTA, exact)


@pytest.mark.parametrize("edit, message", [
    # an unknown cell comes first, in witness order, whatever else is wrong
    ({(1, 1): None, (7, 7): 0.25, (8, 8): 0.25}, r"cell \(7, 7\) is not in the sample space"),
    # then the first missing or non-finite cell in space order
    ({(1, -1): None, (-1, 1): math.nan}, r"no value for cell \(1, -1\)"),
    ({(1, -1): math.inf, (-1, 1): None}, r"inf for cell \(1, -1\)"),
    ({(1, -1): True, (-1, 1): None}, r"True for cell \(1, -1\)"),
], ids=["unknown-first", "missing", "infinite", "bool"])
def test_verify_witness_names_the_first_bad_cell(edit, message):
    """``None`` in ``edit`` deletes the cell; any other value replaces it."""
    space = JointSampleSpace((SA, SB))
    witness = dict.fromkeys(space.cells(), 0.25)
    for cell, value in edit.items():
        if value is None:
            del witness[cell]
        else:
            witness[cell] = value
    with pytest.raises(ValidationError, match=message):
        verify_witness(space, [uniform(SA), uniform(SB)], witness)


def _per_cell_witness_check(space, witness):
    """The cell checks of ``verify_witness`` as a loop over the cells, as
    they were written before they became one array check: the message of
    the first refusal, or ``None``."""
    cells = space.cells()
    known = set(cells)
    for cell in witness:
        if cell not in known:
            return f"witness cell {cell!r} is not in the sample space"
    for cell in cells:
        value = witness.get(cell)
        if not unify.is_finite_number(value):
            return (f"witness has no value for cell {cell!r}" if cell not in witness else
                    f"witness value {value!r} for cell {cell!r} is not a finite number")
    return None


WITNESS_VALUES = [0.25, Fraction(1, 4), 1, 0, np.float64(0.25), None, math.nan, math.inf, -math.inf,
                  True, False, "0.25", 10**400, -10**400, Fraction(10**400, 3), np.int64(1), 0.5j, [0.25]]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.dictionaries(st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1), (7, 7), (1,), (0, 0)]),
                       st.sampled_from(range(len(WITNESS_VALUES))), max_size=7),
       st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]))
def test_the_cell_check_refuses_as_the_per_cell_loop_did(edit, missing):
    """A witness with each cell of ``edit`` set to one of ``WITNESS_VALUES``
    (an unknown cell added), and ``missing`` deleted unless edited: the
    array check refuses with the loop's first message, or not at all."""
    space = JointSampleSpace((SA, SB))
    witness = dict.fromkeys(space.cells(), 0.25)
    del witness[missing]
    witness.update((cell, WITNESS_VALUES[k]) for cell, k in edit.items())
    expected = _per_cell_witness_check(space, witness)
    try:
        verify_witness(space, [uniform(SA), uniform(SB)], witness)
    except ValidationError as exc:
        assert str(exc) == expected
    except NumericError:
        assert expected is None
    else:
        assert expected is None


@pytest.mark.parametrize("exact", [False, True])
def test_pinned_allows_only_the_tables_slack(exact):
    """``pinned`` pins and uncrosses within 0 (exact) or ``TABLE_TOL``
    (float), and refuses bounds crossed by more."""
    tol = Fraction(0) if exact else Fraction(TABLE_TOL)
    number = Fraction if exact else float
    assert pinned({(1,): (number(Fraction(1, 2) + tol / 2), number(Fraction(1, 2)))}, exact)
    assert pinned({(1,): (number(0), number(tol / 2))}, exact)
    assert not pinned({(1,): (number(0), number(2 * tol + Fraction(1, 10**12)))}, exact)
    with pytest.raises(NumericError, match=r"bounds \[.*\] of cell \(-1,\) are in the wrong order"):
        pinned({(1,): (number(0), number(0)), (-1,): (number(3 * tol + Fraction(1, 10**12)), number(0))},
               exact)


def test_a_float_unifier_must_sum_to_one():
    # one variable read by two sets, z and z tilted by 0.02 rad: each cell is
    # within delta of both tables, but the cells sum to 1.001
    space = JointSampleSpace((SA,))
    tilt = math.sin(0.01) ** 2
    tables = [MarginalTable((SA,), {(1,): 1.0, (-1,): 0.0}),
              MarginalTable((SA,), {(1,): 1.0 - tilt, (-1,): tilt})]
    with pytest.raises(NumericError, match="sums to"):
        verify_witness(space, tables, {(1,): 0.9999999999999999, (-1,): 0.001}, delta=1e-3)
    verdict = find_unifying_probability(space, tables, delta=1e-3)
    assert verdict.feasible and abs(sum(verdict.witness.values()) - 1.0) <= 1e-12
    verify_witness(space, tables, verdict.witness, delta=1e-3)


def test_marginal_table_grouped_keys_must_partition():
    MarginalTable((BOX,), {("1",): 1.0, (("2", "3"),): 0.0})
    with pytest.raises(ValidationError):
        MarginalTable((BOX,), {("1",): 1.0, ("2",): 0.0})  # "3" uncovered
    with pytest.raises(ValidationError):
        MarginalTable((BOX,), {(("1", "2"),): 1.0, (("2", "3"),): 0.0})  # overlap


def test_marginal_table_rejects_unknown_outcome():
    unknown = "outcome 2 is not in the alphabet of variable 'box'"
    for key in [(2,), ((2, "3"),)]:
        with pytest.raises(ValidationError, match=unknown):
            MarginalTable((BOX,), {("1",): 0.5, key: 0.5})
    with pytest.raises(ValidationError, match="repeats an outcome"):
        MarginalTable((BOX,), {("1",): 0.5, (("2", "2", "3"),): 0.5})
    assert [BOX.outcome_index(o) for o in ("3", "1")] == [2, 0]
    with pytest.raises(ValidationError, match=r"outcome \['1'\] is not in the alphabet"):
        BOX.outcome_index(["1"])  # unhashable


def test_as_exact_snaps_and_verifies():
    table = MarginalTable((SA,), {(1,): 1 / 3 + 1e-16, (-1,): 2 / 3})
    exact = table.as_exact()
    assert exact.values[((1,),)] == Fraction(1, 3)
    # 1e-11 from its best fraction with denominator <= SNAP_MAX_DENOMINATOR: every accepted
    # table snaps, each value within (n + 2) * TABLE_TOL of its float
    noisy = MarginalTable((SA,), {(1,): 1 / 3 + 1e-11, (-1,): 2 / 3})
    snapped = noisy.as_exact()
    assert snapped.is_exact and sum(snapped.values.values()) == 1
    for key, value in snapped.values.items():
        assert value >= 0 and abs(float(value) - noisy.values[key]) <= 4 * TABLE_TOL
    # Leggett-Garg pair table at omega * tau = 2: each value snaps on its own
    # to a sum just off 1, so the residual goes to the largest entry
    c = math.cos(2.0)
    lg = MarginalTable((SA, SB), {(s, r): 0.25 * (1 + s * r * c) for s in (1, -1) for r in (1, -1)})
    snapped = lg.as_exact()
    assert sum(snapped.values.values()) == 1
    for key, value in snapped.values.items():
        assert isinstance(value, Fraction)
        assert abs(float(value) - lg.values[key]) <= 1e-12


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

def test_extract_marginals_refuses_inconsistent_set():
    up, plus = np.array([1.0, 0.0]), ket([1.0, 1.0])
    z = (Projector(projector_onto(up)), Projector(projector_onto([0.0, 1.0])))
    x = (Projector(projector_onto(plus)), Projector(projector_onto(ket([1.0, -1.0]))))
    zx = history_set(
        HistorySchedule((Slot(0.0, x, (1, -1)), Slot(1.0, z, (1, -1))), np.zeros((2, 2))),
        DensityOperator.pure(up), DensityOperator.pure(plus))
    with pytest.raises(InconsistentSetError):
        extract_marginals(zx, VariableMapping((SA, SB)))


def test_extract_marginals_with_groups():
    basis = np.eye(3)
    p1 = Projector(projector_onto(basis[0]))
    p23 = Projector(projector_onto(basis[1]) + projector_onto(basis[2]))
    hset = history_set(
        HistorySchedule((Slot(0.0, (p1, p23), ("1", "23")),), np.zeros((3, 3))),
        DensityOperator.pure(ket([1, 1, 1])), DensityOperator.pure(ket([1, 1, -1])))
    table = extract_marginals(hset, VariableMapping((BOX,), ({"1": ("1",), "23": ("2", "3")},)))
    assert abs(table.values[(("1",),)] - 1.0) < 1e-12
    assert abs(table.values[(("2", "3"),)]) < 1e-12


# ---------------------------------------------------------------------------
# feasibility and uniqueness
# ---------------------------------------------------------------------------

def test_product_of_marginals_is_a_witness():
    space = JointSampleSpace((SA, SB))
    ma = MarginalTable((SA,), {(1,): 1.0, (-1,): 0.0})
    mb = MarginalTable((SB,), {(1,): 1.0, (-1,): 0.0})
    verdict = find_unifying_probability(space, [ma, mb])
    assert verdict.feasible
    assert abs(verdict.witness[(1, 1)] - 1.0) < 2e-9


def test_three_box_unification_is_infeasible_with_certificate():
    space = JointSampleSpace((BOX,))
    m1 = MarginalTable((BOX,), {("1",): 1.0, (("2", "3"),): 0.0})
    m2 = MarginalTable((BOX,), {("2",): 1.0, (("1", "3"),): 0.0})
    verdict = find_unifying_probability(space, [m1, m2])
    assert verdict.status == "infeasible"
    system = build_constraint_system(space, [m1, m2])
    assert band_test(system.matrix, verdict.farkas_certificate, verdict.delta)(system.rhs)

    exact = find_unifying_probability(space, [m1.as_exact(), m2.as_exact()], exact=True)
    assert exact.status == "infeasible"
    exact_system = build_constraint_system(space, [m1.as_exact(), m2.as_exact()], exact=True)
    assert verify_certificate(exact_system.matrix, exact_system.rhs, exact.farkas_certificate)


def test_negative_delta_is_rejected():
    with pytest.raises(ValidationError, match="delta"):
        find_unifying_probability(JointSampleSpace((SA,)), [uniform(SA)], delta=-1e-9)


@pytest.mark.parametrize("delta", [math.nan, math.inf])
def test_non_finite_delta_is_rejected(delta):
    with pytest.raises(ValidationError, match="delta"):
        find_unifying_probability(JointSampleSpace((SA,)), [uniform(SA)], delta=delta)


@pytest.mark.parametrize("scenario", ["leggett_garg", "three_box"])
def test_a_band_wider_than_every_marginal_admits_a_witness_without_overflow(scenario, tmp_path):
    # both are infeasible at width 0; a band near the float maximum is capped
    # at WIDEST_BAND in the band arithmetic, so no sum over it overflows
    space, tables = _tables(scenario, False)
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict = find_unifying_probability(space, tables, delta=1e308)
        assert verdict.feasible and verdict.delta == 1e308
        verify_witness(space, tables, verdict.witness, delta=1e308)
        assert cli.main(["analyze", "--scenario", scenario, "--delta", "1e308", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["unification"]["verdict"]["status"] == "feasible"
        reverify(report)


def test_exact_mode_requires_rational_values():
    space = JointSampleSpace((SA,))
    table = MarginalTable((SA,), {(1,): 0.5 + 1e-13, (-1,): 0.5 - 1e-13})
    with pytest.raises(ValidationError):
        find_unifying_probability(space, [table], exact=True)


def test_uniqueness_degenerate_marginals():
    space = JointSampleSpace((SA, SB))
    ma = MarginalTable((SA,), {(1,): 1.0, (-1,): 0.0})
    mb = MarginalTable((SB,), {(1,): 1.0, (-1,): 0.0})
    verdict = probe_uniqueness(space, [ma, mb])
    assert verdict.feasible and verdict.unique
    lo, hi = verdict.component_bounds[(1, 1)]
    assert abs(lo - 1.0) < 1e-9 and abs(hi - 1.0) < 1e-9


def test_uniqueness_uncorrelated_uniform_is_free():
    space = JointSampleSpace((SA, SB))
    verdict = probe_uniqueness(space, [uniform(SA), uniform(SB)])
    assert verdict.feasible and verdict.unique is False
    lo, hi = verdict.component_bounds[(1, 1)]
    assert abs(lo) < 1e-9 and abs(hi - 0.5) < 1e-9


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("delta", [1e-9, 0.4, 0.6, 1.0])
def test_a_wide_band_leaves_two_independent_coins_free(exact, delta):
    """Two fair coins with only their one-variable marginals: every cell lies
    in [0, 1/2] over the unifiers, whatever the band width, so no band width
    may pin them; the pinned-cell tolerance is not delta."""
    space = JointSampleSpace((SA, SB))
    tables = [uniform(SA), uniform(SB)]
    if exact:
        tables = [t.as_exact() for t in tables]
    verdict = probe_uniqueness(space, tables, delta=delta, exact=exact)
    assert verdict.feasible and verdict.unique is False
    assert verdict.component_bounds == dict.fromkeys(space.cells(), (0, Fraction(1, 2)))


def test_uniqueness_exact_perfect_anticorrelations():
    space = JointSampleSpace((SA, SB, SC))
    mab = anticorrelated(SA, SB).as_exact()
    mbc = anticorrelated(SB, SC).as_exact()
    # a anti b, b anti c forces a = c; adding the (a, c) correlated table pins the joint
    mac = MarginalTable((SA, SC), {(1, 1): Fraction(1, 2), (1, -1): Fraction(0),
                                   (-1, 1): Fraction(0), (-1, -1): Fraction(1, 2)})
    verdict = probe_uniqueness(space, [mab, mbc, mac], exact=True)
    assert verdict.feasible and verdict.unique
    assert verdict.witness[(1, -1, 1)] == Fraction(1, 2)


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("malformed", [lambda rows: ["x"] + [1] * (rows - 1),
                                       lambda rows: [1j] + [1] * (rows - 1),
                                       lambda rows: [[1]] * rows])
def test_malformed_candidate_certificate_is_ignored(exact, malformed):
    space = JointSampleSpace((SA, SB, SC))
    tables = [anticorrelated(SA, SB), anticorrelated(SB, SC), anticorrelated(SA, SC)]
    if exact:
        tables = [table.as_exact() for table in tables]
    system = build_constraint_system(space, tables, exact=exact)
    candidate = malformed(system.matrix.shape[0])
    assert farkas_test(system.matrix, candidate) is None
    assert band_test(system.matrix, candidate, DEFAULT_DELTA) is None
    fresh = find_unifying_probability(space, tables, exact=exact)
    assert not fresh.feasible
    assert band_test(system.matrix, fresh.farkas_certificate, 0 if exact else DEFAULT_DELTA)(system.rhs)


def _tables(scenario, exact):
    """The marginal tables ``analyze`` unifies for a built-in scenario, snapped
    to rationals as ``analyze --exact`` does them when ``exact``."""
    descriptor = build_scenario(scenario)
    tables = [extract_marginals(descriptor.build(s.name), s.mapping)
              for s in descriptor.sets
              if s.mapping is not None and classify(descriptor.build(s.name)).consistent]
    return descriptor.space, [t.as_exact() for t in tables] if exact else tables


def _assert_bounds_match_independent_solves(space, tables, exact):
    """``probe_uniqueness``'s bounds against a fresh min and max LP per cell of
    the width-0 system, equal in exact mode and within 1e-12 in float mode,
    and ``unique`` against those bounds; returns the verdict."""
    verdict = probe_uniqueness(space, tables, exact=exact)
    system = build_constraint_system(space, tables, exact)
    solve, number, tol = (solve_lp_exact, Fraction, 0) if exact else (solve_lp_float, float, DEFAULT_DELTA)
    n = system.matrix.shape[1]
    assert list(verdict.component_bounds) == system.cells
    fresh = []
    for k, cell in enumerate(system.cells):
        unit = [number(int(j == k)) for j in range(n)]
        low = solve(system.matrix, system.rhs, unit)
        high = solve(system.matrix, system.rhs, [-v for v in unit])
        fresh.append((low.objective, -high.objective))
        bounds = verdict.component_bounds[cell]
        if exact:
            assert bounds == fresh[-1]
        else:
            assert bounds == pytest.approx(fresh[-1], rel=0, abs=1e-12)
        assert all(type(v) is number for v in bounds)
    assert verdict.unique == all(hi - lo <= tol for lo, hi in fresh)
    return verdict


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("scenario", ["eprb", "griffiths_spin"])
def test_probe_bounds_match_independent_solves(scenario, exact):
    _assert_bounds_match_independent_solves(*_tables(scenario, exact), exact)


@st.composite
def exact_pairwise_systems(draw):
    """Exact pair tables over 3-4 dichotomic variables, the marginals of a
    drawn rational joint (so feasible, and mostly not unique) or of a point
    mass; returns the space, the tables and whether they pin the joint: a
    point mass is pinned once the pairs name every variable."""
    space = JointSampleSpace(tuple(Variable(f"v{i}", (0, 1))
                                   for i in range(draw(st.integers(3, 4)))))
    point = draw(st.booleans())
    if point:
        weights = [0] * space.size
        weights[draw(st.integers(0, space.size - 1))] = 1
    else:
        weights = draw(st.lists(st.integers(0, 4), min_size=space.size, max_size=space.size)
                       .filter(any))
    joint = [Fraction(w, sum(weights)) for w in weights]
    all_pairs = list(itertools.combinations(range(len(space.variables)), 2))
    pairs = draw(st.lists(st.sampled_from(all_pairs), min_size=1, unique=True))
    tables = []
    for pair in pairs:
        values = dict.fromkeys(itertools.product((0, 1), repeat=2), Fraction(0))
        for cell, p in zip(space.cells(), joint):
            values[tuple(cell[i] for i in pair)] += p
        tables.append(MarginalTable(tuple(space.variables[i] for i in pair), values))
    return space, tables, point and len(set().union(*pairs)) == len(space.variables)


@pytest.mark.parametrize("exact", [False, True])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(exact_pairwise_systems())
def test_proven_bounds_match_independent_solves(exact, system):
    space, tables, pinned = system
    if not exact:
        tables = [MarginalTable(t.variables, {k: float(v) for k, v in t.values.items()})
                  for t in tables]
    verdict = _assert_bounds_match_independent_solves(space, tables, exact)
    assert verdict.feasible and (verdict.unique or not pinned)


@pytest.mark.parametrize("exact, scenario, solved", [(False, "eprb", 9), (False, "griffiths_spin", 3),
                                                     (True, "eprb", 4), (True, "griffiths_spin", 1)])
def test_probes_solve_only_the_unproven_bounds(monkeypatch, exact, scenario, solved):
    """Of the 2n probes, an LP runs only for a bound no known feasible point
    proves, in either arithmetic."""
    space, tables = _tables(scenario, exact)
    costs = []
    solve = simplex.FeasibleStart.solve

    def recorded(start, c=None):
        costs.append(c)
        return solve(start, c)

    monkeypatch.setattr(simplex.FeasibleStart, "solve", recorded)
    verdict = probe_uniqueness(space, tables, exact=exact)
    assert verdict.feasible and verdict.unique
    assert costs[0] is None and len(costs) == 1 + solved


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("scenario", ["griffiths_spin", "three_box", "eprb", "leggett_garg"])
def test_no_reported_component_bound_is_a_negative_zero(scenario, exact):
    report = json.loads(report_to_json(analyze(build_scenario(scenario), AnalysisOptions(exact=exact))))
    bounds = report["unification"]["verdict"]["component_bounds"] or []
    values = [decode_value(v) for _, lo, hi in bounds for v in (lo, hi)]
    assert all(math.copysign(1.0, v) > 0 for v in values if v == 0)


def test_exact_eprb_probes_share_one_phase_one(monkeypatch):
    """Pinned work: one phase 1 for the feasibility solve and every probe, and
    LPs only for the 4 of the 32 bounds that no known feasible point proves.

    Redoing phase 1 per probe took 65 loop calls and 407 pivots on this case;
    solving all 32 probes from one phase 1 took 33 calls and 55 pivots.
    """
    space, tables = _tables("eprb", exact=True)
    calls, pivots = [], []

    def counting(*args, **kwargs):
        code, n_pivots = _kernels.simplex_loop(*args, **kwargs)
        calls.append(code)
        pivots.append(n_pivots)
        return code, n_pivots

    monkeypatch.setattr(simplex, "simplex_loop", counting)
    verdict = probe_uniqueness(space, tables, exact=True)
    assert verdict.feasible and verdict.unique and space.size == 16
    assert len(calls) <= 5
    assert sum(pivots) <= 22


def test_float_eprb_verdict_and_probes_share_one_phase_one(monkeypatch):
    """Float mode takes its verdict from the width-0 system's phase 1, as
    exact mode does, so one phase 1 serves the verdict and every probe."""
    space, tables = _tables("eprb", exact=False)
    phase_ones = []
    phase_one = simplex._phase_one

    def counting(A, *args):
        phase_ones.append(A.shape)
        return phase_one(A, *args)

    monkeypatch.setattr(simplex, "_phase_one", counting)
    verdict = probe_uniqueness(space, tables)
    assert verdict.feasible and verdict.unique
    assert phase_ones == [(9, 16)]  # the row basis of 4 tables of 4 keys and the normalization row


def _fraction_calls(fn, *args, **kwargs):
    """``fn``'s result and the names of the ``fractions`` functions it ran."""
    calls = []

    def watch(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            calls.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(watch)
    try:
        return fn(*args, **kwargs), calls
    finally:
        sys.setprofile(previous)


def test_exact_eprb_probe_loops_build_no_fraction(monkeypatch):
    """Pinned mechanism: the exact tableau is integer rows, so the pivot loop
    builds no ``Fraction``; the results still carry ``Fraction``s.  The loops
    are phase 1 and the 4 probes that no known point proves, the results the
    zero-cost witness and those 4 optima."""
    assert _fraction_calls(lambda: Fraction(1, 3) + 1)[1]  # the watch sees Fraction work
    space, tables = _tables("eprb", exact=True)
    in_loops, results = [], []
    phase_two = simplex._phase_two

    def watched_loop(*args, **kwargs):
        result, calls = _fraction_calls(_kernels.simplex_loop, *args, **kwargs)
        in_loops.append(calls)
        return result

    def recorded_phase_two(*args):
        results.append(phase_two(*args))
        return results[-1]

    monkeypatch.setattr(simplex, "simplex_loop", watched_loop)
    monkeypatch.setattr(simplex, "_phase_two", recorded_phase_two)
    verdict = probe_uniqueness(space, tables, exact=True)
    assert verdict.feasible and verdict.unique
    assert len(in_loops) == 5 and not any(in_loops)
    assert len(results) == 5
    for result in results:
        assert result.status == OPTIMAL and type(result.objective) is Fraction
        assert all(type(v) is Fraction for v in result.x)


def _fair_coins():
    half = Fraction(1, 2)
    space = JointSampleSpace((SA, SB))
    return space, [MarginalTable((v,), {(1,): half, (-1,): half}) for v in (SA, SB)]


def test_exact_witness_check_reads_each_float_as_the_rational_it_is():
    # in float arithmetic, key (-1,) of the first table sums 0.25 + nextafter(0.25, 1) to 1/2
    space, tables = _fair_coins()
    inexact = dict(zip(space.cells(), [0.25, 0.25, 0.25, math.nextafter(0.25, 1)]))
    with pytest.raises(NumericError, match=r"misses marginal key \(\(-1,\),\) by 1/18014398509481984"):
        verify_witness(space, tables, inexact, exact=True)
    verify_witness(space, tables, inexact)  # float mode: within delta
    verify_witness(space, tables, dict(zip(space.cells(), [0.25, 0.25, 0.25, 0.25])), exact=True)


def test_exact_certificate_check_reads_each_float_as_the_rational_it_is():
    # box is "1" for sure in one table, "2" in the other; y = (-1, 0, 1, 0, 0) refutes them
    # exactly, and moving -1 by 1e-13 leaves y.A = -1e-13 at box "1"
    space = JointSampleSpace((BOX,))
    tables = [MarginalTable((BOX,), {("1",): Fraction(1), (("2", "3"),): Fraction(0)}),
              MarginalTable((BOX,), {(("1", "3"),): Fraction(0), ("2",): Fraction(1)})]
    inexact = [-1.0000000000001, 0.0, 1.0, 0.0, 0.0]
    assert not unify.refutes_marginals(space, tables, inexact, exact=True)
    assert unify.refutes_marginals(space, tables, inexact)  # float mode: within EVIDENCE_TOL
    assert unify.refutes_marginals(space, tables, [-1.0, 0.0, 1.0, 0.0, 0.0], exact=True)
    assert not unify.refutes_marginals(space, tables, [math.nan, 0.0, 1.0, 0.0, 0.0], exact=True)


def test_space_above_joint_cap_is_rejected():
    JointSampleSpace(tuple(Variable(f"v{k}", tuple(range(10))) for k in range(6)))
    with pytest.raises(ValidationError, match="exceeds cap"):
        JointSampleSpace(tuple(Variable(f"v{k}", tuple(range(10))) for k in range(7)))


# ---------------------------------------------------------------------------
# n-cycle inequalities
# ---------------------------------------------------------------------------

def test_bell_uncorrelated_slack_one():
    result = cycle_check(CorrelationSet({("a", "b"): 0.0, ("a", "c"): 0.0, ("b", "c"): 0.0}))
    assert result.satisfied and result.bound == 1 and abs(result.slack - 1.0) < 1e-12


def test_bell_perfectly_correlated_boundary():
    result = cycle_check(CorrelationSet({("a", "b"): 1.0, ("a", "c"): 1.0, ("b", "c"): 1.0}))
    assert result.satisfied and abs(result.slack) < 1e-12


def test_bell_equal_spacing_pi_thirds_violated():
    # C12 = C23 = 1/2, C13 = -1/2: C12 - C13 + C23 = 1.5 exceeds the bound 1
    result = cycle_check(CorrelationSet({("q1", "q2"): 0.5, ("q2", "q3"): 0.5, ("q1", "q3"): -0.5}))
    assert not result.satisfied
    assert len(result.values) == 4
    assert abs(result.max_value - 1.5) < 1e-12
    assert abs(result.slack + 0.5) < 1e-12


def test_chsh_anticorrelated_zx_configuration():
    corr = CorrelationSet({("s1", "s3"): -1.0, ("s2", "s4"): -1.0,
                           ("s1", "s4"): 0.0, ("s2", "s3"): 0.0})
    result = cycle_check(corr)
    assert result.satisfied and result.bound == 2
    assert sorted(set(round(abs(v), 12) for v in result.values)) == [0.0, 2.0]
    # for even n, -g is odd whenever g is: their values are exact negatives, signed zeros included
    assert sorted(v.hex() for v in result.values) == sorted((-v).hex() for v in result.values)


def test_chsh_tsirelson_violated():
    c = math.sqrt(2) / 2
    corr = CorrelationSet({("s1", "s3"): -c, ("s1", "s4"): c,
                           ("s2", "s3"): -c, ("s2", "s4"): -c})
    result = cycle_check(corr)
    assert not result.satisfied
    assert abs(result.max_value - 2 * math.sqrt(2)) < 1e-12


def test_chsh_all_zero_satisfied():
    corr = CorrelationSet({("s1", "s3"): 0.0, ("s1", "s4"): 0.0,
                           ("s2", "s3"): 0.0, ("s2", "s4"): 0.0})
    result = cycle_check(corr)
    assert result.satisfied and max(result.values) == 0.0


def test_chsh_rejects_non_bipartite_pairs():
    corr = CorrelationSet({("a", "b"): 0.0, ("b", "c"): 0.0, ("c", "d"): 0.0, ("a", "c"): 0.0})
    with pytest.raises(ValidationError):
        cycle_check(corr)


def test_cycle_check_five_cycle():
    # perfect correlations around the cycle except one anticorrelated pair:
    # no joint assignment exists, and flipping that pair's sign sums to 5 > 3
    names = ["a", "b", "c", "d", "e"]
    values = {(names[k], names[(k + 1) % 5]): 1.0 for k in range(5)}
    values[("e", "a")] = -1.0
    result = cycle_check(CorrelationSet(values))
    assert result.bound == 3 and len(result.values) == 16
    assert result.max_value == 5.0 and result.slack == -2.0 and not result.satisfied

    values[("e", "a")] = 1.0
    result = cycle_check(CorrelationSet(values))
    assert result.satisfied and result.max_value == 3.0


@pytest.mark.parametrize("pairs", [
    [("a", "b"), ("b", "c"), ("c", "d")],                           # a path
    [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")],               # triangle plus a pendant pair
    [("a", "b"), ("b", "c"), ("a", "c"), ("d", "e"), ("e", "f"), ("d", "f")],  # two triangles
    [("a", "b"), ("a", "c")],
    [],
])
def test_cycle_check_rejects_other_pair_graphs(pairs):
    corr = CorrelationSet({pair: 0.0 for pair in pairs})
    assert not corr.is_cycle
    with pytest.raises(ValidationError, match="one cycle"):
        cycle_check(corr)


def _cycle_system(means, spreads):
    """Dichotomic pair tables around a cycle with single-variable means ``means``.

    Pair ``(i, i+1)`` has correlation ``C`` at fraction ``spreads[i]`` of the
    range ``[|a_i + a_j| - 1, 1 - |a_i - a_j|]`` where its table is
    non-negative.
    """
    n = len(means)
    variables = [Variable(f"v{k}", (1, -1)) for k in range(n)]
    tables = []
    for i in range(n):
        j = (i + 1) % n
        a, b = means[i], means[j]
        lo, hi = abs(a + b) - 1.0, 1.0 - abs(a - b)
        c = lo + spreads[i] * (hi - lo)
        tables.append(MarginalTable((variables[i], variables[j]), {
            (s, t): (1.0 + s * a + t * b + s * t * c) / 4 for s in (1, -1) for t in (1, -1)
        }))
    return JointSampleSpace(tuple(variables)), tables


# correlations near either end of their range, so that violations occur at n >= 6
_near_edge = st.tuples(st.booleans(), st.floats(0.0, 0.3)).map(
    lambda e: 1.0 - e[1] if e[0] else e[1])


@pytest.mark.parametrize("n", range(3, 9))
def test_cycle_check_matches_lp_feasibility(n):
    verdicts = set()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.floats(-0.2, 0.2), min_size=n, max_size=n),
           st.lists(_near_edge, min_size=n, max_size=n))
    def check(means, spreads):
        space, tables = _cycle_system(means, spreads)
        result = cycle_check(correlations_from_marginals(tables))
        if abs(result.max_value - (n - 2)) < 1e-7:
            return
        assert find_unifying_probability(space, tables).feasible == result.satisfied
        verdicts.add(result.satisfied)

    check()
    assert verdicts == {True, False}


def test_pair_correlation_and_collection():
    table = anticorrelated(SA, SB)
    assert abs(pair_correlation(table) + 1.0) < 1e-12
    corr = correlations_from_marginals([table, uniform(SC)])
    assert list(corr.values) == [("a", "b")]


def test_correlations_leave_out_tables_the_cycle_check_does_not_hold_for():
    # a pair two tables cover, in either order; outcomes other than the
    # numbers +1 and -1; grouped keys.  pair_correlation refuses the last two
    assert correlations_from_marginals([anticorrelated(SA, SB), anticorrelated(SB, SA)]).values == {}
    words, bits = Variable("w", ("up", "down")), Variable("z", (0, 1))
    strings = MarginalTable((words, SC), {(w, c): 0.25 for w in words.outcomes for c in (1, -1)})
    zero_one = MarginalTable((bits, SC), {(z, c): 0.25 for z in bits.outcomes for c in (1, -1)})
    grouped = MarginalTable((SA, SB), {((1, -1), 1): 0.5, ((1, -1), -1): 0.5})
    assert correlations_from_marginals([strings, zero_one, grouped]).values == {}
    with pytest.raises(ValidationError, match="outcome 'up' is not numeric"):
        pair_correlation(strings)
    with pytest.raises(ValidationError, match="atomic"):
        pair_correlation(grouped)
    with pytest.raises(ValidationError, match="duplicate correlation pair"):
        CorrelationSet({("a", "b"): -1.0, ("b", "a"): 0.0})


def test_correlation_set_validation():
    with pytest.raises(ValidationError):
        CorrelationSet({("a", "b"): 1.5})
    with pytest.raises(ValidationError):
        CorrelationSet({("a", "a"): 0.0})


@pytest.mark.parametrize("key", ["ab", ("a", "b", "c"), 5, ("a", 1)],
                         ids=["string", "triple", "int", "non-string-name"])
def test_correlation_keys_must_be_pairs_of_distinct_names(key):
    with pytest.raises(ValidationError, match=f"correlation key {re.escape(repr(key))} must be a pair"):
        CorrelationSet({key: 0.5})


# ---------------------------------------------------------------------------
# a violated cycle inequality refutes an n-cycle before any LP
# ---------------------------------------------------------------------------

def _correlated(u, v, c):
    """The pair table of two +-1 variables with fair marginals and correlation ``c``."""
    return MarginalTable((u, v), {(s, t): (1 + s * t * c) / 4 for s in (1, -1) for t in (1, -1)})


def _cycle(correlations):
    """Fair pair tables around the cycle v0, v1, ..., with ``correlations[k]`` on (v_k, v_k+1)."""
    n = len(correlations)
    variables = tuple(Variable(f"v{k}", (1, -1)) for k in range(n))
    return JointSampleSpace(variables), [_correlated(variables[k], variables[(k + 1) % n], c)
                                         for k, c in enumerate(correlations)]


@st.composite
def cycle_systems(draw):
    """Pair tables around an n-cycle of +-1 variables, n = 3-7, in shuffled
    order: at random correlations near either end of their range around
    random single-variable means (``_cycle_system``), or the pair marginals
    of one random joint distribution, which is feasible."""
    n = draw(st.integers(3, 7))
    if draw(st.booleans()):
        space, tables = _cycle_system(draw(st.lists(st.floats(-0.2, 0.2), min_size=n, max_size=n)),
                                      draw(st.lists(_near_edge, min_size=n, max_size=n)))
    else:
        variables = tuple(Variable(f"v{k}", (1, -1)) for k in range(n))
        weights = draw(st.lists(st.integers(0, 4), min_size=2 ** n, max_size=2 ** n).filter(any))
        joint = np.array(weights, dtype=float).reshape((2,) * n) / sum(weights)
        tables = []
        for i, j in ((k, (k + 1) % n) for k in range(n)):
            pair = joint.sum(axis=tuple(k for k in range(n) if k not in (i, j)))
            pair = pair if i < j else pair.T  # the axes left by the sum are in variable order
            tables.append(MarginalTable((variables[i], variables[j]), {
                (s1, s2): float(pair[a, b]) for a, s1 in enumerate((1, -1)) for b, s2 in enumerate((1, -1))}))
        space = JointSampleSpace(variables)
    return space, draw(st.permutations(tables))


def _lp_status(space, tables, exact):
    """The status of the LP path alone: ``solve_lp`` on the row basis, read
    on every row, through ``_verdict``."""
    system = build_constraint_system(space, tables, exact)
    result = simplex.solve_lp(system.matrix[system.keep], system.rhs[system.keep], exact=exact)
    return _status(_or_numeric_error(_verdict, tables, system, _on_every_row(system, result, exact),
                                     DEFAULT_DELTA, exact))


def _assert_cycle_inequality(tables, certificate, exact):
    """``certificate`` is "sum_e P(edge e disagrees with g_e) >= 1" over pair
    tables of four keys each: 1 on two keys of each table with the same
    outcome product, the product that ``g_e`` excludes, for an odd number of
    ``g_e = -1``; -1 on the normalization row; 0 elsewhere."""
    assert all(isinstance(y, Fraction if exact else float) for y in certificate)
    assert certificate[-1] == -1 and len(certificate) == 4 * len(tables) + 1
    signs = []
    for t, table in enumerate(tables):
        marked = certificate[4 * t:4 * t + 4]
        assert sorted(marked) == [0, 0, 1, 1]
        [excluded] = {key[0][0] * key[1][0] for key, y in zip(table.values, marked) if y}
        signs.append(-excluded)
    assert signs.count(-1) % 2 == 1
    return signs


@pytest.mark.parametrize("exact", [False, True])
def test_a_cycle_refuted_by_its_inequality_has_the_lp_status(exact):
    """Away from the boundary of the cycle inequalities, the verdicts of
    ``find_unifying_probability`` and ``probe_uniqueness`` have the status of
    the LP path alone, and every refutation before the LP is a violated
    cycle inequality that ``band_test`` accepts."""
    refuted = set()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(cycle_systems())
    def check(system):
        space, tables = system
        if exact:
            try:
                tables = snap_tables(space, tables)
            except ValidationError:
                assume(False)
        correlations = correlations_from_marginals(tables)
        assert correlations.is_cycle and _table_rows(*_layout(space, tables), exact)[2] is not None
        assume(abs(cycle_check(correlations).max_value - (len(tables) - 2)) > 1e-8)
        status = _lp_status(space, tables, exact)
        step = unify._cycle_verdict(space, tables, DEFAULT_DELTA, exact)
        if cycle_check(correlations).max_value - (len(tables) - 2) > 1e-7:  # beyond the band
            assert step is not None  # the most violated inequality is found
        for solve in (find_unifying_probability, probe_uniqueness):
            verdict = _or_numeric_error(solve, space, tables, exact=exact)
            assert _status(verdict) == status
            if step is not None:
                assert verdict.farkas_certificate == step.farkas_certificate
        if step is not None:
            _assert_cycle_inequality(tables, step.farkas_certificate, exact)
            assert unify.refutes_marginals(space, tables, step.farkas_certificate, DEFAULT_DELTA, exact)
        refuted.add(step is not None)
        if not exact:
            with warnings.catch_warnings():  # a band over every marginal: nothing refuted, nothing overflows
                warnings.simplefilter("error")
                assert unify._cycle_verdict(space, tables, 1e308, exact) is None

    check()
    assert refuted == {True, False}


@pytest.mark.parametrize("correlations, signs", [
    ((0.9, 0.9, -0.9), [1, 1, -1]),  # sign(C) has an odd number of minus signs
    ((1.0, 0.5, 1.0), [1, -1, 1]),  # even: the edge of least |C| is flipped
    ((-0.9, -0.9, 0.3, 0.9), [-1, -1, -1, 1]),
    ((1.0, 1.0, 0.8, 1.0, 1.0), [1, 1, -1, 1, 1]),
])
@pytest.mark.parametrize("exact", [False, True])
def test_the_most_violated_cycle_inequality_is_the_certificate(monkeypatch, correlations, signs, exact):
    space, tables = _cycle([Fraction(c).limit_denominator(10) if exact else c for c in correlations])
    monkeypatch.setattr(unify, "solve_lp", None)  # any LP would fail
    verdict = find_unifying_probability(space, tables, exact=exact)
    assert verdict.status == "infeasible"
    assert _assert_cycle_inequality(tables, verdict.farkas_certificate, exact) == signs


FIVE_CYCLE = (0.9, 0.9, 0.9, 0.9, -0.9)  # 0.9 * 5 > 3: violated


def _zero_one(tables, variable):
    """``tables`` with ``variable`` relabelled from +1/-1 to 0/1."""
    bit = Variable(variable.name, (0, 1))
    swap = {1: 0, -1: 1}
    return bit, [MarginalTable(tuple(bit if v == variable else v for v in t.variables),
                               {tuple(swap[o] if v == variable else o for v, (o,) in zip(t.variables, key)): p
                                for key, p in t.values.items()}) for t in tables]


def _not_one_cycle(kind):
    """Tables that hold ``FIVE_CYCLE``'s violated inequality, or part of it,
    but whose pair tables form no single cycle."""
    space, tables = _cycle(FIVE_CYCLE)
    v = space.variables
    if kind == "K4":
        return JointSampleSpace(v[:4]), [_correlated(a, b, -0.9) for a, b in itertools.combinations(v[:4], 2)]
    if kind == "chord":
        return space, tables + [_correlated(v[0], v[2], 0.0)]
    if kind == "zero_one":
        bit, tables = _zero_one(tables, v[0])
        return JointSampleSpace((bit, *v[1:])), tables
    if kind == "grouped":
        return space, tables[1:] + [MarginalTable((v[0], v[1]), {((1, -1), 1): 0.5, ((1, -1), -1): 0.5})]
    assert kind == "twice"
    return space, tables + [MarginalTable((v[1], v[0]), {(t, s): p for ((s,), (t,)), p in tables[0].values.items()})]


@pytest.mark.parametrize("kind", ["K4", "chord", "zero_one", "grouped", "twice"])
@pytest.mark.parametrize("exact", [False, True])
def test_tables_that_are_not_one_cycle_of_pair_tables_reach_the_lp(monkeypatch, kind, exact):
    space, tables = _not_one_cycle(kind)
    if exact:
        tables = [t.as_exact() for t in tables]
    assert not correlations_from_marginals(tables).is_cycle
    assert _table_rows(*_layout(space, tables), exact)[2] is None
    solves = []
    monkeypatch.setattr(unify, "solve_lp", lambda *a, **k: solves.append(1) or simplex.solve_lp(*a, **k))
    verdict = find_unifying_probability(space, tables, exact=exact)
    assert solves and verdict.status == ("feasible" if kind == "grouped" else "infeasible")


def test_an_infeasible_16_cycle_is_refuted_without_an_lp_or_a_row_basis(monkeypatch):
    # 65,536 joint cells, where phase 1 on the row basis takes about a second
    def refuse(*args, **kwargs):
        raise AssertionError("the cycle inequality decides this system")

    space, tables = _cycle([0.9] * 15 + [-0.9])
    monkeypatch.setattr(unify, "solve_lp", refuse)
    monkeypatch.setattr(unify, "_constraint_rows", refuse)
    try:
        for solve in (find_unifying_probability, probe_uniqueness):
            verdict = solve(space, tables)
            assert verdict.status == "infeasible" and verdict.component_bounds is None
            _assert_cycle_inequality(tables, verdict.farkas_certificate, False)
            assert unify.refutes_marginals(space, tables, verdict.farkas_certificate)
    finally:
        _table_rows.cache_clear()  # a 65 x 65,536 matrix


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("exact", [False, True])
def test_every_unifier_lp_runs_through_solve_lp(monkeypatch, exact):
    """With ``unify.solve_lp`` refused, a verdict the cycle inequality
    decides (``leggett_garg``) is still the golden one, and one that needs
    an LP (``eprb``, probed for uniqueness) cannot be reached at all."""
    def refuse(*args, **kwargs):
        raise AssertionError("solve_lp is refused")

    monkeypatch.setattr(unify, "solve_lp", refuse)
    options = AnalysisOptions(exact=exact)
    report = json.loads(report_to_json(analyze(build_scenario("leggett_garg"), options)))
    golden = json.loads((GOLDEN / f"analyze_leggett_garg{'_exact' if exact else ''}.json").read_text())
    assert report["unification"]["verdict"] == golden["unification"]["verdict"]
    with pytest.raises(AssertionError, match="solve_lp is refused"):
        analyze(build_scenario("eprb"), options)


# ---------------------------------------------------------------------------
# quasi-probability classification
# ---------------------------------------------------------------------------

def test_nonnegative_quasi_probability_is_viable():
    space = JointSampleSpace((SA, SB))
    q = {(1, 1): 0.5, (1, -1): 0.0, (-1, 1): 0.0, (-1, -1): 0.5}
    result = classify_quasiprobability(space, q)
    assert result.viable
    # q itself (the full marginal) is among the constraints
    assert any(len(t.variables) == 2 for t in result.marginals_used)


def test_eprb_zx_quasi_probability_is_viable():
    space = JointSampleSpace(tuple(Variable(f"s{i}", (1, -1)) for i in (1, 2, 3, 4)))
    q = {cell: (1 - cell[0] * cell[2]) * (1 - cell[1] * cell[3]) / 16
         for cell in space.cells()}
    result = classify_quasiprobability(space, q)
    assert result.viable


def test_three_box_quasi_probability_is_not_viable():
    space = JointSampleSpace((BOX,))
    q = {("1",): 1.0, ("2",): 1.0, ("3",): -1.0}
    result = classify_quasiprobability(space, q)
    assert not result.viable
    assert result.verdict.status == "infeasible"
    used = [t.values for t in result.marginals_used]
    assert len(used) == 2  # the two non-negative two-block coarse-grainings


def test_three_box_quasi_classification_exact_mode():
    space = JointSampleSpace((BOX,))
    q = {("1",): 1, ("2",): 1, ("3",): -1}
    result = classify_quasiprobability(space, q, exact=True)
    assert not result.viable
    assert result.verdict.mode == "exact"
    assert all(isinstance(v, Fraction) for v in result.verdict.farkas_certificate)


def _combined_quasi_and_pair_tables(desc):
    """The ``combined`` set's quasi-probability over the joint cells, and the pair tables."""
    mapping = desc.set_named("combined").mapping
    order = [mapping.variables.index(v) for v in desc.space.variables]
    q = {tuple(label[i] for i in order): value
         for label, value in quasi_probabilities(desc.build("combined")).items()}
    tables = [extract_marginals(desc.build(s.name), s.mapping) for s in desc.sets if s.name != "combined"]
    return q, tables


@settings(max_examples=40, deadline=None)
@given(omega=st.floats(-4.0, 4.0), t1=st.floats(-3.0, 3.0), gap12=st.floats(0.01, 3.0),
       gap23=st.floats(0.01, 3.0))
def test_leggett_garg_quasi_verdict_is_the_unifier_verdict(omega, t1, gap12, gap23):
    desc = build_scenario("leggett_garg", {"omega": omega, "t1": t1, "t2": t1 + gap12,
                                           "t3": t1 + gap12 + gap23})
    q, tables = _combined_quasi_and_pair_tables(desc)
    assume(abs(cycle_check(correlations_from_marginals(tables)).max_value - 1.0) > 1e-6)
    quasi = classify_quasiprobability(desc.space, q)
    assert quasi.viable is find_unifying_probability(desc.space, tables).feasible
    if min(q.values()) < -1e-9:  # then exactly the pair tables are kept
        assert sorted(t.names for t in quasi.marginals_used) == sorted(t.names for t in tables)


def test_eprb_quasi_verdict_adds_the_same_particle_marginals():
    desc = build_scenario("eprb", {"theta1": 0.0, "theta2": math.radians(120),
                                   "theta3": math.radians(60), "theta4": math.radians(60)})
    q, tables = _combined_quasi_and_pair_tables(desc)
    assert find_unifying_probability(desc.space, tables).feasible
    quasi = classify_quasiprobability(desc.space, q)
    assert not quasi.viable
    same_particle = next(t for t in quasi.marginals_used if t.names == ("s1", "s2"))
    correlations = correlations_from_marginals([same_particle, *tables]).values
    c12, c13, c23 = (correlations[key] for key in (("s1", "s2"), ("s1", "s3"), ("s2", "s3")))
    assert abs(c12 - math.cos(math.radians(120))) < 1e-12  # a1.a2
    assert abs(c12 + c13 + c23 + 1.5) < 1e-12  # below -1, which no joint of s1, s2, s3 allows


def test_quasi_probability_must_sum_to_one():
    space = JointSampleSpace((SA,))
    with pytest.raises(ValidationError):
        classify_quasiprobability(space, {(1,): 0.7, (-1,): 0.7})


@pytest.mark.parametrize("q, message", [
    ({(1,): math.nan, (-1,): 1.0}, r"value nan for cell \(1,\) is not a finite number"),
    ({(1,): math.inf, (-1,): -math.inf}, r"value inf for cell \(1,\) is not a finite number"),
    ({(1,): 1.0, (-1,): -math.inf}, r"value -inf for cell \(-1,\) is not a finite number"),
    ({(1,): "0.5", (-1,): 0.5}, r"value '0.5' for cell \(1,\) is not a finite number"),
    ({(1,): Fraction(1, 2) + Fraction(1, 10**12), (-1,): Fraction(1, 2)},
     "quasi-probability must sum to 1 exactly, got 1000000000001/1000000000000"),
], ids=["nan", "inf", "minus-inf", "string", "exact-sum"])
def test_quasi_probability_values_are_checked_as_a_table_checks_them(q, message):
    # a NaN or an infinite cell made no table and came back viable over 0 marginals,
    # and an exact q off 1 was refused with a message about a marginal table
    space = JointSampleSpace((SA,))
    for exact in (False, True):
        with pytest.raises(ValidationError, match=message):
            classify_quasiprobability(space, q, exact=exact)


# ---------------------------------------------------------------------------
# the delta band against its LP: each marginal row doubled into +-delta rows
# ---------------------------------------------------------------------------

def _doubled_band_system(space, tables, delta):
    """Each key as two rows, a.x + s = b + delta and -a.x + s' = -(b - delta), s, s' >= 0;
    the normalization row keeps width 0, a hard equality."""
    narrow = build_constraint_system(space, tables)
    m, n = narrow.matrix.shape
    A = np.zeros((2 * m, n + 2 * m))
    A[0::2, :n] = narrow.matrix
    A[1::2, :n] = -narrow.matrix
    A[:, n:] = np.eye(2 * m)
    width = np.full(m, delta)
    width[-1] = 0.0
    b = np.empty(2 * m)
    b[0::2] = narrow.rhs + width
    b[1::2] = -(narrow.rhs - width)
    return A, b


@st.composite
def pairwise_systems(draw):
    """Pair tables over 3-5 dichotomic variables, with values on a coarse grid.

    Grid values have small denominators, so a system that is infeasible with
    exact equalities stays infeasible after widening every row by delta: no
    drawn system sits at the delta boundary.
    """
    n = draw(st.integers(3, 5))
    variables = tuple(Variable(f"v{k}", (1, -1)) for k in range(n))
    all_pairs = list(itertools.combinations(range(n), 2))
    tables = []
    if draw(st.booleans()):  # some pair marginals of one joint distribution: feasible
        pairs = draw(st.lists(st.sampled_from(all_pairs), min_size=1, unique=True))
        weights = draw(st.lists(st.integers(0, 4), min_size=2 ** n, max_size=2 ** n).filter(any))
        joint = np.array(weights, dtype=float).reshape((2,) * n) / sum(weights)
        for i, j in pairs:
            pair = joint.sum(axis=tuple(k for k in range(n) if k not in (i, j)))
            tables.append(MarginalTable((variables[i], variables[j]), {
                (s1, s2): float(pair[a, b]) for a, s1 in enumerate((1, -1))
                for b, s2 in enumerate((1, -1))}))
    else:  # every pair with its own correlation, in eighths: often infeasible
        for i, j in all_pairs:
            c = draw(st.sampled_from(range(-8, 9))) / 8
            tables.append(MarginalTable((variables[i], variables[j]), {
                (s1, s2): 0.25 * (1.0 + s1 * s2 * c) for s1 in (1, -1) for s2 in (1, -1)}))
    return JointSampleSpace(variables), tables


@st.composite
def leggett_garg_near_zero(draw):
    """The ``leggett_garg`` pair tables at the default times and omega in
    [1e-7, 0.1], log-uniform: nearly deterministic tables, where the width-0
    witness often misses the delta checks and the band LP decides."""
    desc = build_scenario("leggett_garg", {"omega": 10.0 ** draw(st.floats(-7.0, -1.0))})
    tables = [extract_marginals(desc.build(s.name), s.mapping)
              for s in desc.sets if s.name != "combined"]
    return desc.space, tables


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.one_of(pairwise_systems(), leggett_garg_near_zero()))
def test_bounded_bands_agree_with_doubled_rows(system):
    """The verdict is the delta band's: the doubled-row LP, solved on its
    own, gives the same status, and the verdict's witness passes
    ``verify_witness`` and its certificate ``band_test``."""
    space, tables = system
    verdict = find_unifying_probability(space, tables)
    A, b = _doubled_band_system(space, tables, DEFAULT_DELTA)
    doubled = solve_lp_float(A, b)
    assert verdict.feasible == (doubled.status == OPTIMAL)
    if verdict.feasible:
        verify_witness(space, tables, verdict.witness)
        verify_witness(space, tables, dict(zip(space.cells(), doubled.x[:space.size])))
    else:
        hard = build_constraint_system(space, tables)
        assert len(verdict.farkas_certificate) == hard.matrix.shape[0] == A.shape[0] // 2
        assert band_test(hard.matrix, verdict.farkas_certificate, DEFAULT_DELTA)(hard.rhs)
        assert verify_certificate(A, b, doubled.certificate)


# ---------------------------------------------------------------------------
# which joint cells a marginal key covers
# ---------------------------------------------------------------------------

@st.composite
def partitioned_tables(draw):
    """A space of 2-4 variables with 2-4 outcomes, a random joint over it and
    its marginal tables on variable subsets in shuffled order, each variable
    cut into random groups; the first table has at least two keys."""
    sizes = draw(st.lists(st.integers(2, 4), min_size=2, max_size=4))
    space = JointSampleSpace(tuple(Variable(f"v{k}", tuple(range(s))) for k, s in enumerate(sizes)))
    weights = draw(st.lists(st.integers(0, 4), min_size=space.size, max_size=space.size)
                   .filter(any))
    joint = {cell: Fraction(w, sum(weights)) for cell, w in zip(space.cells(), weights)}
    axis = {v.name: k for k, v in enumerate(space.variables)}
    tables = []
    for t in range(draw(st.integers(1, 3))):
        variables = draw(st.permutations(space.variables))[:draw(st.integers(1, len(sizes)))]
        groups = []
        for v in variables:
            labels = draw(st.lists(st.integers(0, 3), min_size=len(v.outcomes),
                                   max_size=len(v.outcomes)))
            if t == 0 and not groups and len(set(labels)) == 1:
                labels[0] += 1
            groups.append([tuple(o for o, lab in zip(v.outcomes, labels) if lab == g)
                           for g in sorted(set(labels))])
        values = {key: sum(p for cell, p in joint.items()
                           if all(cell[axis[v.name]] in g for v, g in zip(variables, key)))
                  for key in itertools.product(*groups)}
        tables.append(MarginalTable(tuple(variables), values))
    return space, joint, tables


@settings(max_examples=150, deadline=None, derandomize=True)
@given(partitioned_tables())
def test_cell_to_key_map_matches_membership(drawn):
    space, joint, tables = drawn
    cells = space.cells()
    axis = {v.name: k for k, v in enumerate(space.variables)}

    def covers(table, key, cell):
        return all(cell[axis[v.name]] in g for v, g in zip(table.variables, key))

    system = build_constraint_system(space, tables, exact=True)
    rows = iter(zip(system.matrix.tolist(), system.rhs.tolist()))
    for table in tables:
        for key, value in table.values.items():
            row, rhs = next(rows)
            assert row == [int(covers(table, key, c)) for c in cells]
            assert rhs == value
    assert next(rows) == ([1] * len(cells), 1)

    verify_witness(space, tables, joint, exact=True)
    verify_witness(space, tables, {c: float(p) for c, p in joint.items()})
    first = tables[0]
    source = next(c for c in cells if joint[c] > 0)
    key = next(k for k in first.values if covers(first, k, source))
    target = next(c for c in cells if not covers(first, key, c))
    moved = dict(joint)
    moved[target] += moved.pop(source)
    moved[source] = Fraction(0)
    with pytest.raises(NumericError, match="misses marginal key"):
        verify_witness(space, tables, moved, exact=True)
    with pytest.raises(NumericError, match="misses marginal key"):
        verify_witness(space, tables, {c: float(p) for c, p in moved.items()})


# ---------------------------------------------------------------------------
# layouts and cell-to-key maps, each decided once
# ---------------------------------------------------------------------------

def test_a_shared_layout_keeps_each_tables_own_outcomes():
    # these two variables compare and hash equal, so their tables share one
    # memoized layout; each table must still key by its own outcome objects
    ints = MarginalTable((Variable("v", (1, 0)),), {1: 0.25, 0: 0.75})
    bools = MarginalTable((Variable("v", (True, False)),), {True: 0.25, False: 0.75})
    assert table_layout(bools.variables, (True, False)) is table_layout(ints.variables, (1, 0))
    assert [type(o) for key in bools.values for group in key for o in group] == [bool, bool]
    assert [type(o) for key in ints.values for group in key for o in group] == [int, int]

    def encoded(table):
        return json.dumps([encode_value([list(g) for g in key]) for key in table.values])

    assert encoded(bools) == "[[[true]], [[false]]]"
    assert encoded(ints) == "[[[1]], [[0]]]"


def test_layouts_are_tuples_and_cell_keys_are_read_only():
    table = MarginalTable((BOX,), {(("2", "3"),): 0.5, ("1",): 0.5})
    partitions, order = table_layout(table.variables, ((("2", "3"),), ("1",)))
    assert partitions == table.partitions == (((0,), (1, 2)),) and order == (1, 0)
    assert all(type(x) is tuple for x in (partitions, order, *partitions, *partitions[0]))
    space = JointSampleSpace((SA, BOX))
    keys = _cell_keys(space, table.variables, table.partitions)
    assert keys.tolist() == [0, 1, 1] * 2
    assert not keys.flags.writeable
    with pytest.raises(ValueError):
        keys[0] = 1


def test_a_float_eprb_analysis_decides_each_layout_and_cell_key_map_once(monkeypatch):
    for memo in (table_layout, _table_rows, _constraint_rows):
        memo.cache_clear()
    calls = []
    monkeypatch.setattr(unify, "_cell_keys", lambda *args: calls.append(args) or _cell_keys(*args))
    report = analyze(build_scenario("eprb"))
    n_tables = len(report["unification"]["marginals"])
    assert n_tables == 4 and report["unification"]["verdict"]["status"] == "feasible"
    layouts = table_layout.cache_info()
    assert (layouts.misses, layouts.hits) == (n_tables, 0)
    # each table's map is built once, into the layout's cell-to-row map, which
    # serves the constraint matrix, the witness check and the uniqueness
    # prover's caps (the key value covering each cell)
    assert len(calls) == n_tables
    # one checked map and matrix, and one row basis, for the one constraint system
    assert _table_rows.cache_info().misses == _constraint_rows.cache_info().misses == 1


def test_distinct_sample_spaces_leave_no_per_cell_arrays_behind():
    # only the bounded layout memos may keep per-cell arrays: a (cells x
    # variables) index array kept per space would grow this loop by 40 MB
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(100):
            variables = tuple(Variable(f"v{i}_{k}", (0, 1)) for k in range(12))
            space = JointSampleSpace(variables)
            verify_witness(space, [MarginalTable(variables[:1], {(0,): 0.5, (1,): 0.5})],
                           dict.fromkeys(space.cells(), 1 / space.size))
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 16 * 2**20


@pytest.mark.parametrize("table, message", [
    (MarginalTable((SA, SC), {(1, 1): 0.5, (1, -1): 0.0, (-1, 1): 0.0, (-1, -1): 0.5}),
     "marginal 1 uses unknown variable 'c'"),
    (MarginalTable((Variable("b", (-1, 1)),), {(-1,): 0.5, (1,): 0.5}),
     "marginal 1 disagrees with the sample space about the alphabet of 'b'"),
])
def test_a_table_off_the_sample_space_is_refused_on_every_call(table, message):
    # the space check lives in the layout memo, which caches no failure
    space = JointSampleSpace((SA, SB))
    tables = [uniform(SA), table]
    witness = dict.fromkeys(space.cells(), 0.25)
    for _ in range(2):
        for check in (find_unifying_probability, probe_uniqueness):
            with pytest.raises(ValidationError) as refused:
                check(space, tables)
            assert str(refused.value) == message
        with pytest.raises(ValidationError) as refused:
            verify_witness(space, tables, witness)
        assert str(refused.value) == message


@pytest.mark.parametrize("golden", ["analyze_eprb.json", "analyze_eprb_exact.json"])
def test_verifying_a_feasible_report_decides_no_row_basis(golden):
    report = json.loads((Path(__file__).parent / "golden" / golden).read_text())
    assert report["unification"]["verdict"]["status"] == "feasible"
    _table_rows.cache_clear()
    _constraint_rows.cache_clear()
    reverify(report)
    assert _table_rows.cache_info().misses == 1
    assert _constraint_rows.cache_info().misses == 0


@pytest.mark.parametrize("golden", ["analyze_three_box.json", "analyze_three_box_exact.json",
                                    "analyze_leggett_garg.json", "analyze_leggett_garg_exact.json"])
def test_verifying_an_infeasible_report_decides_no_row_basis(golden):
    report = json.loads((Path(__file__).parent / "golden" / golden).read_text())
    assert report["unification"]["verdict"]["status"] == "infeasible"
    _table_rows.cache_clear()
    _constraint_rows.cache_clear()
    reverify(report)
    assert _table_rows.cache_info().misses == 1
    assert _constraint_rows.cache_info().misses == 0


# ---------------------------------------------------------------------------
# the row basis the LP solves on, and its dependencies
# ---------------------------------------------------------------------------

@st.composite
def table_layouts(draw):
    """A space of 2-4 variables with 2 or 3 outcomes and the layouts of 1-3
    tables over random variable subsets plus one table over every variable,
    each variable cut into random groups (coarse groups such as
    ``three_box``'s "box 2 or 3"), in shuffled order with up to two tables
    repeated."""
    sizes = draw(st.lists(st.integers(2, 3), min_size=2, max_size=4))
    space = JointSampleSpace(tuple(Variable(f"v{k}", tuple(range(s))) for k, s in enumerate(sizes)))

    def layout(variables):
        groups = []
        for v in variables:
            labels = draw(st.lists(st.integers(0, 2), min_size=len(v.outcomes), max_size=len(v.outcomes)))
            groups.append([tuple(o for o, lab in zip(v.outcomes, labels) if lab == g)
                           for g in sorted(set(labels))])
        return variables, table_layout(variables, tuple(itertools.product(*groups)))[0]

    tables = [layout(tuple(draw(st.permutations(space.variables))[:draw(st.integers(1, len(sizes)))]))
              for _ in range(draw(st.integers(1, 3)))]
    tables.append(layout(space.variables))
    tables += draw(st.lists(st.sampled_from(tables), max_size=2))
    return space, tuple(draw(st.permutations(tables)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(table_layouts())
def test_the_row_basis_and_its_dependencies_are_exact(drawn):
    space, layout = drawn
    key = _interned(space), tuple(map(_interned, layout))  # what ``_layout`` gives for such tables
    keep, dependencies, scales = _constraint_rows(*key)
    matrix = _table_rows(*key, False)[0]
    rows = matrix.astype(np.int64)
    assert set(np.unique(matrix)) <= {0.0, 1.0} and (rows[-1] == 1).all()
    assert len(keep) == np.linalg.matrix_rank(matrix) == np.linalg.matrix_rank(matrix[keep])
    assert list(keep) == sorted(keep)
    dropped = sorted(set(range(len(rows))) - set(keep.tolist()))
    assert dependencies.dtype == np.int64 and dependencies.shape == (len(dropped), len(rows))
    assert not (dependencies @ rows).any()
    for y, r in zip(dependencies.tolist(), dropped):
        assert y[r] > 0 and not any(y[d] for d in dropped if d != r) and math.gcd(*y) == 1
    assert scales == tuple(max(map(abs, y)) for y in dependencies.tolist())
    assert _constraint_rows(*key)[0] is keep and _constraint_rows(*key)[1] is dependencies
    assert not (matrix.flags.writeable or keep.flags.writeable or dependencies.flags.writeable)


def _per_table_witness_check(space, marginals, values, delta, exact):
    """The witness check as it was written before the cell-to-row map: one
    ``np.add.at`` and one comparison loop per table."""
    values = np.asarray(values, dtype=object if exact else float)
    floor, slop = (0, 0) if exact else (-1e-12, delta + 1e-12)
    below = np.logical_not(values >= floor)
    if below.any():
        raise NumericError(f"witness has a negative or undefined cell ({values[below][0]})")
    for table in marginals:
        got = np.zeros(len(table.values), dtype=values.dtype)
        np.add.at(got, _cell_keys(space, table.variables, table.partitions), values)
        miss = np.abs(got - np.array(list(table.values.values()), dtype=values.dtype))
        for key, off in zip(table.values, miss):
            if not off <= slop:
                raise NumericError(f"witness misses marginal key {key!r} by {off}")
    if not abs(values.sum() - 1) <= (0 if exact else 1e-12):
        raise NumericError(f"witness sums to {values.sum()}, not 1")


def _raised(check, *args):
    try:
        check(*args)
    except NumericError as exc:
        return str(exc)
    return None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(table_layouts(), st.booleans(), st.data())
def test_the_stacked_witness_check_matches_a_per_table_loop(drawn, exact, data):
    """Tables summed from a joint over ``table_layouts``, and a witness that
    is that joint with up to two moves of mass: the check through
    ``cell_rows`` raises exactly when the per-table loop does, with the same
    message."""
    space, layout = drawn
    weights = data.draw(st.lists(st.integers(0, 9), min_size=space.size, max_size=space.size))
    assume(sum(weights))
    if exact:
        joint = np.array([Fraction(w, sum(weights)) for w in weights], dtype=object)
        moves = st.sampled_from([Fraction(1, 10**9), Fraction(-1, 10**9), Fraction(1, 7)])
    else:
        joint = np.array(weights, dtype=float) / sum(weights)
        moves = st.sampled_from([1e-13, -1e-13, 5e-10, -2e-9, 1e-3, -0.05])
    tables = []
    for variables, partitions in layout:
        got = np.zeros(math.prod(map(len, partitions)), dtype=joint.dtype)
        np.add.at(got, _cell_keys(space, variables, partitions), joint)
        keys = itertools.product(*(tuple(tuple(v.outcomes[i] for i in g) for g in groups)
                                   for v, groups in zip(variables, partitions)))
        tables.append(MarginalTable(variables, dict(zip(keys, got.tolist()))))
    witness = joint.copy()
    cells = st.integers(0, space.size - 1)
    # move mass to cell a, from cell b when there is one (the sum stays 1)
    for a, b, move in data.draw(st.lists(st.tuples(cells, st.none() | cells, moves), max_size=2)):
        witness[a] += move
        if b is not None:
            witness[b] -= move
    delta = 0 if exact else data.draw(st.sampled_from([0.0, DEFAULT_DELTA, 1e-3]))
    system = build_constraint_system(space, tables, exact)
    expected = _raised(_per_table_witness_check, space, tables, witness, delta, exact)
    assert _raised(_verify_witness, system.cell_rows, tables, system.rhs, witness, delta, exact) == expected


@st.composite
def eprb_points(draw):
    """The consistent pair tables of ``eprb`` at four angles in [0, 2 pi)."""
    desc = build_scenario("eprb", {f"theta{k}": draw(st.floats(0.0, 2 * math.pi, exclude_max=True))
                                   for k in range(1, 5)})
    return desc.space, [extract_marginals(desc.build(s.name), s.mapping) for s in desc.sets
                        if s.mapping is not None and classify(desc.build(s.name)).consistent]


def _full_row_verdicts(space, tables, exact):
    """``find_unifying_probability`` and ``probe_uniqueness`` as they ran
    before the row basis, with phase 1 on every row of the constraint
    system; each is a verdict or ``NumericError``.  Also returns whether the
    width-0 evidence of the probe's phase 1 passed its band checks."""
    system = build_constraint_system(space, tables, exact)
    result = simplex.solve_lp(system.matrix, system.rhs, exact=exact)
    try:
        found = _verdict(tables, system, result, DEFAULT_DELTA, exact)
    except NumericError:
        found = NumericError
    try:
        probed, passed = _checked_verdict(tables, system, result, DEFAULT_DELTA, exact), True
    except NumericError:
        passed = False
        try:
            probed = _verdict(tables, system, result, DEFAULT_DELTA, exact)
        except NumericError:
            return found, NumericError, passed
    if probed.feasible and result.status == OPTIMAL:
        bounds = _bounds(system.cell_rows, tables, result.start, result.x)
        probed.unique = all(hi - lo <= (0 if exact else TABLE_TOL) for lo, hi in bounds)
        probed.component_bounds = dict(zip(system.cells, bounds))
    return found, probed, passed


def _or_numeric_error(solve, *args, **kwargs):
    try:
        return solve(*args, **kwargs)
    except NumericError:
        return NumericError


def _status(verdict):
    return verdict if verdict is NumericError else verdict.status


@pytest.mark.parametrize("exact", [False, True])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(pairwise_systems(), eprb_points(), leggett_garg_near_zero()))
def test_the_row_basis_gives_the_full_row_verdicts(exact, system):
    """Solving on the row basis gives the status that phase 1 on every row
    gave, in both modes; exact bounds and ``unique`` are equal, and float
    ``unique`` is equal wherever the full-row evidence passed its checks."""
    space, tables = system
    if exact:
        try:
            tables = [t.as_exact() for t in tables]
        except ValidationError:
            assume(False)
    found, probed, passed = _full_row_verdicts(space, tables, exact)
    verdict = _or_numeric_error(find_unifying_probability, space, tables, exact=exact)
    assert _status(verdict) == _status(found)
    verdict = _or_numeric_error(probe_uniqueness, space, tables, exact=exact)
    assert _status(verdict) == _status(probed)
    if verdict is NumericError:
        return
    if exact:
        assert (verdict.unique, verdict.component_bounds) == (probed.unique, probed.component_bounds)
    elif passed:
        assert verdict.unique == probed.unique


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(pairwise_systems(), eprb_points()))
def test_the_band_width_moves_neither_unique_nor_the_bounds(system):
    """The bounds are taken over the width-0 system, so a float verdict that
    sets them sets the same ``unique`` and ``component_bounds`` at every band
    width; a wider band only admits more evidence."""
    space, tables = system
    verdicts = [_or_numeric_error(probe_uniqueness, space, tables, delta=delta)
                for delta in (1e-9, 0.25, 0.75)]
    bounded = [(v.unique, v.component_bounds) for v in verdicts
               if v is not NumericError and v.component_bounds is not None]
    assert bounded[1:] == bounded[:1] * (len(bounded) - 1)
    if verdicts[0] is not NumericError and verdicts[0].component_bounds is not None:
        assert len(bounded) == len(verdicts)


def _is_negative_zero(value) -> bool:
    return value == 0 and math.copysign(1.0, value) < 0


def test_the_folded_band_certificate_has_no_negative_zero(monkeypatch):
    """Uniform (v0, v1) tables against single-variable tables 3e-9 off: the
    width-0 certificate does not refute the band, so the band LP decides, and
    its certificate folds back onto the width-0 rows."""
    v0, v1 = Variable("v0", (0, 1)), Variable("v1", (0, 1))
    space = JointSampleSpace((v0, v1))
    tables = [MarginalTable((v0, v1), dict.fromkeys(itertools.product((0, 1), repeat=2), 0.25)),
              MarginalTable((v0,), {(0,): 0.5 + 3e-9, (1,): 0.5 - 3e-9}),
              MarginalTable((v1,), {(0,): 0.5 - 3e-9, (1,): 0.5 + 3e-9})]
    tolerances = []

    def solve_lp(*args, **kwargs):
        tolerances.append(kwargs.get("feas_tol"))
        return simplex.solve_lp(*args, **kwargs)

    monkeypatch.setattr(unify, "solve_lp", solve_lp)
    verdict = find_unifying_probability(space, tables)
    assert verdict.status == "infeasible" and tolerances == [None, unify.EVIDENCE_TOL]
    certificate = verdict.farkas_certificate
    assert certificate == [0.0, 1.0, -1.0, 0.0, -1.0, 0.0, 0.0, -1.0, 1.0]
    assert not any(_is_negative_zero(y) for y in certificate)
    system = build_constraint_system(space, tables)
    assert band_test(system.matrix, certificate, DEFAULT_DELTA)(system.rhs)


@pytest.mark.parametrize("shift", [1e-6, -1e-6])
def test_a_dependency_certificate_has_no_negative_zero(shift):
    # the (x) table misses the (x, b) table's marginal of x most at x = 0, by
    # -2 * shift: the LP on the row basis is feasible, and that dependency,
    # signed by the residual, refutes the rest
    x = Variable("x", (0, 1, 2))
    tables = [MarginalTable((x,), {(0,): 1 / 3 + 2 * shift, (1,): 1 / 3 - shift, (2,): 1 / 3 - shift}),
              MarginalTable((x, SB), dict.fromkeys(itertools.product((0, 1, 2), (1, -1)), 1 / 6))]
    space = JointSampleSpace((x, SB))
    system = build_constraint_system(space, tables)
    assert simplex.solve_lp(system.matrix[system.keep], system.rhs[system.keep]).status == OPTIMAL
    certificate = find_unifying_probability(space, tables).farkas_certificate
    sign = math.copysign(1.0, shift)
    assert certificate[:5] == [-sign, 0.0, 0.0, sign, sign] and not any(certificate[5:])
    assert not any(_is_negative_zero(y) for y in certificate)
    assert band_test(system.matrix, certificate, DEFAULT_DELTA)(system.rhs)


# ---------------------------------------------------------------------------
# exact mode: one snap per system
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None, derandomize=True)
@given(table_layouts(), st.integers(0, 2**32 - 1))
def test_snapped_tables_of_a_joint_with_zeros_are_exactly_consistent(drawn, seed):
    """Tables summed from a float joint in which about 30% of the cells are
    0 snap onto rationals within 1e-12 of their floats that every
    dependency of the rows holds exactly, so exact mode finds them feasible."""
    space, layout = drawn
    rng = np.random.default_rng(seed)
    joint = rng.random(space.size) * (rng.random(space.size) >= 0.3)
    assume(joint.sum() > 0)
    joint /= joint.sum()
    tables = []
    for variables, partitions in layout:
        got = np.zeros(math.prod(map(len, partitions)))
        np.add.at(got, _cell_keys(space, variables, partitions), joint)
        keys = itertools.product(*(tuple(tuple(v.outcomes[i] for i in g) for g in groups)
                                   for v, groups in zip(variables, partitions)))
        tables.append(MarginalTable(variables, dict(zip(keys, got.tolist()))))
    snapped = snap_tables(space, tables)
    rhs = build_constraint_system(space, snapped, exact=True).rhs
    assert not (_constraint_rows(*_layout(space, tables))[1].astype(object) @ rhs).any()
    for table, exact in zip(tables, snapped):
        assert exact.is_exact and list(exact.values) == list(table.values)
        for value, float_value in zip(exact.values.values(), table.values.values()):
            assert value >= 0 and abs(float(value) - float_value) <= 1e-12
    assert find_unifying_probability(space, snapped, exact=True).feasible


def test_tables_that_disagree_beyond_float_noise_snap_one_by_one():
    tables = [MarginalTable((SA,), {(1,): 0.3, (-1,): 0.7}), MarginalTable((SA,), {(1,): 0.7, (-1,): 0.3})]
    space = JointSampleSpace((SA,))
    exact = [t.as_exact() for t in tables]
    assert snap_tables(space, tables) == exact
    assert snap_tables(space, [MarginalTable((SA,), {(1,): Fraction(1, 3), (-1,): Fraction(2, 3)})]) \
        == [MarginalTable((SA,), {(1,): Fraction(1, 3), (-1,): Fraction(2, 3)})]  # exact tables stay
    assert find_unifying_probability(space, snap_tables(space, tables), exact=True).status == "infeasible"


def test_a_derived_row_below_0_joins_the_zero_rows():
    # zero first, the rows are ordered -9e-10, 1 + 3e-10, 1.5e-9: the last, derived as
    # 1 - (1 + 3e-10) - 0, comes out below 0, so it is snapped to 0 and the first key derived
    table = MarginalTable((BOX,), {("1",): 1 + 3e-10, ("2",): -9e-10, ("3",): 1.5e-9})
    (snapped,) = snap_tables(JointSampleSpace((BOX,)), [table])
    assert list(snapped.values.values()) == [1, 0, 0]
    assert all(type(v) is Fraction for v in snapped.values.values())


def _accepted(variables, values) -> MarginalTable:
    keys = itertools.product(*(v.outcomes for v in variables))
    return MarginalTable(variables, dict(zip(keys, values.tolist())))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_every_accepted_float_table_snaps_to_a_valid_exact_table(n, seed):
    """A table ``MarginalTable`` accepts, with cells within ``TABLE_TOL`` of 0
    (negative ones too) and a sum defect within ``TABLE_TOL``, snaps alone
    and with ``as_exact``, each value within ``(n + 2) * TABLE_TOL``."""
    rng = np.random.default_rng(seed)
    variable = Variable("v", tuple(range(n)))
    near = rng.random(n) < 0.4
    assume(not near.all())
    values = rng.random(n)
    values[near] = rng.uniform(-TABLE_TOL, TABLE_TOL, near.sum())
    values[~near] *= (1 + rng.uniform(-TABLE_TOL, TABLE_TOL) - values[near].sum()) / values[~near].sum()
    table = _accepted((variable,), values)
    for snapped in (table.as_exact(), *snap_tables(JointSampleSpace((variable,)), [table])):
        assert snapped.is_exact and list(snapped.values) == list(table.values)
        assert sum(snapped.values.values()) == 1 and min(snapped.values.values()) >= 0
    for key, value in table.as_exact().values.items():
        assert abs(float(value) - table.values[key]) <= (n + 2) * TABLE_TOL


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_pair_tables_snap_together_unless_they_disagree_beyond_the_slack(seed, apart):
    """(a, b) and (b, c) tables of one float joint with zero and near-zero
    cells, each value moved by up to ``TABLE_TOL / 16`` (so every dependency
    ``y`` keeps ``|y.b| <= TABLE_TOL * max|y|``), snap to valid exact tables
    that agree exactly.  Moving ``d`` in [20, 10**6] ``TABLE_TOL`` of the
    (b, c) table across ``b`` breaks the agreement on ``b`` by more than
    snapping one table at a time (``as_exact``) can move it, so exact mode
    refutes the snapped tables with a verified certificate."""
    rng = np.random.default_rng(seed)
    space = JointSampleSpace((SA, SB, SC))
    joint = rng.random(8) * (rng.random(8) >= 0.3)
    tiny = rng.random(8) < 0.2
    joint[tiny] = rng.uniform(0, 4 * TABLE_TOL, tiny.sum())
    assume(joint.sum() > 0.5)
    joint = (joint / joint.sum()).reshape(2, 2, 2)
    ab, bc = (values.ravel() + rng.uniform(-TABLE_TOL / 16, TABLE_TOL / 16, 4)
              for values in (joint.sum(axis=2), joint.sum(axis=0)))
    if apart:
        k = int(bc.argmax())  # keys (b, c) in row-major order: k ^ 2 has the other b
        d = min(bc[k], TABLE_TOL * 10 ** rng.uniform(math.log10(20), 6))
        assume(d >= 20 * TABLE_TOL)
        bc[k] -= d
        bc[k ^ 2] += d
    tables = [_accepted((SA, SB), ab), _accepted((SB, SC), bc)]
    snapped = snap_tables(space, tables)
    for table, exact in zip(tables, snapped):
        assert exact.is_exact and list(exact.values) == list(table.values)
        assert sum(exact.values.values()) == 1 and min(exact.values.values()) >= 0
    rhs = build_constraint_system(space, snapped, exact=True).rhs
    agree = not (_constraint_rows(*_layout(space, tables))[1].astype(object) @ rhs).any()
    assert agree is not apart
    if apart:
        verdict = find_unifying_probability(space, snapped, exact=True)
        assert verdict.status == "infeasible"
        assert unify.refutes_marginals(space, snapped, verdict.farkas_certificate, exact=True)
