import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from histories_lab import _kernels, simplex
from histories_lab.classicality import classify
from histories_lab.errors import InconsistentSetError, NumericError, ValidationError
from histories_lab.histories import HistorySchedule, Slot, history_set
from histories_lab.operators import DensityOperator, Projector, ket, projector_onto
from histories_lab.scenarios import build_scenario
from histories_lab.simplex import OPTIMAL, solve_lp_exact, solve_lp_float, verify_certificate
from histories_lab.unify import (
    DEFAULT_DELTA,
    CorrelationSet,
    JointSampleSpace,
    MarginalTable,
    Variable,
    VariableMapping,
    build_constraint_system,
    classify_quasiprobability,
    correlations_from_marginals,
    cycle_check,
    extract_marginals,
    find_unifying_probability,
    pair_correlation,
    probe_uniqueness,
    product_unify,
    verify_witness,
)
from histories_lab.unify import _verify_witness

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
    witness = {(1,): Fraction(1, 2), (-1,): Fraction(1, 2)}
    witness[cell] = math.nan
    with pytest.raises(NumericError, match="negative or undefined cell"), np.errstate(invalid="ignore"):
        _verify_witness(JointSampleSpace((SA,)), [table], witness, DEFAULT_DELTA, exact)


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
    # 1e-11 from its best fraction with denominator <= SNAP_MAX_DENOMINATOR
    noisy = MarginalTable((SA,), {(1,): 1 / 3 + 1e-11, (-1,): 2 / 3})
    with pytest.raises(ValidationError, match="is not rational within"):
        noisy.as_exact()
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
    product = product_unify([ma, mb])
    assert abs(product.values[((1,), (1,))] - 1.0) < 1e-12


def test_product_unify_rejects_overlapping_variables():
    with pytest.raises(ValidationError):
        product_unify([uniform(SA), uniform(SA)])


def test_product_unify_three_tables_normalized():
    product = product_unify([uniform(SA), uniform(SB), uniform(SC)])
    assert abs(sum(product.values.values()) - 1.0) < 1e-12
    assert len(product.values) == 8


def test_three_box_unification_is_infeasible_with_certificate():
    space = JointSampleSpace((BOX,))
    m1 = MarginalTable((BOX,), {("1",): 1.0, (("2", "3"),): 0.0})
    m2 = MarginalTable((BOX,), {("2",): 1.0, (("1", "3"),): 0.0})
    verdict = find_unifying_probability(space, [m1, m2])
    assert verdict.status == "infeasible"
    system = build_constraint_system(space, [m1, m2], verdict.delta)
    assert verify_certificate(system.matrix, system.rhs, verdict.farkas_certificate,
                              system.upper)

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


def _exact_tables(scenario):
    """The exact marginal tables ``analyze --exact`` unifies for a built-in scenario."""
    descriptor = build_scenario(scenario)
    tables = [extract_marginals(descriptor.build(s.name), s.mapping).as_exact()
              for s in descriptor.sets
              if s.mapping is not None and classify(descriptor.build(s.name)).consistent]
    return descriptor.space, tables


@pytest.mark.parametrize("scenario", ["eprb", "griffiths_spin"])
def test_exact_probe_bounds_match_independent_solves(scenario):
    space, tables = _exact_tables(scenario)
    verdict = probe_uniqueness(space, tables, exact=True)
    system = build_constraint_system(space, tables, exact=True)
    n = system.matrix.shape[1]
    assert list(verdict.component_bounds) == system.cells
    for k, cell in enumerate(system.cells):
        unit = [Fraction(int(j == k)) for j in range(n)]
        low = solve_lp_exact(system.matrix, system.rhs, unit)
        high = solve_lp_exact(system.matrix, system.rhs, [-v for v in unit])
        assert verdict.component_bounds[cell] == (low.objective, -high.objective)


def test_exact_eprb_probes_share_one_phase_one(monkeypatch):
    """Pinned work: one phase 1 for the feasibility solve and all 32 probes.

    Redoing phase 1 per probe took 65 loop calls and 407 pivots on this case.
    """
    space, tables = _exact_tables("eprb")
    calls, pivots = [], []

    def counting(*args, **kwargs):
        code, n_pivots, n_flips = _kernels.simplex_loop(*args, **kwargs)
        calls.append(code)
        pivots.append(n_pivots)
        return code, n_pivots, n_flips

    monkeypatch.setattr(simplex, "simplex_loop", counting)
    verdict = probe_uniqueness(space, tables, exact=True)
    assert verdict.feasible and verdict.unique and space.size == 16
    assert len(calls) <= 34
    assert sum(pivots) <= 70


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


def test_quasi_probability_must_sum_to_one():
    space = JointSampleSpace((SA,))
    with pytest.raises(ValidationError):
        classify_quasiprobability(space, {(1,): 0.7, (-1,): 0.7})


# ---------------------------------------------------------------------------
# bounded-slack bands against the doubled +-delta rows
# ---------------------------------------------------------------------------

def _doubled_band_system(space, tables, delta):
    """Each key as two rows, a.x + s = b + delta and -a.x + s' = -(b - delta), s, s' >= 0."""
    narrow = build_constraint_system(space, tables, 0.0)
    m, n = narrow.matrix.shape
    A = np.zeros((2 * m, n + 2 * m))
    A[0::2, :n] = narrow.matrix
    A[1::2, :n] = -narrow.matrix
    A[:, n:] = np.eye(2 * m)
    b = np.empty(2 * m)
    b[0::2] = narrow.rhs + delta
    b[1::2] = -(narrow.rhs - delta)
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


@settings(max_examples=80, deadline=None, derandomize=True)
@given(pairwise_systems())
def test_bounded_bands_agree_with_doubled_rows(system):
    space, tables = system
    verdict = find_unifying_probability(space, tables)
    A, b = _doubled_band_system(space, tables, DEFAULT_DELTA)
    doubled = solve_lp_float(A, b)
    assert verdict.feasible == (doubled.status == OPTIMAL)
    if verdict.feasible:
        verify_witness(space, tables, verdict.witness)
        verify_witness(space, tables, dict(zip(space.cells(), doubled.x[:space.size])))
    else:
        bounded = build_constraint_system(space, tables)
        assert len(verdict.farkas_certificate) == bounded.matrix.shape[0] == A.shape[0] // 2
        assert verify_certificate(bounded.matrix, bounded.rhs, verdict.farkas_certificate,
                                  bounded.upper)
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
