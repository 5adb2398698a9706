import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from histories_lab import simplex
from histories_lab._kernels import LOOP_OPTIMAL, IntTableau, active_backend, simplex_loop
from histories_lab.errors import NumericError, ValidationError
from histories_lab.simplex import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    FeasibleStart,
    LPResult,
    solve_lp,
    solve_lp_exact,
    solve_lp_float,
    verify_certificate,
)
from histories_lab.unify import (
    SNAP_MAX_DENOMINATOR,
    JointSampleSpace,
    MarginalTable,
    Variable,
    build_constraint_system,
)

import float_simplex
import fraction_simplex


def test_feasible_point_found():
    result = solve_lp_float([[1, 1], [1, -1]], [1, 0])
    assert result.status == OPTIMAL
    np.testing.assert_allclose(result.x, [0.5, 0.5], atol=1e-12)


def test_exact_feasible_point():
    result = solve_lp_exact([[1, 1], [1, -1]], [1, 0])
    assert result.status == OPTIMAL
    assert result.x == [Fraction(1, 2), Fraction(1, 2)]


def test_infeasible_has_verifying_certificate():
    A, b = [[1, 1], [1, 1]], [1, 2]
    for result in (solve_lp_float(A, b), solve_lp_exact(A, b)):
        assert result.status == INFEASIBLE
        assert verify_certificate(A, b, result.certificate)


def test_infeasibility_through_sign_constraint():
    # x1 - x2 = -1 and x1 + x2 = 0 force x = 0, contradiction
    A, b = [[1, -1], [1, 1]], [-1, 0]
    result = solve_lp_exact(A, b)
    assert result.status == INFEASIBLE
    assert verify_certificate(A, b, result.certificate)


def test_minimization():
    result = solve_lp_float([[1, 1]], [1], [-1.0, 0.0])
    assert result.status == OPTIMAL
    np.testing.assert_allclose(result.x, [1.0, 0.0], atol=1e-12)
    assert abs(result.objective + 1.0) < 1e-12
    exact = solve_lp_exact([[1, 1]], [1], [-1, 0])
    assert exact.objective == Fraction(-1)


def test_unbounded_detected():
    assert solve_lp_float([[1, -1]], [0], [-1.0, 0.0]).status == UNBOUNDED
    assert solve_lp_exact([[1, -1]], [0], [-1, 0]).status == UNBOUNDED


def test_redundant_rows_are_dropped():
    result = solve_lp_float([[1, 1], [1, 1], [2, 2]], [1, 1, 2], [1.0, 0.0])
    assert result.status == OPTIMAL
    assert abs(result.objective) < 1e-12
    exact = solve_lp_exact([[1, 1], [1, 1], [2, 2]], [1, 1, 2], [1, 0])
    assert exact.status == OPTIMAL
    assert exact.x == [Fraction(0), Fraction(1)]
    assert exact.objective == 0


@pytest.mark.parametrize("exact", [False, True])
def test_an_lp_without_columns(exact):
    # no column can enter, so the loop stops at once on an empty cost row
    A = np.zeros((1, 0))
    result = solve_lp(A, [0], exact=exact)
    assert (result.status, list(result.x), result.objective, result.pivots) == (OPTIMAL, [], 0, 0)
    for b in ([1], [-1]):
        result = solve_lp(A, b, exact=exact)
        assert result.status == INFEASIBLE and verify_certificate(A, b, result.certificate)


def test_shape_validation():
    with pytest.raises(ValidationError):
        solve_lp_float([[1, 1]], [1, 2])
    with pytest.raises(ValidationError):
        solve_lp_float([[1, 1]], [1], [1.0])
    with pytest.raises(ValidationError):
        solve_lp_exact([[1, 1]], [1], c=[0.5, 0])  # non-integral float in exact mode


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_lp_entries_are_refused(exact, bad):
    # a NaN reduced cost would end the loop as "optimal", and an inf column
    # gives a point that solves nothing
    for A, b, c in (([[1.0]], [bad], None), ([[1.0, bad]], [1.0], None), ([[1.0]], [1.0], [bad])):
        with pytest.raises(ValidationError):
            solve_lp(A, b, c, exact=exact)
        if c is not None:
            with pytest.raises(ValidationError):
                solve_lp(A, b, exact=exact).start.solve(c)


def test_iteration_limit_raises(monkeypatch):
    monkeypatch.setattr(simplex, "_default_iterations", lambda m, n: 1)
    with pytest.raises(NumericError):
        solve_lp_float([[1, 1], [1, -1]], [1, 0])
    with pytest.raises(NumericError):
        solve_lp_exact([[1, 1], [1, -1]], [1, 0])


def test_float_and_exact_agree_on_rational_instances():
    rng = np.random.default_rng(31)
    for _ in range(60):
        m, n = int(rng.integers(2, 6)), int(rng.integers(2, 8))
        A = rng.integers(-3, 4, size=(m, n))
        if rng.random() < 0.5:
            x0 = rng.integers(0, 3, size=n)
            b = A @ x0
        else:
            b = rng.integers(-4, 5, size=m)
        c = rng.integers(-3, 4, size=n) if rng.random() < 0.5 else None
        fl = solve_lp_float(A.astype(float), b.astype(float), c)
        ex = solve_lp_exact(A.tolist(), b.tolist(), None if c is None else c.tolist())
        assert fl.status == ex.status
        if ex.status == OPTIMAL:
            assert abs(fl.objective - float(ex.objective)) < 1e-9
        if ex.status == INFEASIBLE:
            assert verify_certificate(A.tolist(), b.tolist(), ex.certificate)
            assert verify_certificate(A.astype(float), b.astype(float), fl.certificate)


def test_runs_are_deterministic():
    rng = np.random.default_rng(33)
    A = rng.normal(size=(6, 9))
    b = A @ rng.uniform(size=9)
    c = rng.normal(size=9)
    first = solve_lp_float(A, b, c)
    second = solve_lp_float(A, b, c)
    np.testing.assert_array_equal(first.x, second.x)
    assert first.pivots == second.pivots > 0


def test_active_backend_reports_a_known_name():
    assert active_backend() == "numpy"


def test_solve_lp_dispatch():
    assert solve_lp([[1, 1]], [1], exact=True).x == [Fraction(1), Fraction(0)]
    assert solve_lp([[1, 1]], [1], exact=False).status == OPTIMAL


# Beale's example (Beale 1955): min -3/4 x4 + 20 x5 - 1/2 x6 + 6 x7 over three
# rows whose slacks x1..x3 form the starting basis; its first two rows have
# rhs 0, so the most-negative-cost rule with lowest-label ties cycles there
BEALE_ROWS = [[Fraction(1, 4), -8, -1, 9, 1, 0, 0, 0],
              [Fraction(1, 2), -12, Fraction(-1, 2), 3, 0, 1, 0, 0],
              [0, 0, 1, 0, 0, 0, 1, 1],
              [Fraction(-3, 4), 20, Fraction(-1, 2), 6, 0, 0, 0, 0]]


def _int_tableau(rows) -> IntTableau:
    ints, dens = [], []
    for row in rows:
        den = math.lcm(*(Fraction(v).denominator for v in row))
        ints.append([int(v * den) for v in row])
        dens.append(den)
    return IntTableau(ints, dens)


@pytest.mark.parametrize("exact", [False, True])
def test_stall_guard_ends_the_beale_cycle(exact):
    tableau = _int_tableau(BEALE_ROWS) if exact else np.array(BEALE_ROWS, dtype=float)
    basis = np.array([4, 5, 6])
    code, pivots = simplex_loop(tableau, basis, 7, 0 if exact else 1e-11, 1000)
    assert (code, pivots) == (LOOP_OPTIMAL, 6)
    if exact:
        assert Fraction(-tableau.rows[3][-1], tableau.den[3]) == Fraction(-5, 4)
    else:
        assert -tableau[3, -1] == pytest.approx(-1.25, abs=1e-12)


def test_certificate_length_must_match_the_rows():
    A, b = [[1, 1], [1, 1]], [1, 2]
    exact = solve_lp_exact(A, b).certificate
    assert verify_certificate(A, b, exact)
    assert not verify_certificate(A, b, exact + [Fraction(0)])
    assert not verify_certificate(A, b, exact[:1])
    assert not verify_certificate(A, b, [])
    y = solve_lp_float(A, b).certificate
    assert verify_certificate(A, b, y)
    assert not verify_certificate(A, b, np.append(y, 0.0))
    assert not verify_certificate(A, b, y[:1])


@pytest.mark.parametrize("candidate", [["x", 1], [1j, 1], [[1], [2]], [math.nan, -1],
                                       [10**400, -0.5], np.array([1j, -1]), "ab", 5,
                                       {0: 1, 1: -1}])
def test_malformed_certificate_is_rejected(candidate):
    assert not verify_certificate([[1, 1], [1, 1]], [1, 2], candidate)


# ---------------------------------------------------------------------------
# one phase 1 shared by many phase 2s
# ---------------------------------------------------------------------------

@st.composite
def small_lps(draw):
    """A small integer LP, a few cost vectors and the arithmetic."""
    exact = draw(st.booleans())
    m, n = draw(st.integers(1, 4)), draw(st.integers(2, 6))
    A = np.array(draw(st.lists(st.integers(-3, 3), min_size=m * n, max_size=m * n))).reshape(m, n)
    if draw(st.booleans()):  # b from a non-negative point: phase 1 succeeds
        b = A @ np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    else:
        b = np.array(draw(st.lists(st.integers(-4, 4), min_size=m, max_size=m)))
    costs = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                          min_size=1, max_size=4))
    return A.tolist(), b.tolist(), costs, exact


@settings(max_examples=200, deadline=None, derandomize=True)
@given(small_lps())
def test_shared_start_matches_fresh_solves(lp):
    A, b, costs, exact = lp
    first = solve_lp(A, b, exact=exact)
    fresh = [solve_lp(A, b, c, exact=exact) for c in costs]
    if first.status == INFEASIBLE:
        assert first.start is None
        for result in fresh:
            assert result.status == INFEASIBLE
            assert list(result.certificate) == list(first.certificate)
        assert verify_certificate(A, b, first.certificate)
        return
    start = first.start
    assert isinstance(start, FeasibleStart)
    for c, result in zip(costs, fresh):
        warm = start.solve(c)
        assert warm.start is start
        assert warm.status == result.status
        assert warm.pivots == result.pivots
        if result.status == OPTIMAL:
            if exact:
                assert warm.objective == result.objective
            else:
                assert abs(warm.objective - result.objective) <= 1e-9


def test_shared_start_zero_cost_and_cost_length():
    A, b = [[1, 1, 1], [1, -1, 0]], [2, 0]
    for exact in (False, True):
        start = solve_lp(A, b, exact=exact).start
        assert list(start.solve().x) == list(solve_lp(A, b, exact=exact).x)
        with pytest.raises(ValidationError):
            start.solve([1, 0])


# ---------------------------------------------------------------------------
# the integer exact tableau against the textbook Fraction tableau
# ---------------------------------------------------------------------------

@st.composite
def rational_lps(draw):
    """A small rational LP: negative rhs entries, redundant rows, infeasible
    systems, several costs.

    Entries are small numerators over small or snap-sized denominators, or
    ``1 +- eps`` for one ``eps`` per LP near ``1 / SNAP_MAX_DENOMINATOR``, so
    that two ratios can differ by about ``eps**2``, below float resolution.
    """
    eps = Fraction(1, draw(st.integers(SNAP_MAX_DENOMINATOR // 10, SNAP_MAX_DENOMINATOR)))
    rationals = st.one_of(
        st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3, 7])),
        st.builds(Fraction, st.integers(-3, 3), st.integers(1, SNAP_MAX_DENOMINATOR)),
        st.sampled_from([1 + eps, 1 - eps]))
    m, n = draw(st.integers(1, 4)), draw(st.integers(2, 6))
    A = [draw(st.lists(rationals, min_size=n, max_size=n)) for _ in range(m)]
    if draw(st.booleans()):  # b from a non-negative point
        point = draw(st.lists(st.sampled_from([0, 0, 1, Fraction(1, 3), Fraction(5, 2)]),
                              min_size=n, max_size=n))
        b = [sum(a * x for a, x in zip(row, point)) for row in A]
    else:
        b = draw(st.lists(rationals, min_size=m, max_size=m))
    for _ in range(draw(st.integers(0, 2))):  # a redundant row: a combination of two rows
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        f = draw(st.sampled_from([1, -1, 2, Fraction(1, 3)]))
        A.append([u + f * v for u, v in zip(A[i], A[j])])
        b.append(b[i] + f * b[j])
    costs = draw(st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=1, max_size=3))
    return A, b, costs


def _fields(result: LPResult) -> dict:
    return dict(status=result.status, x=result.x, objective=result.objective,
                certificate=result.certificate, pivots=result.pivots)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rational_lps())
def test_integer_tableau_matches_the_fraction_tableau(lp):
    A, b, costs = lp
    start = solve_lp_exact(A, b).start
    for c in costs + [None]:
        result = solve_lp_exact(A, b, c)
        assert _fields(result) == fraction_simplex.solve(A, b, c)
        for values in (result.x, result.certificate):
            assert values is None or all(type(v) is Fraction for v in values)
        assert result.objective is None or type(result.objective) is Fraction
        assert start is None or _fields(start.solve(c)) == _fields(result)


# ---------------------------------------------------------------------------
# the float path against the reference float tableau
# ---------------------------------------------------------------------------

FLOATS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -3.0, 0.5, 0.1, -0.7, 1 / 3, 1e-12, -1e-12])


def _pairwise_system(draw, rows: str) -> tuple:
    """The 0/1 matrix and rhs of pairwise marginals over 3 or 4 dichotomic
    variables, from a random joint or from random correlations, on every row
    (redundant ones included) or on the row basis the unifier solves."""
    variables = [Variable(f"v{k}", (1, -1)) for k in range(draw(st.integers(3, 4)))]
    space = JointSampleSpace(tuple(variables))
    joint = None
    if draw(st.booleans()):
        weights = np.array(draw(st.lists(st.integers(0, 5), min_size=space.size, max_size=space.size)),
                           dtype=float).reshape((2,) * len(variables))
        joint = weights / max(weights.sum(), 1.0)
        joint.flat[0] += 1.0 - joint.sum()
    tables = []
    for i, j in itertools.combinations(range(len(variables)), 2):
        if joint is not None:
            pair = joint.sum(axis=tuple(k for k in range(len(variables)) if k not in (i, j)))
            values = {(s, t): float(pair[a, b]) for a, s in enumerate((1, -1)) for b, t in enumerate((1, -1))}
        else:
            c = draw(st.sampled_from([-1.0, -0.6, 0.0, 0.3, 0.9, 1.0]))
            values = {(s, t): 0.25 * (1.0 + s * t * c) for s in (1, -1) for t in (1, -1)}
        tables.append(MarginalTable((variables[i], variables[j]), values))
    system = build_constraint_system(space, tables)
    if rows == "basis":
        return system.matrix[system.keep], system.rhs[system.keep]
    return system.matrix, system.rhs


@st.composite
def float_lps(draw):
    """A float LP and a few cost vectors: random entries with signed zeros,
    entries at the pivot tolerance, negative and zero rhs entries (a
    degenerate start), redundant rows; Beale's cycling example; or a 0/1
    pairwise marginal system of the unifier."""
    kind = draw(st.sampled_from(["random", "random", "beale", "pairwise", "pairwise basis"]))
    if kind == "beale":
        A = [[float(v) for v in row[:7]] for row in BEALE_ROWS[:3]]
        b = [float(row[7]) for row in BEALE_ROWS[:3]]
        costs = [[float(v) for v in BEALE_ROWS[3][:7]]]
    elif kind.startswith("pairwise"):
        A, b = _pairwise_system(draw, kind.partition(" ")[2])
        n = A.shape[1]
        costs = [[float(j == k) * sign for j in range(n)]
                 for k, sign in draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from([1.0, -1.0])),
                                              max_size=2))]
    else:
        m, n = draw(st.integers(1, 5)), draw(st.integers(1, 7))
        A = [draw(st.lists(FLOATS, min_size=n, max_size=n)) for _ in range(m)]
        if draw(st.booleans()):  # b from a non-negative point, often with zeros: a degenerate start
            point = draw(st.lists(st.sampled_from([0.0, 0.0, 1.0, 0.5, 3.0]), min_size=n, max_size=n))
            b = [sum(a * x for a, x in zip(row, point)) for row in A]
        else:
            b = draw(st.lists(FLOATS, min_size=m, max_size=m))
        for _ in range(draw(st.integers(0, 2))):  # a redundant row: a combination of two rows
            i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
            f = draw(st.sampled_from([1.0, -1.0, 2.0, 0.5]))
            A.append([u + f * v for u, v in zip(A[i], A[j])])
            b.append(b[i] + f * b[j])
        costs = draw(st.lists(st.lists(FLOATS, min_size=n, max_size=n), max_size=3))
    return A, b, costs + [None, [0.0] * len(A[0])]


def _bytes(result) -> tuple:
    """A float result's fields, its arrays and objective as bytes."""
    fields = result if isinstance(result, dict) else _fields(result)
    return (fields["status"], fields["pivots"],
            *(None if fields[k] is None else np.asarray(fields[k], dtype=float).tobytes()
              for k in ("x", "objective", "certificate")))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(float_lps())
def test_the_float_path_matches_the_reference_float_tableau(lp):
    A, b, costs = lp
    first, reference = solve_lp_float(A, b), float_simplex.phase_one(A, b)
    if first.start is None:
        assert _bytes(first) == _bytes(reference)
    for c in costs:
        result = solve_lp_float(A, b, c)
        assert _bytes(result) == _bytes(float_simplex.solve(A, b, c))
        if first.start is not None:
            assert _bytes(first.start.solve(c)) == _bytes(float_simplex.phase_two(reference, c))
