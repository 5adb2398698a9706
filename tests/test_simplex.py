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
    feasible_start,
    solve_lp,
    solve_lp_exact,
    solve_lp_float,
    verify_certificate,
)
from histories_lab.unify import SNAP_MAX_DENOMINATOR

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


def test_shape_validation():
    with pytest.raises(ValidationError):
        solve_lp_float([[1, 1]], [1, 2])
    with pytest.raises(ValidationError):
        solve_lp_float([[1, 1]], [1], [1.0])
    with pytest.raises(ValidationError):
        solve_lp_exact([[1, 1]], [1], c=[0.5, 0])  # non-integral float in exact mode


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
    code, pivots, flips = simplex_loop(tableau, basis, 7, 0 if exact else 1e-11, 1000)
    assert (code, pivots, flips) == (LOOP_OPTIMAL, 6, 0)
    if exact:
        assert Fraction(-tableau.rows[3][-1], tableau.den[3]) == Fraction(-5, 4)
    else:
        assert -tableau[3, -1] == pytest.approx(-1.25, abs=1e-12)


# ---------------------------------------------------------------------------
# bounded columns (0 <= x <= upper)
# ---------------------------------------------------------------------------

INF = math.inf


def test_entering_column_flips_at_its_bound():
    # min -x1 s.t. x1 + x2 = 5, x1 <= 2: x1 enters, stops at 2 before the row
    # ratio 5, and flips without a pivot; x2 then takes the remaining 3
    result = solve_lp_float([[1, 1]], [5], [-1, 0], upper=[2.0, INF])
    assert result.status == OPTIMAL
    assert list(result.x) == [2, 3]
    assert result.objective == -2
    assert result.bound_flips == 1
    assert result.pivots == 1


def test_bound_ties_go_to_the_lowest_label():
    # x1 + x2 = 1, x2 <= 1, min -x2: phase 1 makes x1 basic; x2's own bound
    # ties with x1's ratio, and x1 has the lower label, so x1 leaves by a
    # pivot instead of x2 flipping
    result = solve_lp_float([[1, 1]], [1], [0, -1], upper=[INF, 1.0])
    assert list(result.x) == [0, 1]
    assert (result.pivots, result.bound_flips) == (2, 0)


def test_basic_variable_leaves_at_its_upper_bound():
    # x1 - x2 = 1, x1 <= 3, min -x2: phase 1 makes x1 basic at 1; raising
    # x2 raises x1 until it reaches 3, so x1 leaves at its bound and is read
    # out as 3 from the flipped column
    result = solve_lp_float([[1, -1]], [1], [0, -1], upper=[3.0, INF])
    assert result.status == OPTIMAL
    assert list(result.x) == [3, 2]
    assert result.objective == -2
    assert result.bound_flips == 0
    assert result.pivots == 2


def test_read_out_of_a_variable_left_at_its_upper_bound():
    # phase 1 flips x1 to its bound 1 (it ties with the first row's ratio and
    # has the lower label); it stays nonbasic in that orientation, and the
    # read-out maps it back to u - 0 = 1
    A, b, upper = [[1, 1, 0], [1, 0, 1]], [1, 1.5], [1.0, INF, INF]
    result = solve_lp_float(A, b, [0, 1, 0], upper=upper)
    assert result.status == OPTIMAL
    assert result.bound_flips == 1
    np.testing.assert_allclose(result.x, [1.0, 0.0, 0.5], atol=1e-12)
    reference = solve_lp_float([[1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]], [1, 1.5, 1],
                               [0, 1, 0, 0])
    assert result.objective == reference.objective
    np.testing.assert_allclose(result.x, reference.x[:3], atol=1e-12)


def test_zero_upper_bound_fixes_the_column_at_zero():
    result = solve_lp_float([[1, 1]], [1], [-1.0, 0.0], upper=[0.0, INF])
    assert result.status == OPTIMAL
    assert list(result.x) == [0.0, 1.0]
    A, b = [[1, 0], [0, 1]], [1, 0]
    infeasible = solve_lp_float(A, b, upper=[0.0, INF])
    assert infeasible.status == INFEASIBLE
    assert verify_certificate(A, b, infeasible.certificate, [0.0, INF])
    assert not verify_certificate(A, b, infeasible.certificate)


def test_upper_bounds_are_validated():
    with pytest.raises(ValidationError):
        solve_lp_float([[1, 1]], [1], upper=[1.0])
    with pytest.raises(ValidationError):
        solve_lp_float([[1, 1]], [1], upper=[-1.0, INF])


def test_exact_mode_refuses_upper_bounds():
    refused = "exact mode takes no upper bounds; write each bound as a row"
    for call in (lambda: solve_lp([[1, 1]], [1], upper=[1, INF], exact=True),
                 lambda: solve_lp_exact([[1, 1]], [1], upper=[Fraction(1), INF]),
                 lambda: feasible_start([[1, 1]], [1], upper=[INF, INF], exact=True)):
        with pytest.raises(ValidationError, match=refused):
            call()


def _with_bound_rows(A, b, upper):
    """The same integer LP with each finite bound as an explicit row x_j + w_j = u_j."""
    m, n = A.shape
    bounded = [j for j in range(n) if upper[j] != INF]
    k = len(bounded)
    big = np.zeros((m + k, n + k), dtype=np.int64)
    big[:m, :n] = A
    for r, j in enumerate(bounded):
        big[m + r, j] = big[m + r, n + r] = 1
    return big, np.concatenate([b, [upper[j] for j in bounded]]).astype(np.int64)


def test_bounded_float_and_exact_agree_with_explicit_bound_rows():
    rng = np.random.default_rng(41)
    statuses = set()
    for _ in range(80):
        m, n = int(rng.integers(1, 5)), int(rng.integers(2, 7))
        A = rng.integers(-3, 4, size=(m, n))
        b = A @ rng.integers(0, 3, size=n) if rng.random() < 0.6 else rng.integers(-4, 5, size=m)
        c = rng.integers(-3, 4, size=n) if rng.random() < 0.7 else None
        upper = [INF if rng.random() < 0.4 else int(rng.integers(0, 3)) for _ in range(n)]
        fl = solve_lp_float(A, b, c, upper=[float(u) for u in upper])
        big, big_b = _with_bound_rows(A, b, upper)
        ex = solve_lp_exact(big.tolist(), big_b.tolist(), None if c is None else
                            c.tolist() + [0] * (big.shape[1] - n))
        assert fl.status == ex.status
        statuses.add(ex.status)
        if ex.status == OPTIMAL:
            assert abs(fl.objective - float(ex.objective)) < 1e-9
            np.testing.assert_allclose(A @ fl.x, b, atol=1e-9)
            assert all(-1e-9 <= v <= u + 1e-9 for v, u in zip(fl.x, upper))
        if ex.status == INFEASIBLE:
            assert verify_certificate(big.tolist(), big_b.tolist(), ex.certificate)
            assert verify_certificate(A.astype(float), b.astype(float), fl.certificate,
                                      [float(u) for u in upper])
    assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED}


def test_pivot_and_flip_counts_repeat_and_need_bounds():
    rng = np.random.default_rng(43)
    A = rng.integers(-2, 3, size=(5, 9)).astype(float)
    b = A @ rng.uniform(0.0, 0.5, size=9)
    c = rng.normal(size=9)
    upper = np.full(9, 0.5)
    first = solve_lp_float(A, b, c, upper=upper)
    second = solve_lp_float(A, b, c, upper=upper)
    assert (first.pivots, first.bound_flips) == (second.pivots, second.bound_flips)
    assert first.pivots > 0 and first.bound_flips > 0
    unbounded = [solve_lp_float(A, b, c), solve_lp_float(A, b, c, upper=np.full(9, INF))]
    for result in unbounded:
        assert result.bound_flips == 0
        assert result.pivots == unbounded[0].pivots > 0
        np.testing.assert_array_equal(result.x, unbounded[0].x)


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
    """A small integer LP, a few cost vectors and the arithmetic; a float LP
    may carry upper bounds."""
    exact = draw(st.booleans())
    m, n = draw(st.integers(1, 4)), draw(st.integers(2, 6))
    A = np.array(draw(st.lists(st.integers(-3, 3), min_size=m * n, max_size=m * n))).reshape(m, n)
    if draw(st.booleans()):  # b from a non-negative point: phase 1 succeeds unless bounds cut it
        b = A @ np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    else:
        b = np.array(draw(st.lists(st.integers(-4, 4), min_size=m, max_size=m)))
    upper = None
    if not exact and draw(st.booleans()):
        upper = draw(st.lists(st.sampled_from([INF, 0.0, 1.0, 2.0]), min_size=n, max_size=n))
    costs = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                          min_size=1, max_size=4))
    return A.tolist(), b.tolist(), upper, costs, exact


@settings(max_examples=200, deadline=None, derandomize=True)
@given(small_lps())
def test_shared_start_matches_fresh_solves(lp):
    A, b, upper, costs, exact = lp
    start = feasible_start(A, b, upper=upper, exact=exact)
    fresh = [solve_lp(A, b, c, upper=upper, exact=exact) for c in costs]
    if isinstance(start, LPResult):
        assert start.status == INFEASIBLE
        for result in fresh:
            assert result.status == INFEASIBLE
            assert list(result.certificate) == list(start.certificate)
        assert verify_certificate(A, b, start.certificate, upper)
        return
    assert isinstance(start, FeasibleStart)
    for c, result in zip(costs, fresh):
        warm = start.solve(c)
        assert warm.status == result.status
        assert (warm.pivots, warm.bound_flips) == (result.pivots, result.bound_flips)
        if result.status == OPTIMAL:
            if exact:
                assert warm.objective == result.objective
            else:
                assert abs(warm.objective - result.objective) <= 1e-9


def test_shared_start_zero_cost_and_cost_length():
    A, b = [[1, 1, 1], [1, -1, 0]], [2, 0]
    for exact in (False, True):
        start = feasible_start(A, b, exact=exact)
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
                certificate=result.certificate, pivots=result.pivots,
                bound_flips=result.bound_flips)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rational_lps())
def test_integer_tableau_matches_the_fraction_tableau(lp):
    A, b, costs = lp
    start = feasible_start(A, b, exact=True)
    for c in costs + [None]:
        result = solve_lp_exact(A, b, c)
        assert _fields(result) == fraction_simplex.solve(A, b, c)
        for values in (result.x, result.certificate):
            assert values is None or all(type(v) is Fraction for v in values)
        assert result.objective is None or type(result.objective) is Fraction
        assert _fields(start if isinstance(start, LPResult) else start.solve(c)) == _fields(result)
