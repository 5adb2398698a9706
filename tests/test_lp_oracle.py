"""Differential tests of the unifier LP against an independent solver.

``scipy.optimize.linprog`` (HiGHS) solves the same ``build_constraint_system``
matrix, right-hand side and bounds that the library's simplex solves.  The
drawn systems are pairwise marginals over 3 to 6 dichotomic variables, either
taken from one joint distribution (feasible) or from independent random
correlations (mostly infeasible).  Draws within 1e-7 of the feasibility
boundary are skipped, since there the two solvers' tolerances decide.
HiGHS runs at feasibility tolerances of 1e-10 rather than its default 1e-7,
so that a cell bound at 0 is not read as -3e-8.

Upper bounds are a float-only feature of the simplex, so no exact solve
checks the float bounded-variable rules.  HiGHS does: on small integer LPs
with bounds in {0, 1, 2, inf}, it must give the status and objective of
``solve_lp_float``, and every infeasible certificate must verify with its
bounds.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from histories_lab.simplex import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    solve_lp_float,
    verify_certificate,
)
from histories_lab.unify import (
    DEFAULT_DELTA,
    JointSampleSpace,
    MarginalTable,
    Variable,
    build_constraint_system,
    probe_uniqueness,
)

linprog = pytest.importorskip("scipy.optimize").linprog

MARGIN = 1e-7
HIGHS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
SIGNS = (1, -1)


@st.composite
def pairwise_systems(draw):
    n = draw(st.integers(3, 6))
    variables = tuple(Variable(f"v{k}", SIGNS) for k in range(n))
    pairs = list(itertools.combinations(range(n), 2))
    if draw(st.booleans()):
        weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=2 ** n, max_size=2 ** n)))
        joint = (weights / weights.sum()).reshape((2,) * n)
        tables = [joint.sum(axis=tuple(k for k in range(n) if k not in (i, j))) for i, j in pairs]
        values = [{(s, t): float(table[a, b]) for a, s in enumerate(SIGNS) for b, t in enumerate(SIGNS)}
                  for table in tables]
    else:
        correlations = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(pairs), max_size=len(pairs)))
        values = [{(s, t): 0.25 * (1.0 + s * t * c) for s in SIGNS for t in SIGNS}
                  for c in correlations]
    marginals = [MarginalTable((variables[i], variables[j]), v) for (i, j), v in zip(pairs, values)]
    return JointSampleSpace(variables), marginals, draw(st.integers(0, 2 ** n - 1))


def _violation(hard) -> float:
    """The least ``t`` with every marginal row within ``t`` of its rhs over
    some distribution: 0 inside the marginal polytope, its L-inf distance
    from it outside."""
    rows, rhs = hard.matrix[:-1], hard.rhs[:-1]
    n = hard.n_cells
    band = np.ones((len(rows), 1))
    result = linprog(np.r_[np.zeros(n), 1.0],
                     A_ub=np.block([[rows, -band], [-rows, -band]]), b_ub=np.r_[rhs, -rhs],
                     A_eq=np.r_[np.ones(n), 0.0][None, :], b_eq=[1.0],
                     bounds=[(0, None)] * (n + 1), method="highs", options=HIGHS)
    assert result.status == 0
    return result.fun


def _depth(hard) -> float:
    """The largest ``r`` such that some distribution with every cell at least
    ``r`` matches the marginals exactly; ``-inf`` when none matches them."""
    n = hard.n_cells
    result = linprog(np.r_[np.zeros(n), -1.0],
                     A_ub=np.c_[-np.eye(n), np.ones(n)], b_ub=np.zeros(n),
                     A_eq=np.c_[hard.matrix, np.zeros(len(hard.matrix))], b_eq=hard.rhs,
                     bounds=[(0, None)] * n + [(None, None)], method="highs", options=HIGHS)
    return -result.fun if result.status == 0 else -np.inf


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pairwise_systems())
def test_verdict_and_cell_bounds_match_highs(drawn):
    space, marginals, cell = drawn
    hard = build_constraint_system(space, marginals, 0.0)
    violation = _violation(hard)
    assume(violation > DEFAULT_DELTA + MARGIN or _depth(hard) > MARGIN)

    verdict = probe_uniqueness(space, marginals)
    system = build_constraint_system(space, marginals)
    reference = linprog(np.zeros(system.matrix.shape[1]), A_eq=system.matrix, b_eq=system.rhs,
                        bounds=[(0, None if u == np.inf else u) for u in system.upper],
                        method="highs", options=HIGHS)
    assert reference.status in (0, 2)
    assert verdict.feasible == (reference.status == 0)
    if not verdict.feasible:
        return

    lo, hi = verdict.component_bounds[space.cells()[cell]]
    unit = np.zeros(hard.matrix.shape[1])
    unit[cell] = 1.0
    low = linprog(unit, A_eq=hard.matrix, b_eq=hard.rhs, method="highs", options=HIGHS)
    high = linprog(-unit, A_eq=hard.matrix, b_eq=hard.rhs, method="highs", options=HIGHS)
    assert low.status == high.status == 0
    assert abs(lo - low.fun) <= 1e-9
    assert abs(hi + high.fun) <= 1e-9


@st.composite
def bounded_lps(draw):
    """A small integer LP with upper bounds in {0, 1, 2, inf} and a cost vector."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(2, 6))
    A = np.array(draw(st.lists(st.integers(-3, 3), min_size=m * n, max_size=m * n))).reshape(m, n)
    if draw(st.booleans()):  # b from a point within the bounds
        b = A @ np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    else:
        b = np.array(draw(st.lists(st.integers(-4, 4), min_size=m, max_size=m)))
    upper = draw(st.lists(st.sampled_from([np.inf, 0.0, 1.0, 2.0]), min_size=n, max_size=n))
    c = np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
    return A.astype(float), b.astype(float), upper, c.astype(float)


def _highs_status(A, b, c, upper):
    """HiGHS's status and objective for min c.x, A x = b, 0 <= x <= upper.

    Feasibility is decided at cost 0, which cannot be unbounded, so that an
    "unbounded or infeasible" answer at cost ``c`` means unbounded."""
    bounds = [(0, None if u == np.inf else u) for u in upper]
    if linprog(np.zeros(len(c)), A_eq=A, b_eq=b, bounds=bounds, method="highs",
               options=HIGHS).status == 2:
        return INFEASIBLE, None
    result = linprog(c, A_eq=A, b_eq=b, bounds=bounds, method="highs", options=HIGHS)
    assert result.status in (0, 3, 4)
    return (OPTIMAL, result.fun) if result.status == 0 else (UNBOUNDED, None)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(bounded_lps())
def test_bounded_float_lp_matches_highs(lp):
    A, b, upper, c = lp
    status, objective = _highs_status(A, b, c, upper)
    result = solve_lp_float(A, b, c, upper=upper)
    assert result.status == status
    if status == OPTIMAL:
        assert abs(result.objective - objective) <= 1e-9
        np.testing.assert_allclose(A @ result.x, b, atol=1e-9)
        assert all(-1e-12 <= v <= u + 1e-12 for v, u in zip(result.x, upper))
    if status == INFEASIBLE:
        assert verify_certificate(A, b, result.certificate, upper)
