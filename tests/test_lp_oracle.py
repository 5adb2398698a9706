"""Differential tests of the unifier LP against an independent solver.

``scipy.optimize.linprog`` (HiGHS) decides the delta band of the same
``build_constraint_system`` matrix and right-hand side that the library
decides, and bounds each cell over its hard equalities.  The drawn systems are pairwise marginals over 3 to 6 dichotomic variables, either
taken from one joint distribution (feasible) or from independent random
correlations (mostly infeasible).  Draws within 1e-7 of the feasibility
boundary are skipped, since there the two solvers' tolerances decide.
HiGHS runs at feasibility tolerances of 1e-10 rather than its default 1e-7,
so that a cell bound at 0 is not read as -3e-8.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
    n = len(hard.cells)
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
    n = len(hard.cells)
    result = linprog(np.r_[np.zeros(n), -1.0],
                     A_ub=np.c_[-np.eye(n), np.ones(n)], b_ub=np.zeros(n),
                     A_eq=np.c_[hard.matrix, np.zeros(len(hard.matrix))], b_eq=hard.rhs,
                     bounds=[(0, None)] * n + [(None, None)], method="highs", options=HIGHS)
    return -result.fun if result.status == 0 else -np.inf


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pairwise_systems())
def test_verdict_and_cell_bounds_match_highs(drawn):
    space, marginals, cell = drawn
    hard = build_constraint_system(space, marginals)
    violation = _violation(hard)
    assume(violation > DEFAULT_DELTA + MARGIN or _depth(hard) > MARGIN)

    verdict = probe_uniqueness(space, marginals)
    rows, rhs = hard.matrix[:-1], hard.rhs[:-1]
    reference = linprog(np.zeros(len(hard.cells)), A_ub=np.r_[rows, -rows],
                        b_ub=np.r_[rhs + DEFAULT_DELTA, DEFAULT_DELTA - rhs],
                        A_eq=hard.matrix[-1:], b_eq=hard.rhs[-1:], method="highs", options=HIGHS)
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
