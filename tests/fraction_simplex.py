"""Reference exact simplex on a textbook ``Fraction`` tableau.

The rational pivot, pivot loop and two-phase driver the library ran before
its exact tableau became integer rows over per-row denominators, kept here
(and only here) as the oracle ``tests/test_simplex.py`` compares the integer
path against: the same inputs must give the same status, x, objective,
certificate, pivot count and bound-flip count.  The loop follows the
library's pivot rule: the most negative reduced cost enters (Dantzig's
rule, lowest index among equals) until ``m`` consecutive entering steps
leave the best objective reached unimproved, and Bland's lowest-index rule
for the rest of the call.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row, :] /= tableau[row, col]
    column = tableau[:, col].copy()
    column[row] = 0
    rows = np.flatnonzero(column)
    cols = np.flatnonzero(tableau[row, :])
    tableau[np.ix_(rows, cols)] -= np.outer(column[rows], tableau[row, cols])
    basis[row] = col


def simplex_loop(tableau, basis, n_eligible, max_iter, upper=None, flipped=None):
    """Dantzig's rule with the stall guard's switch to Bland's rule, at
    tolerance 0; returns ("optimal" | "unbounded" | "limit", pivots, flips)."""
    m = tableau.shape[0] - 1
    row_upper = None if upper is None else [upper[j] for j in basis.tolist()]
    pivots = flips = stalled = 0
    top = None  # the highest negated objective reached
    for _ in range(max_iter):
        costs = tableau[m, :n_eligible].tolist()
        if stalled < m:
            if top is None or tableau[m, -1] > top:
                top, stalled = tableau[m, -1], 0
            else:
                stalled += 1
        if stalled < m:
            low = min(costs, default=0)
            enter = costs.index(low) if low < 0 else -1
        else:
            enter = next((j for j, v in enumerate(costs) if v < 0), -1)
        if enter < 0:
            return "optimal", pivots, flips
        column = tableau[:m, enter].tolist()
        rhs = tableau[:m, -1].tolist()
        leave, best = -1, None
        for i, coef in enumerate(column):
            if coef > 0:
                ratio = rhs[i] / coef
            elif row_upper is not None and coef < 0 and row_upper[i] != math.inf:
                ratio = (row_upper[i] - rhs[i]) / -coef
            else:
                continue
            if leave < 0 or ratio < best or (ratio == best and basis[i] < basis[leave]):
                leave, best = i, ratio
        bound = math.inf if upper is None else upper[enter]
        if bound != math.inf and (leave < 0 or bound < best
                                  or (bound == best and enter < basis[leave])):
            entering = tableau[:, enter].copy()
            tableau[:, -1] -= bound * entering
            tableau[:, enter] = -entering
            flipped[enter] = not flipped[enter]
            flips += 1
            continue
        if leave < 0:
            return "unbounded", pivots, flips
        if row_upper is not None and column[leave] < 0:
            label = basis[leave]
            value = tableau[leave, -1]
            tableau[leave, :] = -tableau[leave, :]
            tableau[leave, label] = -tableau[leave, label]
            tableau[leave, -1] = row_upper[leave] - value
            flipped[label] = not flipped[label]
        pivot(tableau, basis, leave, enter)
        pivots += 1
        if row_upper is not None:
            row_upper[leave] = upper[enter]
    return "limit", pivots, flips


def solve(A, b, c=None, upper=None) -> dict:
    """min c.x, A x = b, 0 <= x <= upper: a dict of the ``LPResult`` fields."""
    zero, one = Fraction(0), Fraction(1)
    A = np.array([[Fraction(v) for v in row] for row in A], dtype=object)
    b = np.array([Fraction(v) for v in b], dtype=object)
    m, n = A.shape
    c = np.array([Fraction(v) for v in c] if c is not None else [zero] * n, dtype=object)
    upper = None if upper is None else np.array(
        [u if u == math.inf else Fraction(u) for u in upper], dtype=object)
    limit = 200 * (m + n) + 2000

    signs = np.where(b < zero, -one, one)
    A = A * signs[:, None]
    b = b * signs
    tableau = np.full((m + 1, n + m + 1), zero, dtype=object)
    tableau[:m, :n] = A
    tableau[np.arange(m), n + np.arange(m)] = one
    tableau[:m, -1] = b
    tableau[m, :n] = -A.sum(axis=0)
    tableau[m, -1] = -b.sum()
    basis = np.arange(n, n + m, dtype=np.int64)
    bounds = None if upper is None else upper.tolist() + [math.inf] * m
    flipped = np.zeros(n + m, dtype=bool)
    code, pivots, flips = simplex_loop(tableau, basis, n, limit, bounds, flipped)
    assert code == "optimal"
    result = dict(status="infeasible", x=None, objective=None, certificate=None,
                  pivots=pivots, bound_flips=flips)
    if -tableau[m, -1] > 0:
        result["certificate"] = (-(signs * (one - tableau[m, n:n + m]))).tolist()
        return result

    drop = []
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j, v in enumerate(tableau[r, :n].tolist()) if v != 0), -1)
            if col < 0:
                drop.append(r)
            else:
                pivot(tableau, basis, r, col)
    keep = [r for r in range(m) if r not in drop]
    tableau = tableau[np.ix_(keep + [m], list(range(n)) + [n + m])]
    basis, flipped, m2 = basis[keep], flipped[:n], len(keep)

    if np.any(c != zero):
        oriented = c.copy()
        oriented[flipped] = -c[flipped]
        tableau[m2, :n] = oriented
        tableau[m2, -1] = zero
        for i in range(m2):
            if oriented[basis[i]] != zero:
                tableau[m2, :] -= oriented[basis[i]] * tableau[i, :]
        code, more_pivots, more_flips = simplex_loop(
            tableau, basis, n, limit, None if upper is None else upper.tolist(), flipped)
        assert code != "limit"
        result.update(pivots=pivots + more_pivots, bound_flips=flips + more_flips)
        if code == "unbounded":
            result["status"] = "unbounded"
            return result
    x = np.full(n, zero, dtype=object)
    x[basis] = tableau[:m2, -1]
    if flipped.any():
        x[flipped] = upper[flipped] - x[flipped]
    result.update(status="optimal", x=x.tolist(), objective=sum(c * x))
    return result
