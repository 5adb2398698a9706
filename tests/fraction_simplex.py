"""Reference exact simplex on a textbook ``Fraction`` tableau.

The rational pivot, pivot loop and two-phase driver the library ran before
its exact tableau became integer rows over per-row denominators, kept here
(and only here) as the oracle ``tests/test_simplex.py`` compares the integer
path against: the same inputs must give the same status, x, objective,
certificate and pivot count.  The loop follows the library's pivot rule:
the most negative reduced cost enters (Dantzig's rule, lowest index among
equals) until ``m`` consecutive entering steps leave the best objective
reached unimproved, and Bland's lowest-index rule for the rest of the call.
"""

from __future__ import annotations

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


def simplex_loop(tableau, basis, n_eligible, max_iter):
    """Dantzig's rule with the stall guard's switch to Bland's rule, at
    tolerance 0; returns ("optimal" | "unbounded" | "limit", pivots)."""
    m = tableau.shape[0] - 1
    pivots = stalled = 0
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
            return "optimal", pivots
        column = tableau[:m, enter].tolist()
        rhs = tableau[:m, -1].tolist()
        leave, best = -1, None
        for i, coef in enumerate(column):
            if coef > 0:
                ratio = rhs[i] / coef
                if leave < 0 or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        if leave < 0:
            return "unbounded", pivots
        pivot(tableau, basis, leave, enter)
        pivots += 1
    return "limit", pivots


def solve(A, b, c=None) -> dict:
    """min c.x, A x = b, x >= 0: a dict of the ``LPResult`` fields."""
    zero, one = Fraction(0), Fraction(1)
    A = np.array([[Fraction(v) for v in row] for row in A], dtype=object)
    b = np.array([Fraction(v) for v in b], dtype=object)
    m, n = A.shape
    c = np.array([Fraction(v) for v in c] if c is not None else [zero] * n, dtype=object)
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
    code, pivots = simplex_loop(tableau, basis, n, limit)
    assert code == "optimal"
    result = dict(status="infeasible", x=None, objective=None, certificate=None, pivots=pivots)
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
    basis, m2 = basis[keep], len(keep)

    if np.any(c != zero):
        tableau[m2, :n] = c
        tableau[m2, -1] = zero
        for i in range(m2):
            if c[basis[i]] != zero:
                tableau[m2, :] -= c[basis[i]] * tableau[i, :]
        code, more_pivots = simplex_loop(tableau, basis, n, limit)
        assert code != "limit"
        result.update(pivots=pivots + more_pivots)
        if code == "unbounded":
            result["status"] = "unbounded"
            return result
    x = np.full(n, zero, dtype=object)
    x[basis] = tableau[:m2, -1]
    result.update(status="optimal", x=x.tolist(), objective=sum(c * x))
    return result
