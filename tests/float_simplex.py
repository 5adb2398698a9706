"""Reference float simplex: the float pivot, cost scan, ratio test and
two-phase solve as the library ran them before its float steps lost their
``.tolist()`` scans, ``np.outer`` update and ``np.ix_`` copy.

Kept here (and only here) as the oracle ``tests/test_simplex.py`` compares
the library's float path against, as ``fraction_simplex`` is for exact mode:
the same inputs must give the same status and pivot count and the same bytes
of ``x``, objective and certificate, so that even a ``-0.0`` read as ``0.0``
fails.  The pivot rule is the library's: the most negative reduced cost
enters (Dantzig's rule, lowest index among equals) until ``m`` consecutive
entering steps leave the best objective reached unimproved, then Bland's
lowest-index rule for the rest of the call.
"""

from __future__ import annotations

import numpy as np

PIVOT_TOL = 1e-11
FEAS_TOL = 1e-9


def pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row, :] /= tableau[row, col]
    column = tableau[:, col].copy()
    column[row] = 0
    tableau -= np.outer(column, tableau[row, :])
    basis[row] = col


def ratio_test(tableau: np.ndarray, basis: np.ndarray, enter: int, tol) -> int:
    column = tableau[:len(basis), enter].tolist()
    rhs = tableau[:len(basis), -1].tolist()
    leave = -1
    best = None
    for i, coef in enumerate(column):
        if coef > tol:
            ratio = rhs[i] / coef
            if leave < 0 or ratio < best or (ratio == best and basis[i] < basis[leave]):
                leave, best = i, ratio
    return leave


def simplex_loop(tableau, basis, n_eligible, tol, max_iter):
    """Returns ("optimal" | "unbounded" | "limit", pivots)."""
    m = len(basis)
    pivots = 0
    bland = False
    stalled = 0
    best = None
    for _ in range(max_iter):
        costs = tableau[m, :n_eligible].tolist()
        if not bland:
            value = float(tableau[m, -1])
            if best is None or value > best:
                best, stalled = value, 0
            else:
                stalled += 1
                bland = stalled >= m
        if bland:
            enter = next((j for j, v in enumerate(costs) if v < -tol), -1)
        else:
            low = min(costs, default=0)
            enter = costs.index(low) if low < -tol else -1
        if enter < 0:
            return "optimal", pivots
        leave = ratio_test(tableau, basis, enter, tol)
        if leave < 0:
            return "unbounded", pivots
        pivot(tableau, basis, leave, enter)
        pivots += 1
    return "limit", pivots


def _limit(m: int, n: int) -> int:
    return 200 * (m + n) + 2000


def phase_one(A, b, feas_tol: float = FEAS_TOL):
    """A dict of the infeasible ``LPResult`` fields, or the start
    ``(tableau, basis, n, pivots)`` that ``phase_two`` takes."""
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    m, n = A.shape
    signs = np.where(b < 0, -1, 1)
    basis = np.arange(n, n + m, dtype=np.int64)
    A = A * signs[:, None]
    b = b * signs
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = A
    tableau[np.arange(m), n + np.arange(m)] = 1.0
    tableau[:m, -1] = b
    tableau[m, :n] = -A.sum(axis=0)
    tableau[m, -1] = -b.sum()
    code, pivots = simplex_loop(tableau, basis, n, PIVOT_TOL, _limit(m, n))
    assert code == "optimal"
    if -tableau[m, -1] > feas_tol:
        certificate = -(signs * (1.0 - tableau[m, n:n + m]))
        return dict(status="infeasible", x=None, objective=None, certificate=certificate, pivots=pivots)
    drop = []
    for r in range(m):
        if basis[r] >= n:
            row = tableau[r, :n].tolist()
            col = next((j for j, v in enumerate(row) if abs(v) > PIVOT_TOL), -1)
            if col < 0:
                drop.append(r)
            else:
                pivot(tableau, basis, r, col)
    keep = [r for r in range(m) if r not in drop]
    tableau = np.ascontiguousarray(tableau[np.ix_(keep + [m], list(range(n)) + [n + m])])
    return tableau, basis[keep].copy(), n, pivots


def phase_two(start, c=None) -> dict:
    """Phase 2 for min c.x on a copy of ``start``: a dict of the ``LPResult`` fields."""
    tableau, basis, n, pivots = start
    tableau, basis = tableau.copy(), basis.copy()
    c = np.zeros(n) if c is None else np.array(c, dtype=float)
    m2 = len(basis)
    if np.any(c != 0.0):
        tableau[m2, :n] = c
        tableau[m2, -1] = 0.0
        for i in range(m2):
            weight = c[basis[i]]
            if weight != 0.0:
                tableau[m2, :] -= weight * tableau[i, :]
        code, more_pivots = simplex_loop(tableau, basis, n, PIVOT_TOL, _limit(m2, n))
        pivots += more_pivots
        assert code != "limit"
        if code == "unbounded":
            return dict(status="unbounded", x=None, objective=None, certificate=None, pivots=pivots)
    x = np.zeros(n)
    x[basis] = tableau[:m2, -1]
    return dict(status="optimal", x=x, objective=float(c @ x), certificate=None, pivots=pivots)


def solve(A, b, c=None, feas_tol: float = FEAS_TOL) -> dict:
    """min c.x, A x = b, x >= 0: a dict of the ``LPResult`` fields."""
    start = phase_one(A, b, feas_tol)
    return start if isinstance(start, dict) else phase_two(start, c)
