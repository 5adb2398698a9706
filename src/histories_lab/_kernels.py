"""The Bland-rule pivot loop shared by float and exact simplex solves.

One loop and one pivot work on a dense numpy tableau of either dtype:
``float64`` with a small pivot tolerance, or ``object`` holding
``fractions.Fraction`` entries with tolerance 0.  The Bland scans run on
``.tolist()`` copies, whose Python floats divide and compare exactly like
numpy scalars.  Only the rank-1 update depends on the dtype: float tableaus
take the dense ``np.outer`` update, rational ones touch only the nonzero rows
and pivot-row columns, which leaves every value the same (``x - f*0 == x``)
and saves most of the ``Fraction`` arithmetic.

Columns may carry finite upper bounds (Dantzig's upper-bounded simplex).  A
variable at its upper bound ``u`` is kept in the tableau as ``u - x``: its
column is negated and ``u`` times the old column moves into the rhs, so every
nonbasic variable still sits at 0 and the rhs still holds the basic values.
``flipped[j]`` records which orientation column ``j`` is in.
"""

from __future__ import annotations

import math

import numpy as np

LOOP_OPTIMAL = 0
LOOP_UNBOUNDED = 1
LOOP_ITER_LIMIT = 2


def active_backend() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"


def pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Pivot on ``tableau[row, col]`` in place and record ``col`` as basic in ``row``."""
    tableau[row, :] /= tableau[row, col]
    column = tableau[:, col].copy()
    column[row] = 0
    if tableau.dtype == object:
        rows = np.flatnonzero(column)
        cols = np.flatnonzero(tableau[row, :])
        tableau[np.ix_(rows, cols)] -= np.outer(column[rows], tableau[row, cols])
    else:
        tableau -= np.outer(column, tableau[row, :])
    basis[row] = col


def simplex_loop(tableau: np.ndarray, basis: np.ndarray, n_eligible: int,
                 tol, max_iter: int, upper: list | None = None,
                 flipped: np.ndarray | None = None) -> tuple[int, int, int]:
    """Bland-rule simplex iterations on a dense tableau, in place.

    Layout: rows 0..m-1 are constraints, row m is the reduced-cost row with
    the negated objective in its last entry; the last column is the rhs.
    Only columns < n_eligible may enter the basis.  The entering column is
    the first with reduced cost below ``-tol``.  The step length is the
    smallest of: ``rhs/coef`` over entries above ``tol`` (that basic
    variable drops to 0), ``(u - rhs)/-coef`` over entries below ``-tol``
    whose basic variable has a finite bound ``u`` (it reaches ``u``), and
    the entering column's own bound.  Ties go to the lowest column label,
    the entering column counting with its own index.

    ``upper`` holds one bound per column (``math.inf`` when unbounded) and
    ``flipped`` the orientation of each column, updated in place; with
    ``upper=None`` every bound is infinite.  Returns a LOOP_* code, the
    number of pivots and the number of entering-column bound flips.
    """
    m = tableau.shape[0] - 1
    row_upper = None if upper is None else [upper[j] for j in basis.tolist()]
    pivots = flips = 0
    for _ in range(max_iter):
        costs = tableau[m, :n_eligible].tolist()
        enter = next((j for j, v in enumerate(costs) if v < -tol), -1)
        if enter < 0:
            return LOOP_OPTIMAL, pivots, flips

        column = tableau[:m, enter].tolist()
        rhs = tableau[:m, -1].tolist()
        leave = -1
        best = None
        for i, coef in enumerate(column):
            if coef > tol:
                ratio = rhs[i] / coef
            elif row_upper is not None and coef < -tol and row_upper[i] != math.inf:
                ratio = (row_upper[i] - rhs[i]) / -coef
            else:
                continue
            if leave < 0 or ratio < best or (ratio == best and basis[i] < basis[leave]):
                leave, best = i, ratio
        bound = math.inf if upper is None else upper[enter]
        if bound != math.inf and (leave < 0 or bound < best
                                  or (bound == best and enter < basis[leave])):
            # the entering variable reaches its own bound first: substitute
            # bound - x for it in every row, the cost row included; no pivot
            entering = tableau[:, enter].copy()
            tableau[:, -1] -= bound * entering
            tableau[:, enter] = -entering
            flipped[enter] = not flipped[enter]
            flips += 1
            continue
        if leave < 0:
            return LOOP_UNBOUNDED, pivots, flips
        if row_upper is not None and column[leave] < 0:
            # the leaving variable stops at its bound: rewrite its row for u - x
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
    return LOOP_ITER_LIMIT, pivots, flips
