"""The Bland-rule pivot loop shared by float and exact simplex solves.

One loop and one pivot work on a dense numpy tableau of either dtype:
``float64`` with a small pivot tolerance, or ``object`` holding
``fractions.Fraction`` entries with tolerance 0.  The Bland scans run on
``.tolist()`` copies, whose Python floats divide and compare exactly like
numpy scalars.  Only the rank-1 update depends on the dtype: float tableaus
take the dense ``np.outer`` update, rational ones touch only the nonzero rows
and pivot-row columns, which leaves every value the same (``x - f*0 == x``)
and saves most of the ``Fraction`` arithmetic.
"""

from __future__ import annotations

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
                 tol, max_iter: int) -> int:
    """Bland-rule simplex iterations on a dense tableau, in place.

    Layout: rows 0..m-1 are constraints, row m is the reduced-cost row with
    the negated objective in its last entry; the last column is the rhs.
    Only columns < n_eligible may enter the basis.  The entering column is
    the first with reduced cost below ``-tol``; the leaving row has the
    minimum ratio over entries above ``tol``, ties going to the lowest basis
    label.  Returns a LOOP_* code.
    """
    m = tableau.shape[0] - 1
    for _ in range(max_iter):
        costs = tableau[m, :n_eligible].tolist()
        enter = next((j for j, v in enumerate(costs) if v < -tol), -1)
        if enter < 0:
            return LOOP_OPTIMAL

        column = tableau[:m, enter].tolist()
        rhs = tableau[:m, -1].tolist()
        leave = -1
        best = None
        for i, coef in enumerate(column):
            if coef > tol:
                ratio = rhs[i] / coef
                if leave < 0 or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        if leave < 0:
            return LOOP_UNBOUNDED
        pivot(tableau, basis, leave, enter)
    return LOOP_ITER_LIMIT
