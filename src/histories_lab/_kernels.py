"""The simplex pivot loop shared by float and exact simplex solves.

One loop works on either of two tableau representations:

- a dense ``float64`` numpy tableau with a small pivot tolerance.  Each
  step is a few whole-array numpy calls: ``argmin`` over a view of the
  cost row picks the entering column, the pivot row is scaled in place and
  the rest of the tableau takes one broadcast rank-1 update.  Only the
  ratio test walks a column in Python, because its ties go to the lowest
  basic label;
- an ``IntTableau`` of Python-``int`` rows, row ``i`` meaning
  ``rows[i] / den[i]`` with ``den[i] > 0`` and the row reduced by its gcd
  after every update (fraction-free elimination, Edmonds 1967; Bareiss
  1968).  A value's sign is its numerator's, a ratio of two entries of one
  row is a ratio of numerators, and ratios are compared by cross
  multiplication, so no rational number is ever built and no tolerance
  is needed.

The entering column is the one with the most negative reduced cost
(Dantzig's rule), ties going to the lowest index.  Dantzig's rule can cycle
on a degenerate basis, so once ``m`` consecutive steps (``m`` rows) leave
the objective no better than the best value reached, the loop finishes on
Bland's lowest-index rule (Bland 1977), which terminates from any basis.
The control flow (entering column, stall guard, ratio test, ties, counts)
is the same for both representations; only the arithmetic at each step is
picked by the representation.  Every exact tableau value equals the
rational the textbook ``Fraction`` tableau would hold, so both take the
same pivots.  On finite entries, the only ones ``simplex`` accepts, every
float value is the one the elementwise textbook update gives
(``tests/float_simplex.py`` keeps it as the reference), down to the sign of
a zero.  Every column is bounded only below, by 0.
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


class IntTableau:
    """An exact tableau: row ``i`` is ``rows[i] / den[i]``, its last entry the rhs.

    Every ``den[i]`` is positive and every row is kept reduced:
    ``gcd(den[i], *rows[i]) == 1``.  A basic column's entry in its row is
    therefore ``den[i]``.
    """

    __slots__ = ("rows", "den")

    def __init__(self, rows: list[list[int]], den: list[int]):
        self.rows = rows
        self.den = den

    def copy(self) -> "IntTableau":
        return IntTableau([row[:] for row in self.rows], self.den[:])


def reduced(row: list[int], den: int) -> tuple[list[int], int]:
    """``row / den`` divided through by the gcd of its entries and ``den``."""
    if den == 1:
        return row, den
    g = math.gcd(den, *row)
    if g == 1:
        return row, den
    return [v // g for v in row], den // g


def eliminate(row: list[int], den: int, prow: list[int], p: int, col: int) -> tuple[list[int], int]:
    """``row / den`` minus its column-``col`` value times ``prow / p``, reduced.

    ``prow[col]`` must equal ``p > 0``, so ``prow / p`` is 1 in column
    ``col`` and the result is 0 there: the row becomes
    ``row * p - row[col] * prow`` over ``den * p``.
    """
    f = row[col]
    if p == 1:
        return reduced([a - f * b for a, b in zip(row, prow)], den)
    return reduced([a * p - f * b for a, b in zip(row, prow)], den * p)


def pivot(tableau, basis: np.ndarray, row: int, col: int) -> None:
    """Pivot on entry ``(row, col)`` in place and record ``col`` as basic in ``row``.

    A float tableau scales its pivot row in place, then subtracts from every
    row its column-``col`` entry times the pivot row, the pivot row itself
    taking ``0 * prow``: one broadcast product of the column and the row.
    So each entry is the value the elementwise update gives, down to a
    ``-0.0`` that ``- 0 * prow`` turns to ``0.0``.
    """
    if isinstance(tableau, IntTableau):
        rows, den = tableau.rows, tableau.den
        prow, p = rows[row], rows[row][col]
        if p < 0:
            prow, p = [-v for v in prow], -p
        # row / den divided by its entry p / den is prow / p
        prow, p = reduced(prow, p)
        rows[row], den[row] = prow, p
        for i, other in enumerate(rows):
            if i != row and other[col]:
                rows[i], den[i] = eliminate(other, den[i], prow, p, col)
    else:
        prow = tableau[row]
        prow /= prow[col]
        column = tableau[:, col].copy()
        column[row] = 0.0
        tableau -= column[:, None] * prow
    basis[row] = col


def _float_ratio_test(tableau: np.ndarray, basis: np.ndarray, enter: int, tol) -> int:
    """The leaving row of a float tableau, ``-1`` when no row bounds the step:
    the least ``rhs / coef`` over entries ``coef > tol``, ties going to the
    lowest basic label."""
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


def _exact_ratio_test(tableau: IntTableau, basis: np.ndarray, enter: int) -> int:
    """The leaving row of an exact tableau, ``-1`` when no row bounds the step.

    A row's denominator cancels from ``rhs / coef``, so its step is the pair
    ``(rhs, coef)`` over entries ``coef > 0``; steps compare by cross
    multiplication, ties going to the lowest basic label.
    """
    rows = tableau.rows
    leave, bp, bq = -1, 0, 1
    for i in range(len(basis)):
        row = rows[i]
        q = row[enter]
        if q > 0:
            p = row[-1]
            if leave < 0 or p * bq < bp * q or (p * bq == bp * q and basis[i] < basis[leave]):
                leave, bp, bq = i, p, q
    return leave


def simplex_loop(tableau, basis: np.ndarray, n_eligible: int,
                 tol, max_iter: int) -> tuple[int, int]:
    """Simplex iterations on a float or ``IntTableau``, in place.

    Layout: rows 0..m-1 are constraints, row m is the reduced-cost row with
    the negated objective in its last entry; the last column is the rhs.
    Only columns < n_eligible may enter the basis.  The entering column is
    the one with the most negative reduced cost below ``-tol``, the lowest
    index among equals.  The loop keeps the best negated objective reached;
    after ``m`` consecutive entering steps that do not raise it, the rest of
    the call enters the first column with reduced cost below ``-tol``
    (Bland's rule), so a degenerate cycle cannot last.  The step length is
    the smallest ``rhs/coef`` over entries above ``tol`` (that basic
    variable drops to 0), ties going to the lowest basic label.  A float
    tableau is read through a view of its cost row, taken once, whose
    ``argmin`` is the first of equal values; with no eligible column the
    loop is optimal at once.  An exact tableau takes ``tol=0``; its cost row
    has one denominator, so its reduced costs compare as numerators and its
    objectives by cross multiplication.  Returns a LOOP_* code and the
    number of pivots.
    """
    exact = isinstance(tableau, IntTableau)
    m = len(basis)
    pivots = 0
    bland = False
    stalled = 0
    best = best_den = None  # the highest negated objective so far is best / best_den
    if not exact:
        costs = tableau[m, :n_eligible]  # a view: every pivot updates the tableau in place
    for _ in range(max_iter):
        if exact:
            costs = tableau.rows[m][:n_eligible]
        if not bland:
            value, den = (tableau.rows[m][-1], tableau.den[m]) if exact \
                else (tableau.item(m, -1), 1.0)
            if best is None or value * best_den > best * den:
                best, best_den, stalled = value, den, 0
            else:
                stalled += 1
                bland = stalled >= m
        if bland:
            enter = next((j for j, v in enumerate(costs if exact else costs.tolist()) if v < -tol), -1)
        elif exact:
            low = min(costs, default=0)
            enter = costs.index(low) if low < -tol else -1
        else:
            enter = int(costs.argmin()) if n_eligible else -1  # argmin: the first of equal values
            if enter >= 0 and not costs.item(enter) < -tol:
                enter = -1
        if enter < 0:
            return LOOP_OPTIMAL, pivots
        leave = _exact_ratio_test(tableau, basis, enter) if exact \
            else _float_ratio_test(tableau, basis, enter, tol)
        if leave < 0:
            return LOOP_UNBOUNDED, pivots
        pivot(tableau, basis, leave, enter)
        pivots += 1
    return LOOP_ITER_LIMIT, pivots
