"""Two-phase primal simplex for feasibility questions and small LPs.

Standard form: minimize ``c.x`` subject to ``A x = b`` and ``x >= 0``; a
bound on a variable is written as a row.  The entering column is the one
with the most negative reduced cost (Dantzig's rule, lowest index among
equals); after as many non-improving steps in a row as the tableau has rows,
a loop finishes on Bland's lowest-index rule, which prevents cycling.  Every
run is deterministic.  One two-phase driver serves both arithmetics:
``solve_lp_float`` hands it a float64 tableau with tolerances,
``solve_lp_exact`` an ``_kernels.IntTableau`` with every tolerance 0, and
both pivot through ``_kernels.simplex_loop``.  The exact tableau holds
Python-``int`` rows, each over its own positive denominator; ``Fraction``s
exist only at the boundary: the inputs and each cost vector become integer
rows once, and ``x``, ``objective`` and ``certificate`` are read back out
as ``Fraction``s.  Its two phases are separate steps: ``feasible_start``
runs phase 1 once and ``FeasibleStart.solve`` runs phase 2 for one cost
vector on a copy of its end state, so many objectives over one system share
one phase 1.  Infeasible systems come back with a Farkas certificate ``y``,
one entry per row, satisfying ``y.A >= 0`` and ``y.b < 0``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from fractions import Fraction
from numbers import Integral, Rational, Real

import numpy as np

from ._kernels import (
    LOOP_ITER_LIMIT,
    LOOP_OPTIMAL,
    LOOP_UNBOUNDED,
    IntTableau,
    eliminate,
    pivot,
    reduced,
    simplex_loop,
)
from .errors import NumericError, ValidationError

DEFAULT_FEAS_TOL = 1e-9
DEFAULT_PIVOT_TOL = 1e-11
_EPS = float(np.finfo(float).eps)
_SUBNORMAL = float(np.finfo(float).smallest_subnormal)  # bounds the error of an underflowed product

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LPResult:
    """Solver outcome; exactly one of ``x`` / ``certificate`` is set.

    ``pivots`` counts the pivot-loop pivots over phases 1 and 2.  A result
    solved from a shared ``FeasibleStart`` reports the same count as a fresh
    solve of its system: phase 1's count, although phase 1 ran only once for
    every result read from that start, plus its own phase 2's.

    Float solves give ``x`` and ``certificate`` as float64 arrays and
    ``objective`` as a float; exact solves give lists of ``Fraction`` and a
    ``Fraction``, read out of the integer tableau.
    """

    status: str
    x: object = None
    objective: object = None
    certificate: object = None  # Farkas vector over the original rows
    pivots: int = 0

    @property
    def feasible(self) -> bool:
        return self.status == OPTIMAL


def _default_iterations(m: int, n: int) -> int:
    return 200 * (m + n) + 2000


@dataclass
class FeasibleStart:
    """Phase 1's end state on a feasible system, reusable by any number of phase 2s.

    The tableau holds the original columns and the rhs after the artificials
    were driven out and redundant rows dropped; its last row is left free
    for a cost row.  It is a float64 array, or in exact mode an
    ``IntTableau`` of reduced integer rows, each over its own positive
    denominator.  ``basis`` gives each row's basic column, ``n`` the number
    of original columns and ``pivots`` phase 1's count.  ``solve`` never
    changes the start, so every cost vector starts from the same tableau that
    a fresh solve of the same system reaches.
    """

    tableau: np.ndarray | IntTableau
    basis: np.ndarray
    n: int
    pivots: int

    @property
    def exact(self) -> bool:
        return isinstance(self.tableau, IntTableau)

    def solve(self, c=None) -> LPResult:
        """Phase 2 for min c.x from a copy of this start; ``None`` is the zero cost."""
        copy = replace(self, tableau=self.tableau.copy(), basis=self.basis.copy())
        return _phase_two(copy, _cost(c, self.n, self.exact))


def _int_row(values) -> tuple[list[int], int]:
    """Rationals as integer numerators over their least common denominator;
    the result is reduced because every ``Fraction`` is."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _exact_phase_one_tableau(A: np.ndarray, b: np.ndarray, signs: list[int]) -> IntTableau:
    """Phase 1's exact tableau: row ``i`` is ``signs[i] * [A_i, e_i, b_i]``
    over its own denominator, and the cost row is minus the sum of the
    constraint rows with 0 on the artificials, over the lcm of theirs."""
    m, n = A.shape
    rows, den = [], []
    for i, (values, sign) in enumerate(zip(np.column_stack([A, b]).tolist(), signs)):
        nums, d = _int_row(values)
        artificial = [0] * m
        artificial[i] = d
        rows.append([sign * v for v in nums[:n]] + artificial + [sign * nums[-1]])
        den.append(d)
    common = math.lcm(*den)
    scaled = [[v * (common // d) for v in row] for row, d in zip(rows, den)]
    cost = [-sum(column) for column in zip(*scaled)]
    cost[n:n + m] = [0] * m
    cost, cost_den = reduced(cost, common)
    return IntTableau(rows + [cost], den + [cost_den])


def _phase_one(A: np.ndarray, b: np.ndarray, feas_tol: float = DEFAULT_FEAS_TOL) -> LPResult | FeasibleStart:
    """Phase 1 and, on a feasible system, artificial drive-out.

    Returns an infeasible ``LPResult`` with its Farkas certificate, or the
    ``FeasibleStart`` phase 2 works on.  ``A`` and ``b`` are float64 arrays
    (feasible within ``feas_tol``), or object arrays of exact rationals (``int``
    or ``Fraction``), which solve on an ``IntTableau`` with every tolerance 0.
    """
    exact = A.dtype == object
    m, n = A.shape
    signs = np.where(b < 0, -1, 1)
    basis = np.arange(n, n + m, dtype=np.int64)
    if exact:
        tol = 0
        tableau = _exact_phase_one_tableau(A, b, signs.tolist())
    else:
        tol = DEFAULT_PIVOT_TOL
        A = A * signs[:, None]
        b = b * signs
        tableau = np.zeros((m + 1, n + m + 1))
        tableau[:m, :n] = A
        np.fill_diagonal(tableau[:m, n:n + m], 1.0)
        tableau[:m, -1] = b
        tableau[m, :n] = -A.sum(axis=0)
        tableau[m, -1] = -b.sum()

    code, pivots = simplex_loop(tableau, basis, n, tol, _default_iterations(m, n))
    if code != LOOP_OPTIMAL:
        raise NumericError(f"phase-1 simplex did not terminate cleanly (code {code})")

    if (tableau.rows[m][-1] < 0) if exact else (-tableau[m, -1] > feas_tol):
        if exact:
            d = tableau.den[m]
            certificate = [Fraction(-sign * (d - v), d)
                           for sign, v in zip(signs.tolist(), tableau.rows[m][n:n + m])]
        else:
            certificate = -(signs * (1.0 - tableau[m, n:n + m]))
        return LPResult(status=INFEASIBLE, certificate=certificate, pivots=pivots)

    # drive leftover artificials out of the basis; drop redundant rows
    drop: list[int] = []
    artificial = [r for r, j in enumerate(basis.tolist()) if j >= n]  # a pivot on r moves no other label
    for r in artificial:
        row = tableau.rows[r][:n] if exact else tableau[r, :n].tolist()
        col = next((j for j, v in enumerate(row) if abs(v) > tol), -1)
        if col < 0:
            drop.append(r)
        else:
            pivot(tableau, basis, r, col)
    keep = [r for r in range(m) if r not in drop]
    if exact:
        kept = [reduced(tableau.rows[r][:n] + tableau.rows[r][-1:], tableau.den[r])
                for r in keep + [m]]
        tableau = IntTableau([row for row, _ in kept], [d for _, d in kept])
    else:
        rows = tableau[keep + [m]] if drop else tableau
        tableau = np.concatenate((rows[:, :n], rows[:, -1:]), axis=1)
    return FeasibleStart(tableau=tableau, basis=basis[keep].copy(), n=n, pivots=pivots)


def _phase_two(start: FeasibleStart, c) -> LPResult:
    """Put the cost row ``c`` (from ``_cost``) on ``start``, run the loop,
    read out x; ``start`` is used up."""
    exact = start.exact
    tableau, basis, n, pivots = start.tableau, start.basis, start.n, start.pivots
    m2 = len(basis)

    if (any(c[0]) if exact else c.any()):
        if exact:
            cost, cost_den = c[0] + [0], c[1]
            for i, j in enumerate(basis.tolist()):
                if cost[j]:
                    cost, cost_den = eliminate(cost, cost_den, tableau.rows[i], tableau.den[i], j)
            tableau.rows[m2], tableau.den[m2] = cost, cost_den
        else:
            tableau[m2, :n] = c
            tableau[m2, -1] = 0.0
            for i in range(m2):
                weight = c[basis[i]]
                if weight != 0.0:
                    tableau[m2, :] -= weight * tableau[i, :]
        code, more_pivots = simplex_loop(tableau, basis, n, 0 if exact else DEFAULT_PIVOT_TOL,
                                         _default_iterations(m2, n))
        pivots += more_pivots
        if code == LOOP_UNBOUNDED:
            return LPResult(status=UNBOUNDED, pivots=pivots)
        if code == LOOP_ITER_LIMIT:
            raise NumericError("phase-2 simplex hit the iteration limit")

    if not exact:
        x = np.zeros(n)
        x[basis] = tableau[:m2, -1]
        return LPResult(status=OPTIMAL, x=x, objective=float(c @ x), pivots=pivots)
    x = [Fraction(0)] * n
    for i, j in enumerate(basis.tolist()):
        x[j] = Fraction(tableau.rows[i][-1], tableau.den[i])
    objective = sum((v * xj for v, xj in zip(c[0], x) if v), Fraction(0))
    return LPResult(status=OPTIMAL, x=x, objective=objective if c[1] == 1 else objective / c[1],
                    pivots=pivots)


def _two_phase(A: np.ndarray, b: np.ndarray, c, feas_tol: float = DEFAULT_FEAS_TOL) -> LPResult:
    """Phase 1, then phase 2 for ``c`` from its start; exact results come back as lists."""
    start = _phase_one(A, b, feas_tol)
    return start if isinstance(start, LPResult) else _phase_two(start, c)


def _system(A, b, exact: bool) -> tuple:
    """``A`` and ``b`` as float64 arrays, or as object arrays of rationals
    (``int`` or ``Fraction``), validated: ``A`` needs at least one row and
    ``b`` one entry per row, and every float entry must be finite (exact mode
    refuses NaN and inf as non-rational)."""
    dtype = object if exact else float
    if exact:
        A = [[_as_rational(v) for v in row] for row in A]
        b = [_as_rational(v) for v in b]
    A = np.array(A, dtype=dtype)
    b = np.array(b, dtype=dtype)
    if A.ndim != 2 or A.shape[0] == 0 or b.shape != (A.shape[0],):
        raise ValidationError(f"incompatible LP shapes A{A.shape}, b{b.shape}")
    if not exact and not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValidationError("LP entries must be finite numbers")
    return A, b


def _cost(c, n: int, exact: bool):
    """The cost vector of length ``n``, ``None`` being 0: a float64 array, or
    in exact mode an integer row and its denominator."""
    if c is None:
        return ([0] * n, 1) if exact else np.zeros(n)
    if exact:
        values = [_as_rational(v) for v in c]
        if len(values) != n:
            raise ValidationError(f"cost vector must have length {n}")
        return _int_row(values)
    cost = np.array(c, dtype=float)
    if cost.shape != (n,):
        raise ValidationError(f"cost vector must have length {n}")
    if not np.isfinite(cost).all():
        raise ValidationError("cost vector entries must be finite numbers")
    return cost


def solve_lp_float(A, b, c=None, *, feas_tol: float = DEFAULT_FEAS_TOL) -> LPResult:
    """Solve min c.x, A x = b, x >= 0 in floating point, feasible within ``feas_tol``."""
    A, b = _system(A, b, False)
    return _two_phase(A, b, _cost(c, A.shape[1], False), feas_tol)


def _as_rational(value) -> int | Fraction:
    """An exact input as an ``int`` or a ``Fraction``; both carry
    ``numerator`` and ``denominator``."""
    if type(value) is int or isinstance(value, Fraction):
        return value
    if isinstance(value, Integral):
        return int(value)
    if isinstance(value, Rational):
        return Fraction(value)
    if isinstance(value, float):
        if not value.is_integer():
            raise ValidationError(f"exact mode requires rational inputs, got float {value!r}")
        return int(value)
    raise ValidationError(f"exact mode cannot coerce {value!r} to a rational")


def solve_lp_exact(A, b, c=None) -> LPResult:
    """Solve min c.x, A x = b, x >= 0 in exact rational arithmetic."""
    A, b = _system(A, b, True)
    return _two_phase(A, b, _cost(c, A.shape[1], True))


def feasible_start(A, b, *, exact: bool = False) -> LPResult | FeasibleStart:
    """Run phase 1 once for ``A x = b, x >= 0``.

    Returns the infeasible ``LPResult`` with its Farkas certificate, or a
    ``FeasibleStart`` whose ``solve(c)`` gives, for each cost vector, the
    result ``solve_lp(A, b, c, exact=exact)`` would give.
    """
    return _phase_one(*_system(A, b, exact))


def solve_lp(A, b, c=None, *, exact: bool = False, feas_tol: float = DEFAULT_FEAS_TOL) -> LPResult:
    """Dispatch to the exact or floating solver; ``feas_tol`` is the float one's."""
    if exact:
        return solve_lp_exact(A, b, c)
    return solve_lp_float(A, b, c, feas_tol=feas_tol)


def verify_certificate(A, b, certificate) -> bool:
    """Check the Farkas conditions for ``A x = b, x >= 0``.

    The certificate ``y`` needs one entry per row of ``A``.  It proves
    infeasibility when ``y.A >= 0`` componentwise and ``y.b < 0``.  Exact
    inputs are checked exactly; float inputs within ``DEFAULT_FEAS_TOL``
    scaled by the certificate magnitude.  A candidate that is not a flat
    sequence of finite real numbers with one entry per row is rejected.
    """
    refutes = farkas_test(A, certificate)
    return refutes is not None and refutes(b)


def farkas_test(A, certificate, *, feas_tol: float = DEFAULT_FEAS_TOL):
    """``verify_certificate`` with its ``b``-free part done once: a function
    ``refutes(b)`` for systems that differ only in ``b`` (float ones within
    ``feas_tol``), or ``None`` when it refutes no right-hand side at all.

    ``refutes`` takes one right-hand side, for a ``bool`` from one dot
    product, or a ``(P, m)`` stack of them, for ``P`` booleans from one
    matrix product.  The stack's answers are the one-row answers: the two
    products of a float row differ by at most ``m * eps * sum|y_i b_i|``
    (each is within half that of the exact sum), so a row whose matrix
    product lies within twice that of the threshold is decided by its own
    dot product.
    """
    if isinstance(certificate, str) or not isinstance(certificate, (Sequence, np.ndarray)) \
            or len(certificate) != len(A):
        return None
    types = set(map(type, certificate))
    if not all(issubclass(t, Real) for t in types):
        return None
    exact = all(issubclass(t, Rational) for t in types)
    dtype = object if exact else float
    try:
        y = np.asarray(certificate, dtype=dtype)
    except OverflowError:  # an int beyond the float range among float entries
        return None
    scale = 1.0 if exact else float(np.max(np.abs(y)))
    if not math.isfinite(scale):
        return None
    slack = 0 if exact else feas_tol * max(1.0, scale)
    combo = y @ np.asarray(A, dtype=dtype)
    if combo.size and not combo.min() >= -slack:
        return None

    def refutes(b):
        b = np.asarray(b, dtype=dtype)
        if b.ndim == 1:
            return bool(y @ b < -slack)
        values = b @ y
        if not exact:  # one product may round a row otherwise than its dot product
            error = 2 * len(y) * (_EPS * (np.abs(b) @ np.abs(y)) + _SUBNORMAL)
            for i in np.flatnonzero(np.abs(values + slack) <= error).tolist():
                values[i] = y @ b[i]
        return values < -slack
    return refutes
