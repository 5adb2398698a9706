"""Two-phase primal simplex for feasibility questions and small LPs.

Standard form: minimize ``c.x`` subject to ``A x = b`` and ``x >= 0``,
optionally with per-column upper bounds ``x <= upper`` (the bounded-variable
simplex: a bound costs no extra row).  Pivot selection uses Bland's
lowest-index rule throughout, which prevents cycling and makes every run
deterministic.  One two-phase driver serves both arithmetics:
``solve_lp_float`` hands it a float64 tableau with tolerances,
``solve_lp_exact`` an object tableau of ``fractions.Fraction`` with every
tolerance 0, and both pivot through ``_kernels.simplex_loop``.  Its two
phases are separate steps: ``feasible_start`` runs phase 1 once and
``FeasibleStart.solve`` runs phase 2 for one cost vector on a copy of its
end state, so many objectives over one system share one phase 1.  Infeasible
systems come back with a Farkas certificate ``y``, one entry per row,
satisfying ``y.A >= 0`` on every unbounded column and
``y.b < sum_j u_j min(0, (y.A)_j)`` over the bounded ones (``y.b < 0``
without bounds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from numbers import Rational

import numpy as np

from ._kernels import LOOP_ITER_LIMIT, LOOP_OPTIMAL, LOOP_UNBOUNDED, pivot, simplex_loop
from .errors import NumericError, ValidationError

DEFAULT_FEAS_TOL = 1e-9
DEFAULT_PIVOT_TOL = 1e-11

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LPResult:
    """Solver outcome; exactly one of ``x`` / ``certificate`` is set.

    ``pivots`` and ``bound_flips`` count the Bland-loop pivots and the
    entering-column bound flips over phases 1 and 2.  A result solved from
    a shared ``FeasibleStart`` reports the same counts as a fresh solve of
    its system: phase 1's counts, although phase 1 ran only once for every
    result read from that start, plus its own phase 2's.
    """

    status: str
    x: object = None           # ndarray (float mode) or list[Fraction]
    objective: object = None
    certificate: object = None  # Farkas vector over the original rows
    pivots: int = 0
    bound_flips: int = 0

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
    for a cost row.  ``basis`` and ``flipped`` give each row's basic column
    and each column's orientation, ``upper`` the per-column bounds.
    ``pivots`` and ``bound_flips`` are phase 1's counts.  ``solve`` never
    changes the start, so every cost vector starts from the same tableau that
    a fresh solve of the same system reaches.
    """

    tableau: np.ndarray
    basis: np.ndarray
    flipped: np.ndarray
    upper: np.ndarray | None
    pivots: int
    bound_flips: int

    @property
    def exact(self) -> bool:
        return self.tableau.dtype == object

    def solve(self, c=None) -> LPResult:
        """Phase 2 for min c.x from a copy of this start; ``None`` is the zero cost."""
        copy = replace(self, tableau=self.tableau.copy(), basis=self.basis.copy(),
                       flipped=self.flipped.copy())
        return _phase_two(copy, _cost(c, len(self.flipped), self.exact))


def _phase_one(A: np.ndarray, b: np.ndarray, upper: np.ndarray | None) -> LPResult | FeasibleStart:
    """Phase 1 and, on a feasible system, artificial drive-out.

    Returns an infeasible ``LPResult`` with its Farkas certificate, or the
    ``FeasibleStart`` phase 2 works on.  ``A``, ``b`` and ``upper`` are
    float64 arrays, or object arrays of Fractions, which every tolerance
    treats as 0.  ``upper`` bounds each column of ``A`` from above
    (``math.inf`` for no bound); ``None`` leaves every column unbounded.
    """
    exact = A.dtype == object
    zero, one = (Fraction(0), Fraction(1)) if exact else (0.0, 1.0)
    tol, feas_tol = (0, 0) if exact else (DEFAULT_PIVOT_TOL, DEFAULT_FEAS_TOL)
    m, n = A.shape

    flips = np.where(b < zero, -one, one)
    A = A * flips[:, None]
    b = b * flips

    tableau = np.full((m + 1, n + m + 1), zero, dtype=A.dtype)
    tableau[:m, :n] = A
    tableau[np.arange(m), n + np.arange(m)] = one
    tableau[:m, -1] = b
    tableau[m, :n] = -A.sum(axis=0)
    tableau[m, -1] = -b.sum()
    basis = np.arange(n, n + m, dtype=np.int64)
    bounds = None if upper is None else upper.tolist() + [math.inf] * m
    flipped = np.zeros(n + m, dtype=bool)

    code, pivots, bound_flips = simplex_loop(tableau, basis, n, tol, _default_iterations(m, n),
                                             bounds, flipped)
    if code != LOOP_OPTIMAL:
        raise NumericError(f"phase-1 simplex did not terminate cleanly (code {code})")

    if -tableau[m, -1] > feas_tol:
        certificate = -(flips * (one - tableau[m, n:n + m]))
        return LPResult(status=INFEASIBLE,
                        certificate=certificate.tolist() if exact else certificate,
                        pivots=pivots, bound_flips=bound_flips)

    # drive leftover artificials out of the basis; drop redundant rows
    drop: list[int] = []
    for r in range(m):
        if basis[r] >= n:
            row = tableau[r, :n].tolist()
            col = next((j for j, v in enumerate(row) if abs(v) > tol), -1)
            if col < 0:
                drop.append(r)
            else:
                pivot(tableau, basis, r, col)
    keep = [r for r in range(m) if r not in drop]
    cols = list(range(n)) + [n + m]
    return FeasibleStart(tableau=np.ascontiguousarray(tableau[np.ix_(keep + [m], cols)]),
                         basis=basis[keep].copy(), flipped=flipped[:n], upper=upper,
                         pivots=pivots, bound_flips=bound_flips)


def _phase_two(start: FeasibleStart, c: np.ndarray) -> LPResult:
    """Put the cost row ``c`` on ``start``, run the loop, read out x; ``start`` is used up."""
    exact = start.exact
    zero = Fraction(0) if exact else 0.0
    tableau, basis, flipped, upper = start.tableau, start.basis, start.flipped, start.upper
    m2, n = len(basis), len(flipped)
    pivots, bound_flips = start.pivots, start.bound_flips

    if np.any(c != zero):
        # the cost in each column's orientation; the objective is read from
        # x, so the constant a flipped column adds to it is left out
        oriented = c.copy()
        oriented[flipped] = -c[flipped]
        tableau[m2, :n] = oriented
        tableau[m2, -1] = zero
        for i in range(m2):
            weight = oriented[basis[i]]
            if weight != zero:
                tableau[m2, :] -= weight * tableau[i, :]
        code, more_pivots, more_flips = simplex_loop(
            tableau, basis, n, 0 if exact else DEFAULT_PIVOT_TOL, _default_iterations(m2, n),
            None if upper is None else upper.tolist(), flipped)
        pivots += more_pivots
        bound_flips += more_flips
        if code == LOOP_UNBOUNDED:
            return LPResult(status=UNBOUNDED, pivots=pivots, bound_flips=bound_flips)
        if code == LOOP_ITER_LIMIT:
            raise NumericError("phase-2 simplex hit the iteration limit")

    x = np.full(n, zero, dtype=tableau.dtype)
    x[basis] = tableau[:m2, -1]
    if flipped.any():
        x[flipped] = upper[flipped] - x[flipped]
    if exact:
        return LPResult(status=OPTIMAL, x=x.tolist(), objective=sum(c * x),
                        pivots=pivots, bound_flips=bound_flips)
    return LPResult(status=OPTIMAL, x=x, objective=float(c @ x),
                    pivots=pivots, bound_flips=bound_flips)


def _two_phase(A: np.ndarray, b: np.ndarray, c: np.ndarray, upper: np.ndarray | None) -> LPResult:
    """Phase 1, then phase 2 for ``c`` from its start; exact results come back as lists."""
    start = _phase_one(A, b, upper)
    return start if isinstance(start, LPResult) else _phase_two(start, c)


def _system(A, b, upper, exact: bool) -> tuple:
    """``A``, ``b`` and ``upper`` as float64 or ``Fraction`` arrays, validated.

    ``A`` needs at least one row and ``b`` one entry per row; ``upper``, when
    given, one bound per column, each ``>= 0`` or ``math.inf``.
    """
    dtype = object if exact else float
    if exact:
        A = [[_as_fraction(v) for v in row] for row in A]
        b = [_as_fraction(v) for v in b]
    A = np.array(A, dtype=dtype)
    b = np.array(b, dtype=dtype)
    if A.ndim != 2 or A.shape[0] == 0 or b.shape != (A.shape[0],):
        raise ValidationError(f"incompatible LP shapes A{A.shape}, b{b.shape}")
    if upper is None:
        return A, b, None
    bounds = [v if v == math.inf else _as_fraction(v) if exact else float(v) for v in upper]
    if len(bounds) != A.shape[1]:
        raise ValidationError(f"upper-bound vector must have length {A.shape[1]}")
    if any(not v >= 0 for v in bounds):
        raise ValidationError("upper bounds must be non-negative")
    return A, b, np.array(bounds, dtype=dtype)


def _cost(c, n: int, exact: bool) -> np.ndarray:
    """The cost vector as a float64 or ``Fraction`` array of length ``n``; ``None`` is 0."""
    if c is None:
        return np.full(n, Fraction(0) if exact else 0.0, dtype=object if exact else float)
    cost = np.array([_as_fraction(v) for v in c] if exact else c, dtype=object if exact else float)
    if cost.shape != (n,):
        raise ValidationError(f"cost vector must have length {n}")
    return cost


def solve_lp_float(A, b, c=None, *, upper=None) -> LPResult:
    """Solve min c.x, A x = b, 0 <= x <= upper in floating point."""
    A, b, upper = _system(A, b, upper, False)
    return _two_phase(A, b, _cost(c, A.shape[1], False), upper)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, Rational) or isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not value.is_integer():
            raise ValidationError(f"exact mode requires rational inputs, got float {value!r}")
        return Fraction(int(value))
    raise ValidationError(f"exact mode cannot coerce {value!r} to a rational")


def solve_lp_exact(A, b, c=None, *, upper=None) -> LPResult:
    """Solve min c.x, A x = b, 0 <= x <= upper in exact rational arithmetic."""
    A, b, upper = _system(A, b, upper, True)
    return _two_phase(A, b, _cost(c, A.shape[1], True), upper)


def feasible_start(A, b, *, upper=None, exact: bool = False) -> LPResult | FeasibleStart:
    """Run phase 1 once for ``A x = b, 0 <= x <= upper``.

    Returns the infeasible ``LPResult`` with its Farkas certificate, or a
    ``FeasibleStart`` whose ``solve(c)`` gives, for each cost vector, the
    result ``solve_lp(A, b, c, upper=upper, exact=exact)`` would give.
    """
    return _phase_one(*_system(A, b, upper, exact))


def solve_lp(A, b, c=None, *, upper=None, exact: bool = False) -> LPResult:
    """Dispatch to the exact or floating solver."""
    if exact:
        return solve_lp_exact(A, b, c, upper=upper)
    return solve_lp_float(A, b, c, upper=upper)


def verify_certificate(A, b, certificate, upper=None) -> bool:
    """Check the Farkas conditions for ``A x = b, 0 <= x <= upper``.

    The certificate ``y`` needs one entry per row of ``A``.  It proves
    infeasibility when ``(y.A)_j >= 0`` on every column without a finite
    bound and ``y.b < sum_j u_j * min(0, (y.A)_j)`` over the bounded ones;
    with ``upper=None`` that is ``y.A >= 0`` componentwise and ``y.b < 0``.
    Exact inputs are checked exactly; float inputs within ``DEFAULT_FEAS_TOL``
    scaled by the certificate magnitude.
    """
    if certificate is None or len(certificate) != len(A):
        return False
    dtype = object if all(isinstance(v, Rational) for v in certificate) else float
    y = np.asarray(certificate, dtype=dtype)
    slack = 0 if dtype is object else DEFAULT_FEAS_TOL * max(1.0, float(np.max(np.abs(y))))
    combo = y @ np.asarray(A, dtype=dtype)
    rhs = y @ np.asarray(b, dtype=dtype)
    bounds = np.full(len(combo), math.inf, dtype=dtype) if upper is None \
        else np.asarray(upper, dtype=dtype)
    finite = bounds != math.inf
    reach = bounds[finite] @ np.minimum(combo[finite], 0)
    free = combo[~finite]
    return bool((free.size == 0 or free.min() >= -slack) and rhs - reach < -slack)
