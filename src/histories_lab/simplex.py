"""Two-phase primal simplex for feasibility questions and small LPs.

Standard form: minimize ``c.x`` subject to ``A x = b`` and ``x >= 0``.
Pivot selection uses Bland's lowest-index rule throughout, which prevents
cycling and makes every run deterministic.  One two-phase driver serves both
arithmetics: ``solve_lp_float`` hands it a float64 tableau with tolerances,
``solve_lp_exact`` an object tableau of ``fractions.Fraction`` with every
tolerance 0, and both pivot through ``_kernels.simplex_loop``.  Infeasible
systems come back with a Farkas certificate ``y`` satisfying ``y.A >= 0``
componentwise and ``y.b < 0``.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """Solver outcome; exactly one of ``x`` / ``certificate`` is set."""

    status: str
    x: object = None           # ndarray (float mode) or list[Fraction]
    objective: object = None
    certificate: object = None  # Farkas vector over the original rows

    @property
    def feasible(self) -> bool:
        return self.status == OPTIMAL


def _default_iterations(m: int, n: int) -> int:
    return 200 * (m + n) + 2000


def _two_phase(A: np.ndarray, b: np.ndarray, c: np.ndarray, tol, feas_tol,
               max_iter: int | None) -> LPResult:
    """Phase 1, Farkas certificate or artificial drive-out, phase 2, read-out.

    ``A``, ``b`` and ``c`` are float64 arrays, or object arrays of Fractions
    with ``tol = feas_tol = 0``; exact results come back as lists.
    """
    exact = A.dtype == object
    zero, one = (Fraction(0), Fraction(1)) if exact else (0.0, 1.0)
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
    iterations = max_iter if max_iter is not None else _default_iterations(m, n)

    code = simplex_loop(tableau, basis, n, tol, iterations)
    if code != LOOP_OPTIMAL:
        raise NumericError(f"phase-1 simplex did not terminate cleanly (code {code})")

    if -tableau[m, -1] > feas_tol:
        certificate = -(flips * (one - tableau[m, n:n + m]))
        return LPResult(status=INFEASIBLE,
                        certificate=certificate.tolist() if exact else certificate)

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
    tableau = np.ascontiguousarray(tableau[np.ix_(keep + [m], cols)])
    basis = basis[keep].copy()
    m2 = len(keep)

    if np.any(c != zero):
        tableau[m2, :n] = c
        tableau[m2, -1] = zero
        for i in range(m2):
            weight = c[basis[i]]
            if weight != zero:
                tableau[m2, :] -= weight * tableau[i, :]
        code = simplex_loop(tableau, basis, n, tol, iterations)
        if code == LOOP_UNBOUNDED:
            return LPResult(status=UNBOUNDED)
        if code == LOOP_ITER_LIMIT:
            raise NumericError("phase-2 simplex hit the iteration limit")

    x = np.full(n, zero, dtype=A.dtype)
    x[basis] = tableau[:m2, -1]
    if exact:
        return LPResult(status=OPTIMAL, x=x.tolist(), objective=sum(c * x))
    return LPResult(status=OPTIMAL, x=x, objective=float(c @ x))


def solve_lp_float(A, b, c=None, *, feas_tol: float = DEFAULT_FEAS_TOL,
                   pivot_tol: float = DEFAULT_PIVOT_TOL,
                   max_iter: int | None = None) -> LPResult:
    """Solve min c.x, A x = b, x >= 0 in floating point."""
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    if A.ndim != 2 or b.shape != (A.shape[0],):
        raise ValidationError(f"incompatible LP shapes A{A.shape}, b{b.shape}")
    n = A.shape[1]
    c = np.zeros(n) if c is None else np.array(c, dtype=float)
    if c.shape != (n,):
        raise ValidationError(f"cost vector must have length {n}")
    return _two_phase(A, b, c, pivot_tol, feas_tol, max_iter)


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


def solve_lp_exact(A, b, c=None, *, max_iter: int | None = None) -> LPResult:
    """Solve min c.x, A x = b, x >= 0 in exact rational arithmetic."""
    rows = [[_as_fraction(v) for v in row] for row in A]
    rhs = [_as_fraction(v) for v in b]
    m = len(rows)
    if m == 0 or len(rhs) != m:
        raise ValidationError("exact LP needs at least one constraint row and matching rhs")
    n = len(rows[0])
    if any(len(row) != n for row in rows):
        raise ValidationError("constraint rows must share one length")
    cost = [Fraction(0)] * n if c is None else [_as_fraction(v) for v in c]
    if len(cost) != n:
        raise ValidationError(f"cost vector must have length {n}")
    return _two_phase(np.array(rows, dtype=object), np.array(rhs, dtype=object),
                      np.array(cost, dtype=object), 0, 0, max_iter)


def solve_lp(A, b, c=None, *, exact: bool = False, max_iter: int | None = None) -> LPResult:
    """Dispatch to the exact or floating solver."""
    if exact:
        return solve_lp_exact(A, b, c, max_iter=max_iter)
    return solve_lp_float(A, b, c, max_iter=max_iter)


def verify_certificate(A, b, certificate, tol: float = 1e-9) -> bool:
    """Check the Farkas conditions ``y.A >= 0`` (componentwise) and ``y.b < 0``.

    Exact inputs are checked exactly; float inputs within an absolute
    tolerance scaled by the certificate magnitude.
    """
    if certificate is None:
        return False
    if all(isinstance(v, Rational) for v in certificate):
        cols = len(A[0])
        combo = [sum(certificate[i] * A[i][j] for i in range(len(A))) for j in range(cols)]
        rhs = sum(ci * bi for ci, bi in zip(certificate, b))
        return all(v >= 0 for v in combo) and rhs < 0
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    y = np.asarray(certificate, dtype=float)
    scale = max(1.0, float(np.max(np.abs(y))))
    combo = y @ A
    rhs = float(y @ b)
    return bool(combo.min() >= -tol * scale and rhs < -tol * scale)
