"""Dense complex linear algebra for small finite-dimensional quantum systems.

Everything here works on square ``complex128`` numpy arrays.  Values are
validated once, at construction, against the fixed max-norm tolerance
``DEFAULT_TOL`` and are immutable afterwards; all functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

DEFAULT_TOL = 1e-10
DEFAULT_DIMENSION_CAP = 1024

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def frozen_array(values) -> np.ndarray:
    """Copy ``values`` into a read-only complex array."""
    arr = np.array(values, dtype=complex)
    arr.setflags(write=False)
    return arr


def as_square_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex matrix, raising ``ValidationError`` otherwise."""
    arr = np.asarray(values, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ValidationError(f"{name} must be non-empty")
    return arr


def max_abs(m) -> float:
    """Max-norm of a matrix (largest entry magnitude)."""
    return float(np.abs(m).max(initial=0.0))


def is_hermitian(m) -> bool:
    m = np.asarray(m, dtype=complex)
    return max_abs(m - m.conj().T) <= DEFAULT_TOL


def ket(amplitudes) -> np.ndarray:
    """Normalize a 1D amplitude vector into a unit ket."""
    v = np.asarray(amplitudes, dtype=complex).reshape(-1)
    n = np.linalg.norm(v)
    if n == 0:
        raise ValidationError("cannot normalize the zero vector")
    return v / n


def projector_onto(state) -> np.ndarray:
    """Rank-1 projector |psi><psi| onto a (normalized) state vector."""
    v = ket(state)
    return np.outer(v, v.conj())


def bloch_projector(sign: int, axis) -> np.ndarray:
    """Spin-1/2 projector (1 + s a.sigma)/2 for s = +-1 and a unit 3-vector a.

    |a| must be within ``DEFAULT_TOL`` of 1, so that ``Projector``'s checks hold:
    P^2 - P = (|a|^2 - 1)/4 times the identity."""
    if sign not in (1, -1):
        raise ValidationError(f"sign must be +1 or -1, got {sign!r}")
    a = np.asarray(axis, dtype=float).reshape(-1)
    if a.shape != (3,):
        raise ValidationError(f"axis must be a 3-vector, got shape {a.shape}")
    if not abs(np.linalg.norm(a) - 1.0) <= DEFAULT_TOL:  # NaN fails too
        raise ValidationError(f"axis must be a unit vector, |a| = {np.linalg.norm(a)!r}")
    return 0.5 * (np.eye(2, dtype=complex) + sign * (a[0] * PAULI_X + a[1] * PAULI_Y + a[2] * PAULI_Z))


def propagator(hamiltonian, time: float) -> np.ndarray:
    """Unitary exp(-i H t) computed by Hermitian eigendecomposition.

    The input must be Hermitian within ``DEFAULT_TOL``; a general matrix
    exponential is deliberately not provided.
    """
    h = as_square_matrix(hamiltonian, "hamiltonian")
    if not is_hermitian(h):
        raise ValidationError("propagator requires a Hermitian generator")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * float(time))) @ v.conj().T


@dataclass(frozen=True)
class DensityOperator:
    """State matrix: Hermitian, unit trace, positive semidefinite (within ``DEFAULT_TOL``)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_square_matrix(self.matrix, "density operator")
        if not is_hermitian(m):
            raise ValidationError("density operator must be Hermitian")
        tr = np.trace(m)
        if abs(tr - 1.0) > DEFAULT_TOL:
            raise ValidationError(f"density operator must have unit trace, got {tr}")
        eigs = np.linalg.eigvalsh((m + m.conj().T) / 2)
        if eigs.min() < -DEFAULT_TOL:
            raise ValidationError(f"density operator must be PSD, min eigenvalue {eigs.min()}")
        object.__setattr__(self, "matrix", frozen_array(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, state) -> "DensityOperator":
        return cls(projector_onto(state))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityOperator":
        return cls(np.eye(dim, dtype=complex) / dim)


@dataclass(frozen=True)
class Projector:
    """Hermitian idempotent matrix (within ``DEFAULT_TOL``)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_square_matrix(self.matrix, "projector")
        if not is_hermitian(m):
            raise ValidationError("projector must be Hermitian")
        if max_abs(m @ m - m) > DEFAULT_TOL:
            raise ValidationError("projector must be idempotent")
        object.__setattr__(self, "matrix", frozen_array(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def heisenberg_projector(p: Projector, hamiltonian, time: float) -> Projector:
    """Heisenberg-picture projector U(t)^dag P U(t) with U(t) = exp(-i H t)."""
    u = propagator(hamiltonian, time)
    return Projector(u.conj().T @ p.matrix @ u)


def identity_deviation(stack: np.ndarray) -> np.ndarray:
    """Each ``(k, dim, dim)`` stack's max-norm distance of its sum from the identity, ``(G,)``."""
    return np.abs(stack.sum(axis=1) - np.eye(stack.shape[-1])).max(axis=(1, 2))


def family_deviations(stack: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each ``(k, dim, dim)`` family's max-norm deviation from Hermiticity, from
    summing to the identity and from ``P_i P_j = delta_ij P_i``."""
    products = stack[:, :, None] @ stack[:, None] - np.eye(stack.shape[1])[:, :, None, None] * stack[:, :, None]
    return (np.abs(stack - stack.conj().swapaxes(-1, -2)).max(axis=(1, 2, 3)),
            identity_deviation(stack),
            np.abs(products).max(axis=(1, 2, 3, 4)))


@dataclass(frozen=True)
class DecompositionReport:
    """Outcome of checking that projectors resolve the identity orthogonally."""

    valid: bool
    max_sum_deviation: float
    max_orthogonality_deviation: float

    @property
    def max_violation(self) -> float:
        return max(self.max_sum_deviation, self.max_orthogonality_deviation)


def validate_projective_decomposition(projectors) -> DecompositionReport:
    """Check sum-to-identity and mutual orthogonality of a projector family
    within ``DEFAULT_TOL``.

    Failures are reported, not raised; the report carries the worst deviation
    found for each condition.
    """
    ps = [p.matrix if isinstance(p, Projector) else as_square_matrix(p, "projector") for p in projectors]
    if not ps:
        raise ValidationError("decomposition must contain at least one projector")
    dim = ps[0].shape[0]
    if any(p.shape[0] != dim for p in ps):
        raise ValidationError("all projectors in a decomposition must share one dimension")

    _, sum_dev, orth_dev = (float(v[0]) for v in family_deviations(np.stack(ps)[None]))
    return DecompositionReport(
        valid=(sum_dev <= DEFAULT_TOL and orth_dev <= DEFAULT_TOL),
        max_sum_deviation=sum_dev,
        max_orthogonality_deviation=orth_dev,
    )
