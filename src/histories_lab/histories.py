"""Class operators, decoherence functionals and (quasi-)probabilities for histories.

A history schedule is a time-ordered list of projective decompositions plus a
Hermitian generator.  Each label tuple ``(a_1, ..., a_n)`` (earliest outcome
first) gets the class operator ``C = P_{a_n}(t_n) ... P_{a_1}(t_1)`` built from
Heisenberg-picture projectors; the family sums to the identity.  Probabilities
are diagonal entries of the decoherence functional
``D(x, y) = Tr(C_x rho C_y^dag)``, optionally post-selected on a final state
with the ``1 / Tr(rho_f rho)`` normalization.
Inputs are validated once, where they enter; objects derived from validated
ones are trusted by construction, and each ``HistorySet`` computes its
decoherence functional and quasi-probabilities at most once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Sequence

import numpy as np

from .errors import (
    DegeneratePostSelectionError,
    HistoryCountError,
    ValidationError,
)
from .operators import (
    DEFAULT_TOL,
    DensityOperator,
    Projector,
    as_square_matrix,
    eigen_propagator,
    frozen_array,
    is_hermitian,
    max_abs,
    validate_projective_decomposition,
)

DEFAULT_HISTORY_CAP = 4096

Label = tuple  # tuple of outcome symbols, one per schedule slot


@dataclass(frozen=True)
class Slot:
    """One moment of the schedule: a time, a projective decomposition and its outcome symbols."""

    time: float
    projectors: tuple[Projector, ...]
    symbols: tuple[Hashable, ...]

    def __post_init__(self):
        object.__setattr__(self, "time", float(self.time))
        if not math.isfinite(self.time):
            raise ValidationError(f"slot time must be finite, got {self.time!r}")
        projs = tuple(p if isinstance(p, Projector) else Projector(p) for p in self.projectors)
        object.__setattr__(self, "projectors", projs)
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if len(self.symbols) != len(projs):
            raise ValidationError(
                f"slot needs one symbol per projector, got {len(self.symbols)} for {len(projs)}"
            )
        if len(set(self.symbols)) != len(self.symbols):
            raise ValidationError("slot symbols must be distinct")
        report = validate_projective_decomposition(projs)
        if not report.valid:
            raise ValidationError(
                f"slot is not a projective decomposition (max violation {report.max_violation:.3e})"
            )


@dataclass(frozen=True)
class HistorySchedule:
    """Strictly time-ordered slots sharing one Hamiltonian."""

    slots: tuple[Slot, ...]
    hamiltonian: np.ndarray

    def __post_init__(self):
        slots = tuple(self.slots)
        if not slots:
            raise ValidationError("schedule must contain at least one slot")
        object.__setattr__(self, "slots", slots)
        h = as_square_matrix(self.hamiltonian, "hamiltonian")
        if not is_hermitian(h):
            raise ValidationError("schedule hamiltonian must be Hermitian")
        object.__setattr__(self, "hamiltonian", frozen_array(h))

        dim = h.shape[0]
        times = [s.time for s in slots]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValidationError(f"slot times must be strictly increasing, got {times}")
        for k, slot in enumerate(slots):
            if any(p.dim != dim for p in slot.projectors):
                raise ValidationError(f"slot {k} projector dimension does not match hamiltonian")

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    def label_count(self) -> int:
        n = 1
        for slot in self.slots:
            n *= len(slot.projectors)
        return n

    @cached_property
    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        # the Hamiltonian was validated above; every slot's propagator shares this
        return np.linalg.eigh(self.hamiltonian)


@dataclass(frozen=True)
class ClassOperator:
    """One history: a label and its operator; homogeneous = product of projectors."""

    label: Label
    matrix: np.ndarray
    homogeneous: bool = True

    def __post_init__(self):
        object.__setattr__(self, "label", tuple(self.label))
        object.__setattr__(self, "matrix", frozen_array(as_square_matrix(self.matrix, "class operator")))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def build_class_operators(schedule: HistorySchedule) -> list[ClassOperator]:
    """Build every class operator of a schedule, one per outcome-label tuple.

    The returned list sums to the identity.  Products grow slot by slot over
    the label tree, one stacked matmul per slot, with one propagator per
    slot, each formed from the schedule's one eigendecomposition of its
    Hamiltonian.  Raises
    ``HistoryCountError`` when the schedule would produce more than
    ``DEFAULT_HISTORY_CAP`` histories.
    """
    n = schedule.label_count()
    if n > DEFAULT_HISTORY_CAP:
        raise HistoryCountError(f"schedule yields {n} histories, cap is {DEFAULT_HISTORY_CAP}")

    labels: list[Label] = [()]
    ops = None  # one stacked product per label prefix
    for slot in schedule.slots:
        u = eigen_propagator(schedule._eigh, slot.time)
        moved = u.conj().T @ np.stack([p.matrix for p in slot.projectors]) @ u
        # latest-time projector on the left: each prefix times each projector, one matmul
        ops = moved if ops is None else (moved[None] @ ops[:, None]).reshape(-1, *moved.shape[1:])
        labels = [label + (symbol,) for label in labels for symbol in slot.symbols]
    return [ClassOperator(label=label, matrix=op, homogeneous=True) for label, op in zip(labels, ops)]


def negate(c: ClassOperator) -> ClassOperator:
    """Negation 1 - C of a history; the result is inhomogeneous."""
    eye = np.eye(c.dim, dtype=complex)
    return ClassOperator(label=("not",) + c.label, matrix=eye - c.matrix, homogeneous=False)


@dataclass(frozen=True)
class HistorySet:
    """A labelled family of class operators plus boundary conditions.

    The class operators must sum to the identity within ``DEFAULT_TOL``.  When
    a final state is present, probabilities are conditioned on it and the
    overlap ``Tr(rho_f rho)`` must be resolvable.  The set is immutable, so
    its decoherence functional and quasi-probabilities are computed once, on
    first use, and every consumer reads those values.
    """

    class_operators: tuple[ClassOperator, ...]
    initial: DensityOperator
    final: DensityOperator | None = None

    def __post_init__(self):
        ops = tuple(self.class_operators)
        if not ops:
            raise ValidationError("history set must contain at least one class operator")
        object.__setattr__(self, "class_operators", ops)
        dim = self.initial.dim
        if any(c.dim != dim for c in ops):
            raise ValidationError("class operators must match the initial state dimension")
        labels = [c.label for c in ops]
        if len(set(labels)) != len(labels):
            raise ValidationError("class operator labels must be distinct")
        total = np.zeros((dim, dim), dtype=complex)
        for c in ops:
            total += c.matrix
        dev = max_abs(total - np.eye(dim))
        if not dev <= DEFAULT_TOL:
            raise ValidationError(f"class operators must sum to the identity (deviation {dev:.3e})")
        weight = 1.0
        if self.final is not None:
            if self.final.dim != dim:
                raise ValidationError("final state dimension does not match initial state")
            weight = float(np.trace(self.final.matrix @ self.initial.matrix).real)
            if weight <= DEFAULT_TOL:
                raise DegeneratePostSelectionError(
                    f"Tr(rho_f rho) = {weight:.3e} is too small to normalize by"
                )
        object.__setattr__(self, "_weight", weight)

    @property
    def labels(self) -> tuple[Label, ...]:
        return tuple(c.label for c in self.class_operators)

    @property
    def dim(self) -> int:
        return self.initial.dim

    def operator(self, label: Label) -> ClassOperator:
        for c in self.class_operators:
            if c.label == tuple(label):
                return c
        raise ValidationError(f"label {label!r} is not in this history set")

    def post_selection_weight(self) -> float:
        """Normalization Tr(rho_f rho), computed once at construction; 1.0 without a final state."""
        return self._weight

    @cached_property
    def _functional(self) -> "DecoherenceFunctional":
        ops = np.stack([c.matrix for c in self.class_operators])
        rho = self.initial.matrix
        left = ops @ rho if self.final is None else self.final.matrix @ ops @ rho
        # D[i, j] = Tr(left_i C_j^dag) = sum_ab left_i[a, b] * conj(C_j[a, b])
        flat_left = left.reshape(left.shape[0], -1)
        flat_ops = ops.reshape(ops.shape[0], -1)
        entries = (flat_left @ flat_ops.conj().T) / self.post_selection_weight()
        entries = (entries + entries.conj().T) / 2
        return DecoherenceFunctional(labels=self.labels, entries=entries,
                                     post_selected=self.final is not None)

    @cached_property
    def _quasi(self) -> dict[Label, float]:
        return {c.label: float(_weighted_trace(self, c.matrix @ self.initial.matrix).real)
                for c in self.class_operators}


def history_set(schedule: HistorySchedule, initial: DensityOperator,
                final: DensityOperator | None = None) -> HistorySet:
    """Build the class operators of a schedule into a HistorySet.

    The schedule keeps the last set built from it, with strong references
    to its boundary states, so asking again with the same ``initial`` and
    ``final`` objects returns that same set and everything it has computed.
    """
    last = schedule.__dict__.get("_last_set")
    if last is not None and last[0] is initial and last[1] is final:
        return last[2]
    hset = HistorySet(
        class_operators=tuple(build_class_operators(schedule)),
        initial=initial,
        final=final,
    )
    schedule.__dict__["_last_set"] = (initial, final, hset)
    return hset


@dataclass(frozen=True)
class DecoherenceFunctional:
    """Hermitian matrix of interference terms indexed by history-label pairs.

    The diagonal holds the candidate probabilities.  Without a final state the
    entries sum to exactly 1 up to floating error; with post-selection that sum
    is only a diagnostic (it equals 1 when the set is consistent).
    """

    labels: tuple[Label, ...]
    entries: np.ndarray
    post_selected: bool = False

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        m = as_square_matrix(self.entries, "decoherence functional")
        if m.shape[0] != len(self.labels):
            raise ValidationError("decoherence functional must be indexed by the label list")
        object.__setattr__(self, "entries", frozen_array(m))

    def index(self, label: Label) -> int:
        try:
            return self.labels.index(tuple(label))
        except ValueError:
            raise ValidationError(f"label {label!r} is not in this decoherence functional") from None

    def diagonal(self) -> np.ndarray:
        return self.entries.diagonal().real.copy()

    def probability(self, label: Label) -> float:
        return float(self.entries[self.index(label), self.index(label)].real)

    def total(self) -> complex:
        return complex(self.entries.sum())

    def max_offdiagonal_abs(self) -> float:
        return _max_offdiag(np.abs(self.entries))

    def max_offdiagonal_re(self) -> float:
        return _max_offdiag(np.abs(self.entries.real))


def _max_offdiag(mag: np.ndarray) -> float:
    if mag.shape[0] < 2:
        return 0.0
    off = mag - np.diag(np.diag(mag))
    return float(off.max())


def decoherence_functional(hset: HistorySet) -> DecoherenceFunctional:
    """Interference matrix D(x, y) = Tr(C_x rho C_y^dag), post-selected if a final state is set.

    Computed once per set, read-only.  Hermiticity is enforced structurally
    by symmetrizing, so ``D(x, y) == conj(D(y, x))`` holds exactly.
    """
    return hset._functional


def _weighted_trace(hset: HistorySet, matrix: np.ndarray) -> complex:
    if hset.final is None:
        return complex(np.trace(matrix))
    return complex(np.trace(hset.final.matrix @ matrix)) / hset.post_selection_weight()


def history_probability(hset: HistorySet, label: Label) -> float:
    """Diagonal decoherence-functional entry for one history."""
    return decoherence_functional(hset).probability(label)


def history_probabilities(hset: HistorySet) -> dict[Label, float]:
    d = decoherence_functional(hset)
    return {label: float(p) for label, p in zip(d.labels, d.diagonal())}


def quasi_probabilities(hset: HistorySet) -> dict[Label, float]:
    """Every history's quasi-probability, computed once per set; the dict is a copy."""
    return dict(hset._quasi)


def negation_interference(hset: HistorySet, label: Label) -> complex:
    """Interference D(x, not-x) between a history and its negation 1 - C.

    Its real part is exactly the gap between the quasi-probability and the
    probability of the history: ``q - p = Re D(x, not-x)``.
    """
    c = hset.operator(label)
    cbar = negate(c)
    return _weighted_trace(hset, c.matrix @ hset.initial.matrix @ cbar.matrix.conj().T)


def coarse_measure(hset: HistorySet, labels: Sequence[Label]) -> float:
    """Measure of the union history: probability of the summed class operator."""
    ops = [hset.operator(label).matrix for label in labels]
    if not ops:
        raise ValidationError("coarse graining needs at least one history")
    summed = sum(ops)
    m = summed @ hset.initial.matrix @ summed.conj().T
    return float(_weighted_trace(hset, m).real)
