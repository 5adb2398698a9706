"""Class operators, decoherence functionals and (quasi-)probabilities for histories.

A history schedule is a time-ordered list of projective decompositions plus a
Hermitian generator.  Each label tuple ``(a_1, ..., a_n)`` (earliest outcome
first) gets the class operator ``C = P_{a_n}(t_n) ... P_{a_1}(t_1)`` built from
Heisenberg-picture projectors; the family sums to the identity.  Probabilities
are diagonal entries of the decoherence functional
``D(x, y) = Tr(C_x rho C_y^dag)``, optionally post-selected on a final state
with the ``1 / Tr(rho_f rho)`` normalization.

The physics runs on stacks with a leading axis of G grid points; a sweep
evaluates its grid at once, ``analysis.analyze`` stacks a scenario's sets
of one shape, and a ``HistorySet`` is a stack of one.  A set is three
values: its labels, one read-only ``(n, dim, dim)`` stack of class
operators in label order, and its boundary states.  Inputs are validated
once, where they enter.  Everything derived from a set is computed at most
once and cached on the set itself, by the set's own properties, which call
the stack functions (``decoherence_stack``, ``quasi_stack``,
``classicality_stack``) on a stack of one.  A set, the one place that
receives a raw stack, checks its labels and identity sum itself; a grid's
stacks are valid by construction, and ``analyze`` checks only the weight.

Class operators come from two helpers, the only code that multiplies them,
and ``scenarios.ScenarioGrid.class_operators`` is their one caller:
``heisenberg_stack`` gives one slot's ``u^dag P u`` stack and
``extend_prefix`` puts a later slot's projectors on the left of a label
prefix, so a grid can share both between its sets.  A schedule builds
through its own one-point grid.  A product whose right
operand is shared by many left matrices stacks the left matrices' rows into
one BLAS call, never the right operand's columns: each output row is then
the same dot products as a product per matrix, bit for bit, while a
column-stacked product can differ in the last bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable

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
    frozen_array,
    identity_deviation,
    is_hermitian,
    validate_projective_decomposition,
)

DEFAULT_HISTORY_CAP = 4096

Label = tuple  # tuple of outcome symbols, one per schedule slot


def _check_distinct(items: tuple, what: str) -> None:
    try:
        distinct = len(set(items)) == len(items)
    except TypeError:
        raise ValidationError(f"{what} must be hashable, got {items!r}") from None
    if not distinct:
        raise ValidationError(f"{what} must be distinct")


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
        _check_distinct(self.symbols, "slot symbols")
        report = validate_projective_decomposition(projs)
        if not report.valid:
            raise ValidationError(
                f"slot is not a projective decomposition (max violation {report.max_violation:.3e})"
            )


def time_ordered(slots: tuple[Slot, ...]) -> tuple[Slot, ...]:
    """``slots``, refused unless their times strictly increase."""
    times = [s.time for s in slots]
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise ValidationError(f"slot times must be strictly increasing, got {times}")
    return slots


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
        time_ordered(slots)
        for k, slot in enumerate(slots):
            if any(p.dim != dim for p in slot.projectors):
                raise ValidationError(f"slot {k} projector dimension does not match hamiltonian")

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @property
    def labels(self) -> tuple[Label, ...]:
        """Every outcome-label tuple: the product of the slot symbols, earliest slot most significant."""
        return tuple(itertools.product(*(slot.symbols for slot in self.slots)))

    def label_count(self) -> int:
        n = 1
        for slot in self.slots:
            n *= len(slot.projectors)
        return n

    @cached_property
    def _grid(self):
        """The schedule as a one-point ``ScenarioGrid`` of one set, ``"schedule"``;
        its one eigendecomposition of the Hamiltonian serves every slot."""
        from .scenarios import point_grid  # scenarios imports this module
        return point_grid("schedule", self.hamiltonian,
                          {"schedule": [(s.time, [p.matrix for p in s.projectors], s.symbols)
                                        for s in self.slots]})


def check_history_count(projectors) -> None:
    """Raise ``HistoryCountError`` when slots with these ``(G, k, dim, dim)``
    projector stacks yield more than ``DEFAULT_HISTORY_CAP`` histories."""
    n = math.prod(p.shape[1] for p in projectors)
    if n > DEFAULT_HISTORY_CAP:
        raise HistoryCountError(f"schedule yields {n} histories, cap is {DEFAULT_HISTORY_CAP}")


def _shared_right(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``left @ right`` for one ``(dim, e)`` matrix shared by every matrix of the
    ``(..., r, dim)`` stack ``left``: one product of left's stacked rows."""
    return (left.reshape(-1, left.shape[-1]) @ right).reshape(*left.shape[:-1], right.shape[-1])


def heisenberg_stack(eigvals: np.ndarray, eigvecs: np.ndarray, t: np.ndarray,
                     p: np.ndarray) -> np.ndarray:
    """One slot's Heisenberg projectors ``u(t)^dag P u(t)`` at G points, ``(G, k, dim, dim)``,
    from each point's ``eigh`` of its Hamiltonian, a ``(G,)`` time array and a
    ``(G, k, dim, dim)`` projector stack; an axis of length 1 is shared by every point.
    A left factor's rows are stacked against a shared right factor, never a right
    factor's columns against a shared left one."""
    v_dag = eigvecs.conj().transpose(0, 2, 1)
    u = (eigvecs * np.exp(-1j * eigvals * t[:, None])[:, None, :]) @ v_dag
    adjoint = u.conj().transpose(0, 2, 1)
    if len(p) == 1:  # a family shared by every point: one product per projector
        moved = np.stack([_shared_right(adjoint, projector) for projector in p[0]], axis=1)
    else:
        moved = adjoint[:, None] @ p
    if len(u) == 1:
        return _shared_right(moved, u[0])
    return (moved.reshape(len(u), -1, u.shape[-1]) @ u).reshape(moved.shape)


def extend_prefix(prefix: np.ndarray, moved: np.ndarray) -> np.ndarray:
    """The ``(G, n * k, dim, dim)`` class operators of a ``(G, n, dim, dim)`` label
    prefix extended by a later slot's ``(G, k, dim, dim)`` Heisenberg projectors, in
    label order: the latest projector on the left, its k rows stacked against each
    prefix operator."""
    points, k, dim = max(len(prefix), len(moved)), moved.shape[1], moved.shape[-1]
    return (moved.reshape(len(moved), 1, k * dim, dim) @ prefix).reshape(points, -1, dim, dim)


def build_class_operators(schedule: HistorySchedule) -> np.ndarray:
    """Every class operator of a schedule, as one writable ``(n, dim, dim)``
    stack in ``schedule.labels`` order; the stack sums to the identity.

    A copy of the stack of the schedule's one-point grid, which checks the
    history cap before any product.
    """
    return np.array(schedule._grid.class_operators("schedule")[0])


def decoherence_stack(ops: np.ndarray, rho: np.ndarray, final: np.ndarray | None = None,
                      weight: float = 1.0) -> np.ndarray:
    """Each point's D[i, j] = Tr(C_i rho C_j^dag), or Tr(rho_f C_i rho C_j^dag) / weight,
    ``(G, n, n)``; symmetrized, so ``D[i, j] == conj(D[j, i])`` holds exactly."""
    left = _shared_right(ops if final is None else final @ ops, rho)
    # D[i, j] = Tr(left_i C_j^dag) = sum_ab left_i[a, b] * conj(C_j[a, b])
    flat_left, flat_ops = (m.reshape(*m.shape[:2], -1) for m in (left, ops))
    entries = (flat_left @ flat_ops.conj().transpose(0, 2, 1)) / weight
    return (entries + entries.conj().transpose(0, 2, 1)) / 2


def quasi_stack(ops: np.ndarray, rho: np.ndarray, final: np.ndarray | None = None,
                weight: float = 1.0) -> np.ndarray:
    """Each point's quasi-probabilities Re Tr(C_i rho), or Re Tr(rho_f C_i rho) / weight, ``(G, n)``."""
    moved = _shared_right(ops, rho)
    if final is not None:
        moved = final @ moved
    return np.trace(moved, axis1=2, axis2=3).real / weight


def interference_maxima(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each point's max off-diagonal |D| and |Re D| of a ``(G, n, n)`` stack."""
    off = ~np.eye(entries.shape[1], dtype=bool)
    return (np.abs(entries).max(axis=(1, 2), where=off, initial=0.0),
            np.abs(entries.real).max(axis=(1, 2), where=off, initial=0.0))


def classicality_stack(entries: np.ndarray, quasi: np.ndarray) -> np.ndarray:
    """Each point's classicality diagnostics, ``(G, 4)``, from a ``(G, n, n)`` stack
    of decoherence functionals and its ``(G, n)`` quasi-probabilities: what
    ``classicality.classify`` compares with its tolerance, in order, max
    off-diagonal |D| and |Re D|, min quasi-probability and max |quasi - probability|."""
    max_abs, max_re = interference_maxima(entries)
    gap = np.abs(quasi - entries.diagonal(axis1=1, axis2=2).real).max(axis=1)
    return np.stack([max_abs, max_re, quasi.min(axis=1), gap], axis=1)


def checked_weight(initial: DensityOperator, final: DensityOperator | None) -> float:
    """The post-selection weight Tr(rho_f rho), or 1.0 without a final state;
    refused when it is too small to normalize by."""
    if final is None:
        return 1.0
    weight = float(np.trace(final.matrix @ initial.matrix).real)
    if weight <= DEFAULT_TOL:
        raise DegeneratePostSelectionError(f"Tr(rho_f rho) = {weight:.3e} is too small to normalize by")
    return weight


@dataclass(frozen=True)
class HistorySet:
    """Labelled class operators plus boundary conditions.

    ``class_operators[i]`` is the class operator of ``labels[i]``; the labels
    are distinct tuples, and the operators must sum to the identity within
    ``DEFAULT_TOL``.  When a final state is present, probabilities are
    conditioned on it and the overlap ``Tr(rho_f rho)`` must be resolvable.
    The set keeps its own read-only copy of the stack and is immutable, so
    its decoherence functional, quasi-probabilities and classification
    diagnostics are computed once, on first use, and every consumer reads
    those values.
    """

    labels: tuple[Label, ...]
    class_operators: np.ndarray
    initial: DensityOperator
    final: DensityOperator | None = None

    def __post_init__(self):
        labels = tuple(self.labels)
        if not labels:
            raise ValidationError("history set must contain at least one history")
        for label in labels:
            if not isinstance(label, tuple):
                raise ValidationError(f"history label {label!r} must be a tuple")
        _check_distinct(labels, "history labels")
        object.__setattr__(self, "labels", labels)
        dim = self.initial.dim
        try:
            ops = frozen_array(self.class_operators)
        except (TypeError, ValueError):
            raise ValidationError("class operators must be a stack of complex matrices") from None
        if ops.shape != (len(labels), dim, dim):
            raise ValidationError(
                f"class operators must form a ({len(labels)}, {dim}, {dim}) stack, "
                f"one {dim}x{dim} matrix per label, got shape {ops.shape}"
            )
        object.__setattr__(self, "class_operators", ops)
        deviation = float(identity_deviation(ops[None])[0])
        if not deviation <= DEFAULT_TOL:
            raise ValidationError(f"class operators must sum to the identity (deviation {deviation:.3e})")
        if self.final is not None and self.final.dim != dim:
            raise ValidationError("final state dimension does not match initial state")
        object.__setattr__(self, "_weight", checked_weight(self.initial, self.final))
        object.__setattr__(self, "_final", None if self.final is None else self.final.matrix)

    @property
    def dim(self) -> int:
        return self.initial.dim

    def post_selection_weight(self) -> float:
        """Normalization Tr(rho_f rho), computed once at construction; 1.0 without a final state."""
        return self._weight

    @cached_property
    def _functional(self) -> "DecoherenceFunctional":
        entries = decoherence_stack(self.class_operators[None], self.initial.matrix, self._final,
                                    self._weight)[0]
        entries.setflags(write=False)
        return DecoherenceFunctional(labels=self.labels, entries=entries,
                                     post_selected=self.final is not None)

    @cached_property
    def _quasi(self) -> dict[Label, float]:
        quasi = quasi_stack(self.class_operators[None], self.initial.matrix, self._final, self._weight)
        return dict(zip(self.labels, quasi[0].tolist()))

    @cached_property
    def classicality_diagnostics(self) -> tuple[float, float, float, float]:
        """What ``classify`` compares with its tolerance, in order: max
        off-diagonal |D| and |Re D|, min quasi-probability, and max
        |quasi - probability|."""
        quasi = np.array(list(self._quasi.values()))
        return tuple(classicality_stack(self._functional.entries[None], quasi[None])[0].tolist())


def history_set(schedule: HistorySchedule, initial: DensityOperator,
                final: DensityOperator | None = None) -> HistorySet:
    """Build the class operators of a schedule into a new HistorySet."""
    ops = build_class_operators(schedule)  # checks the history cap before any label is built
    return HistorySet(schedule.labels, ops, initial, final)


@dataclass(frozen=True)
class DecoherenceFunctional:
    """Hermitian matrix of interference terms indexed by history-label pairs.

    The diagonal holds the candidate probabilities.  Without a final state the
    entries sum to exactly 1 up to floating error; with post-selection that sum
    is only a diagnostic (it equals 1 when the set is consistent).  Only a
    ``HistorySet`` makes one, with read-only entries in its label order.
    """

    labels: tuple[Label, ...]
    entries: np.ndarray
    post_selected: bool = False

    def diagonal(self) -> np.ndarray:
        return self.entries.diagonal().real.copy()

    def total(self) -> complex:
        return complex(self.entries.sum())


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
    try:
        c = hset.class_operators[hset.labels.index(tuple(label))]
    except (TypeError, ValueError):
        raise ValidationError(f"label {label!r} is not in this history set") from None
    negation = np.eye(hset.dim, dtype=complex) - c
    return _weighted_trace(hset, c @ hset.initial.matrix @ negation.conj().T)
