"""Existence (and uniqueness) of a joint probability matching given marginals.

The central question: given probability tables from several history sets over
shared finite variables, is there one non-negative joint distribution whose
coarse-grainings reproduce every table?  This is a linear-programming
feasibility problem over the joint simplex; infeasibility comes back with a
verifiable Farkas certificate.  For dichotomic pair correlations around an
n-cycle, ``cycle_check`` is an analytic cross-check: its inequalities (Bell
and Leggett-Garg for n = 3, CHSH for n = 4) hold exactly when the LP is
feasible (Araujo et al. 2013; Fine 1982 for n = 4), and when pair tables form
one n-cycle, the most violated one is the certificate, found before any LP
(``_cycle_verdict``).

Marginal tables may carry coarse outcome groups (e.g. "box 2 or 3") as well
as atomic outcomes; each key constrains the sum of the joint cells it covers.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from numbers import Rational
from typing import Collection, Hashable, Mapping, Sequence

import numpy as np

from ._kernels import eliminate
from .classicality import classify
from .errors import InconsistentSetError, NumericError, ValidationError
from .histories import HistorySet, history_probabilities
from .simplex import (
    DEFAULT_FEAS_TOL,
    INFEASIBLE,
    OPTIMAL,
    FeasibleStart,
    LPResult,
    farkas_test,
    feasible_start,
    solve_lp,
)

Outcome = Hashable
Cell = tuple

DEFAULT_DELTA = 1e-9
DEFAULT_JOINT_CAP = 10**6
TABLE_TOL = 1e-9  # slack for marginal sums, signs, correlation ranges and cycle bounds
SNAP_MAX_DENOMINATOR = 10**9  # as_exact: largest denominator a float snaps to
SNAP_TOL = 1e-12  # as_exact, snap_tables: largest distance of a snapped value from its float
QUASI_NONNEG_TOL = 1e-12  # a quasi coarse-graining at or above -this counts as non-negative
EVIDENCE_TOL = 1e-12  # float slack of every witness and certificate check, and of the band LP
WIDEST_BAND = 2.0  # band arithmetic caps delta here; a band over 1 + 2 * TABLE_TOL admits every joint

FEASIBLE = "feasible"
STATUS_INFEASIBLE = "infeasible"


class _Handle:
    """An identity-hashed stand-in for a value, from ``_interned``."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


@functools.lru_cache(maxsize=256)
def _interned(value) -> _Handle:
    """The handle of ``value``: one object for every value equal to it, while
    it stays cached.  The layout memos (``_layout``) are keyed on handles, so
    a hit hashes and compares none of the ``Variable`` dataclasses inside
    the value, which differ as objects from system to system.  An evicted
    value gets a new handle: its memo entries are decided again, never
    mixed up."""
    return _Handle(value)


@dataclass(frozen=True)
class Variable:
    """A named finite variable."""

    name: str
    outcomes: tuple[Outcome, ...]

    def __post_init__(self):
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        if not self.outcomes:
            raise ValidationError(f"variable {self.name!r} needs a non-empty outcome alphabet")
        if len(set(self.outcomes)) != len(self.outcomes):
            raise ValidationError(f"variable {self.name!r} has duplicate outcomes")

    @cached_property
    def index_of(self) -> dict:
        """Outcome -> its position in ``outcomes``."""
        return {o: i for i, o in enumerate(self.outcomes)}

    def outcome_index(self, outcome: Outcome) -> int:
        try:
            return self.index_of[outcome]
        except (KeyError, TypeError):
            raise ValidationError(
                f"outcome {outcome!r} is not in the alphabet of variable {self.name!r}"
            ) from None


@dataclass(frozen=True)
class JointSampleSpace:
    """Ordered finite variables; the joint cells are their cartesian product."""

    variables: tuple[Variable, ...]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ValidationError("variable names must be unique")
        if self.size > DEFAULT_JOINT_CAP:
            raise ValidationError(f"joint size {self.size} exceeds cap {DEFAULT_JOINT_CAP}")

    @property
    def size(self) -> int:
        n = 1
        for v in self.variables:
            n *= len(v.outcomes)
        return n

    def cells(self) -> list[Cell]:
        return list(itertools.product(*(v.outcomes for v in self.variables)))

    @cached_property
    def _handle(self) -> _Handle:
        """``_interned(self)``, looked up once per space."""
        return _interned(self)

    def variable(self, name: str) -> Variable:
        return self.variables[self.axis(name)]

    def axis(self, name: str) -> int:
        for i, v in enumerate(self.variables):
            if v.name == name:
                return i
        raise ValidationError(f"no variable named {name!r} in the sample space")


@functools.cache
def table_layout(variables: tuple[Variable, ...], keys: tuple) -> tuple[tuple, tuple]:
    """``(partitions, order)`` of a ``MarginalTable`` over ``variables`` with raw
    ``keys``, checked and decided once per distinct pair: ``partitions[k]`` are
    the groups of ``variables[k]`` in alphabet order and ``order[j]`` is the
    position in ``keys`` of the ``j``-th key of their product.  Groups hold
    outcome indices, not outcomes: equal variables may hold ``1`` or ``True``."""
    if not variables:
        raise ValidationError("marginal table needs at least one variable")
    names = [v.name for v in variables]
    if len(set(names)) != len(names):
        raise ValidationError("marginal table variables must be distinct")
    position: dict[tuple, int] = {}
    for p, key in enumerate(keys):
        key = key if isinstance(key, tuple) else (key,)
        if len(key) != len(variables):
            raise ValidationError(f"key {key!r} must have one entry per variable ({len(variables)})")
        norm = []
        for var, group in zip(variables, key):
            members = group if isinstance(group, (tuple, list, set, frozenset)) else (group,)
            indices = tuple(sorted(var.outcome_index(m) for m in members))
            if len(set(indices)) != len(indices):
                raise ValidationError(f"group {group!r} repeats an outcome of {var.name!r}")
            norm.append(indices)
        if tuple(norm) in position:
            raise ValidationError(f"duplicate key {key!r} in marginal table")
        position[tuple(norm)] = p
    partitions = tuple(tuple(sorted({norm[k] for norm in position})) for k in range(len(variables)))
    for var, groups in zip(variables, partitions):
        members = [i for g in groups for i in g]
        if len(set(members)) != len(members):
            raise ValidationError(f"groups of variable {var.name!r} overlap")
        if len(members) != len(var.outcomes):
            raise ValidationError(f"groups of variable {var.name!r} do not cover its alphabet")
    if len(position) != math.prod(len(groups) for groups in partitions):
        raise ValidationError("marginal table keys must form the full product of the per-variable partitions")
    return partitions, tuple(position[key] for key in itertools.product(*partitions))


@dataclass(frozen=True)
class MarginalTable:
    """A probability table over a subset of variables.

    Keys are tuples with one entry per table variable; each entry is either an
    atomic outcome or a group (tuple) of outcomes.  Per variable, the groups
    used must partition its alphabet, and the keys must form the full product
    of those partitions, so the values are a genuine probability table.
    ``partitions[k]`` lists the groups of the k-th variable in alphabet
    order (``table_layout``); the keys of ``values`` run through their product.
    """

    variables: tuple[Variable, ...]
    values: dict
    partitions: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        partitions, order = table_layout(self.variables, tuple(self.values))
        raw = list(self.values.values())
        keys = itertools.product(*(tuple(tuple(var.outcomes[i] for i in g) for g in groups)
                                   for var, groups in zip(self.variables, partitions)))
        values = {key: raw[p] for key, p in zip(keys, order)}
        for key, value in values.items():
            if not is_finite_number(value):
                raise ValidationError(f"marginal value {value!r} for key {key!r} is not finite")

        total = sum(values.values())
        if self.is_exact_values(values):
            if total != 1:
                raise ValidationError(f"marginal values must sum to 1 exactly, got {total}")
            if any(v < 0 for v in values.values()):
                raise ValidationError("marginal values must be non-negative")
        else:
            if abs(float(total) - 1.0) > TABLE_TOL:
                raise ValidationError(f"marginal values must sum to 1, got {float(total)!r}")
            if any(float(v) < -TABLE_TOL for v in values.values()):
                raise ValidationError("marginal values must be non-negative within tolerance")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "partitions", partitions)

    @staticmethod
    def is_exact_values(values: Mapping) -> bool:
        return all(isinstance(v, Rational) for v in values.values())

    @property
    def is_exact(self) -> bool:
        return self.is_exact_values(self.values)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    @cached_property
    def _handle(self) -> _Handle:
        """``_interned((variables, partitions))``, this table's entry of a
        ``_layout``, looked up once per table."""
        return _interned((self.variables, self.partitions))

    def as_exact(self) -> "MarginalTable":
        """Snap float values onto rationals with denominators up to
        ``SNAP_MAX_DENOMINATOR``, verifying the distance.

        Any residual of the snapped sum from 1 goes to the (first) largest
        entry.  Raises ``ValidationError`` when a value ends up farther than
        ``SNAP_TOL`` from its float; exact tables pass through unchanged.
        """
        if self.is_exact:
            return self
        snapped = {key: Fraction(float(value)).limit_denominator(SNAP_MAX_DENOMINATOR)
                   for key, value in self.values.items()}
        snapped[max(snapped, key=snapped.__getitem__)] += 1 - sum(snapped.values())
        for key, frac in snapped.items():
            value = self.values[key]
            if abs(float(frac) - float(value)) > SNAP_TOL:
                raise ValidationError(
                    f"value {value!r} for key {key!r} is not rational within {SNAP_TOL}"
                )
        return MarginalTable(self.variables, snapped)


@dataclass(frozen=True)
class CorrelationSet:
    """Pair correlations of dichotomic +-1 variables, keyed by name pairs."""

    values: dict

    def __post_init__(self):
        normalized = {}
        for key, value in self.values.items():
            if not (isinstance(key, tuple) and len(key) == 2
                    and all(isinstance(name, str) for name in key) and key[0] != key[1]):
                raise ValidationError(
                    f"correlation key {key!r} must be a pair of two distinct variable names"
                )
            a, b = key
            pair = (a, b) if a <= b else (b, a)
            if pair in normalized:
                raise ValidationError(f"duplicate correlation pair {pair!r}")
            if not is_finite_number(value):
                raise ValidationError(f"correlation {pair!r} = {value!r} is not a finite number")
            if not abs(value) <= 1.0 + TABLE_TOL:
                raise ValidationError(f"correlation {pair!r} = {value!r} is outside [-1, 1]")
            normalized[pair] = float(value)
        object.__setattr__(self, "values", dict(sorted(normalized.items())))

    @property
    def is_cycle(self) -> bool:
        """Whether the pairs form one cycle (``_is_cycle``)."""
        return _is_cycle(self.values)


def _is_cycle(pairs: Collection[tuple[str, str]]) -> bool:
    """Whether distinct name ``pairs`` form one cycle: at least three of
    them, every name in exactly two, all connected."""
    neighbours: dict[str, list[str]] = {}
    for a, b in pairs:
        neighbours.setdefault(a, []).append(b)
        neighbours.setdefault(b, []).append(a)
    if len(pairs) < 3 or any(len(v) != 2 for v in neighbours.values()):
        return False
    reached, frontier = set(), [next(iter(neighbours))]
    while frontier:
        name = frontier.pop()
        if name not in reached:
            reached.add(name)
            frontier.extend(neighbours[name])
    return len(reached) == len(neighbours)


def _pair_tables(layouts: Sequence[tuple[tuple[Variable, ...], tuple]]) -> list[int]:
    """The positions of the pair tables among table ``layouts``, each a
    ``(variables, partitions)`` (``table_layout``): the tables over two
    variables whose outcomes are the numbers +1 and -1, with every key
    atomic (no grouped outcomes), whose pair no other two-variable table
    covers, in either order.  The n-cycle inequalities hold for their
    correlations; ``correlations_from_marginals`` and the cycle refutation
    (``_table_rows``) both take their tables from here."""
    covers = collections.Counter(frozenset(v.name for v in variables) for variables, _ in layouts)
    return [t for t, (variables, partitions) in enumerate(layouts)
            if len(variables) == 2 and covers[frozenset(v.name for v in variables)] == 1
            and all(set(v.outcomes) == {1, -1} for v in variables)
            and all(len(g) == 1 for groups in partitions for g in groups)]


@dataclass
class FeasibilityVerdict:
    """Outcome of a unifying-probability search.

    feasible   -> ``witness`` is a non-negative joint table matching every
                  marginal within delta;
    infeasible -> ``farkas_certificate`` refutes every joint table doing so
                  (``band_test``).
    """

    status: str
    witness: dict | None = None
    farkas_certificate: list | None = None
    unique: bool | None = None
    component_bounds: dict | None = None
    mode: str = "float"
    delta: float = DEFAULT_DELTA

    @property
    def feasible(self) -> bool:
        return self.status == FEASIBLE


@dataclass(frozen=True)
class VariableMapping:
    """How the label positions of a history set map onto joint variables.

    ``outcome_groups[k]`` optionally translates slot-``k`` label symbols into
    groups of outcomes of the k-th variable (needed when a history is a coarse
    alternative such as "box 2 or 3"); unlisted symbols map to themselves.
    """

    variables: tuple[Variable, ...]
    outcome_groups: tuple[Mapping | None, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        if self.outcome_groups is not None:
            groups = tuple(dict(g) if g else None for g in self.outcome_groups)
            if len(groups) != len(self.variables):
                raise ValidationError("outcome_groups must have one entry per variable")
            object.__setattr__(self, "outcome_groups", groups)

    def key_for(self, label: tuple) -> tuple:
        if len(label) != len(self.variables):
            raise ValidationError(
                f"label {label!r} has {len(label)} positions, mapping expects {len(self.variables)}"
            )
        key = []
        for pos, symbol in enumerate(label):
            translation = None
            if self.outcome_groups is not None:
                translation = self.outcome_groups[pos]
            if translation is not None and symbol in translation:
                key.append(tuple(translation[symbol]))
            else:
                key.append(symbol)
        return tuple(key)

    def marginal_table(self, probabilities: Mapping[tuple, object]) -> MarginalTable:
        """The table of history ``probabilities`` (label -> value), summed per key."""
        values: dict = {}
        for label, prob in probabilities.items():
            key = self.key_for(label)
            values[key] = values.get(key, 0) + prob  # int 0 keeps Fraction values exact
        return MarginalTable(self.variables, values)


def extract_marginals(hset: HistorySet, mapping: VariableMapping) -> MarginalTable:
    """Turn a consistent history set's probabilities into a marginal table.

    Refuses sets that ``classify`` finds inconsistent: their diagonal entries
    do not obey the sum rules, so they are not probabilities of anything.
    """
    report = classify(hset)
    if not report.consistent:
        raise InconsistentSetError(
            f"history set is not consistent (max off-diagonal Re = {report.max_offdiag_re:.3e})"
        )
    return mapping.marginal_table(history_probabilities(hset))


# ---------------------------------------------------------------------------
# constraint system and LP front ends
# ---------------------------------------------------------------------------

@dataclass
class ConstraintSystem:
    """Standard-form system (matrix x = rhs, x >= 0) of hard equalities for the unifier LP.

    One row per marginal key, tables in input order and each table's keys in
    ``table.values`` order, then the normalization row.  The columns are
    the joint cells in row-major order.  The delta band is no part of the
    system: it is checked on the evidence (``_verify_witness``,
    ``band_test``).  All but ``rhs`` is decided once per sample space and
    table layout (``_layout``): ``matrix`` and ``cell_rows`` by
    ``_table_rows``, the rest by ``_constraint_rows``, whose docstring
    defines them; these two bounded memos are the only holders of per-cell
    and row-sized arrays.  The LP sees only the rows ``keep``, a row basis;
    evidence is checked on every row.
    """

    matrix: object
    rhs: object
    cells: list[Cell]
    keep: np.ndarray
    dependencies: np.ndarray
    scales: tuple
    cell_rows: np.ndarray


def _cell_keys(space: JointSampleSpace, variables: tuple[Variable, ...],
               partitions: tuple) -> np.ndarray:
    """For each joint cell, the position of the key covering it: a read-only
    array, the only place that decides it, with no memo of its own
    (``_table_rows`` keeps what it builds).

    ``partitions`` is a ``table_layout``.  A cell's key is the mixed-radix
    number of its group indices, the first variable most significant, which
    is the order of the product of the partitions and so of
    ``MarginalTable.values``.  A variable's outcome indices are one axis of
    the space's shape, broadcast over the others.
    """
    shape = tuple(len(v.outcomes) for v in space.variables)
    axes = np.indices(shape, sparse=True)
    keys = np.zeros(shape, dtype=np.intp)
    for var, groups in zip(variables, partitions):
        group_of = np.empty(len(var.outcomes), dtype=np.intp)
        for g, group in enumerate(groups):
            group_of[list(group)] = g
        keys = keys * len(groups) + group_of[axes[space.axis(var.name)]]
    keys = keys.ravel()
    keys.setflags(write=False)
    return keys


def _layout(space: JointSampleSpace, marginals: Sequence[MarginalTable]) -> tuple:
    """The key of the layout memos ``_table_rows`` and ``_constraint_rows``:
    the handle of ``space`` and the tuple of each table's handle, one per
    ``(variables, partitions)`` (``_interned``)."""
    return space._handle, tuple(table._handle for table in marginals)


@functools.lru_cache(maxsize=16)  # bounded: a matrix has rows x cells entries
def _table_rows(space: _Handle, layout: tuple[_Handle, ...],
                exact: bool) -> tuple[np.ndarray, np.ndarray, tuple | None]:
    """Read-only ``(matrix, cell_rows, cycle)`` of tables laid out as
    ``layout`` over ``space`` (a ``_layout``, whose handles hold the space
    and each table's ``(variables, partitions)``), checked against the space
    and decided once per space, layout and arithmetic; the row basis is
    decided apart, so a witness check never waits for it.  ``cell_rows[t,
    j]`` is the row of the key of table ``t`` covering cell ``j``, from that
    table's ``_cell_keys``, which is built here and nowhere kept.  Row ``r``
    of the 0/1 ``matrix`` (float64, or Python ``int``s) covers the cells
    mapped to ``r``, and the last row every cell.

    ``cycle`` is ``None`` unless the ``_pair_tables`` form one n-cycle
    (``_is_cycle``).  Then it is ``(rows, signs)``, two ``(n, 4)`` arrays:
    the rows of each pair table's keys, in key order, and each key's product
    of its two outcomes, +1 or -1 (``_cycle_verdict``)."""
    space, layout = space.value, [table.value for table in layout]
    outcomes = {v.name: v.outcomes for v in space.variables}
    cell_rows = np.empty((len(layout), space.size), dtype=np.intp)
    starts, first = [], 0  # each table's first row
    for t, (variables, partitions) in enumerate(layout):
        for var in variables:
            if var.name not in outcomes:
                raise ValidationError(f"marginal {t} uses unknown variable {var.name!r}")
            if outcomes[var.name] != var.outcomes:
                raise ValidationError(f"marginal {t} disagrees with the sample space "
                                      f"about the alphabet of {var.name!r}")
        starts.append(first)
        cell_rows[t] = first + _cell_keys(space, variables, partitions)
        first += math.prod(map(len, partitions))
    matrix = np.zeros((first + 1, space.size), dtype=object if exact else float)
    matrix[cell_rows, np.arange(space.size)] = 1
    matrix[-1] = 1
    cycle = None
    pairs = _pair_tables(layout)
    if _is_cycle([tuple(v.name for v in layout[t][0]) for t in pairs]):
        # a pair table's keys are atomic, so they run through its outcomes' product
        cycle = (np.array([starts[t] + np.arange(4) for t in pairs]),
                 np.array([np.outer(*(np.array(v.outcomes, dtype=float) for v in layout[t][0])).ravel()
                           for t in pairs]))
    for array in (matrix, cell_rows, *(cycle or ())):
        array.setflags(write=False)
    return matrix, cell_rows, cycle


@functools.lru_cache(maxsize=16)
def _constraint_rows(space: _Handle, layout: tuple[_Handle, ...],
                     order: tuple | None = None) -> tuple[np.ndarray, np.ndarray, tuple]:
    """``(keep, dependencies, scales)`` of the float ``_table_rows`` matrix,
    decided once per ``_layout`` and ``order`` of the rows (row order by
    default).  ``keep`` lists, in that order, the rows independent of the
    rows before them, a row basis.  ``dependencies`` holds one primitive
    int64 vector ``y`` per other row ``r``, in that order, with ``y.matrix =
    0``, ``y[r] > 0`` and ``y`` zero on every other row outside ``keep``;
    ``scales`` holds each ``max|y|``.  Overlapping tables
    repeat their shared sub-marginals, so most rows are dependent: a
    pairwise system over 6 dichotomic variables has 61 rows of rank 22.

    The rows of ``matrix`` have the dependencies of the rows of its Gram
    matrix ``G = matrix.matrixT`` (``y.G = 0`` gives ``y.G.yT = |y.matrix|^2
    = 0``), which is m x m however many cells there are.  ``G`` is formed as
    a float BLAS product, exact for 0/1 entries, and its rows are eliminated
    in order, fraction-free (``_kernels.eliminate``), each with its
    combination of the original rows carried beside it; a row that
    eliminates to zero leaves that combination as its ``y``.  The work grows
    as m^2 * rank in Python integers, so a layout of a thousand rows takes
    seconds on its first call.
    """
    matrix = _table_rows(space, layout, False)[0]
    m = len(matrix)
    pivots: list[tuple[list[int], int]] = []  # (eliminated row with its combination, pivot column)
    keep, dependencies = [], []
    gram = (matrix @ matrix.T).astype(np.int64).tolist()
    for r in range(m) if order is None else order:
        row, den = gram[r] + [int(j == r) for j in range(m)], 1
        for prow, col in pivots:
            if row[col]:
                row, den = eliminate(row, den, prow, prow[col], col)
        col = next((j for j in range(m) if row[j]), -1)
        if col < 0:
            y = row[m:]
            g = math.gcd(*y)
            dependencies.append([v // g for v in y])
        else:
            pivots.append((row if row[col] > 0 else [-v for v in row], col))
            keep.append(r)
    keep = np.array(keep, dtype=np.intp)
    dependencies = np.array(dependencies, dtype=np.int64).reshape(-1, m)
    for array in (keep, dependencies):
        array.setflags(write=False)
    return keep, dependencies, tuple(np.abs(dependencies).max(axis=1).tolist())


def _rhs(marginals: Sequence[MarginalTable], exact: bool) -> np.ndarray:
    number = Fraction if exact else float
    return np.array([number(v) for table in marginals for v in table.values.values()] + [number(1)],
                    dtype=object if exact else float)


def build_constraint_system(space: JointSampleSpace, marginals: Sequence[MarginalTable],
                            exact: bool = False) -> ConstraintSystem:
    """The marginal-matching equalities over the joint cells; only the
    right-hand side is built per call.  Exact mode gives Python ``int``s
    and ``Fraction``s; float mode float64 values, where the solver's phase-1
    feasibility tolerance cushions the rows against ~1e-15 marginal noise.
    """
    layout = _layout(space, marginals)
    matrix, cell_rows, _ = _table_rows(*layout, exact)
    return ConstraintSystem(matrix, _rhs(marginals, exact), space.cells(),
                            *_constraint_rows(*layout), cell_rows)


def snap_tables(space: JointSampleSpace, marginals: Sequence[MarginalTable]) -> list[MarginalTable]:
    """Float tables snapped together onto rationals, for exact mode: the
    snapped tables agree exactly on every shared sub-marginal, and each
    sums to 1.

    The rows of the constraint system are ordered zero first: the
    normalization row, then the rows whose value is within ``SNAP_TOL`` of
    0, then the rest, and ``_constraint_rows`` takes a row basis in that
    order.  The normalization row snaps to 1, a near-zero basis row to 0 and
    every other basis row to the nearest multiple of ``2**-52``.  Each other
    row ``r`` is derived from its dependency ``y`` as ``-sum_{j != r} y_j b_j
    / y_r``, so ``y.b = 0`` holds exactly.  A derived value farther than
    ``SNAP_TOL`` from its float means that the tables disagree beyond float
    noise; then, as for a system with an exact table, each table is snapped
    on its own (``MarginalTable.as_exact``), and exact mode refutes the
    disagreement.
    """
    if any(table.is_exact for table in marginals):
        return [table.as_exact() for table in marginals]
    b = [float(v) for table in marginals for v in table.values.values()]
    zero = [abs(v) <= SNAP_TOL for v in b]
    order = (len(b), *(r for r in range(len(b)) if zero[r]), *(r for r in range(len(b)) if not zero[r]))
    keep, dependencies, _ = _constraint_rows(*_layout(space, marginals), order)
    unit = 2 ** 52
    num = [0 if z else round(v * unit) for v, z in zip(b, zero)] + [unit]  # over 2**52
    values = [Fraction(n, unit) for n in num]
    basis = set(keep.tolist())
    for r, y in zip((r for r in order if r not in basis), dependencies.tolist()):
        values[r] = Fraction(y[r] * num[r] - sum(c * n for c, n in zip(y, num) if c), y[r] * unit)
        if abs(float(values[r]) - b[r]) > SNAP_TOL:
            return [table.as_exact() for table in marginals]
    values = iter(values)  # zip stops at a table's last key, so each table takes its own values
    return [MarginalTable(table.variables, dict(zip(table.values, values))) for table in marginals]


def stacked_rhs(values: np.ndarray) -> np.ndarray:
    """Float ``build_constraint_system`` right-hand sides, one per row of table values."""
    return np.concatenate([values, np.ones((len(values), 1))], axis=1)


def band_test(matrix, certificate, delta):
    """``simplex.farkas_test`` for the band ``|a_r.x - b_r| <= delta`` on the
    marginal rows of a ``ConstraintSystem`` ``matrix``, whose last row, the
    normalization, stays a hard equality: a function ``refutes(rhs)``, or
    ``None`` when the candidate refutes no right-hand side at all.  Like
    ``farkas_test``'s, ``refutes`` takes one right-hand side for a ``bool``
    or a ``(P, m)`` stack of them (``stacked_rhs``) for ``P`` booleans, each
    the one-row answer.

    Over ``x >= 0``, ``y`` refutes the band when ``y.A >= 0`` and ``y.b +
    delta * sum_r |y_r| < 0`` over the marginal rows, which is ``farkas_test``
    refuting ``b + delta * sign(y)`` there, with its float slack at
    ``EVIDENCE_TOL``.  ``delta = 0`` (exact mode) is the hard system itself;
    a delta above ``WIDEST_BAND`` is tested as ``WIDEST_BAND``, a band no
    certificate refutes either, so the shifted sum cannot overflow.  Every
    certificate the library reports or accepts passes this one test.
    """
    refutes = farkas_test(matrix, certificate, feas_tol=EVIDENCE_TOL)
    if refutes is None or not delta:
        return refutes
    shift = np.zeros(len(certificate))
    shift[:-1] = min(delta, WIDEST_BAND) * np.sign(np.asarray(certificate[:-1], dtype=float))
    return lambda rhs: refutes(rhs + shift)


def refutes_marginals(space: JointSampleSpace, marginals: Sequence[MarginalTable], certificate,
                      delta: float = DEFAULT_DELTA, exact: bool = False) -> bool:
    """Whether ``certificate`` refutes every joint table within delta of the
    marginals (exactly, in exact mode) by ``band_test``.  It reads the matrix
    of the tables' layout and their own values, so it never waits for the
    row basis of ``_constraint_rows``."""
    refutes = band_test(_table_rows(*_layout(space, marginals), exact)[0], certificate,
                        0 if exact else delta)
    return refutes is not None and refutes(_rhs(marginals, exact))


def _verify_witness(cell_rows: np.ndarray, marginals: Sequence[MarginalTable], rhs: np.ndarray,
                    values: Sequence, delta: float, exact: bool) -> None:
    """Check a witness given as its cell values in ``space.cells()`` order
    against the marginals, whose values are ``rhs`` (``_rhs``), in both
    arithmetics: exact ones at tolerance 0, float ones with ``EVIDENCE_TOL``
    below zero, ``delta + EVIDENCE_TOL`` on every key (its cells summed in
    order through ``cell_rows``: ``np.add.at``, or for floats
    ``np.bincount``, which adds in the same order) and ``EVIDENCE_TOL`` on
    the sum.  Every comparison is written so that a NaN fails it."""
    values = np.asarray(values, dtype=object if exact else float)
    floor, slop = (0, 0) if exact else (-EVIDENCE_TOL, delta + EVIDENCE_TOL)
    within = values >= floor
    if not within.all():
        raise NumericError(f"witness has a negative or undefined cell ({values[~within][0]})")
    expected = rhs[:-1]
    if exact:
        got = np.zeros(len(expected), dtype=object)
        np.add.at(got, cell_rows, np.broadcast_to(values, cell_rows.shape))
    else:
        weights = np.empty(cell_rows.shape)
        weights[:] = values
        got = np.bincount(cell_rows.ravel(), weights.ravel(), len(expected))
    miss = np.abs(got - expected)
    within = miss <= slop
    if not within.all():
        first = np.flatnonzero(~within)[0]
        key = [k for t in marginals for k in t.values][first]
        raise NumericError(f"witness misses marginal key {key!r} by {miss[first]}")
    if not abs(values.sum() - 1) <= (0 if exact else EVIDENCE_TOL):
        raise NumericError(f"witness sums to {values.sum()}, not 1")


def is_finite_number(value) -> bool:
    """Whether ``value`` is an ``int``, ``float`` or ``Fraction`` (not a bool)
    within the float range, so that both arithmetics can use it."""
    return isinstance(value, (int, float, Fraction)) and not isinstance(value, bool) \
        and abs(value) <= sys.float_info.max


class _Absent:
    """The type of ``_ABSENT``, the value ``verify_witness`` reads for a cell
    that a witness does not name."""


_ABSENT = _Absent()


def _finite_numbers(values: list, kinds: list[type]) -> np.ndarray:
    """``is_finite_number`` of each of ``values``, whose types are ``kinds``,
    as one boolean array: the type test once per distinct type, then the
    range test on the numbers in one array operation."""
    number = {kind: issubclass(kind, (int, float, Fraction)) and not issubclass(kind, bool)
              for kind in set(kinds)}
    finite = np.fromiter(map(number.__getitem__, kinds), dtype=bool, count=len(values))
    numbers = np.fromiter(itertools.compress(values, finite), dtype=object, count=int(finite.sum()))
    with np.errstate(invalid="ignore"):  # a NaN compares False, which is the answer
        finite[finite] = np.abs(numbers) <= sys.float_info.max
    return finite


def verify_witness(space: JointSampleSpace, marginals: Sequence[MarginalTable],
                   witness: Mapping[Cell, object], delta: float = DEFAULT_DELTA,
                   exact: bool = False) -> None:
    """Raise ``NumericError`` unless the witness is non-negative and reproduces
    every marginal within delta (exactly, in exact mode).

    The witness must map exactly the cells of ``space`` to finite numbers
    (``int``, ``float`` or ``Fraction``); anything else is a
    ``ValidationError`` naming the offending cell.
    """
    cell_rows = _table_rows(*_layout(space, marginals), exact)[1]
    cells = space.cells()
    values = list(map(witness.get, cells, itertools.repeat(_ABSENT)))
    kinds = list(map(type, values))
    if len(witness) > len(cells) - kinds.count(_Absent):  # it names a cell outside the space
        known = set(cells)
        cell = next(cell for cell in witness if cell not in known)
        raise ValidationError(f"witness cell {cell!r} is not in the sample space")
    finite = _finite_numbers(values, kinds)
    if not finite.all():
        cell = cells[int(finite.argmin())]
        raise ValidationError(f"witness has no value for cell {cell!r}" if cell not in witness else
                              f"witness value {witness[cell]!r} for cell {cell!r} is not a finite number")
    _verify_witness(cell_rows, marginals, _rhs(marginals, exact), values, delta, exact)


def _checked_inputs(marginals: Sequence[MarginalTable], delta, exact: bool) -> None:
    """Exact mode needs rational tables; float mode a finite, non-negative delta."""
    if exact:
        if not all(t.is_exact for t in marginals):
            raise ValidationError("exact mode requires rational marginal values (see snap_tables)")
    elif not 0 <= float(delta) < math.inf:
        raise ValidationError(f"band width delta must be finite and non-negative, got {delta!r}")


def _checked_verdict(marginals: Sequence[MarginalTable], system: ConstraintSystem,
                     result: LPResult, delta: float, exact: bool) -> FeasibilityVerdict:
    """Turn a feasibility LP result into a verdict whose evidence has been
    checked against the band: the witness (the cells of ``x``) by
    ``_verify_witness``, the certificate by ``band_test``."""
    mode = "exact" if exact else "float"
    if result.status == OPTIMAL:
        cell_values = result.x[: len(system.cells)]
        if not exact:
            cell_values = np.where(np.abs(cell_values) < 1e-15, 0.0, cell_values)
        _verify_witness(system.cell_rows, marginals, system.rhs, cell_values, delta, exact)
        return FeasibilityVerdict(status=FEASIBLE, witness=dict(zip(system.cells, cell_values)),
                                  mode=mode, delta=delta)
    if result.status == INFEASIBLE:
        refutes = band_test(system.matrix, result.certificate, 0 if exact else delta)
        if refutes is None or not refutes(system.rhs):
            raise NumericError("Farkas certificate failed verification")
        return FeasibilityVerdict(status=STATUS_INFEASIBLE, farkas_certificate=list(result.certificate),
                                  mode=mode, delta=delta)
    raise NumericError(f"unexpected LP status {result.status!r} in feasibility solve")


def _verdict(marginals: Sequence[MarginalTable], system: ConstraintSystem, result: LPResult,
             delta: float, exact: bool) -> FeasibilityVerdict:
    """The verdict of ``result``, the width-0 system's, when its evidence
    passes the band checks.  Otherwise, in float mode only, the verdict of
    the band itself, an LP without bounds, feasible within ``EVIDENCE_TOL``:
    each marginal row twice, ``a.x + s = b + delta`` and ``-a.x + s' = delta
    - b`` (delta capped at ``WIDEST_BAND``), and the normalization row once.
    Its certificate ``(u, w, v)`` folds back to ``y = (u - w, v)`` over the
    width-0 rows: ``y.b + delta * sum|u - w|`` is at most ``(u, w, v)``'s
    refuted value, so ``y`` passes the same ``band_test``."""
    try:
        return _checked_verdict(marginals, system, result, delta, exact)
    except NumericError:
        if exact:
            raise
    A, b, n = system.matrix[:-1], system.rhs[:-1], len(system.cells)
    k, width = len(b), min(delta, WIDEST_BAND)
    matrix = np.zeros((2 * k + 1, n + 2 * k))
    matrix[:k, :n], matrix[k:-1, :n], matrix[-1, :n] = A, -A, system.matrix[-1]
    matrix[:-1, n:] = np.eye(2 * k)
    band = solve_lp(matrix, np.concatenate([b + width, width - b, system.rhs[-1:]]), feas_tol=EVIDENCE_TOL)
    if band.status == INFEASIBLE:
        y = band.certificate
        band.certificate = np.append(y[:k] - y[k:-1], y[-1]) + 0  # no entry reads -0.0
    return _checked_verdict(marginals, system, band, delta, exact)


def _on_every_row(system: ConstraintSystem, result: LPResult, exact: bool) -> LPResult:
    """``result`` of the LP on the rows ``system.keep``, read as the result on
    every row.

    An infeasible result's certificate is padded with zeros on the other
    rows.  A feasible result stands when every dependency ``y`` leaves a
    residual ``y.rhs`` of 0 (exact) or of at most ``DEFAULT_FEAS_TOL *
    max|y|`` (float; ``system.scales``): its rows are then the kept rows'
    combination.  Otherwise the most violated ``y``, signed so that ``y.rhs
    < 0``, is the certificate (``y.matrix = 0``); ``_verdict`` checks either
    on every row.
    """
    m = len(system.rhs)
    if result.status == INFEASIBLE:
        if exact:
            certificate = [Fraction(0)] * m
            for r, v in zip(system.keep.tolist(), result.certificate):
                certificate[r] = v
        else:
            certificate = np.zeros(m)
            certificate[system.keep] = result.certificate + 0  # -0.0 + 0 is 0.0: no entry reads -0.0
        return LPResult(status=INFEASIBLE, certificate=certificate, pivots=result.pivots)
    if not len(system.dependencies):
        return result
    if exact:
        residuals = [sum((c * b for c, b in zip(y, system.rhs) if c), Fraction(0))
                     for y in system.dependencies.tolist()]
        worst = max(range(len(residuals)), key=lambda k: abs(residuals[k]) / system.scales[k])
    else:
        residuals = system.dependencies @ system.rhs  # int64 entries, exact in float64
        worst = int((np.abs(residuals) / system.scales).argmax())  # the first of equal ratios
    if abs(residuals[worst]) <= (0 if exact else DEFAULT_FEAS_TOL) * system.scales[worst]:
        return result
    sign = -1 if residuals[worst] > 0 else 1
    y = system.dependencies[worst]
    certificate = [Fraction(sign * v) for v in y.tolist()] if exact else (sign * y).astype(float)
    return LPResult(status=INFEASIBLE, certificate=certificate, pivots=result.pivots)


def _cycle_verdict(space: JointSampleSpace, marginals: Sequence[MarginalTable],
                   delta: float, exact: bool) -> FeasibilityVerdict | None:
    """The infeasible verdict of tables whose pair tables form one n-cycle
    (``_table_rows``' ``cycle``), when their most violated n-cycle
    inequality refutes the band, or ``None``, and then the LP decides.  It
    reads only ``_table_rows``, so it never waits for the row basis.

    The correlation of edge ``e`` is ``C_e = sum_k s_k b_k`` over its keys,
    with ``s_k`` the product of a key's outcomes.  The sign vector ``g``
    with an odd number of minus signs that maximizes ``sum_e g_e C_e`` is
    ``sign(C)`` with, when that has an even number of minus signs, the sign
    of the first edge of least ``|C_e|`` flipped.  Every joint cell breaks
    at least one ``g_e`` (the product of ``s_a s_b`` around the cycle is
    +1, that of ``g`` is -1), so ``sum_e P(edge e disagrees with g_e) >=
    1``: the certificate ``y`` is 1 on each edge's two keys with ``s_k !=
    g_e``, -1 on the normalization row and 0 elsewhere, ``y.A >= 0``, and
    ``y.b = (n - sum_e g_e C_e) / 2 - 1`` (Fine 1982; Araujo et al. 2013).
    It is screened in float, with ``delta`` capped at ``WIDEST_BAND`` as in
    ``band_test``, against the shift ``2 n delta`` of the band, and then
    handed to ``band_test``, which decides, in exact mode on ``Fraction``
    entries.
    """
    matrix, _, cycle = _table_rows(*_layout(space, marginals), exact)
    if cycle is None:
        return None
    rows, signs = cycle
    rhs = _rhs(marginals, False)
    correlations = (rhs[rows] * signs).sum(axis=1).tolist()  # a few entries: Python is quicker here
    g = [-1.0 if c < 0 else 1.0 for c in correlations]
    if not g.count(-1.0) % 2:
        sizes = list(map(abs, correlations))
        g[sizes.index(min(sizes))] *= -1
    n, width = len(g), 0 if exact else min(delta, WIDEST_BAND)
    if (n - sum(map(operator.mul, g, correlations))) / 2 - 1 + 2 * n * width >= 0:  # y.b + width * sum|y|
        return None
    disagree = rows[signs != np.array(g)[:, None]].tolist()
    if exact:
        certificate = [Fraction(0)] * len(matrix)
        for r in disagree:
            certificate[r] = Fraction(1)
        certificate[-1] = Fraction(-1)
        rhs = _rhs(marginals, True)
    else:
        certificate = np.zeros(len(matrix))
        certificate[disagree] = 1.0
        certificate[-1] = -1.0
    refutes = band_test(matrix, certificate, 0 if exact else delta)
    if refutes is None or not refutes(rhs):
        return None
    return FeasibilityVerdict(status=STATUS_INFEASIBLE, farkas_certificate=list(certificate),
                              mode="exact" if exact else "float", delta=delta)


def find_unifying_probability(space: JointSampleSpace, marginals: Sequence[MarginalTable],
                              delta: float = DEFAULT_DELTA, exact: bool = False) -> FeasibilityVerdict:
    """Search for a non-negative joint table reproducing every marginal.

    Returns a witness (verified against the inputs before being reported) or
    a verified Farkas certificate.  The LP sees only the row basis
    ``system.keep``; its result is read on every row (``_on_every_row``), and
    the evidence is checked on every row.  Float mode accepts a witness
    within delta of every marginal and a certificate that refutes that band
    (``_verdict``); ``exact=True`` requires rational marginal values and
    decides feasibility exactly, independent of delta.

    Tables whose pair tables form one n-cycle are first offered their most
    violated n-cycle inequality (``_cycle_verdict``); a refutation that
    ``band_test`` confirms is the verdict, with no LP and no row basis.
    """
    _checked_inputs(marginals, delta, exact)
    if (verdict := _cycle_verdict(space, marginals, delta, exact)) is not None:
        return verdict
    system = build_constraint_system(space, marginals, exact)
    result = solve_lp(system.matrix[system.keep], system.rhs[system.keep], exact=exact)
    return _verdict(marginals, system, _on_every_row(system, result, exact), delta, exact)


def _bounds(cell_rows: np.ndarray, marginals: Sequence[MarginalTable],
            start: FeasibleStart, x0: Sequence) -> list[tuple]:
    """``(lo, hi)`` of every cell over the width-0 system, in the arithmetic of
    ``start``, solving only the probes that no known feasible point settles.

    ``known`` holds feasible points of the system: ``x0``, the zero-cost
    solution from ``start``, and every probe optimum solved so far.  A cell
    that is 0 in one of them has ``lo = 0``: ``x >= 0`` bounds it (dual
    ``y = 0``).  A cell's ``hi`` is at most its cap, the least of ``1 - sum
    of the other cells' lo`` (the normalization row, given those bounds) and
    the value of each key that ``cell_rows`` maps it to (dual ``y = e_r``:
    the key's other cells are non-negative).  A known point that reaches the
    cap proves ``hi = cap``.  Each remaining bound is one phase 2 from
    ``start``, whose optimum joins ``known``; a max probe's bound is read as
    ``zero - objective``, so that no bound is ``-0.0``.  When the lower
    bounds sum to 1 every cap is its ``lo``, and ``x0`` attains it, so a
    unique unifier needs no max probe.
    """
    n = len(x0)
    number = Fraction if start.exact else float
    zero = number(0)
    known = [x0]

    def probe(cost: list[int]) -> Fraction | float:
        result = start.solve(cost)
        if result.status != OPTIMAL:
            raise NumericError("uniqueness probe LP did not solve")
        known.append(result.x)
        return result.objective

    lows = [zero if any(x[k] == 0 for x in known)
            else probe([int(j == k) for j in range(n)]) for k in range(n)]
    values = [v for t in marginals for v in t.values.values()]
    spare = 1 - sum(lows)
    bounds = []
    for k, (lo, rows) in enumerate(zip(lows, cell_rows.T.tolist())):
        cap = number(min([spare + lo] + [values[r] for r in rows]))
        hi = cap if any(x[k] == cap for x in known) else zero - probe([-int(j == k) for j in range(n)])
        bounds.append((lo, hi))
    return bounds


def probe_uniqueness(space: JointSampleSpace, marginals: Sequence[MarginalTable],
                     delta: float = DEFAULT_DELTA, exact: bool = False) -> FeasibilityVerdict:
    """Per-cell min/max bounds under the marginal constraints; unique iff every
    cell is ``pinned``.

    The bounds are taken over the width-0 system of hard equalities, so
    delta (the band width) moves neither them nor ``unique``.  Phase 1 of
    that system runs once, on the row basis ``system.keep``, and its end
    state read at zero cost gives the verdict (``_verdict``, checked on
    every row, as in ``find_unifying_probability``) in both modes.  Each
    probe that ``_bounds`` cannot settle from a known feasible point is one
    phase 2 from that end state: exact ``eprb`` solves 4 of its 32, float
    ``eprb`` 9.

    A float verdict whose band is feasible while the hard equalities are
    not comes back with ``unique`` and ``component_bounds`` left None, and
    so does every infeasible one.  Before phase 1, an n-cycle of pair
    tables is offered its most violated inequality, as in
    ``find_unifying_probability`` (``_cycle_verdict``).
    """
    _checked_inputs(marginals, delta, exact)
    if (verdict := _cycle_verdict(space, marginals, delta, exact)) is not None:
        return verdict
    system = build_constraint_system(space, marginals, exact)
    start = feasible_start(system.matrix[system.keep], system.rhs[system.keep], exact=exact)
    result = _on_every_row(system, start if isinstance(start, LPResult) else start.solve(), exact)
    verdict = _verdict(marginals, system, result, delta, exact)
    if verdict.feasible and result.status == OPTIMAL:
        verdict.component_bounds = dict(zip(system.cells, _bounds(system.cell_rows, marginals,
                                                                  start, result.x)))
        verdict.unique = pinned(verdict.component_bounds, exact)
    return verdict


def pinned(bounds: Mapping[Cell, tuple], exact: bool) -> bool:
    """Whether every cell of ``bounds`` (``{cell: (lo, hi)}``, as in
    ``component_bounds``) has ``hi - lo <= tol``: 0 in exact mode, and in
    float mode ``TABLE_TOL``, the tables' own slack, far above the ~1e-16
    noise of float bounds, whatever delta is.  Bounds that cross by more
    than ``tol`` raise ``NumericError``."""
    tol = 0 if exact else TABLE_TOL
    for cell, (lo, hi) in bounds.items():
        if not lo - hi <= tol:
            raise NumericError(f"bounds [{lo}, {hi}] of cell {cell!r} are in the wrong order")
    return all(hi - lo <= tol for lo, hi in bounds.values())


# ---------------------------------------------------------------------------
# inequality cross-checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CycleCheck:
    """The n-cycle inequalities: every ``values`` entry must be at most ``bound``.

    ``values`` has one entry per sign vector with an odd number of minus
    signs, the signed sum of the correlations in ``CorrelationSet`` order.
    ``slack`` is negative when an inequality is violated.
    """

    satisfied: bool
    values: tuple[float, ...]
    bound: int

    @property
    def max_value(self) -> float:
        return max(self.values)

    @property
    def slack(self) -> float:
        return self.bound - self.max_value


def pair_correlation(table: MarginalTable) -> float:
    """Correlation sum(v1 * v2 * p) of a two-variable table with numeric outcomes."""
    if len(table.variables) != 2:
        raise ValidationError("pair correlation needs a table over exactly two variables")
    values = np.array([list(table.values.values())], dtype=float)
    return float(pair_correlations(list(table.values), values)[0])


def pair_correlations(keys: Sequence[tuple], values: np.ndarray) -> np.ndarray:
    """``pair_correlation`` of G tables that share ``keys``, one per row of the
    ``(G, len(keys))`` stack ``values``, summed in key order."""
    total = np.zeros(len(values))
    for key, column in zip(keys, values.T):
        factors = []
        for group in key:
            if len(group) != 1:
                raise ValidationError("pair correlation needs atomic (ungrouped) outcomes")
            try:
                factors.append(float(group[0]))
            except (TypeError, ValueError):
                raise ValidationError(f"outcome {group[0]!r} is not numeric") from None
        total = total + factors[0] * factors[1] * column
    return total


def correlations_from_marginals(marginals: Sequence[MarginalTable]) -> CorrelationSet:
    """Pair correlations of the two-variable tables that the n-cycle
    inequalities (``cycle_check``) hold for.

    The tables are the ``_pair_tables``; every other table is left out.
    """
    return CorrelationSet({marginals[t].names: pair_correlation(marginals[t])
                           for t in _pair_tables([(t.variables, t.partitions) for t in marginals])})


def cycle_check(correlations: CorrelationSet) -> CycleCheck:
    """Check the n-cycle inequalities sum_i g_i C_i <= n - 2 over every sign
    vector g with an odd number of minus signs.

    The pairs must form one cycle through n >= 3 variables
    (``CorrelationSet.is_cycle``).  Dichotomic variables with these pair
    correlations have a joint distribution exactly when every inequality
    holds (Araujo, Quintino, Budroni, Terra Cunha & Cabello 2013; Fine 1982
    for CHSH, n = 4).  ``TABLE_TOL`` absorbs float noise at the bound.
    """
    if not correlations.is_cycle:
        raise ValidationError(
            "cycle check needs pairs forming one cycle: every variable in exactly "
            "two pairs, all connected, at least three of them"
        )
    n = len(correlations.values)
    values = tuple(map(float, cycle_values(np.array([list(correlations.values.values())]))[0]))
    return CycleCheck(satisfied=max(values) <= n - 2 + TABLE_TOL, values=values, bound=n - 2)


def cycle_values(correlations: np.ndarray) -> np.ndarray:
    """``CycleCheck.values`` of G cycles, one per row of the ``(G, n)`` stack
    of their correlations in ``CorrelationSet`` order."""
    n = correlations.shape[1]
    signs = np.array([s for s in itertools.product((1, -1), repeat=n) if s.count(-1) % 2])
    # sum left to right over whichever of signs and -signs has fewer minus signs,
    # so that opposite sign vectors give exactly opposite values, zeros included
    flips = np.where(2 * (signs == -1).sum(axis=1) > n, -1.0, 1.0)
    signs = signs * flips[:, None]
    total = correlations[:, :1] * signs[:, 0]
    for k in range(1, n):
        total = total + correlations[:, k:k + 1] * signs[:, k]
    return total * flips


# Old names, kept only because ``perfbench/workloads.py`` calls them: the
# benchmark changes on its own, apart from the library.
bell_check = chsh_check = cycle_check


# ---------------------------------------------------------------------------
# quasi-probability classification
# ---------------------------------------------------------------------------

@dataclass
class QuasiClassification:
    viable: bool
    marginals_used: list[MarginalTable]
    verdict: FeasibilityVerdict


def classify_quasiprobability(space: JointSampleSpace, q: Mapping[Cell, object],
                              exact: bool = False) -> QuasiClassification:
    """Decide whether a quasi-probability is viable.

    Collects the coarse-grainings of ``q`` that are non-negative within
    ``QUASI_NONNEG_TOL`` and asks whether one true joint probability matches
    them all, within ``DEFAULT_DELTA`` in float mode:
    the marginals over every variable subset, kept when non-negative and
    not implied by a kept superset, plus, for each variable no kept subset
    covers, every two-block grouping of its alphabet.  A subset marginal
    sums ``q`` in cell order through the same cell-to-key map as the
    constraint rows.

    On a built-in scenario's ``combined`` set this is not the unifier's
    question.  For ``leggett_garg`` it is: each projector family sums to the
    identity, so summing q over one time leaves the quasi-probability of the
    other two times' set, which is consistent and so equals its pair table.
    A q with a negative cell therefore keeps exactly the three pair tables,
    and one without is itself a unifying joint.  For ``eprb`` it is not: the
    same-particle marginals over (s1, s2) and (s3, s4) are non-negative, with
    correlations a1.a2 and a3.a4, and are kept as extra constraints.  At
    theta = (0, 120, 60, 60) degrees the unifier is feasible, but
    C12 + C13 + C23 = -1.5 < -1, so q is not viable.
    """
    cells = space.cells()
    if set(q) != set(cells):
        raise ValidationError("quasi-probability must assign a value to every joint cell")
    total = sum(q.values())
    if abs(float(total) - 1.0) > TABLE_TOL:
        raise ValidationError(f"quasi-probability must sum to 1, got {float(total)!r}")

    values = np.array([q[c] for c in cells], dtype=object)
    subset_tables: dict[tuple[str, ...], dict] = {}
    nonneg: list[tuple[str, ...]] = []
    for size in range(1, len(space.variables) + 1):
        for subset in itertools.combinations(space.variables, size):
            keys = list(itertools.product(*(v.outcomes for v in subset)))
            marg = np.zeros(len(keys), dtype=object)
            atoms = tuple(tuple((i,) for i in range(len(v.outcomes))) for v in subset)
            np.add.at(marg, _cell_keys(space, subset, atoms), values)
            names = tuple(v.name for v in subset)
            subset_tables[names] = dict(zip(keys, marg.tolist()))
            if min(float(v) for v in marg) >= -QUASI_NONNEG_TOL:
                nonneg.append(names)

    kept = sorted(
        (s for s in nonneg if not any(set(s) < set(other) for other in nonneg)),
        key=lambda s: (len(s), s),
    )
    marginals = [
        MarginalTable(tuple(space.variable(n) for n in subset), subset_tables[subset])
        for subset in kept
    ]

    covered = {n for subset in kept for n in subset}
    for var in space.variables:
        k = len(var.outcomes)
        if var.name in covered or k < 3:
            continue
        fine = subset_tables[(var.name,)]
        for r in range(1, k // 2 + 1):
            for block in itertools.combinations(var.outcomes, r):
                rest = tuple(o for o in var.outcomes if o not in block)
                if len(block) == k - len(block) and block > rest:
                    continue  # avoid listing each half-half split twice
                grouped = {
                    (block,): sum(fine[(o,)] for o in block),
                    (rest,): sum(fine[(o,)] for o in rest),
                }
                if min(float(v) for v in grouped.values()) >= -QUASI_NONNEG_TOL:
                    marginals.append(MarginalTable((var,), grouped))

    verdict = find_unifying_probability(space, marginals, exact=exact)
    return QuasiClassification(viable=verdict.feasible, marginals_used=marginals, verdict=verdict)
