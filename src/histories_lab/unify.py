"""Existence (and uniqueness) of a joint probability matching given marginals.

The central question: given probability tables from several history sets over
shared finite variables, is there one non-negative joint distribution whose
coarse-grainings reproduce every table?  This is a linear-programming
feasibility problem over the joint simplex; infeasibility comes back with a
verifiable Farkas certificate.  For dichotomic pair correlations around an
n-cycle, ``cycle_check`` is an analytic cross-check: its inequalities (Bell
and Leggett-Garg for n = 3, CHSH for n = 4) hold exactly when the LP is
feasible (Araujo et al. 2013; Fine 1982 for n = 4).

Marginal tables may carry coarse outcome groups (e.g. "box 2 or 3") as well
as atomic outcomes; each key constrains the sum of the joint cells it covers.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass, field
from functools import cached_property, reduce
from fractions import Fraction
from numbers import Rational
from typing import Hashable, Mapping, Sequence

import numpy as np

from .classicality import DEFAULT_CLASSIFY_TOL, classify
from .errors import InconsistentSetError, NumericError, ValidationError
from .histories import HistorySet, history_probabilities
from .simplex import (
    INFEASIBLE,
    OPTIMAL,
    LPResult,
    feasible_start,
    solve_lp,
    verify_certificate,
)

Outcome = Hashable
Cell = tuple
GroupKey = tuple

DEFAULT_DELTA = 1e-9
DEFAULT_JOINT_CAP = 10**6
TABLE_TOL = 1e-9  # slack for marginal sums, signs, correlation ranges and cycle bounds
SNAP_MAX_DENOMINATOR = 10**9  # as_exact: largest denominator a float snaps to
SNAP_TOL = 1e-12  # as_exact: largest distance of a snapped value from its float
QUASI_NONNEG_TOL = 1e-12  # a quasi coarse-graining at or above -this counts as non-negative

FEASIBLE = "feasible"
STATUS_INFEASIBLE = "infeasible"


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
    def outcome_indices(self) -> np.ndarray:
        """Read-only ``(size, len(variables))`` array: row ``c`` holds the
        outcome index of joint cell ``c`` (row-major order) on each axis."""
        shape = tuple(len(v.outcomes) for v in self.variables)
        indices = np.indices(shape).reshape(len(shape), self.size).T
        indices.setflags(write=False)
        return indices

    def variable(self, name: str) -> Variable:
        for v in self.variables:
            if v.name == name:
                return v
        raise ValidationError(f"no variable named {name!r} in the sample space")

    def axis(self, name: str) -> int:
        for i, v in enumerate(self.variables):
            if v.name == name:
                return i
        raise ValidationError(f"no variable named {name!r} in the sample space")


def _canonical_group(var: Variable, group) -> GroupKey:
    """Normalize one key entry to a tuple of outcomes in alphabet order."""
    if not isinstance(group, (tuple, list, set, frozenset)):
        return (var.outcomes[var.outcome_index(group)],)
    indices = sorted(var.outcome_index(m) for m in group)
    if len(set(indices)) != len(indices):
        raise ValidationError(f"group {group!r} repeats an outcome of {var.name!r}")
    return tuple(var.outcomes[i] for i in indices)


@dataclass(frozen=True)
class MarginalTable:
    """A probability table over a subset of variables.

    Keys are tuples with one entry per table variable; each entry is either an
    atomic outcome or a group (tuple) of outcomes.  Per variable, the groups
    used must partition its alphabet, and the keys must form the full product
    of those partitions, so the values are a genuine probability table.
    ``partitions[k]`` lists the groups of the k-th variable in alphabet
    order; the keys of ``values`` run through their product in that order.
    """

    variables: tuple[Variable, ...]
    values: dict
    partitions: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        if not self.variables:
            raise ValidationError("marginal table needs at least one variable")
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ValidationError("marginal table variables must be distinct")

        canonical: dict[tuple[GroupKey, ...], object] = {}
        for key, value in self.values.items():
            key = key if isinstance(key, tuple) else (key,)
            if len(key) != len(self.variables):
                raise ValidationError(
                    f"key {key!r} must have one entry per variable ({len(self.variables)})"
                )
            norm = tuple(_canonical_group(v, g) for v, g in zip(self.variables, key))
            if norm in canonical:
                raise ValidationError(f"duplicate key {key!r} in marginal table")
            canonical[norm] = value

        partitions = []
        for pos, var in enumerate(self.variables):
            index = var.index_of
            groups = sorted({k[pos] for k in canonical},
                            key=lambda g: tuple(index[o] for o in g))
            seen: set = set()
            for g in groups:
                if seen & set(g):
                    raise ValidationError(f"groups of variable {var.name!r} overlap")
                seen |= set(g)
            if seen != set(var.outcomes):
                raise ValidationError(f"groups of variable {var.name!r} do not cover its alphabet")
            partitions.append(tuple(groups))
        ordered_keys = list(itertools.product(*partitions))
        if set(canonical) != set(ordered_keys):
            raise ValidationError("marginal table keys must form the full product of the per-variable partitions")
        values = {k: canonical[k] for k in ordered_keys}
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
        object.__setattr__(self, "partitions", tuple(partitions))

    @staticmethod
    def is_exact_values(values: Mapping) -> bool:
        return all(isinstance(v, Rational) for v in values.values())

    @property
    def is_exact(self) -> bool:
        return self.is_exact_values(self.values)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

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
    def names(self) -> tuple[str, ...]:
        seen = sorted({n for pair in self.values for n in pair})
        return tuple(seen)

    @property
    def is_cycle(self) -> bool:
        """Whether the pairs form one cycle: at least three of them, every
        variable in exactly two, all connected."""
        neighbours: dict[str, list[str]] = {}
        for a, b in self.values:
            neighbours.setdefault(a, []).append(b)
            neighbours.setdefault(b, []).append(a)
        if len(self.values) < 3 or any(len(v) != 2 for v in neighbours.values()):
            return False
        reached, frontier = set(), [next(iter(neighbours))]
        while frontier:
            name = frontier.pop()
            if name not in reached:
                reached.add(name)
                frontier.extend(neighbours[name])
        return len(reached) == len(neighbours)


@dataclass
class FeasibilityVerdict:
    """Outcome of a unifying-probability search.

    feasible   -> ``witness`` is a non-negative joint table matching every
                  marginal within delta;
    infeasible -> ``farkas_certificate`` verifies against the constraint
                  system.
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


def extract_marginals(hset: HistorySet, mapping: VariableMapping,
                      tol: float = DEFAULT_CLASSIFY_TOL) -> MarginalTable:
    """Turn a consistent history set's probabilities into a marginal table.

    Refuses inconsistent sets: their diagonal entries do not obey the sum
    rules, so they are not probabilities of anything.
    """
    report = classify(hset, tol)
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
    """Standard-form system (matrix x = rhs, 0 <= x <= upper) for the unifier LP.

    One row per marginal key, tables in input order and each table's keys in
    ``table.values`` order, then the normalization row.  The first
    ``n_cells`` columns are the joint cells in row-major order.  A float
    system of band width ``delta > 0`` appends one slack column per row:
    row ``r`` reads ``a_r.x + s_r = b_r + delta`` with ``0 <= s_r <= 2*delta``,
    i.e. ``|a_r.x - b_r| <= delta``, and ``upper`` holds ``inf`` for the cells
    and ``2*delta`` for the slacks.  Width-0 systems (exact mode, or
    ``delta = 0``) are hard equalities with no slack columns and
    ``upper = None``.
    """

    matrix: object
    rhs: object
    cells: list[Cell]
    n_cells: int
    upper: np.ndarray | None = None


def _check_tables(space: JointSampleSpace, marginals: Sequence[MarginalTable]) -> None:
    for t, table in enumerate(marginals):
        for var in table.variables:
            try:
                owner = space.variable(var.name)
            except ValidationError:
                raise ValidationError(f"marginal {t} uses unknown variable {var.name!r}") from None
            if owner.outcomes != var.outcomes:
                raise ValidationError(
                    f"marginal {t} disagrees with the sample space about the alphabet of {var.name!r}"
                )


def _cell_keys(space: JointSampleSpace, variables: Sequence[Variable],
               partitions: Sequence[Sequence[GroupKey]]) -> np.ndarray:
    """For each joint cell, the position of the key covering it.

    ``partitions[k]`` are the outcome groups of ``variables[k]`` in alphabet
    order.  A cell's key is the mixed-radix number of its group indices, the
    first variable most significant, which is the order of the product of
    the partitions and so of ``MarginalTable.values``.
    """
    keys = np.zeros(space.size, dtype=np.intp)
    for var, groups in zip(variables, partitions):
        group_of = np.empty(len(var.outcomes), dtype=np.intp)
        index = var.index_of
        for g, group in enumerate(groups):
            group_of[[index[o] for o in group]] = g
        keys = keys * len(groups) + group_of[space.outcome_indices[:, space.axis(var.name)]]
    return keys


def build_constraint_system(space: JointSampleSpace, marginals: Sequence[MarginalTable],
                            delta: float = DEFAULT_DELTA, exact: bool = False) -> ConstraintSystem:
    """Assemble the marginal-matching constraints over the joint cells.

    Row ``r`` of a table is the indicator of the cells ``_cell_keys`` maps to
    its ``r``-th key; the normalization row covers every cell.  Exact mode
    keeps hard equalities in ``Fraction`` arithmetic and ignores ``delta``.
    Float mode widens each row into the band ``|a_r.x - b_r| <= delta``
    through one bounded slack column per row (see ``ConstraintSystem``); with
    ``delta = 0`` the rows stay hard equalities, which the solver's phase-1
    feasibility tolerance still cushions against ~1e-15 marginal noise.
    """
    _check_tables(space, marginals)
    width = 0.0 if exact else float(delta)
    if not 0 <= width < math.inf:
        raise ValidationError(f"band width delta must be finite and non-negative, got {delta!r}")
    zero, one = (Fraction(0), Fraction(1)) if exact else (0.0, 1.0)
    n = space.size
    m = sum(len(table.values) for table in marginals) + 1
    slacks = m if width else 0
    dtype = object if exact else float
    matrix = np.full((m, n + slacks), zero, dtype=dtype)
    targets = [value for table in marginals for value in table.values.values()] + [one]
    rhs = np.array([Fraction(v) if exact else float(v) + width for v in targets], dtype=dtype)
    cols = np.arange(n)
    row = 0
    for table in marginals:
        matrix[row + _cell_keys(space, table.variables, table.partitions), cols] = one
        row += len(table.values)
    matrix[row, :n] = one
    if not slacks:
        return ConstraintSystem(matrix, rhs, space.cells(), n)
    matrix[:, n:] = np.eye(m)
    upper = np.concatenate([np.full(n, np.inf), np.full(m, 2 * width)])
    return ConstraintSystem(matrix, rhs, space.cells(), n, upper)


def _verify_witness(space: JointSampleSpace, marginals: Sequence[MarginalTable],
                    witness: dict, delta: float, exact: bool) -> None:
    """One check for both arithmetics: exact witnesses at tolerance 0, float
    ones with ``1e-12`` below zero and ``delta + 1e-12`` on every key.  Every
    comparison is written so that a NaN fails it."""
    values = np.array([witness[c] for c in space.cells()], dtype=object if exact else float)
    floor, slop = (0, 0) if exact else (-1e-12, delta + 1e-12)
    below = np.logical_not(values >= floor)
    if below.any():
        raise NumericError(f"witness has a negative or undefined cell ({values[below][0]})")
    for table in marginals:
        got = np.zeros(len(table.values), dtype=values.dtype)
        np.add.at(got, _cell_keys(space, table.variables, table.partitions), values)
        miss = np.abs(got - np.array(list(table.values.values()), dtype=values.dtype))
        for key, off in zip(table.values, miss):
            if not off <= slop:
                raise NumericError(f"witness misses marginal key {key!r} by {off}")
    if not abs(values.sum() - 1) <= slop:
        raise NumericError("witness is not normalized within delta")


def is_finite_number(value) -> bool:
    """Whether ``value`` is an ``int``, ``float`` or ``Fraction`` (not a bool)
    within the float range, so that both arithmetics can use it."""
    return isinstance(value, (int, float, Fraction)) and not isinstance(value, bool) \
        and abs(value) <= sys.float_info.max


def verify_witness(space: JointSampleSpace, marginals: Sequence[MarginalTable],
                   witness: Mapping[Cell, object], delta: float = DEFAULT_DELTA,
                   exact: bool = False) -> None:
    """Raise ``NumericError`` unless the witness is non-negative and reproduces
    every marginal within delta (exactly, in exact mode).

    The witness must map exactly the cells of ``space`` to finite numbers
    (``int``, ``float`` or ``Fraction``); anything else is a
    ``ValidationError`` naming the offending cell.
    """
    _check_tables(space, marginals)
    witness = dict(witness)
    cells = space.cells()
    known = set(cells)
    for cell in witness:
        if cell not in known:
            raise ValidationError(f"witness cell {cell!r} is not in the sample space")
    for cell in cells:
        if cell not in witness:
            raise ValidationError(f"witness has no value for cell {cell!r}")
        value = witness[cell]
        if not is_finite_number(value):
            raise ValidationError(f"witness value {value!r} for cell {cell!r} is not a finite number")
    _verify_witness(space, marginals, witness, delta, exact)


def _require_exact(marginals: Sequence[MarginalTable]) -> None:
    if not all(t.is_exact for t in marginals):
        raise ValidationError("exact mode requires rational marginal values (see MarginalTable.as_exact)")


def _checked_verdict(space: JointSampleSpace, marginals: Sequence[MarginalTable],
                     system: ConstraintSystem, result: LPResult, delta: float,
                     exact: bool) -> FeasibilityVerdict:
    """Turn a feasibility LP result into a verdict whose evidence has been checked:
    the witness against the marginals, the certificate against ``system``."""
    mode = "exact" if exact else "float"
    if result.status == OPTIMAL:
        cell_values = result.x[: system.n_cells]
        if not exact:
            cell_values = np.where(np.abs(cell_values) < 1e-15, 0.0, cell_values)
        witness = {cell: value for cell, value in zip(system.cells, cell_values)}
        _verify_witness(space, marginals, witness, delta, exact)
        return FeasibilityVerdict(status=FEASIBLE, witness=witness, mode=mode, delta=delta)
    if result.status == INFEASIBLE:
        certificate = list(result.certificate)
        if not verify_certificate(system.matrix, system.rhs, certificate, system.upper):
            raise NumericError("Farkas certificate failed verification")
        return FeasibilityVerdict(status=STATUS_INFEASIBLE, farkas_certificate=certificate,
                                  mode=mode, delta=delta)
    raise NumericError(f"unexpected LP status {result.status!r} in feasibility solve")


def find_unifying_probability(space: JointSampleSpace, marginals: Sequence[MarginalTable],
                              delta: float = DEFAULT_DELTA, exact: bool = False, *,
                              certificate: Sequence | None = None) -> FeasibilityVerdict:
    """Search for a non-negative joint table reproducing every marginal.

    Returns a witness (verified against the inputs before being reported) or
    a verified Farkas certificate.  ``exact=True`` requires rational marginal
    values and decides feasibility exactly, independent of delta.

    ``certificate`` is a candidate Farkas vector, such as the certificate of
    a neighbouring system that differs only in its right-hand side (a Farkas
    certificate stays valid on an open set of right-hand sides).  When
    ``verify_certificate`` accepts it against this system, it is the verdict
    and no LP is solved; otherwise, and on a feasible system, the LP solves
    as without it.  Exact mode checks only an all-rational candidate, exactly.
    """
    if exact:
        _require_exact(marginals)
    system = build_constraint_system(space, marginals, delta, exact)
    if certificate is not None \
            and (not exact or all(isinstance(v, Rational) for v in certificate)) \
            and verify_certificate(system.matrix, system.rhs, certificate, system.upper):
        return FeasibilityVerdict(status=STATUS_INFEASIBLE, farkas_certificate=list(certificate),
                                  mode="exact" if exact else "float", delta=delta)
    result = solve_lp(system.matrix, system.rhs, None, upper=system.upper, exact=exact)
    return _checked_verdict(space, marginals, system, result, delta, exact)


def probe_uniqueness(space: JointSampleSpace, marginals: Sequence[MarginalTable],
                     delta: float = DEFAULT_DELTA, exact: bool = False) -> FeasibilityVerdict:
    """Per-cell min/max LPs under the marginal constraints; unique iff every cell is pinned.

    A cell is pinned when its attainable range is at most delta (exact mode
    demands a zero range).  The probes run against the width-0 system of hard
    equalities, without slack columns; with the delta-band system every cell
    would trivially have a range of about 2*delta and nothing could ever be
    reported unique.  Phase 1 of that system runs once and every probe is one
    phase 2 from its end state.  In exact mode the width-0 system is also the
    feasibility system, so the same phase 1, read at zero cost, gives the
    verdict.  A float verdict whose delta band is feasible while the hard
    equalities are not comes back with ``unique`` and ``component_bounds``
    left None.
    """
    if exact:
        _require_exact(marginals)
        system = build_constraint_system(space, marginals, 0.0, exact=True)
        start = feasible_start(system.matrix, system.rhs, exact=True)
        result = start if isinstance(start, LPResult) else start.solve()
        verdict = _checked_verdict(space, marginals, system, result, delta, exact)
        if not verdict.feasible:
            return verdict
    else:
        verdict = find_unifying_probability(space, marginals, delta)
        if not verdict.feasible:
            return verdict
        system = build_constraint_system(space, marginals, 0.0)
        start = feasible_start(system.matrix, system.rhs)
        if isinstance(start, LPResult):
            return verdict
    n_cols = system.matrix.shape[1]
    bounds: dict[Cell, tuple] = {}
    unique = True
    for k, cell in enumerate(system.cells):
        unit = [int(j == k) for j in range(n_cols)]
        low = start.solve(unit)
        high = start.solve([-v for v in unit])
        if low.status != OPTIMAL or high.status != OPTIMAL:
            raise NumericError("uniqueness probe LP did not solve")
        lo = low.objective
        hi = -high.objective
        bounds[cell] = (lo, hi)
        spread = hi - lo
        if (spread > 0) if exact else (float(spread) > delta):
            unique = False
    verdict.unique = unique
    verdict.component_bounds = bounds
    return verdict


def product_unify(marginals: Sequence[MarginalTable]) -> MarginalTable:
    """Product joint table for marginals over pairwise disjoint variables."""
    tables = list(marginals)
    if not tables:
        raise ValidationError("product unification needs at least one marginal")
    seen: set[str] = set()
    for table in tables:
        overlap = seen & set(table.names)
        if overlap:
            raise ValidationError(f"marginals overlap on variables {sorted(overlap)}")
        seen |= set(table.names)
    variables = tuple(v for table in tables for v in table.variables)
    values: dict = {}
    for combo in itertools.product(*(t.values.items() for t in tables)):
        key = tuple(g for part, _ in combo for g in part)
        value = combo[0][1]
        for _, v in combo[1:]:
            value = value * v
        values[key] = value
    return MarginalTable(variables, values)


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
    total = 0.0
    for key, value in table.values.items():
        factors = []
        for group in key:
            if len(group) != 1:
                raise ValidationError("pair correlation needs atomic (ungrouped) outcomes")
            try:
                factors.append(float(group[0]))
            except (TypeError, ValueError):
                raise ValidationError(f"outcome {group[0]!r} is not numeric") from None
        total += factors[0] * factors[1] * float(value)
    return total


def correlations_from_marginals(marginals: Sequence[MarginalTable]) -> CorrelationSet:
    """Collect pair correlations from every two-variable dichotomic table."""
    values = {}
    for table in marginals:
        if len(table.variables) == 2 and all(len(v.outcomes) == 2 for v in table.variables):
            values[table.names] = pair_correlation(table)
    return CorrelationSet(values)


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
    c = list(correlations.values.values())
    n = len(c)
    values = []
    for signs in itertools.product((1, -1), repeat=n):
        minus = signs.count(-1)
        if minus % 2:
            # Sum left to right (sum() compensates rounding from Python 3.12 on)
            # over whichever of signs and -signs has fewer minus signs, so that
            # opposite sign vectors give exactly opposite values, zeros included.
            flip = -1 if 2 * minus > n else 1
            values.append(flip * reduce(operator.add, (flip * g * v for g, v in zip(signs, c))))
    return CycleCheck(satisfied=max(values) <= n - 2 + TABLE_TOL, values=tuple(values), bound=n - 2)


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
            atoms = [[(o,) for o in v.outcomes] for v in subset]
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
