"""Scenario analysis pipeline and report (de)serialization.

``analyze`` runs physics -> classify -> zero-cover -> marginal extraction ->
unification -> uniqueness for one scenario descriptor and returns a plain
dict ready for JSON.  It builds no ``HistorySet``: every set's decoherence
functional, quasi-probabilities and classicality diagnostics are rows of
stacks computed from the descriptor's grid, one stack per shape of set
(``_set_physics``), and the per-set steps read those rows through the
array-level functions that ``classify``, ``detect_zero_cover`` and
``extract_marginals`` apply to one set.  The encoding is lossless:
rationals are tagged, label and outcome types survive a round trip, and
anything whose order matters (marginal tables, witness cells) is stored as
lists, so a reloaded report can re-verify its own witness or Farkas
certificate against the constraint system it claims to solve.  The one
exception is a mapping's non-string keys, which ``encode_value`` writes as
``str(key)``: the tuple keys of the ``expected`` block (``"(1,)"``) come
back as strings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from .classicality import (
    DEFAULT_CLASSIFY_TOL,
    DEFAULT_ZERO_COVER_THRESHOLD,
    classify_diagnostics,
    zero_cover,
)
from .errors import NumericError, ValidationError
from .histories import checked_weight, classicality_stack, decoherence_stack, quasi_stack
from .scenarios import ScenarioDescriptor
from .unify import (
    DEFAULT_DELTA,
    FEASIBLE,
    JointSampleSpace,
    MarginalTable,
    Variable,
    correlations_from_marginals,
    cycle_check,
    find_unifying_probability,
    is_finite_number,
    pinned,
    probe_uniqueness,
    refutes_marginals,
    snap_tables,
    verify_witness,
)

SCHEMA_VERSION = 2
PROBE_CELLS_CAP = 64


@dataclass(frozen=True)
class AnalysisOptions:
    """Classification tolerance, float-LP band width and arithmetic of one analysis.

    ``tol`` and ``delta`` must be finite and non-negative; one
    ``ValidationError`` names every field that is not.
    """

    tol: float = DEFAULT_CLASSIFY_TOL
    delta: float = DEFAULT_DELTA
    exact: bool = False

    def __post_init__(self):
        bad = [f"{name}={value!r}" for name, value in (("tol", self.tol), ("delta", self.delta))
               if not (is_finite_number(value) and value >= 0)]
        if bad:
            raise ValidationError(f"analysis options must be finite and non-negative: {', '.join(bad)}")


# ---------------------------------------------------------------------------
# JSON encoding helpers
# ---------------------------------------------------------------------------

def encode_value(value):
    """Encode numbers, sequences and maps into JSON-safe structures, losslessly."""
    kind = type(value)
    if kind is float or kind is int or kind is str or kind is bool or value is None:
        return value
    if kind is list or kind is tuple:
        return [encode_value(v) for v in value]
    if isinstance(value, str):
        return value
    if isinstance(value, Fraction):
        return {"$fraction": [value.numerator, value.denominator]}
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, complex):
        return {"$complex": [value.real, value.imag]}
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): encode_value(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return [encode_value(v) for v in value.tolist()]
    raise TypeError(f"cannot encode {type(value).__name__} for the report")


def decode_value(value):
    """Inverse of ``encode_value`` for the tagged scalar types.

    A malformed tag is a ``ValidationError``.
    """
    if isinstance(value, dict):
        if set(value) == {"$fraction"}:
            parts = value["$fraction"]
            if not (isinstance(parts, list) and len(parts) == 2
                    and all(type(v) is int for v in parts) and parts[1] != 0):
                raise ValidationError(f"$fraction needs [numerator, nonzero denominator], got {parts!r}")
            return Fraction(*parts)
        if set(value) == {"$complex"}:
            parts = value["$complex"]
            if not (isinstance(parts, list) and len(parts) == 2
                    and all(is_finite_number(v) for v in parts)):
                raise ValidationError(f"$complex needs [real, imaginary], got {parts!r}")
            return complex(*parts)
        return {k: decode_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    return value


def _pairs(mapping: Mapping) -> list:
    return [[encode_value(list(key)), encode_value(val)] for key, val in mapping.items()]


def _encode_marginal(name: str, table: MarginalTable) -> dict:
    return {
        "set": name,
        "variables": list(table.names),
        "values": [[encode_value([list(g) for g in key]), encode_value(val)]
                   for key, val in table.values.items()],
    }


def _field(parent: dict, key: str, kind, path: str):
    """``parent[key]``, which must exist and be an instance of ``kind``."""
    if key not in parent:
        raise ValidationError(f"report has no field {path}")
    value = parent[key]
    if not isinstance(value, kind):
        raise ValidationError(f"report field {path} has the wrong type {type(value).__name__}")
    return value


def _scalar(value, path: str):
    """Decode one encoded scalar: a JSON scalar, or a tagged rational or complex."""
    if isinstance(value, list) or (isinstance(value, dict)
                                   and set(value) not in ({"$fraction"}, {"$complex"})):
        raise ValidationError(f"report field {path} holds a list or object where a scalar belongs")
    return decode_value(value)


def _outcomes(value, path: str) -> tuple:
    """A JSON list of encoded outcomes, decoded into a tuple of hashable values."""
    if not isinstance(value, list):
        raise ValidationError(f"report field {path} must be a list of outcomes")
    return tuple(_scalar(v, path) for v in value)


def _number(value, path: str):
    value = _scalar(value, path)
    if not is_finite_number(value):
        raise ValidationError(f"report field {path} is not a finite number: {value!r}")
    return value


def _pairs_of(value, path: str) -> list:
    if not isinstance(value, list) or any(not isinstance(p, list) or len(p) != 2 for p in value):
        raise ValidationError(f"report field {path} must be a list of [key, value] pairs")
    return value


def _decode_variable(entry, path: str) -> Variable:
    if not isinstance(entry, dict):
        raise ValidationError(f"report field {path} must be an object")
    name = _field(entry, "name", str, f"{path}.name")
    return Variable(name, _outcomes(_field(entry, "outcomes", list, f"{path}.outcomes"),
                                    f"{path}.outcomes"))


def _decode_marginal(entry, space: JointSampleSpace, path: str) -> MarginalTable:
    if not isinstance(entry, dict):
        raise ValidationError(f"report field {path} must be an object")
    names = _field(entry, "variables", list, f"{path}.variables")
    if not all(isinstance(n, str) for n in names):
        raise ValidationError(f"report field {path}.variables must list variable names")
    variables = tuple(space.variable(n) for n in names)
    values = {}
    for i, (key, val) in enumerate(_pairs_of(_field(entry, "values", list, f"{path}.values"),
                                             f"{path}.values")):
        where = f"{path}.values[{i}]"
        if not isinstance(key, list):
            raise ValidationError(f"report field {where} must have a list of groups as its key")
        groups = tuple(_outcomes(g, where) for g in key)
        if groups in values:
            raise ValidationError(f"report field {where} repeats the key {groups!r}")
        values[groups] = _number(val, where)
    return MarginalTable(variables, values)


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def _set_physics(descriptor: ScenarioDescriptor) -> dict[str, tuple]:
    """Each set's labels, ``(n, n)`` decoherence functional, ``(n,)``
    quasi-probabilities and four classicality diagnostics, by set name.

    They are rows of the stacks of point 0 of the descriptor's grid: the sets
    of one ``(n, dim)`` shape are stacked along the grid axis and computed at
    once.  It checks the history cap (``ScenarioGrid.class_operators``) and
    the post-selection weight, and nothing the grid derives: its labels and
    class operators are products of slot symbols and projector families
    checked where they entered, so they sum to the identity by construction.
    """
    grid = descriptor.grid
    weight = checked_weight(descriptor.initial, descriptor.final)
    rho, final = descriptor.initial.matrix, None if descriptor.final is None else descriptor.final.matrix
    groups: dict[tuple, list] = {}
    for sset in descriptor.sets:
        ops = grid.class_operators(sset.name)  # checks the history cap before any label is built
        groups.setdefault(ops.shape, []).append((sset.name, ops))
    physics = {}
    for members in groups.values():
        ops = np.concatenate([o for _, o in members])
        entries = decoherence_stack(ops, rho, final, weight)
        quasi = quasi_stack(ops, rho, final, weight)
        diagnostics = classicality_stack(entries, quasi).tolist()
        for s, (name, _) in enumerate(members):
            physics[name] = grid.labels(name), entries[s], quasi[s], diagnostics[s]
    return physics


def analyze(descriptor: ScenarioDescriptor, options: AnalysisOptions = AnalysisOptions()) -> dict:
    """Run the full pipeline on one scenario and return the report dict.

    Each set's report is read from its rows of ``_set_physics``; it is the
    report of ``descriptor.build(name)`` through ``classify``,
    ``detect_zero_cover`` and ``extract_marginals``, which compute one set
    at a time.  A block that one result holds (classicality, zero cover,
    options, expected values, verdict) is that result's fields; only the
    encoded and derived entries are written out.
    """
    sets_report: dict[str, dict] = {}
    tables: list[tuple[str, MarginalTable]] = []
    excluded: dict[str, str] = {}

    physics = _set_physics(descriptor)
    for sset in descriptor.sets:
        labels, entries, quasi, diagnostics = physics[sset.name]
        diagonal = entries.diagonal().real
        probabilities = dict(zip(labels, diagonal.tolist()))
        report = classify_diagnostics(diagnostics, options.tol)
        cover = zero_cover(labels, entries)

        sets_report[sset.name] = {
            "labels": encode_value(list(labels)),
            "probabilities": _pairs(probabilities),
            "probability_sum": float(sum(diagonal)),  # in label order, as numpy floats, as a set sums
            "quasi_probabilities": _pairs(dict(zip(labels, quasi.tolist()))),
            "classicality": dict(vars(report)),
            "zero_cover": {**vars(cover), "witness": encode_value(cover.witness)},
        }

        if sset.mapping is not None:
            if report.consistent:
                try:
                    tables.append((sset.name, sset.mapping.marginal_table(probabilities)))
                except ValidationError as exc:
                    raise ValidationError(f"set {sset.name!r} is consistent at tol {options.tol} "
                                          f"but gives no probability table: {exc}") from None
            else:
                excluded[sset.name] = "inconsistent"

    unification = None
    if descriptor.space is not None and tables:
        marginals = [t for _, t in tables]
        if options.exact:
            try:
                marginals = snap_tables(descriptor.space, marginals)
            except ValidationError:
                for name, table in tables:  # the first table that fails alone is the one refused
                    try:
                        table.as_exact()
                    except ValidationError as exc:
                        raise ValidationError(f"set {name!r} gives no exact probability table: {exc}") from None
                raise
        correlations = correlations_from_marginals(marginals)
        bell = chsh = None
        if correlations.is_cycle:
            check = cycle_check(correlations)
            c = list(correlations.values.values())
            if len(c) == 3:
                bell = {"satisfied": check.satisfied, "slack": check.slack,
                        "total": sum(c), "upper_bound": 1.0 + 2.0 * min(c)}
            elif len(c) == 4:
                chsh = {"satisfied": check.satisfied, "values": list(check.values),
                        "max_value": check.max_value}

        if descriptor.space.size <= PROBE_CELLS_CAP:
            verdict = probe_uniqueness(descriptor.space, marginals,
                                       delta=options.delta, exact=options.exact)
        else:
            verdict = find_unifying_probability(descriptor.space, marginals,
                                                delta=options.delta, exact=options.exact)

        unification = {
            "variables": [{"name": v.name, "outcomes": encode_value(list(v.outcomes))}
                          for v in descriptor.space.variables],
            "marginal_sets": [name for name, _ in tables],
            "excluded_sets": excluded,
            "marginals": [_encode_marginal(name, t) for (name, _), t in zip(tables, marginals)],
            "correlations": {f"{a},{b}": v for (a, b), v in correlations.values.items()},
            "bell": bell,
            "chsh": chsh,
            "verdict": {
                **vars(verdict),
                "witness": _pairs(verdict.witness) if verdict.witness is not None else None,
                "farkas_certificate": encode_value(verdict.farkas_certificate),
                "component_bounds": [[encode_value(list(cell)), encode_value(lo), encode_value(hi)]
                                     for cell, (lo, hi) in verdict.component_bounds.items()]
                if verdict.component_bounds is not None else None,
            },
        }

    return {
        "schema_version": SCHEMA_VERSION,
        "scenario": {
            "name": descriptor.name,
            "parameters": {k: encode_value(v) for k, v in sorted(descriptor.parameters.items())},
        },
        "options": {
            **vars(options),
            "zero_cover_threshold": DEFAULT_ZERO_COVER_THRESHOLD,
            "arithmetic_mode": "exact" if options.exact else "float",
        },
        "expected": {name: {**vars(e), "value": encode_value(e.value)}
                     for name, e in sorted(descriptor.expected.items())},
        "sets": sets_report,
        "unification": unification,
    }


def report_to_json(report: dict) -> str:
    """The report's canonical text: ``json.dumps(report, sort_keys=True,
    separators=(",", ":"))`` plus a newline, written by ``json``'s C encoder.

    The text is one ASCII line, byte-identical across runs; read it with
    ``python -m json.tool``.  A value of a type ``json`` cannot write is a
    ``TypeError``.
    """
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def _check_uniqueness(verdict: dict, witness: dict, exact: bool) -> None:
    """Check a feasible verdict's ``unique`` against its ``component_bounds``
    by ``pinned`` (which also rejects crossed bounds), then in exact mode
    that each cell's bounds contain its value in the verified witness."""
    unique = _field(verdict, "unique", (bool, type(None)), "unification.verdict.unique")
    path = "unification.verdict.component_bounds"
    entries = _field(verdict, "component_bounds", (list, type(None)), path)
    if (unique is None) != (entries is None):
        raise ValidationError(f"report fields unification.verdict.unique and {path} "
                              "must both be null or both be set")
    if entries is None:
        return
    if len(entries) != len(witness):
        raise ValidationError(f"report field {path} must hold one entry per witness cell")
    bounds = {}
    for i, entry in enumerate(entries):
        where = f"{path}[{i}]"
        if not isinstance(entry, list) or len(entry) != 3:
            raise ValidationError(f"report field {where} must be a [cell, lo, hi] triple")
        cell = _outcomes(entry[0], where)
        if cell not in witness or cell in bounds:
            raise ValidationError(f"report field {where} names the cell {cell!r}, which the "
                                  "witness lacks or an earlier entry names")
        bounds[cell] = _number(entry[1], where), _number(entry[2], where)
    says = pinned(bounds, exact)
    if exact:
        for cell, (lo, hi) in bounds.items():
            if not lo <= witness[cell] <= hi:
                raise NumericError(f"bounds [{lo}, {hi}] of cell {cell!r} exclude its witness "
                                   f"value {witness[cell]}")
    if unique != says:
        raise NumericError(f"report says unique is {unique}, but its component bounds say {says}")


def reverify(report: dict) -> None:
    """Check a reloaded report's witness or certificate against its own constraints,
    and a feasible verdict's ``unique`` and ``component_bounds`` against each
    other and the witness (``_check_uniqueness``).

    Raises ``ValidationError`` for a report of another schema version or one
    whose fields are missing or malformed, naming the field, and
    ``NumericError`` when the stored evidence does not verify; a report whose
    ``unification`` is null passes vacuously.
    """
    if not isinstance(report, dict):
        raise ValidationError("a report must be a JSON object")
    version = report.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValidationError(
            f"report schema_version {version!r} cannot be re-verified; expected {SCHEMA_VERSION}"
        )
    unification = _field(report, "unification", (dict, type(None)), "unification")
    if unification is None:
        return
    verdict = _field(unification, "verdict", dict, "unification.verdict")
    variables = _field(unification, "variables", list, "unification.variables")
    space = JointSampleSpace(tuple(_decode_variable(v, f"unification.variables[{i}]")
                                   for i, v in enumerate(variables)))
    entries = _field(unification, "marginals", list, "unification.marginals")
    marginals = [_decode_marginal(entry, space, f"unification.marginals[{i}]")
                 for i, entry in enumerate(entries)]
    mode = _field(verdict, "mode", str, "unification.verdict.mode")
    if mode not in ("exact", "float"):
        raise ValidationError(f"report field unification.verdict.mode is {mode!r}")
    exact = mode == "exact"
    delta = _field(verdict, "delta", (int, float), "unification.verdict.delta")
    if not is_finite_number(delta) or delta < 0:
        raise ValidationError(f"report field unification.verdict.delta is {delta!r}")
    status = _field(verdict, "status", str, "unification.verdict.status")

    if status == FEASIBLE:
        path = "unification.verdict.witness"
        witness = {}
        for i, (cell, val) in enumerate(_pairs_of(_field(verdict, "witness", list, path), path)):
            cell = _outcomes(cell, f"{path}[{i}]")
            if cell in witness:
                raise ValidationError(f"report field {path}[{i}] repeats the cell {cell!r}")
            witness[cell] = _scalar(val, f"{path}[{i}]")
        verify_witness(space, marginals, witness, delta=delta, exact=exact)
        _check_uniqueness(verdict, witness, exact)
        return
    if status == "infeasible":
        path = "unification.verdict.farkas_certificate"
        certificate = [_number(y, f"{path}[{i}]")
                       for i, y in enumerate(_field(verdict, "farkas_certificate", list, path))]
        if not refutes_marginals(space, marginals, certificate, delta, exact):
            raise NumericError("stored Farkas certificate failed verification")
        return
    raise ValidationError(f"report field unification.verdict.status is {status!r}")
