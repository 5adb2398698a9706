"""Scenario analysis pipeline and report (de)serialization.

``analyze`` runs build -> classify -> zero-cover -> marginal extraction ->
unification -> uniqueness for one scenario descriptor and returns a plain
dict ready for JSON.  The encoding is lossless: rationals are tagged, label
and outcome types survive a round trip, and anything whose order matters
(marginal tables, witness cells) is stored as lists, so a reloaded report can
re-verify its own witness or Farkas certificate against the constraint
system it claims to solve.  The one exception is a mapping's non-string
keys, which ``encode_value`` writes as ``str(key)``: the tuple keys of the
``expected`` block (``"(1,)"``) come back as strings.
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
    classify,
    detect_zero_cover,
)
from .errors import NumericError, ValidationError
from .histories import decoherence_functional, quasi_probabilities
from .scenarios import ScenarioDescriptor
from .simplex import verify_certificate
from .unify import (
    DEFAULT_DELTA,
    FEASIBLE,
    JointSampleSpace,
    MarginalTable,
    Variable,
    build_constraint_system,
    correlations_from_marginals,
    cycle_check,
    extract_marginals,
    find_unifying_probability,
    is_finite_number,
    probe_uniqueness,
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

def analyze(descriptor: ScenarioDescriptor, options: AnalysisOptions = AnalysisOptions()) -> dict:
    """Run the full pipeline on one scenario and return the report dict."""
    sets_report: dict[str, dict] = {}
    tables: list[tuple[str, MarginalTable]] = []
    excluded: dict[str, str] = {}

    for sset in descriptor.sets:
        hset = descriptor.build(sset.name)
        functional = decoherence_functional(hset)
        probabilities = dict(zip(functional.labels, functional.diagonal()))
        quasi = quasi_probabilities(hset)
        report = classify(hset, options.tol)
        cover = detect_zero_cover(hset)

        sets_report[sset.name] = {
            "labels": encode_value(list(functional.labels)),
            "probabilities": _pairs(probabilities),
            "probability_sum": float(sum(probabilities.values())),
            "quasi_probabilities": _pairs(quasi),
            "classicality": {
                "decoherent": report.decoherent,
                "consistent": report.consistent,
                "partially_decoherent": report.partially_decoherent,
                "linearly_positive": report.linearly_positive,
                "max_offdiag_abs": report.max_offdiag_abs,
                "max_offdiag_re": report.max_offdiag_re,
                "min_quasi": report.min_quasi,
                "max_prob_quasi_gap": report.max_prob_quasi_gap,
                "tolerance_used": report.tolerance_used,
            },
            "zero_cover": {
                "evaluated": cover.evaluated,
                "found": cover.found,
                "preclusive": cover.preclusive,
                "witness": encode_value(list(cover.witness)) if cover.witness else None,
                "threshold_used": cover.threshold_used,
            },
        }

        if sset.mapping is not None:
            if report.consistent:
                table = extract_marginals(hset, sset.mapping, options.tol)
                if options.exact:
                    table = table.as_exact()
                tables.append((sset.name, table))
            else:
                excluded[sset.name] = "inconsistent"

    unification = None
    if descriptor.space is not None and tables:
        marginals = [t for _, t in tables]
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
            "marginals": [_encode_marginal(name, t) for name, t in tables],
            "correlations": {f"{a},{b}": v for (a, b), v in correlations.values.items()},
            "bell": bell,
            "chsh": chsh,
            "verdict": {
                "status": verdict.status,
                "witness": _pairs(verdict.witness) if verdict.witness is not None else None,
                "farkas_certificate": encode_value(verdict.farkas_certificate)
                if verdict.farkas_certificate is not None else None,
                "unique": verdict.unique,
                "component_bounds": [[encode_value(list(cell)), encode_value(lo), encode_value(hi)]
                                     for cell, (lo, hi) in verdict.component_bounds.items()]
                if verdict.component_bounds is not None else None,
                "mode": verdict.mode,
                "delta": verdict.delta,
            },
        }

    return {
        "schema_version": SCHEMA_VERSION,
        "scenario": {
            "name": descriptor.name,
            "parameters": {k: encode_value(v) for k, v in sorted(descriptor.parameters.items())},
        },
        "options": {
            "tol": options.tol,
            "delta": options.delta,
            "exact": options.exact,
            "zero_cover_threshold": DEFAULT_ZERO_COVER_THRESHOLD,
            "arithmetic_mode": "exact" if options.exact else "float",
        },
        "expected": {
            name: {"value": encode_value(e.value), "tag": e.tag}
            for name, e in sorted(descriptor.expected.items())
        },
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


def _check_uniqueness(verdict: dict, witness: dict, delta, exact: bool) -> None:
    """Check a feasible verdict's ``unique`` against its ``component_bounds``
    by the rule ``probe_uniqueness`` uses, ``hi - lo <= tol`` in every cell,
    with ``tol`` 0 in exact mode and delta in float mode.  No cell's bounds
    may cross by more than ``tol``: float bounds carry the tables' float
    noise.  In exact mode each cell's bounds must also contain its value in
    the (verified) witness."""
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
    seen = set()
    tol = 0 if exact else delta
    pinned = True
    for i, entry in enumerate(entries):
        where = f"{path}[{i}]"
        if not isinstance(entry, list) or len(entry) != 3:
            raise ValidationError(f"report field {where} must be a [cell, lo, hi] triple")
        cell = _outcomes(entry[0], where)
        if cell not in witness or cell in seen:
            raise ValidationError(f"report field {where} names the cell {cell!r}, which the "
                                  "witness lacks or an earlier entry names")
        seen.add(cell)
        lo, hi = _number(entry[1], where), _number(entry[2], where)
        if not lo - hi <= tol:
            raise NumericError(f"bounds [{lo}, {hi}] of cell {cell!r} are in the wrong order")
        if exact and not lo <= witness[cell] <= hi:
            raise NumericError(f"bounds [{lo}, {hi}] of cell {cell!r} exclude its witness "
                               f"value {witness[cell]}")
        pinned = pinned and hi - lo <= tol
    if unique != pinned:
        raise NumericError(f"report says unique is {unique}, but its component bounds "
                           f"say {pinned}")


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
        _check_uniqueness(verdict, witness, delta, exact)
        return
    if status == "infeasible":
        path = "unification.verdict.farkas_certificate"
        certificate = [_number(y, f"{path}[{i}]")
                       for i, y in enumerate(_field(verdict, "farkas_certificate", list, path))]
        system = build_constraint_system(space, marginals, delta=delta, exact=exact)
        if not verify_certificate(system.matrix, system.rhs, certificate, system.upper):
            raise NumericError("stored Farkas certificate failed verification")
        return
    raise ValidationError(f"report field unification.verdict.status is {status!r}")
