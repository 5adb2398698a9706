"""Scenario analysis pipeline and report (de)serialization.

``analyze`` runs build -> classify -> zero-cover -> marginal extraction ->
unification -> uniqueness for one scenario descriptor and returns a plain
dict ready for JSON.  The encoding is lossless: rationals are tagged, label
and outcome types survive a round trip, and anything whose order matters
(marginal tables, witness cells) is stored as lists, so a reloaded report can
re-verify its own witness or Farkas certificate against the constraint
system it claims to solve.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from .classicality import (
    DEFAULT_ZERO_COVER_THRESHOLD,
    classify,
    detect_zero_cover,
)
from .errors import NumericError, ValidationError
from .histories import decoherence_functional, quasi_probabilities
from .scenarios import ScenarioDescriptor
from .simplex import verify_certificate
from .unify import (
    FEASIBLE,
    JointSampleSpace,
    MarginalTable,
    Variable,
    bell_check,
    build_constraint_system,
    chsh_check,
    correlations_from_marginals,
    extract_marginals,
    find_unifying_probability,
    probe_uniqueness,
    verify_witness,
)

SCHEMA_VERSION = 2
PROBE_CELLS_CAP = 64


@dataclass(frozen=True)
class AnalysisOptions:
    tol: float = 1e-10
    delta: float = 1e-9
    exact: bool = False


# ---------------------------------------------------------------------------
# JSON encoding helpers
# ---------------------------------------------------------------------------

def encode_value(value):
    """Encode numbers, sequences and maps into JSON-safe structures, losslessly."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
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
    """Inverse of ``encode_value`` for the tagged scalar types."""
    if isinstance(value, dict):
        if set(value) == {"$fraction"}:
            num, den = value["$fraction"]
            return Fraction(num, den)
        if set(value) == {"$complex"}:
            re, im = value["$complex"]
            return complex(re, im)
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


def _decode_marginal(entry: dict, space: JointSampleSpace) -> MarginalTable:
    variables = tuple(space.variable(n) for n in entry["variables"])
    values = {}
    for key, val in entry["values"]:
        groups = tuple(tuple(decode_value(g)) for g in key)
        values[groups] = decode_value(val)
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
        if len(correlations.values) == 3 and len(correlations.names) == 3:
            b = bell_check(correlations)
            bell = {"satisfied": b.satisfied, "slack": b.slack,
                    "total": b.total, "upper_bound": b.upper_bound}
        if len(correlations.values) == 4 and len(correlations.names) == 4:
            try:
                c = chsh_check(correlations)
                chsh = {"satisfied": c.satisfied, "values": list(c.values),
                        "max_value": c.max_value}
            except ValidationError:
                chsh = None

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
    """Canonical JSON text: key-sorted, newline-terminated, deterministic."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def reverify(report: dict) -> None:
    """Check a reloaded report's witness or certificate against its own constraints.

    Raises ``ValidationError`` for a report of another schema version and
    ``NumericError`` when the stored evidence does not verify; reports
    without a unification section pass vacuously.
    """
    version = report.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValidationError(
            f"report schema_version {version!r} cannot be re-verified; expected {SCHEMA_VERSION}"
        )
    unification = report.get("unification")
    if not unification:
        return
    verdict = unification["verdict"]
    variables = tuple(
        Variable(v["name"], tuple(decode_value(v["outcomes"])))
        for v in unification["variables"]
    )
    space = JointSampleSpace(variables)
    marginals = [_decode_marginal(entry, space) for entry in unification["marginals"]]
    exact = verdict["mode"] == "exact"
    delta = verdict["delta"]

    if verdict["status"] == FEASIBLE:
        witness = {tuple(decode_value(cell)): decode_value(val)
                   for cell, val in verdict["witness"]}
        verify_witness(space, marginals, witness, delta=delta, exact=exact)
        return
    if verdict["status"] == "infeasible":
        certificate = decode_value(verdict["farkas_certificate"])
        system = build_constraint_system(space, marginals, delta=delta, exact=exact)
        if not verify_certificate(system.matrix, system.rhs, certificate, system.upper):
            raise NumericError("stored Farkas certificate failed verification")
        return
