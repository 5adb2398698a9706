"""JSON config documents describing custom scenarios.

Schema (complex entries are plain numbers or ``[re, im]`` pairs; matrices are
row-major nested lists)::

    {
      "name": "my_scenario",                  # optional
      "dim": 3,                               # 1 to DEFAULT_DIMENSION_CAP (1024)
      "initial": <matrix|ket>,
      "final": <matrix|ket> | null,
      "hamiltonian": <matrix>,
      "sets": [
        {"name": "set1",
         "slots": [{"time": 0.0,
                    "projectors": [<matrix>, ...],
                    "labels": ["a", "b", ...]}]}
      ],
      "unify": {                              # optional
        "variables": [{"name": "v", "outcomes": ["a", "b"]}],
        "map": {"set1": ["v"]}                # one entry per slot; an entry is a
      }                                       # variable name or {"variable": ...,
    }                                         #  "groups": {"label": [outcomes]}}

A value that parses as a ``dim x dim`` matrix is taken as a matrix; flat
lists are kets (tagged forms ``{"matrix": ...}`` / ``{"ket": ...}`` resolve
the dim-2 ambiguity between a matrix and a ket of two ``[re, im]`` pairs).
Every number (times, matrix entries, ket amplitudes) must be finite: JSON
``NaN`` and ``Infinity``, which Python's ``json`` accepts, are rejected.
Validation is exhaustive: every schema problem is collected and reported
with its JSON path, not just the first one, and a problem is reported once,
where it is, not again at every place that would have used the bad value.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import ConfigValidationError, ValidationError
from .histories import HistorySchedule, Slot
from .operators import DEFAULT_DIMENSION_CAP, DensityOperator, Projector, is_hermitian
from .scenarios import ScenarioDescriptor, ScenarioSet
from .unify import JointSampleSpace, Variable, VariableMapping, is_finite_number


class _Problems:
    def __init__(self):
        self.items: list[tuple[str, str]] = []

    def add(self, path: str, reason: str) -> None:
        self.items.append((path, reason))

    def raise_if_any(self) -> None:
        if self.items:
            raise ConfigValidationError(self.items)


def load_json(path, what: str):
    """The JSON document in the file ``path``.

    A file that cannot be read, is not UTF-8, is not JSON or nests too deeply
    is a ``ValidationError`` naming ``what``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {what}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # malformed, too deep or not UTF-8
        raise ValidationError(f"{what} is not valid JSON: {exc}") from None


def _parse_scalar(value, path: str, problems: _Problems) -> complex | None:
    """A finite number or ``[re, im]`` pair as a complex, or None after adding its problem."""
    if isinstance(value, bool):
        problems.add(path, "expected a number, got a boolean")
        return None
    if is_finite_number(value):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(is_finite_number(v) for v in value):
        return complex(value[0], value[1])
    problems.add(path, f"expected a finite number or [re, im] pair, got {value!r}")
    return None


def _looks_like_matrix(value, dim: int) -> bool:
    if not (isinstance(value, list) and len(value) == dim):
        return False
    for row in value:
        if not (isinstance(row, list) and len(row) == dim):
            return False
        for entry in row:
            if isinstance(entry, (int, float)) and not isinstance(entry, bool):
                continue
            if isinstance(entry, list) and len(entry) == 2 and all(
                    isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry):
                continue
            return False
    return True


def _parse_entries(values, path: str, problems: _Problems) -> list | None:
    """Every scalar of ``values``, or None once any of them had a problem."""
    out = [_parse_scalar(v, f"{path}[{k}]", problems) for k, v in enumerate(values)]
    return None if any(v is None for v in out) else out


def _parse_matrix(value, dim: int, path: str, problems: _Problems) -> np.ndarray | None:
    """A ``dim x dim`` complex matrix, or None after adding its problems."""
    if not _looks_like_matrix(value, dim):
        problems.add(path, f"expected a {dim}x{dim} row-major matrix")
        return None
    rows = [_parse_entries(row, f"{path}[{i}]", problems) for i, row in enumerate(value)]
    return None if any(row is None for row in rows) else np.array(rows, dtype=complex)


def _parse_state(value, dim: int, path: str, problems: _Problems) -> np.ndarray | None:
    """Matrix or ket as a density matrix (unvalidated), or None after adding its problems."""
    if isinstance(value, Mapping):
        if set(value) == {"matrix"}:
            return _parse_matrix(value["matrix"], dim, f"{path}.matrix", problems)
        if set(value) == {"ket"}:
            value = value["ket"]
            if not (isinstance(value, list) and len(value) == dim):
                problems.add(f"{path}.ket", f"expected a length-{dim} amplitude list")
                return None
            amps = _parse_entries(value, f"{path}.ket", problems)
            if amps is None:
                return None
            amps = np.array(amps)
            norm = np.linalg.norm(amps)
            if norm == 0:
                problems.add(f"{path}.ket", "ket must not be the zero vector")
                return None
            amps = amps / norm
            return np.outer(amps, amps.conj())
        problems.add(path, "tagged state must be {'matrix': ...} or {'ket': ...}")
        return None
    if _looks_like_matrix(value, dim):
        return _parse_matrix(value, dim, path, problems)
    if isinstance(value, list) and len(value) == dim:
        return _parse_state({"ket": value}, dim, path, problems)
    problems.add(path, f"expected a {dim}x{dim} matrix or a length-{dim} ket")
    return None


def _density(value, dim: int, path: str, problems: _Problems) -> DensityOperator | None:
    """A validated state, or None after adding its problems."""
    matrix = _parse_state(value, dim, path, problems)
    if matrix is None:
        return None
    try:
        return DensityOperator(matrix)
    except ValidationError as exc:
        problems.add(path, str(exc))
        return None


def _parse_label(value, path: str, problems: _Problems):
    if isinstance(value, str) or (isinstance(value, int) and not isinstance(value, bool)):
        return value
    problems.add(path, f"labels must be strings or integers, got {value!r}")
    return str(value)


def parse_config(source) -> ScenarioDescriptor:
    """Parse and validate a config document (a file path or a dict).

    Raises ``ConfigValidationError`` carrying every problem found, and
    ``ValidationError`` for a file ``load_json`` cannot decode.
    """
    if isinstance(source, Mapping):
        doc = source
        name_default = "config"
    else:
        doc = load_json(source, "config")
        name_default = Path(source).stem
    if not isinstance(doc, Mapping):
        raise ConfigValidationError([("$", "config document must be a JSON object")])

    problems = _Problems()
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        problems.add("$.dim", f"expected a positive integer, got {dim!r}")
    elif dim > DEFAULT_DIMENSION_CAP:
        problems.add("$.dim", f"dimension {dim} exceeds the cap {DEFAULT_DIMENSION_CAP}")
    problems.raise_if_any()

    name = doc.get("name", name_default)
    if not isinstance(name, str) or not name:
        problems.add("$.name", "expected a non-empty string")
        name = name_default

    hamiltonian = None
    if "hamiltonian" not in doc:
        problems.add("$.hamiltonian", "missing")
    else:
        hamiltonian = _parse_matrix(doc["hamiltonian"], dim, "$.hamiltonian", problems)
        if hamiltonian is not None and not is_hermitian(hamiltonian):
            problems.add("$.hamiltonian", "must be Hermitian")
            hamiltonian = None
    if hamiltonian is None:
        # a stand-in, so that the sets are still checked, each on its own
        hamiltonian = np.zeros((dim, dim), dtype=complex)

    initial = final = None
    if "initial" not in doc:
        problems.add("$.initial", "missing")
    else:
        initial = _density(doc["initial"], dim, "$.initial", problems)
    if doc.get("final") is not None:
        final = _density(doc["final"], dim, "$.final", problems)

    raw_sets = doc.get("sets")
    declared: set[str] = set()  # set names, whether or not the set is valid
    schedules: dict[str, tuple[HistorySchedule, int]] = {}
    slot_labels: dict[str, list[tuple]] = {}
    if not isinstance(raw_sets, list) or not raw_sets:
        problems.add("$.sets", "expected a non-empty list of sets")
        raw_sets = []
    for s, raw in enumerate(raw_sets):
        spath = f"$.sets[{s}]"
        if not isinstance(raw, Mapping):
            problems.add(spath, "expected an object")
            continue
        sname = raw.get("name")
        if not isinstance(sname, str) or not sname:
            problems.add(f"{spath}.name", "expected a non-empty string")
            continue
        if sname in declared:
            problems.add(f"{spath}.name", f"duplicate set name {sname!r}")
            continue
        declared.add(sname)
        raw_slots = raw.get("slots")
        if not isinstance(raw_slots, list) or not raw_slots:
            problems.add(f"{spath}.slots", "expected a non-empty list of slots")
            continue
        slots = []
        labels_per_slot = []
        broken = False
        for k, raw_slot in enumerate(raw_slots):
            kpath = f"{spath}.slots[{k}]"
            if not isinstance(raw_slot, Mapping):
                problems.add(kpath, "expected an object")
                broken = True
                continue
            time = raw_slot.get("time")
            if not is_finite_number(time):
                problems.add(f"{kpath}.time", f"expected a finite number, got {time!r}")
                broken = True
            raw_projectors = raw_slot.get("projectors")
            raw_labels = raw_slot.get("labels")
            if not isinstance(raw_projectors, list) or not raw_projectors:
                problems.add(f"{kpath}.projectors", "expected a non-empty list of matrices")
                broken = True
                continue
            if not isinstance(raw_labels, list) or len(raw_labels) != len(raw_projectors):
                problems.add(f"{kpath}.labels", "expected one label per projector")
                broken = True
                continue
            projectors = []
            for pidx, raw_p in enumerate(raw_projectors):
                matrix = _parse_matrix(raw_p, dim, f"{kpath}.projectors[{pidx}]", problems)
                if matrix is None:
                    broken = True
                    continue
                try:
                    projectors.append(Projector(matrix))
                except ValidationError as exc:
                    problems.add(f"{kpath}.projectors[{pidx}]", str(exc))
                    broken = True
            labels = tuple(_parse_label(v, f"{kpath}.labels[{i}]", problems)
                           for i, v in enumerate(raw_labels))
            if broken:
                continue
            try:
                slots.append(Slot(float(time), tuple(projectors), labels))
                labels_per_slot.append(labels)
            except ValidationError as exc:
                problems.add(kpath, str(exc))
                broken = True
        if broken or len(slots) != len(raw_slots):
            continue
        try:
            schedules[sname] = (HistorySchedule(tuple(slots), hamiltonian), s)
            slot_labels[sname] = labels_per_slot
        except ValidationError as exc:
            problems.add(spath, str(exc))

    space = None
    mappings: dict[str, VariableMapping] = {}
    raw_unify = doc.get("unify")
    if raw_unify is not None:
        upath = "$.unify"
        if not isinstance(raw_unify, Mapping):
            problems.add(upath, "expected an object")
        else:
            variables: dict[str, Variable] = {}
            raw_vars = raw_unify.get("variables")
            if not isinstance(raw_vars, list) or not raw_vars:
                problems.add(f"{upath}.variables", "expected a non-empty list")
            else:
                for i, raw_v in enumerate(raw_vars):
                    vpath = f"{upath}.variables[{i}]"
                    if not (isinstance(raw_v, Mapping) and isinstance(raw_v.get("name"), str)
                            and isinstance(raw_v.get("outcomes"), list)):
                        problems.add(vpath, "expected {'name': str, 'outcomes': [...]}")
                        continue
                    outcomes = tuple(_parse_label(o, f"{vpath}.outcomes[{j}]", problems)
                                     for j, o in enumerate(raw_v["outcomes"]))
                    try:
                        var = Variable(raw_v["name"], outcomes)
                    except ValidationError as exc:
                        problems.add(vpath, str(exc))
                        continue
                    if var.name in variables:
                        problems.add(vpath, f"duplicate variable {var.name!r}")
                        continue
                    variables[var.name] = var
            if variables:
                try:
                    space = JointSampleSpace(tuple(variables.values()))
                except ValidationError as exc:
                    problems.add(f"{upath}.variables", str(exc))

            raw_map = raw_unify.get("map", {})
            if not isinstance(raw_map, Mapping):
                problems.add(f"{upath}.map", "expected an object keyed by set name")
                raw_map = {}
            for sname, raw_entries in raw_map.items():
                mpath = f"{upath}.map.{sname}"
                if sname not in schedules:
                    if sname not in declared:
                        problems.add(mpath, f"no set named {sname!r}")
                    continue
                n_slots = len(slot_labels[sname])
                if not isinstance(raw_entries, list) or len(raw_entries) != n_slots:
                    problems.add(mpath, f"expected one entry per slot ({n_slots})")
                    continue
                mapped_vars = []
                groups: list[dict | None] = []
                ok = True
                for k, entry in enumerate(raw_entries):
                    epath = f"{mpath}[{k}]"
                    if isinstance(entry, str):
                        var_name, var_groups = entry, None
                    elif isinstance(entry, Mapping) and isinstance(entry.get("variable"), str):
                        var_name = entry["variable"]
                        var_groups = entry.get("groups")
                        if var_groups is not None and not isinstance(var_groups, Mapping):
                            problems.add(f"{epath}.groups", "expected an object")
                            ok = False
                            continue
                    else:
                        problems.add(epath, "expected a variable name or {'variable': ..., 'groups': ...}")
                        ok = False
                        continue
                    if var_name not in variables:
                        problems.add(epath, f"unknown variable {var_name!r}")
                        ok = False
                        continue
                    var = variables[var_name]
                    translation = None
                    if var_groups:
                        translation = {}
                        for symbol, members in var_groups.items():
                            gpath = f"{epath}.groups.{symbol}"
                            key = symbol
                            if symbol not in slot_labels[sname][k]:
                                # JSON object keys are strings; try the original label types
                                matches = [l for l in slot_labels[sname][k] if str(l) == symbol]
                                if not matches:
                                    problems.add(gpath, f"label {symbol!r} not in slot {k}")
                                    ok = False
                                    continue
                                key = matches[0]
                            if not isinstance(members, list) or not members:
                                problems.add(gpath, "expected a non-empty outcome list")
                                ok = False
                                continue
                            bad = [o for o in members if o not in var.outcomes]
                            if bad:
                                problems.add(gpath, f"outcomes {bad!r} not in variable {var_name!r}")
                                ok = False
                                continue
                            translation[key] = tuple(members)
                    mapped_vars.append(var)
                    groups.append(translation)
                if not ok:
                    continue
                try:
                    mappings[sname] = VariableMapping(tuple(mapped_vars), tuple(groups))
                except ValidationError as exc:
                    problems.add(mpath, str(exc))

    problems.raise_if_any()
    assert initial is not None

    ordered = sorted(schedules.items(), key=lambda item: item[1][1])
    sets = tuple(
        ScenarioSet(sname, schedule, mappings.get(sname))
        for sname, (schedule, _) in ordered
    )
    return ScenarioDescriptor(
        name=name,
        initial=initial,
        final=final,
        sets=sets,
        space=space,
        expected={},
        parameters={},
    )


def _encode_complex_matrix(matrix: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(matrix)]


def scenario_to_config(descriptor: ScenarioDescriptor) -> dict:
    """Emit a config dict that parses back to an equivalent descriptor.

    The schema has one Hamiltonian, so a descriptor whose sets evolve under
    different Hamiltonians is a ``ValidationError``.
    """
    hamiltonian = descriptor.sets[0].schedule.hamiltonian
    if any(not np.array_equal(s.schedule.hamiltonian, hamiltonian) for s in descriptor.sets):
        raise ValidationError("config documents have one hamiltonian; these sets use several")
    doc: dict = {
        "name": descriptor.name,
        "dim": descriptor.initial.dim,
        "initial": _encode_complex_matrix(descriptor.initial.matrix),
        "final": _encode_complex_matrix(descriptor.final.matrix) if descriptor.final is not None else None,
        "hamiltonian": _encode_complex_matrix(hamiltonian),
        "sets": [],
    }
    for sset in descriptor.sets:
        doc["sets"].append({
            "name": sset.name,
            "slots": [
                {
                    "time": slot.time,
                    "projectors": [_encode_complex_matrix(p.matrix) for p in slot.projectors],
                    "labels": list(slot.symbols),
                }
                for slot in sset.schedule.slots
            ],
        })
    if descriptor.space is not None:
        unify: dict = {
            "variables": [{"name": v.name, "outcomes": list(v.outcomes)}
                          for v in descriptor.space.variables],
            "map": {},
        }
        for sset in descriptor.sets:
            if sset.mapping is None:
                continue
            entries = []
            for k, var in enumerate(sset.mapping.variables):
                translation = None
                if sset.mapping.outcome_groups is not None:
                    translation = sset.mapping.outcome_groups[k]
                if translation:
                    entries.append({
                        "variable": var.name,
                        "groups": {str(sym): list(group) for sym, group in translation.items()},
                    })
                else:
                    entries.append(var.name)
            unify["map"][sset.name] = entries
        doc["unify"] = unify
    return doc
