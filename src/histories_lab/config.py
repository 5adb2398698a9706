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

A state shaped as a matrix (``dim`` rows of ``dim`` entries) is taken as a
matrix, and each of its entries is then checked on its own; any other list
of ``dim`` entries is a ket (tagged forms ``{"matrix": ...}`` /
``{"ket": ...}`` resolve the dim-2 ambiguity between a matrix and a ket of
two ``[re, im]`` pairs).  Every number (times, matrix entries, ket
amplitudes) must be finite: JSON ``NaN`` and ``Infinity``, which Python's
``json`` accepts, are rejected.  Each ``unify.map`` entry is checked here,
whether or not its set turns out consistent: a map that names a variable
twice, or whose groups overlap or miss an outcome, is a problem at
``$.unify.map.<set>``.

Validation is exhaustive: every schema problem is collected and reported
with its JSON path, not just the first one, and a problem is reported once,
where it is, not again at every place that would have used the bad value.
Each rule is checked once.  This module checks the JSON shape, that the
Hamiltonian is Hermitian (``$.hamiltonian``), and that each slot's time
times every eigenvalue of the Hamiltonian is finite, so that no propagator
is NaN (``$.sets[i].slots[k].time``).  The domain constructors
and checks own the other rules, and their ``ValidationError`` is recorded
at the path of the value they were given: ``DensityOperator`` a state,
``Projector`` one projector, ``histories.checked_weight`` the final
state's overlap Tr(rho_f rho) with the initial state (at ``$.final``),
``Slot`` one slot's projective decomposition and outcome labels,
``histories.time_ordered`` a set's slot times,
``Variable`` and ``JointSampleSpace`` the unify variables, and
``VariableMapping`` and ``unify.table_layout`` a map entry.  The descriptor
is made of these checked values; nothing checks them again.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import ConfigValidationError, ValidationError
from .histories import DEFAULT_HISTORY_CAP, Slot, checked_weight, time_ordered
from .operators import DEFAULT_DIMENSION_CAP, DensityOperator, Projector, is_hermitian
from .scenarios import ScenarioDescriptor, _Fixed, point_grid
from .unify import JointSampleSpace, Variable, VariableMapping, is_finite_number, table_layout

_FLOAT_MAX = sys.float_info.max


class _Problems(list):
    """The ``(json_path, reason)`` pairs found so far."""

    def add(self, path: str, reason: str) -> None:
        self.append((path, reason))

    def under(self, path: str) -> bool:
        """Whether a problem was recorded at ``path`` or inside it."""
        return any(p == path or p.startswith((path + ".", path + "[")) for p, _ in self)

    def raise_if_any(self) -> None:
        if self:
            raise ConfigValidationError(self)


def _attempt(problems: _Problems, path: str, build, *args):
    """``build(*args)``, or None after recording its ``ValidationError`` at ``path``."""
    try:
        return build(*args)
    except ValidationError as exc:
        problems.add(path, str(exc))
        return None


def load_json(path, what: str):
    """The JSON document in the file ``path`` (a ``str`` or ``os.PathLike``).

    Any other ``path``, or a file that cannot be read, is not UTF-8, is not
    JSON or nests too deeply, is a ``ValidationError`` naming ``what``.
    """
    if not isinstance(path, (str, os.PathLike)):
        raise ValidationError(f"{what} must be a file path, got {type(path).__name__}")
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
    """Whether ``value`` has the shape of a matrix: ``dim`` rows of ``dim`` entries."""
    return isinstance(value, list) and len(value) == dim \
        and all(isinstance(row, list) and len(row) == dim for row in value)


def _plain_finite(value) -> bool:
    """Whether ``value`` is exactly an ``int`` or ``float`` within the float range."""
    kind = type(value)
    return (kind is float or kind is int) and -_FLOAT_MAX <= value <= _FLOAT_MAX


def _parse_entries(values, path: str, problems: _Problems) -> list | None:
    """Every scalar of ``values``, or None once any of them had a problem.

    Plain finite numbers and pairs of them, nearly every entry of a document,
    are read directly; only another entry is handed to ``_parse_scalar`` with
    its path, so a path is formatted only for an entry that may be a problem.
    """
    out = []
    for k, v in enumerate(values):
        if _plain_finite(v):
            out.append(complex(v))
        elif type(v) is list and len(v) == 2 and _plain_finite(v[0]) and _plain_finite(v[1]):
            out.append(complex(v[0], v[1]))
        else:
            out.append(_parse_scalar(v, f"{path}[{k}]", problems))
    return None if None in out else out


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


def _operator(build, parse, value, dim: int, path: str, problems: _Problems):
    """``build`` of the matrix ``parse`` reads from ``value``, or None after adding its problems."""
    matrix = parse(value, dim, path, problems)
    return None if matrix is None else _attempt(problems, path, build, matrix)


def _parse_label(value, path: str, problems: _Problems):
    if isinstance(value, str) or (isinstance(value, int) and not isinstance(value, bool)):
        return value
    problems.add(path, f"labels must be strings or integers, got {value!r}")
    return str(value)


def _parse_slot(raw, dim: int, path: str, problems: _Problems) -> Slot | None:
    """One slot, or None after adding its problems."""
    if not isinstance(raw, Mapping):
        problems.add(path, "expected an object")
        return None
    time = raw.get("time")
    if not is_finite_number(time):
        problems.add(f"{path}.time", f"expected a finite number, got {time!r}")
        time = None
    raw_projectors, raw_labels = raw.get("projectors"), raw.get("labels")
    if not isinstance(raw_projectors, list) or not raw_projectors:
        problems.add(f"{path}.projectors", "expected a non-empty list of matrices")
        return None
    if not isinstance(raw_labels, list) or len(raw_labels) != len(raw_projectors):
        problems.add(f"{path}.labels", "expected one label per projector")
        return None
    projectors = tuple(_operator(Projector, _parse_matrix, p, dim, f"{path}.projectors[{i}]", problems)
                       for i, p in enumerate(raw_projectors))
    labels = tuple(_parse_label(v, f"{path}.labels[{i}]", problems) for i, v in enumerate(raw_labels))
    if time is None or any(p is None for p in projectors):
        return None
    return _attempt(problems, path, Slot, float(time), projectors, labels)


def _parse_sets(raw_sets, dim: int,
                problems: _Problems) -> tuple[dict[str, tuple[Slot, ...]], dict[str, str]]:
    """The slots of the sets without a fatal problem, and every declared set
    name with its JSON path, both in document order."""
    sets: dict[str, tuple[Slot, ...]] = {}
    declared: dict[str, str] = {}
    if not isinstance(raw_sets, list) or not raw_sets:
        problems.add("$.sets", "expected a non-empty list of sets")
        return sets, declared
    for s, raw in enumerate(raw_sets):
        path = f"$.sets[{s}]"
        if not isinstance(raw, Mapping):
            problems.add(path, "expected an object")
            continue
        name = raw.get("name")
        if not isinstance(name, str) or not name:
            problems.add(f"{path}.name", "expected a non-empty string")
            continue
        if name in declared:
            problems.add(f"{path}.name", f"duplicate set name {name!r}")
            continue
        declared[name] = path
        raw_slots = raw.get("slots")
        if not isinstance(raw_slots, list) or not raw_slots:
            problems.add(f"{path}.slots", "expected a non-empty list of slots")
            continue
        slots = tuple(_parse_slot(raw_slot, dim, f"{path}.slots[{k}]", problems)
                      for k, raw_slot in enumerate(raw_slots))
        if all(slot is not None for slot in slots) and _attempt(problems, path, time_ordered, slots):
            sets[name] = slots
    return sets, declared


def _parse_variable(raw, path: str, problems: _Problems) -> Variable | None:
    if not (isinstance(raw, Mapping) and isinstance(raw.get("name"), str)
            and isinstance(raw.get("outcomes"), list)):
        problems.add(path, "expected {'name': str, 'outcomes': [...]}")
        return None
    outcomes = tuple(_parse_label(o, f"{path}.outcomes[{j}]", problems)
                     for j, o in enumerate(raw["outcomes"]))
    return _attempt(problems, path, Variable, raw["name"], outcomes)


def _parse_group(symbol, members, slot: int, symbols: tuple, var: Variable, path: str,
                 problems: _Problems) -> tuple | None:
    """One ``groups`` item as ``(slot label, outcomes)``, or None after adding its problem."""
    # JSON object keys are strings; fall back to the original label types
    label = symbol if symbol in symbols else next((l for l in symbols if str(l) == symbol), None)
    if label is None:
        problems.add(path, f"label {symbol!r} not in slot {slot}")
    elif not isinstance(members, list) or not members:
        problems.add(path, "expected a non-empty outcome list")
    elif bad := [o for o in members if o not in var.outcomes]:
        problems.add(path, f"outcomes {bad!r} not in variable {var.name!r}")
    else:
        return label, tuple(members)
    return None


def _parse_entry(entry, slot: int, symbols: tuple, variables: dict[str, Variable], path: str,
                 problems: _Problems) -> tuple | None:
    """One map entry as ``(variable, label translation or None)``, or None after adding its problems."""
    if isinstance(entry, str):
        name, raw_groups = entry, None
    elif isinstance(entry, Mapping) and isinstance(entry.get("variable"), str):
        name, raw_groups = entry["variable"], entry.get("groups")
        if raw_groups is not None and not isinstance(raw_groups, Mapping):
            problems.add(f"{path}.groups", "expected an object")
            return None
    else:
        problems.add(path, "expected a variable name or {'variable': ..., 'groups': ...}")
        return None
    if name not in variables:
        problems.add(path, f"unknown variable {name!r}")
        return None
    var = variables[name]
    if not raw_groups:
        return var, None
    groups = [_parse_group(symbol, members, slot, symbols, var, f"{path}.groups.{symbol}", problems)
              for symbol, members in raw_groups.items()]
    return None if any(g is None for g in groups) else (var, dict(groups))


def _parse_mapping(raw, slots: tuple[Slot, ...], variables: dict[str, Variable], path: str,
                   problems: _Problems) -> VariableMapping | None:
    """The mapping of one set's label positions, or None after adding its problems."""
    if not isinstance(raw, list) or len(raw) != len(slots):
        problems.add(path, f"expected one entry per slot ({len(slots)})")
        return None
    entries = [_parse_entry(entry, k, slots[k].symbols, variables, f"{path}[{k}]", problems)
               for k, entry in enumerate(raw)]
    if any(e is None for e in entries):
        return None
    return _attempt(problems, path, VariableMapping,
                    tuple(var for var, _ in entries), tuple(groups for _, groups in entries))


def _parse_unify(raw, sets: dict[str, tuple[Slot, ...]], declared: dict[str, str],
                 problems: _Problems) -> tuple[JointSampleSpace | None, dict[str, VariableMapping]]:
    """The joint sample space and the per-set mappings of the ``unify`` section.

    Each mapping is checked as its analysis will use it: the keys that the
    set's labels map to must have a ``table_layout``, which analysis
    then finds decided.  The check is left out where the set or the
    variables already have a problem, which it would only repeat, and for a
    set of more than ``DEFAULT_HISTORY_CAP`` histories, which analysis
    refuses.
    """
    if raw is None:
        return None, {}
    if not isinstance(raw, Mapping):
        problems.add("$.unify", "expected an object")
        return None, {}
    variables: dict[str, Variable] = {}
    raw_vars = raw.get("variables")
    if not isinstance(raw_vars, list) or not raw_vars:
        problems.add("$.unify.variables", "expected a non-empty list")
        raw_vars = []
    for i, raw_var in enumerate(raw_vars):
        var = _parse_variable(raw_var, f"$.unify.variables[{i}]", problems)
        if var is not None and var.name in variables:
            problems.add(f"$.unify.variables[{i}]", f"duplicate variable {var.name!r}")
        elif var is not None:
            variables[var.name] = var
    space = _attempt(problems, "$.unify.variables", JointSampleSpace,
                     tuple(variables.values())) if variables else None

    raw_map = raw.get("map", {})
    if not isinstance(raw_map, Mapping):
        problems.add("$.unify.map", "expected an object keyed by set name")
        raw_map = {}
    mappings: dict[str, VariableMapping] = {}
    for name, raw_entries in raw_map.items():
        path = f"$.unify.map.{name}"
        if name not in declared:
            problems.add(path, f"no set named {name!r}")
        if name not in sets:
            continue
        symbols = [slot.symbols for slot in sets[name]]
        mapping = _parse_mapping(raw_entries, sets[name], variables, path, problems)
        if mapping is None:
            continue
        mappings[name] = mapping
        if math.prod(map(len, symbols)) <= DEFAULT_HISTORY_CAP and not (
                problems.under(declared[name]) or problems.under("$.unify.variables")):
            _attempt(problems, path, table_layout, mapping.variables,
                     tuple(dict.fromkeys(map(mapping.key_for, itertools.product(*symbols)))))
    return space, mappings


def parse_config(source) -> ScenarioDescriptor:
    """Parse and validate a config document (a ``str`` or ``os.PathLike`` file path, or a mapping).

    Raises ``ConfigValidationError`` carrying every problem found, and
    ``ValidationError`` for any other source or a file ``load_json`` cannot
    decode.
    """
    if isinstance(source, Mapping):
        doc, name_default = source, "config"
    else:
        doc, name_default = load_json(source, "config"), Path(source).stem
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

    initial = final = None
    if "initial" not in doc:
        problems.add("$.initial", "missing")
    else:
        initial = _operator(DensityOperator, _parse_state, doc["initial"], dim, "$.initial", problems)
    if doc.get("final") is not None:
        final = _operator(DensityOperator, _parse_state, doc["final"], dim, "$.final", problems)
    if initial is not None and final is not None:
        _attempt(problems, "$.final", checked_weight, initial, final)

    sets, declared = _parse_sets(doc.get("sets"), dim, problems)
    space, mappings = _parse_unify(doc.get("unify"), sets, declared, problems)
    grid = None
    if not problems.under("$.hamiltonian"):
        slots = {n: [(slot.time, [p.matrix for p in slot.projectors], slot.symbols) for slot in set_slots]
                 for n, set_slots in sets.items()}
        grid = point_grid(name, hamiltonian, slots, _Fixed(initial, space, mappings, final))
        top = float(np.abs(grid._eigh[0]).max())  # the propagators' own eigenvalues, computed once
        for n, set_slots in sets.items():
            for k, slot in enumerate(set_slots):
                if not math.isfinite(top * slot.time):  # its propagator would be NaN
                    problems.add(f"{declared[n]}.slots[{k}].time", "eigenvalue * time must be finite, "
                                 f"got |eigenvalue|={top!r}, time={slot.time!r}")
    problems.raise_if_any()
    return ScenarioDescriptor(grid)


def _encode_complex_matrix(matrix: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(matrix)]


def scenario_to_config(descriptor: ScenarioDescriptor) -> dict:
    """Emit a config dict that parses back to an equivalent descriptor: point 0
    of the descriptor's grid, its one Hamiltonian and every set's slots."""
    grid = descriptor.grid
    doc: dict = {
        "name": descriptor.name,
        "dim": descriptor.initial.dim,
        "initial": _encode_complex_matrix(descriptor.initial.matrix),
        "final": _encode_complex_matrix(descriptor.final.matrix) if descriptor.final is not None else None,
        "hamiltonian": _encode_complex_matrix(grid.hamiltonians[0]),
        "sets": [],
    }
    for name, slots in grid.slots.items():
        doc["sets"].append({
            "name": name,
            "slots": [
                {
                    "time": float(times[0]),
                    "projectors": [_encode_complex_matrix(p) for p in projectors[0]],
                    "labels": list(symbols),
                }
                for times, projectors, symbols in slots
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
