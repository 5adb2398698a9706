"""Built-in worked examples: boundary conditions, schedules, and expected values.

Each constructor returns a ``ScenarioDescriptor`` bundling the initial (and
optional final) state, the named history schedules to compare, the joint
sample space their variables live in, and a map of expected quantities used
by the acceptance suite.  Expected values carry a provenance tag:
``published`` (stated in the source material), ``derived`` (computed here by
an independent route), or ``trivial`` (immediate from definitions).

``eprb`` and ``leggett_garg`` are built for G parameter points at once, as a
``ScenarioGrid`` of stacks (``scenario_grid``); their descriptor builders
take a grid's one point as validated objects.  Only their parameter-free
parts are built once per process.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Mapping

import numpy as np

from .errors import ValidationError
from .histories import HistorySchedule, HistorySet, Slot, class_operator_stack, history_set
from .operators import (
    DEFAULT_TOL,
    DensityOperator,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    Projector,
    family_deviations,
    frozen_array,
    ket,
    projector_onto,
)
from .unify import JointSampleSpace, Variable, VariableMapping

SCENARIO_NAMES = ("griffiths_spin", "eprb", "three_box", "leggett_garg")


@dataclass(frozen=True)
class ExpectedValue:
    value: object
    tag: str  # "published" | "derived" | "trivial"

    def __post_init__(self):
        if self.tag not in ("published", "derived", "trivial"):
            raise ValidationError(f"unknown provenance tag {self.tag!r}")


@dataclass(frozen=True)
class ScenarioSet:
    """One named history schedule, optionally mapped onto joint variables."""

    name: str
    schedule: HistorySchedule
    mapping: VariableMapping | None = None


@dataclass(frozen=True)
class ScenarioDescriptor:
    name: str
    initial: DensityOperator
    final: DensityOperator | None
    sets: tuple[ScenarioSet, ...]
    space: JointSampleSpace | None
    expected: Mapping[str, ExpectedValue] = field(default_factory=dict)
    parameters: Mapping[str, float] = field(default_factory=dict)
    grid: "ScenarioGrid | None" = field(default=None, compare=False, repr=False)  # of one point

    def __post_init__(self):
        names = [s.name for s in self.sets]
        if len(set(names)) != len(names):
            raise ValidationError("scenario set names must be unique")
        object.__setattr__(self, "expected", dict(self.expected))
        object.__setattr__(self, "parameters", dict(self.parameters))

    def set_named(self, name: str) -> ScenarioSet:
        for s in self.sets:
            if s.name == name:
                return s
        raise ValidationError(f"scenario has no set named {name!r}")

    def build(self, name: str) -> HistorySet:
        sset = self.set_named(name)
        if self.grid is None:
            return history_set(sset.schedule, self.initial, self.final)
        return HistorySet(self.grid.labels(name), self.grid.class_operators(name)[0], self.initial)


def _spin_half_variable(name: str) -> Variable:
    return Variable(name, (1, -1))


def griffiths_spin() -> ScenarioDescriptor:
    """Spin prepared up along z and post-selected along +x, zero Hamiltonian.

    The z-projection set and the x-projection set are each consistent with
    probabilities (1, 0); the combined x-then-z set is not consistent, yet the
    product distribution with p(+x, up) = 1 unifies the two single-direction
    sets.
    """
    up = np.array([1.0, 0.0])
    down = np.array([0.0, 1.0])
    plus = ket([1.0, 1.0])
    minus = ket([1.0, -1.0])
    h = np.zeros((2, 2))

    z_projs = (Projector(projector_onto(up)), Projector(projector_onto(down)))
    x_projs = (Projector(projector_onto(plus)), Projector(projector_onto(minus)))
    sx = _spin_half_variable("sx")
    sz = _spin_half_variable("sz")
    x_first = Slot(1.0, x_projs, (1, -1))

    sets = (
        ScenarioSet("z", HistorySchedule((Slot(1.0, z_projs, (1, -1)),), h),
                    VariableMapping((sz,))),
        ScenarioSet("x", HistorySchedule((x_first,), h),
                    VariableMapping((sx,))),
        # x is projected first, then z
        ScenarioSet("zx", HistorySchedule((x_first, Slot(2.0, z_projs, (1, -1))), h),
                    VariableMapping((sx, sz))),
    )
    expected = {
        "z_probabilities": ExpectedValue({(1,): Fraction(1), (-1,): Fraction(0)}, "published"),
        "x_probabilities": ExpectedValue({(1,): Fraction(1), (-1,): Fraction(0)}, "published"),
        "zx_consistent": ExpectedValue(False, "published"),
        "unifier_cell_plus_up": ExpectedValue(Fraction(1), "published"),
    }
    return ScenarioDescriptor(
        name="griffiths_spin",
        initial=DensityOperator.pure(up),
        final=DensityOperator.pure(plus),
        sets=sets,
        space=JointSampleSpace((sx, sz)),
        expected=expected,
    )


def three_box() -> ScenarioDescriptor:
    """Three-state system with pre- and post-selection exhibiting contrary sets.

    With initial (|1>+|2>+|3>)/sqrt(3) and final (|1>+|2>-|3>)/sqrt(3) the
    post-selection normalization prefactor 1/Tr(rho_f rho) equals 9, and the
    two coarse sets give p(box 1) = 1 and p(box 2) = 1 respectively.  The fine
    set is inconsistent, carries quasi-probabilities (1, 1, -1), and shows a
    zero cover; no unifying probability exists for the two coarse sets.
    """
    psi = ket([1.0, 1.0, 1.0])
    psi_f = ket([1.0, 1.0, -1.0])
    h = np.zeros((3, 3))
    basis = np.eye(3)
    p = [Projector(projector_onto(basis[i])) for i in range(3)]
    p23 = Projector(p[1].matrix + p[2].matrix)
    p13 = Projector(p[0].matrix + p[2].matrix)
    box = Variable("box", ("1", "2", "3"))

    sets = (
        ScenarioSet("box1", HistorySchedule((Slot(1.0, (p[0], p23), ("1", "23")),), h),
                    VariableMapping((box,), ({"1": ("1",), "23": ("2", "3")},))),
        ScenarioSet("box2", HistorySchedule((Slot(1.0, (p[1], p13), ("2", "13")),), h),
                    VariableMapping((box,), ({"2": ("2",), "13": ("1", "3")},))),
        ScenarioSet("fine", HistorySchedule((Slot(1.0, tuple(p), ("1", "2", "3")),), h),
                    VariableMapping((box,))),
    )
    expected = {
        "box1_probabilities": ExpectedValue({("1",): Fraction(1), ("23",): Fraction(0)}, "published"),
        "box2_probabilities": ExpectedValue({("2",): Fraction(1), ("13",): Fraction(0)}, "published"),
        "fine_quasi": ExpectedValue({("1",): Fraction(1), ("2",): Fraction(1),
                                     ("3",): Fraction(-1)}, "derived"),
        "zero_cover_witness": ExpectedValue((("2",), ("3",)), "derived"),
        "unification": ExpectedValue("infeasible", "published"),
    }
    return ScenarioDescriptor(
        name="three_box",
        initial=DensityOperator.pure(psi),
        final=DensityOperator.pure(psi_f),
        sets=sets,
        space=JointSampleSpace((box,)),
        expected=expected,
    )


@dataclass(frozen=True)
class ScenarioGrid:
    """A scenario at G parameter points as stacks with a leading grid axis, an axis of
    length 1 shared by every point.  ``slots[name]`` lists one set's slots: a ``(G,)``
    time array, a ``(G, k, dim, dim)`` projector stack and the outcome symbols.
    ``invalid`` marks the points that fail the builder's own parameter checks."""

    name: str
    hamiltonians: np.ndarray
    fixed: "_Fixed"
    slots: Mapping[str, tuple]
    invalid: np.ndarray

    @cached_property
    def refused(self) -> np.ndarray:
        """``invalid``, or a Hamiltonian or projector family that fails its checks."""
        h = self.hamiltonians
        families = np.stack(np.broadcast_arrays(*{id(p): p for slots in self.slots.values()
                                                  for _, p, _ in slots}.values()))  # (F, G, k, dim, dim)
        deviation = np.max(family_deviations(families.reshape(-1, *families.shape[2:])), axis=0)
        return (self.invalid | ~(np.abs(h - h.conj().transpose(0, 2, 1)).max(axis=(1, 2)) <= DEFAULT_TOL)
                | ~(deviation.reshape(families.shape[:2]) <= DEFAULT_TOL).all(axis=0))

    @cached_property
    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        return np.linalg.eigh(self.hamiltonians)  # one batched call for every point

    def labels(self, name: str) -> tuple:
        return tuple(itertools.product(*(symbols for _, _, symbols in self.slots[name])))

    def class_operators(self, name: str) -> np.ndarray:
        return class_operator_stack(*self._eigh, *zip(*((t, p) for t, p, _ in self.slots[name])))

    def descriptor(self, expected: Mapping, parameters: Mapping) -> "ScenarioDescriptor":
        """The first point as a descriptor; a refused point raises its objects' own error."""
        sets = tuple(_GridSet(name, self) for name in self.slots)
        if self.refused[0]:
            for sset in sets:
                sset.schedule  # noqa: B018 -- built to raise
        return ScenarioDescriptor(self.name, self.fixed.initial, None, sets, self.fixed.space,
                                  expected, parameters, self)


class _GridSet(ScenarioSet):
    """A set of a one-point grid, whose schedule of validated objects is built on first use."""

    def __init__(self, name: str, grid: ScenarioGrid):
        for key, value in (("name", name), ("mapping", grid.fixed.mappings[name]), ("grid", grid)):
            object.__setattr__(self, key, value)

    @cached_property
    def schedule(self) -> HistorySchedule:
        slots = self.grid.slots[self.name]
        return HistorySchedule(tuple(Slot(float(t[0]), tuple(map(Projector, p[0])), symbols)
                                     for t, p, symbols in slots), self.grid.hamiltonians[0])


_ZX_AXES = ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0))
_EPRB_PAIRS = ((1, 3), (1, 4), (2, 3), (2, 4))
_EPRB_HAMILTONIAN = frozen_array(np.zeros((1, 4, 4)))


@dataclass(frozen=True)
class _Fixed:
    """The parameter-free parts of a scenario, built once per process."""

    initial: DensityOperator
    space: JointSampleSpace
    mappings: Mapping[str, VariableMapping]


@functools.cache
def _eprb_fixed() -> _Fixed:
    var = {i: _spin_half_variable(f"s{i}") for i in (1, 2, 3, 4)}
    mappings = {f"pair_{i}{j}": VariableMapping((var[i], var[j])) for i, j in _EPRB_PAIRS}
    mappings["combined"] = VariableMapping((var[1], var[3], var[2], var[4]))
    return _Fixed(initial=DensityOperator.pure(ket([0.0, 1.0, -1.0, 0.0])),
                  space=JointSampleSpace(tuple(var[i] for i in (1, 2, 3, 4))),
                  mappings=mappings)


def eprb_grid(axes) -> ScenarioGrid:
    """EPRB at G points, ``axes[k - 1]`` holding the ``(G, 3)`` unit vectors of
    axis k.  Particle A carries axes 1 and 2, B axes 3 and 4.  Pairs measure A
    at t = 1 and B at t = 2; the combined set measures axes 2 and 4 again at
    t = 3 and 4."""
    eye = np.eye(2, dtype=complex)
    invalid = np.zeros(max(len(a) for a in axes), dtype=bool)
    pairs = {}
    for k, a in enumerate(axes, start=1):
        invalid = invalid | ~(np.abs(np.linalg.norm(a, axis=1) - 1.0) <= 1e-9)  # NaN fails too
        sigma = (a[:, 0, None, None] * PAULI_X + a[:, 1, None, None] * PAULI_Y
                 + a[:, 2, None, None] * PAULI_Z)
        blochs = np.stack([0.5 * (eye + s * sigma) for s in (1, -1)], axis=1)  # bloch_projector
        # np.kron with the identity on the other particle, operands in its order, for the whole stack
        pairs[k] = (blochs[:, :, :, None, :, None] * eye[:, None, :] if k <= 2 else
                    eye[:, None, :, None] * blochs[:, :, None, :, None, :]).reshape(len(a), 2, 4, 4)
    slot = {(k, t): (np.array([t]), pairs[k], (1, -1))
            for k, t in ((1, 1.0), (2, 1.0), (3, 2.0), (4, 2.0), (2, 3.0), (4, 4.0))}
    sets = {f"pair_{i}{j}": (slot[i, 1.0], slot[j, 2.0]) for i, j in _EPRB_PAIRS}
    sets["combined"] = (slot[1, 1.0], slot[3, 2.0], slot[2, 3.0], slot[4, 4.0])
    return ScenarioGrid("eprb", _EPRB_HAMILTONIAN, _eprb_fixed(), sets, invalid)


def eprb(a1, a2, a3, a4) -> ScenarioDescriptor:
    """Two spins in the singlet state, measured along two axes per particle.

    Axes a1, a2 belong to particle A (a1 first in time), a3, a4 to particle B
    (a3 first).  The four pairwise sets (one axis per particle) are trivially
    decoherent with correlation C(a, b) = -a.b; the combined four-spin set is
    inconsistent in general.  For the all-z/x configuration the pairwise
    correlations are C13 = C24 = -1 and C14 = C23 = 0, and the unique
    unifying probability is (1/16)(1 - s1 s3)(1 - s2 s4).
    """
    axes = []
    for k, a in enumerate((a1, a2, a3, a4), start=1):
        v = np.asarray(a, dtype=float).reshape(-1)
        if v.shape != (3,):
            raise ValidationError(f"axis a{k} must be a 3-vector")
        if not abs(np.linalg.norm(v) - 1.0) <= 1e-9:  # NaN fails too
            raise ValidationError(f"axis a{k} must be a unit vector")
        axes.append(tuple(float(c) for c in v))

    expected = {
        "C13": ExpectedValue(-float(np.dot(axes[0], axes[2])) + 0.0, "derived"),
        "C14": ExpectedValue(-float(np.dot(axes[0], axes[3])) + 0.0, "derived"),
        "C23": ExpectedValue(-float(np.dot(axes[1], axes[2])) + 0.0, "derived"),
        "C24": ExpectedValue(-float(np.dot(axes[1], axes[3])) + 0.0, "derived"),
    }
    if np.allclose(np.asarray(axes), np.asarray(_ZX_AXES), atol=1e-12):
        table = {}
        for s1 in (1, -1):
            for s2 in (1, -1):
                for s3 in (1, -1):
                    for s4 in (1, -1):
                        table[(s1, s2, s3, s4)] = Fraction((1 - s1 * s3) * (1 - s2 * s4), 16)
        expected["unifying_table"] = ExpectedValue(table, "published")
        expected["unifier_unique"] = ExpectedValue(True, "published")

    return eprb_grid([np.array([a]) for a in axes]).descriptor(
        expected, {f"a{k}{c}": axes[k - 1][ci] for k in (1, 2, 3, 4) for ci, c in enumerate("xyz")})


def planar_axis(theta: float) -> tuple[float, float, float]:
    """Unit vector at angle theta from z in the x-z plane."""
    return (math.sin(theta), 0.0, math.cos(theta))


def eprb_planar(theta1: float = 0.0, theta2: float = math.pi / 2,
                theta3: float = 0.0, theta4: float = math.pi / 2) -> ScenarioDescriptor:
    """EPRB with all four axes in the x-z plane, parametrized by angles.

    The default angles reproduce the z/x configuration; the Tsirelson
    configuration is (0, pi/2, pi/4, 3*pi/4).
    """
    desc = eprb(planar_axis(theta1), planar_axis(theta2),
                planar_axis(theta3), planar_axis(theta4))
    object.__setattr__(desc, "parameters", {
        "theta1": float(theta1), "theta2": float(theta2),
        "theta3": float(theta3), "theta4": float(theta4),
    })
    return desc


def _eprb_planar_grid(theta1, theta2, theta3, theta4) -> ScenarioGrid:
    # planar_axis point by point: math.sin and math.cos, as the descriptor builder
    return eprb_grid([np.array([planar_axis(t) for t in theta.tolist()])
                      for theta in (theta1, theta2, theta3, theta4)])


_LG_PAIRS = ((1, 2), (2, 3), (1, 3))


@functools.cache
def _lg_fixed() -> _Fixed:
    var = {i: _spin_half_variable(f"q{i}") for i in (1, 2, 3)}
    mappings = {f"pair_{i}{j}": VariableMapping((var[i], var[j])) for i, j in _LG_PAIRS}
    mappings["combined"] = VariableMapping((var[1], var[2], var[3]))
    return _Fixed(initial=DensityOperator.maximally_mixed(2),
                  space=JointSampleSpace((var[1], var[2], var[3])), mappings=mappings)


_LG_PROJECTORS = frozen_array([[0.5 * (np.eye(2) - s * PAULI_Z) for s in (1, -1)]])


def _leggett_garg_grid(omega, t1, t2, t3) -> ScenarioGrid:
    """``leggett_garg`` at G points, each parameter a ``(G,)`` array; ``invalid``
    marks unordered times and an ``omega`` times a time gap that overflows."""
    times = {1: t1, 2: t2, 3: t3}
    with np.errstate(all="ignore"):
        invalid = ~((t1 < t2) & (t2 < t3))
        for i, j in _LG_PAIRS:
            invalid = invalid | ~np.isfinite(omega * (times[j] - times[i]))
    slot = {i: (times[i], _LG_PROJECTORS, (1, -1)) for i in (1, 2, 3)}
    sets = {f"pair_{i}{j}": (slot[i], slot[j]) for i, j in _LG_PAIRS}
    sets["combined"] = (slot[1], slot[2], slot[3])
    return ScenarioGrid("leggett_garg", (0.5 * omega)[:, None, None] * PAULI_X, _lg_fixed(), sets,
                        invalid)


def leggett_garg(omega: float = 1.0, t1: float = 0.0, t2: float = 1.0,
                 t3: float = 2.0) -> ScenarioDescriptor:
    """A spin observable watched at three times under Rabi-style evolution.

    The observable is sigma_z evolving under H = (omega/2) sigma_x from a
    maximally mixed state.  Every two-time set is consistent with pair table
    (1/4)(1 + s s' cos(omega tau)), so the two-time correlator is
    cos(omega tau); the combined three-time set is inconsistent in general.
    ``omega`` times every time gap must be a finite float.
    """
    if not (t1 < t2 < t3):
        raise ValidationError(f"times must be strictly increasing, got {(t1, t2, t3)}")
    omega = float(omega)
    times = {1: float(t1), 2: float(t2), 3: float(t3)}
    for i, j in _LG_PAIRS:
        if not math.isfinite(omega * (times[j] - times[i])):
            raise ValidationError(
                f"omega * (t{j} - t{i}) must be finite, got omega={omega!r}, "
                f"t{i}={times[i]!r}, t{j}={times[j]!r}")
    expected = {
        "C12": ExpectedValue(math.cos(omega * (times[2] - times[1])), "published"),
        "C23": ExpectedValue(math.cos(omega * (times[3] - times[2])), "published"),
        "C13": ExpectedValue(math.cos(omega * (times[3] - times[1])), "published"),
    }
    parameters = {"omega": omega, "t1": times[1], "t2": times[2], "t3": times[3]}
    return _leggett_garg_grid(*(np.array([v]) for v in parameters.values())).descriptor(expected, parameters)


_BUILDERS = {"griffiths_spin": griffiths_spin, "eprb": eprb_planar,
             "three_box": three_box, "leggett_garg": leggett_garg}
_ACCEPTED = {name: frozenset(inspect.signature(builder).parameters)
             for name, builder in _BUILDERS.items()}


def _checked_parameters(name: str, parameters: Mapping | None) -> dict:
    if name not in _BUILDERS:
        raise ValidationError(f"unknown scenario {name!r}; choose from {', '.join(SCENARIO_NAMES)}")
    parameters = dict(parameters or {})
    accepted = _ACCEPTED[name]
    if parameters and not accepted:
        raise ValidationError(f"{name} takes no parameters")
    unknown = set(parameters) - accepted
    if unknown:
        raise ValidationError(f"unknown {name} parameters {sorted(unknown)}")
    return parameters


def build_scenario(name: str, parameters: Mapping[str, float] | None = None) -> ScenarioDescriptor:
    """Construct a built-in scenario by CLI name, with optional parameter overrides.

    The parameters a scenario accepts, and their defaults, are its builder's
    keyword arguments.
    """
    parameters = _checked_parameters(name, parameters)
    return _BUILDERS[name](**parameters)


_GRID_BUILDERS = {"eprb": _eprb_planar_grid, "leggett_garg": _leggett_garg_grid}


def scenario_grid(name: str, parameters: Mapping[str, np.ndarray]) -> ScenarioGrid:
    """A sweepable scenario at G points: ``parameters`` maps names, checked as
    ``build_scenario`` checks them, to ``(G,)`` arrays; the others keep the
    descriptor builder's defaults."""
    parameters = _checked_parameters(name, parameters)
    if name not in _GRID_BUILDERS:
        raise ValidationError(f"{name} cannot be swept")
    bound = inspect.signature(_BUILDERS[name]).bind(**parameters)
    bound.apply_defaults()
    return _GRID_BUILDERS[name](*(np.atleast_1d(np.asarray(v, dtype=float))
                                  for v in bound.arguments.values()))
