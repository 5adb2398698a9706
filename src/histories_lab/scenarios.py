"""Built-in worked examples: boundary conditions, schedules, and expected values.

Each constructor returns a ``ScenarioDescriptor`` bundling the initial (and
optional final) state, the named history schedules to compare, the joint
sample space their variables live in, and a map of expected quantities used
by the acceptance suite.  Expected values carry a provenance tag:
``published`` (stated in the source material), ``derived`` (computed here by
an independent route), or ``trivial`` (immediate from definitions).

``eprb`` and ``leggett_garg`` hand out the same validated objects for the
same parameter values: their parameter-free parts are built once per
process, and each projector pair, slot and schedule is kept in a bounded
LRU memo keyed on the exact values it reads.  A sweep point therefore
rebuilds only what its swept parameter touches, and everything cached on
a reused schedule (its history set, and that set's decoherence functional
and classification diagnostics) is reused with it.
"""

from __future__ import annotations

import functools
import inspect
import math
import pickle
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

import numpy as np

from .errors import ValidationError
from .histories import HistorySchedule, HistorySet, Slot, history_set
from .operators import (
    DensityOperator,
    PAULI_X,
    PAULI_Z,
    Projector,
    bloch_projector,
    frozen_array,
    ket,
    projector_onto,
)
from .unify import JointSampleSpace, Variable, VariableMapping

SCENARIO_NAMES = ("griffiths_spin", "eprb", "three_box", "leggett_garg")
MEMO_SIZE = 64  # entries per scenario-piece memo

_MEMOS = []  # every memo below, so that tests can start from cold


def _once(build):
    """``build`` run once per process: a scenario's parameter-free parts."""
    cached = functools.cache(build)
    _MEMOS.append(cached)
    return cached


def _memo(build):
    """``build`` behind an LRU of ``MEMO_SIZE`` entries keyed on its arguments' exact values.

    ``-0.0 == 0.0`` and the two hash alike, so the key also carries the
    arguments' pickle, which holds every float's exact bits.  Arguments are
    numbers and tuples of numbers.
    """
    cached = functools.lru_cache(MEMO_SIZE)(lambda key, *args: build(*args))
    _MEMOS.append(cached)

    @functools.wraps(build)
    def memoized(*args):
        return cached(pickle.dumps(args), *args)

    return memoized


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
        return history_set(self.set_named(name).schedule, self.initial, self.final)


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


_ZX_AXES = ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0))
_EPRB_PAIRS = ((1, 3), (1, 4), (2, 3), (2, 4))
_EPRB_HAMILTONIAN = frozen_array(np.zeros((4, 4)))


@dataclass(frozen=True)
class _Fixed:
    """The parameter-free parts of a scenario, built once per process."""

    initial: DensityOperator
    space: JointSampleSpace
    mappings: Mapping[str, VariableMapping]


@_once
def _eprb_fixed() -> _Fixed:
    var = {i: _spin_half_variable(f"s{i}") for i in (1, 2, 3, 4)}
    mappings = {f"pair_{i}{j}": VariableMapping((var[i], var[j])) for i, j in _EPRB_PAIRS}
    mappings["combined"] = VariableMapping((var[1], var[3], var[2], var[4]))
    return _Fixed(initial=DensityOperator.pure(ket([0.0, 1.0, -1.0, 0.0])),
                  space=JointSampleSpace(tuple(var[i] for i in (1, 2, 3, 4))),
                  mappings=mappings)


@_memo
def _eprb_projectors(k: int, axis: tuple[float, float, float]) -> tuple[Projector, Projector]:
    """The outcome projectors of axis ``k``: particle A carries axes 1 and 2, particle B axes 3 and 4."""
    eye = np.eye(2, dtype=complex)
    blochs = (bloch_projector(s, axis) for s in (1, -1))
    return tuple(Projector(np.kron(b, eye) if k <= 2 else np.kron(eye, b)) for b in blochs)


@_memo
def _eprb_slot(k: int, time: float, axis: tuple[float, float, float]) -> Slot:
    return Slot(time, _eprb_projectors(k, axis), (1, -1))


@_memo
def _eprb_schedule(*slots: tuple[int, float, tuple[float, float, float]]) -> HistorySchedule:
    """The schedule of ``(k, time, axis)`` slots."""
    return HistorySchedule(tuple(_eprb_slot(*slot) for slot in slots), _EPRB_HAMILTONIAN)


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
    fixed = _eprb_fixed()
    # pairs measure A at t = 1 and B at t = 2; the combined set reuses the
    # slots of axes 1 and 3 and measures axes 2 and 4 at t = 3 and 4
    pair_slot = {k: (k, 1.0 if k <= 2 else 2.0, axes[k - 1]) for k in (1, 2, 3, 4)}
    schedules = {f"pair_{i}{j}": _eprb_schedule(pair_slot[i], pair_slot[j])
                 for i, j in _EPRB_PAIRS}
    schedules["combined"] = _eprb_schedule(pair_slot[1], pair_slot[3],
                                           (2, 3.0, axes[1]), (4, 4.0, axes[3]))
    sets = tuple(ScenarioSet(name, schedule, fixed.mappings[name])
                 for name, schedule in schedules.items())

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

    return ScenarioDescriptor(
        name="eprb",
        initial=fixed.initial,
        final=None,
        sets=sets,
        space=fixed.space,
        expected=expected,
        parameters={f"a{k}{c}": axes[k - 1][ci] for k in (1, 2, 3, 4)
                    for ci, c in enumerate("xyz")},
    )


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


_LG_PAIRS = ((1, 2), (2, 3), (1, 3))


@_once
def _lg_fixed() -> _Fixed:
    var = {i: _spin_half_variable(f"q{i}") for i in (1, 2, 3)}
    mappings = {f"pair_{i}{j}": VariableMapping((var[i], var[j])) for i, j in _LG_PAIRS}
    mappings["combined"] = VariableMapping((var[1], var[2], var[3]))
    return _Fixed(initial=DensityOperator.maximally_mixed(2),
                  space=JointSampleSpace((var[1], var[2], var[3])), mappings=mappings)


@_once
def _lg_projectors() -> tuple[Projector, Projector]:
    return tuple(Projector(0.5 * (np.eye(2) - s * PAULI_Z)) for s in (1, -1))


@_memo
def _lg_slot(time: float) -> Slot:
    return Slot(time, _lg_projectors(), (1, -1))


@_memo
def _lg_schedule(omega: float, *times: float) -> HistorySchedule:
    return HistorySchedule(tuple(_lg_slot(t) for t in times), 0.5 * omega * PAULI_X)


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
    fixed = _lg_fixed()
    schedules = {f"pair_{i}{j}": _lg_schedule(omega, times[i], times[j]) for i, j in _LG_PAIRS}
    schedules["combined"] = _lg_schedule(omega, times[1], times[2], times[3])
    sets = tuple(ScenarioSet(name, schedule, fixed.mappings[name])
                 for name, schedule in schedules.items())

    expected = {
        "C12": ExpectedValue(math.cos(omega * (times[2] - times[1])), "published"),
        "C23": ExpectedValue(math.cos(omega * (times[3] - times[2])), "published"),
        "C13": ExpectedValue(math.cos(omega * (times[3] - times[1])), "published"),
    }
    return ScenarioDescriptor(
        name="leggett_garg",
        initial=fixed.initial,
        final=None,
        sets=sets,
        space=fixed.space,
        expected=expected,
        parameters={"omega": omega, "t1": times[1], "t2": times[2], "t3": times[3]},
    )


_BUILDERS = {"griffiths_spin": griffiths_spin, "eprb": eprb_planar,
             "three_box": three_box, "leggett_garg": leggett_garg}
_ACCEPTED = {name: frozenset(inspect.signature(builder).parameters)
             for name, builder in _BUILDERS.items()}


def build_scenario(name: str, parameters: Mapping[str, float] | None = None) -> ScenarioDescriptor:
    """Construct a built-in scenario by CLI name, with optional parameter overrides.

    The parameters a scenario accepts, and their defaults, are its builder's
    keyword arguments.
    """
    if name not in _BUILDERS:
        raise ValidationError(f"unknown scenario {name!r}; choose from {', '.join(SCENARIO_NAMES)}")
    parameters = dict(parameters or {})
    accepted = _ACCEPTED[name]
    if parameters and not accepted:
        raise ValidationError(f"{name} takes no parameters")
    unknown = set(parameters) - accepted
    if unknown:
        raise ValidationError(f"unknown {name} parameters {sorted(unknown)}")
    return _BUILDERS[name](**parameters)
