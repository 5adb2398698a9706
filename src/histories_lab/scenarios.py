"""Built-in worked examples: boundary conditions, history sets, and expected values.

A scenario is one ``ScenarioGrid``: one Hamiltonian and one pair of
boundary states, and named sets of time-ordered projective decompositions,
held as read-only stacks with a leading axis of G parameter points.  A
``ScenarioDescriptor`` is point 0 of a grid, bundled with the builder's
parameters and a map of expected quantities used by the acceptance suite.
Expected values carry a provenance tag: ``published`` (stated in the source
material), ``derived`` (computed here by an independent route), or
``trivial`` (immediate from definitions).

``eprb`` and ``leggett_garg`` are built for G points at once
(``scenario_grid``), and their descriptors are grids of one point; only their
parameter-free parts are built once per process.  ``griffiths_spin``,
``three_box`` and config documents are one-point grids of fixed matrices
(``point_grid``).

Each input is checked once, where it enters, and no grid checks its
matrices again.  Each parameter rule and its message is written once, in a
grid builder: ``eprb_grid`` that each axis is a unit vector,
``_leggett_garg_grid`` that the times increase and that ``omega`` times
each gap and each time is finite.  A sweep and a descriptor builder (a
one-point grid) refuse through ``ScenarioGrid.check``.  The matrices built
from checked parameters are valid by construction: H = (omega/2) sigma_x
is Hermitian for any finite omega, the ``leggett_garg`` projectors are
fixed, and (1 +- a.sigma)/2 with |a| within ``DEFAULT_TOL`` of 1 passes the
projector checks.  Tests check the fixed matrices of ``griffiths_spin`` and
``three_box``; ``config.parse_config`` checks a document's.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Mapping

import numpy as np

from .errors import ValidationError
from .histories import (
    HistorySet,
    check_history_count,
    extend_prefix,
    heisenberg_stack,
)
from .operators import (
    DEFAULT_TOL,
    DensityOperator,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
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
    """One named set of histories, optionally mapped onto joint variables."""

    name: str
    mapping: VariableMapping | None = None


@dataclass(frozen=True)
class ScenarioDescriptor:
    """Point 0 of ``grid``, whose boundary states, sample space and sets it reads.
    A builder makes one of a grid whose inputs it has checked; nothing here checks
    them again."""

    grid: "ScenarioGrid" = field(repr=False)
    expected: Mapping[str, ExpectedValue] = field(default_factory=dict)
    parameters: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "expected", dict(self.expected))
        object.__setattr__(self, "parameters", dict(self.parameters))

    name = property(lambda self: self.grid.name)
    initial = property(lambda self: self.grid.fixed.initial)
    final = property(lambda self: self.grid.fixed.final)
    space = property(lambda self: self.grid.fixed.space)

    @cached_property
    def sets(self) -> tuple[ScenarioSet, ...]:
        return tuple(ScenarioSet(name, self.grid.fixed.mappings.get(name)) for name in self.grid.slots)

    def set_named(self, name: str) -> ScenarioSet:
        for s in self.sets:
            if s.name == name:
                return s
        raise ValidationError(f"scenario has no set named {name!r}")

    def build(self, name: str) -> HistorySet:
        self.set_named(name)  # an unknown name is a ValidationError
        ops = self.grid.class_operators(name)[0]  # checks the history cap before any label is built
        return HistorySet(self.grid.labels(name), ops, self.initial, self.final)


def _spin_half_variable(name: str) -> Variable:
    return Variable(name, (1, -1))


@dataclass(frozen=True)
class _Fixed:
    """The parameter-free parts of a scenario."""

    initial: DensityOperator
    space: JointSampleSpace | None
    mappings: Mapping[str, VariableMapping]
    final: DensityOperator | None = None


@dataclass(frozen=True)
class ScenarioGrid:
    """A scenario at G parameter points as stacks with a leading grid axis, an axis of
    length 1 shared by every point.  ``slots[name]`` lists one set's slots: a ``(G,)``
    time array, a ``(G, k, dim, dim)`` projector stack and the outcome symbols.
    ``rules`` are the builder's parameter rules in its order, each a ``(G,)`` mask of
    the points it refuses, a ``%``-format message and the ``(G,)`` arrays it names;
    ``invalid``, their union, is the only check a grid makes.  The grid holds
    read-only views of the arrays it is given, one view per array."""

    name: str
    hamiltonians: np.ndarray
    fixed: _Fixed
    slots: Mapping[str, tuple]
    rules: tuple = ()
    invalid: np.ndarray = field(init=False)

    def __post_init__(self):
        views = {}  # by id, so a stack shared by several slots stays one stack

        def view(a: np.ndarray) -> np.ndarray:
            v = views.setdefault(id(a), a.view())
            v.setflags(write=False)  # a read-only view: the given array stays writable
            return v

        object.__setattr__(self, "hamiltonians", view(self.hamiltonians))
        invalid = np.zeros(1, dtype=bool)
        for refused, _, _ in self.rules:
            invalid = invalid | refused
        object.__setattr__(self, "invalid", view(invalid))
        object.__setattr__(self, "rules", tuple((view(refused), message, tuple(map(view, values)))
                                                for refused, message, values in self.rules))
        object.__setattr__(self, "slots", {name: tuple((view(t), view(p), tuple(symbols))
                                                       for t, p, symbols in slots)
                                           for name, slots in self.slots.items()})

    def check(self) -> None:
        """Raise the message of the first rule that the first refused point fails."""
        if self.invalid.any():
            g = int(np.argmax(self.invalid))
            at = functools.partial(np.broadcast_to, shape=self.invalid.shape)  # shares a length-1 axis
            message, values = next((m, v) for refused, m, v in self.rules if at(refused)[g])
            raise ValidationError(message % tuple(float(at(v)[g]) for v in values))

    @cached_property
    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        return np.linalg.eigh(self.hamiltonians)  # one batched call for every point

    def labels(self, name: str) -> tuple:
        return tuple(itertools.product(*(symbols for _, _, symbols in self.slots[name])))

    @cached_property
    def _stacks(self) -> dict:
        # by the ids of the grid's own views, which live as long as the grid
        return {}

    def class_operators(self, name: str) -> np.ndarray:
        """One set's ``(G, n, dim, dim)`` class operators in label order, read-only.
        Each distinct slot's Heisenberg stack and each label prefix is computed once
        per grid, so a set whose slots begin another set's shares its stack.  The
        history cap is checked before any product."""
        slots = self.slots[name]
        check_history_count([p for _, p, _ in slots])
        stacks, key, ops = self._stacks, (), None
        for t, p, _ in slots:
            slot = (id(t), id(p))
            if slot not in stacks:
                stacks[slot] = heisenberg_stack(*self._eigh, t, p)
                stacks[slot].setflags(write=False)
            key += (slot,)
            if key not in stacks:
                stacks[key] = stacks[slot] if ops is None else extend_prefix(ops, stacks[slot])
                stacks[key].setflags(write=False)
            ops = stacks[key]
        return ops


def point_grid(name: str, hamiltonian, sets: Mapping, fixed: _Fixed | None = None) -> ScenarioGrid:
    """The one-point grid of one Hamiltonian and ``sets``, which maps each set name
    to its ``(time, projector matrices, symbols)`` slots, each already checked.
    Every array is copied; a projector family passed as one object is one stack.
    A ``HistorySchedule``'s grid has no boundary states, so no ``fixed``."""
    stacks = {id(family): np.array([family], dtype=complex)
              for slots in sets.values() for _, family, _ in slots}
    return ScenarioGrid(name, np.array([hamiltonian], dtype=complex), fixed,
                        {n: tuple((np.array([t], dtype=float), stacks[id(family)], symbols)
                                  for t, family, symbols in slots) for n, slots in sets.items()})


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
    z = (projector_onto(up), projector_onto(down))
    x = (projector_onto(plus), projector_onto(minus))
    sx = _spin_half_variable("sx")
    sz = _spin_half_variable("sz")
    fixed = _Fixed(initial=DensityOperator.pure(up), final=DensityOperator.pure(plus),
                   space=JointSampleSpace((sx, sz)),
                   mappings={"z": VariableMapping((sz,)), "x": VariableMapping((sx,)),
                             "zx": VariableMapping((sx, sz))})
    sets = {
        "z": [(1.0, z, (1, -1))],
        "x": [(1.0, x, (1, -1))],
        "zx": [(1.0, x, (1, -1)), (2.0, z, (1, -1))],  # x is projected first, then z
    }
    expected = {
        "z_probabilities": ExpectedValue({(1,): Fraction(1), (-1,): Fraction(0)}, "published"),
        "x_probabilities": ExpectedValue({(1,): Fraction(1), (-1,): Fraction(0)}, "published"),
        "zx_consistent": ExpectedValue(False, "published"),
        "unifier_cell_plus_up": ExpectedValue(Fraction(1), "published"),
    }
    return ScenarioDescriptor(point_grid("griffiths_spin", np.zeros((2, 2)), sets, fixed), expected)


def three_box() -> ScenarioDescriptor:
    """Three-state system with pre- and post-selection exhibiting contrary sets.

    With initial (|1>+|2>+|3>)/sqrt(3) and final (|1>+|2>-|3>)/sqrt(3) the
    post-selection normalization prefactor 1/Tr(rho_f rho) equals 9, and the
    two coarse sets give p(box 1) = 1 and p(box 2) = 1 respectively.  The fine
    set is inconsistent, carries quasi-probabilities (1, 1, -1), and shows a
    zero cover; no unifying probability exists for the two coarse sets.
    """
    basis = np.eye(3)
    p = [projector_onto(basis[i]) for i in range(3)]
    box = Variable("box", ("1", "2", "3"))
    fixed = _Fixed(
        initial=DensityOperator.pure(ket([1.0, 1.0, 1.0])),
        final=DensityOperator.pure(ket([1.0, 1.0, -1.0])),
        space=JointSampleSpace((box,)),
        mappings={"box1": VariableMapping((box,), ({"1": ("1",), "23": ("2", "3")},)),
                  "box2": VariableMapping((box,), ({"2": ("2",), "13": ("1", "3")},)),
                  "fine": VariableMapping((box,))})
    sets = {
        "box1": [(1.0, (p[0], p[1] + p[2]), ("1", "23"))],
        "box2": [(1.0, (p[1], p[0] + p[2]), ("2", "13"))],
        "fine": [(1.0, p, ("1", "2", "3"))],
    }
    expected = {
        "box1_probabilities": ExpectedValue({("1",): Fraction(1), ("23",): Fraction(0)}, "published"),
        "box2_probabilities": ExpectedValue({("2",): Fraction(1), ("13",): Fraction(0)}, "published"),
        "fine_quasi": ExpectedValue({("1",): Fraction(1), ("2",): Fraction(1),
                                     ("3",): Fraction(-1)}, "derived"),
        "zero_cover_witness": ExpectedValue((("2",), ("3",)), "derived"),
        "unification": ExpectedValue("infeasible", "published"),
    }
    return ScenarioDescriptor(point_grid("three_box", np.zeros((3, 3)), sets, fixed), expected)


_ZX_AXES = ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0))
_EPRB_PAIRS = ((1, 3), (1, 4), (2, 3), (2, 4))
_EPRB_HAMILTONIAN = frozen_array(np.zeros((1, 4, 4)))


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
    t = 3 and 4.  Its rule refuses a norm not within ``DEFAULT_TOL`` of 1."""
    eye = np.eye(2, dtype=complex)
    rules, pairs = [], {}
    with np.errstate(all="ignore"):  # a non-finite axis, which its rule refuses, makes NaN projectors
        for k, a in enumerate(axes, start=1):
            rules.append((~(np.abs(np.linalg.norm(a, axis=1) - 1.0) <= DEFAULT_TOL),  # NaN fails too
                          f"axis a{k} must be a unit vector", ()))
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
    return ScenarioGrid("eprb", _EPRB_HAMILTONIAN, _eprb_fixed(), sets, rules)


def _eprb_descriptor(axes, parameters: Mapping[str, float]) -> ScenarioDescriptor:
    """The descriptor of ``eprb_grid`` at the four 3-tuples of floats ``axes``,
    refused by its rule unless each is a unit vector."""
    grid = eprb_grid([np.array([a]) for a in axes])
    grid.check()
    expected = {f"C{i}{j}": ExpectedValue(-float(np.dot(axes[i - 1], axes[j - 1])) + 0.0,
                                          "derived") for i, j in _EPRB_PAIRS}
    if np.allclose(np.asarray(axes), np.asarray(_ZX_AXES), atol=1e-12):
        table = {s: Fraction((1 - s[0] * s[2]) * (1 - s[1] * s[3]), 16)
                 for s in itertools.product((1, -1), repeat=4)}
        expected["unifying_table"] = ExpectedValue(table, "published")
        expected["unifier_unique"] = ExpectedValue(True, "published")
    return ScenarioDescriptor(grid, expected, parameters)


def eprb(a1, a2, a3, a4) -> ScenarioDescriptor:
    """Two spins in the singlet state, measured along two axes per particle.

    Axes a1, a2 belong to particle A (a1 first in time), a3, a4 to particle B
    (a3 first).  The four pairwise sets (one axis per particle) are trivially
    decoherent with correlation C(a, b) = -a.b; the combined four-spin set is
    inconsistent in general.  For the all-z/x configuration the pairwise
    correlations are C13 = C24 = -1 and C14 = C23 = 0, and the unique
    unifying probability is (1/16)(1 - s1 s3)(1 - s2 s4).  Each axis must
    be a 3-vector of numbers (``_checked_number``, component ``a<k><x|y|z>``),
    and ``eprb_grid``'s rule checks its norm.
    """
    axes = []
    for k, a in enumerate((a1, a2, a3, a4), start=1):
        v = np.asarray(a, dtype=object).reshape(-1)
        if v.shape != (3,):
            raise ValidationError(f"axis a{k} must be a 3-vector")
        axes.append(tuple(float(_checked_number("eprb", f"a{k}{c}", x)) for c, x in zip("xyz", v)))
    return _eprb_descriptor(axes, {f"a{k}{c}": axes[k - 1][ci]
                                   for k in (1, 2, 3, 4) for ci, c in enumerate("xyz")})


def planar_axis(theta: float) -> tuple[float, float, float]:
    """Unit vector at angle theta from z in the x-z plane; a non-finite angle
    gives NaN components, which the unit-length check refuses."""
    if not math.isfinite(theta):
        return (math.nan, 0.0, math.nan)
    return (math.sin(theta), 0.0, math.cos(theta))


def eprb_planar(theta1: float = 0.0, theta2: float = math.pi / 2,
                theta3: float = 0.0, theta4: float = math.pi / 2) -> ScenarioDescriptor:
    """EPRB with all four axes in the x-z plane, parametrized by angles.

    The default angles reproduce the z/x configuration; the Tsirelson
    configuration is (0, pi/2, pi/4, 3*pi/4).  Each angle must be a number
    (``_checked_number``).
    """
    thetas = (theta1, theta2, theta3, theta4)
    for k, theta in enumerate(thetas, start=1):
        _checked_number("eprb", f"theta{k}", theta)
    return _eprb_descriptor([planar_axis(t) for t in thetas],
                            {f"theta{k}": float(t) for k, t in enumerate(thetas, 1)})


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
    """``leggett_garg`` at G points, each parameter a ``(G,)`` array.  Its rules refuse
    unordered times, then an overflowing ``omega`` times a gap, then ``omega`` times a time."""
    times = {1: t1, 2: t2, 3: t3}
    with np.errstate(all="ignore"):
        rules = [(~((t1 < t2) & (t2 < t3)), "times must be strictly increasing, got (%r, %r, %r)",
                  (t1, t2, t3))]
        rules += [(~np.isfinite(omega * (times[j] - times[i])),
                   f"omega * (t{j} - t{i}) must be finite, got omega=%r, t{i}=%r, t{j}=%r",
                   (omega, times[i], times[j])) for i, j in _LG_PAIRS]
        rules += [(~np.isfinite(omega * t), f"omega * t{i} must be finite, got omega=%r, t{i}=%r",
                   (omega, t)) for i, t in times.items()]
        hamiltonians = (0.5 * omega)[:, None, None] * PAULI_X
    slot = {i: (times[i], _LG_PROJECTORS, (1, -1)) for i in (1, 2, 3)}
    sets = {f"pair_{i}{j}": (slot[i], slot[j]) for i, j in _LG_PAIRS}
    sets["combined"] = (slot[1], slot[2], slot[3])
    return ScenarioGrid("leggett_garg", hamiltonians, _lg_fixed(), sets, rules)


def leggett_garg(omega: float = 1.0, t1: float = 0.0, t2: float = 1.0,
                 t3: float = 2.0) -> ScenarioDescriptor:
    """A spin observable watched at three times under Rabi-style evolution.

    The observable is sigma_z evolving under H = (omega/2) sigma_x from a
    maximally mixed state.  Every two-time set is consistent with pair table
    (1/4)(1 + s s' cos(omega tau)), so the two-time correlator is
    cos(omega tau); the combined three-time set is inconsistent in general.
    Each parameter must be a number (``_checked_number``), and
    ``_leggett_garg_grid``'s rules check their values.
    """
    omega, t1, t2, t3 = (float(_checked_number("leggett_garg", key, value)) for key, value
                         in (("omega", omega), ("t1", t1), ("t2", t2), ("t3", t3)))
    t = {1: t1, 2: t2, 3: t3}
    grid = _leggett_garg_grid(*(np.array([v]) for v in (omega, t1, t2, t3)))
    grid.check()
    expected = {f"C{i}{j}": ExpectedValue(math.cos(omega * (t[j] - t[i])), "published")
                for i, j in _LG_PAIRS}
    return ScenarioDescriptor(grid, expected, {"omega": omega, "t1": t[1], "t2": t[2], "t3": t[3]})


_BUILDERS = {"griffiths_spin": griffiths_spin, "eprb": eprb_planar,
             "three_box": three_box, "leggett_garg": leggett_garg}
_ACCEPTED = {name: frozenset(inspect.signature(builder).parameters)
             for name, builder in _BUILDERS.items()}


def _checked_number(name: str, key: str, value, ndim: int = 0):
    """``value`` if it is an int or a float (``bool`` and strings are not), or,
    ``ndim`` 1, a 1-D array of them; numpy numbers count.  A Python int must
    be within the float range, which every builder converts it to."""
    if type(value) is int and not abs(value) <= sys.float_info.max:
        # named by its size: the digits of a large enough int cannot be printed
        raise ValidationError(f"{name} parameter {key} must be within the float range, "
                              f"got an int of {value.bit_length()} bits")
    if type(value) in (int, float):  # the common case, decided without numpy
        return value
    with contextlib.suppress(ValueError):  # a ragged sequence is not a number either
        if np.asarray(value).dtype.kind in "iuf" and np.ndim(value) <= ndim:
            return value
    kind = "an int or a float" + (", or a 1-D array of them" if ndim else "")
    raise ValidationError(f"{name} parameter {key} must be {kind}, got {_shown(value)}")


def _shown(value) -> str:
    """``repr(value)``, or, when it holds an int too long to print, that
    int's size, as the scalar check names it."""
    try:
        return repr(value)
    except ValueError:  # an int of more than sys.get_int_max_str_digits() digits
        with contextlib.suppress(TypeError):
            bits = max((x.bit_length() for x in value if isinstance(x, int)), default=0)
            if bits:
                return f"an int entry of {bits} bits"
        return f"an entry holding an int of more than {sys.get_int_max_str_digits()} digits"


def _checked_parameters(name: str, parameters: Mapping | None) -> dict:
    """``parameters`` if each is one of ``name``'s; the builder checks their values."""
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
    ``build_scenario`` checks them, to ``(G,)`` or ``(1,)`` arrays or numbers;
    the others keep the descriptor builder's defaults."""
    parameters = _checked_parameters(name, parameters)
    for key, value in parameters.items():
        _checked_number(name, key, value, ndim=1)
    if name not in _GRID_BUILDERS:
        raise ValidationError(f"{name} cannot be swept")
    bound = inspect.signature(_BUILDERS[name]).bind(**parameters)
    bound.apply_defaults()
    columns = {key: np.atleast_1d(np.asarray(v, dtype=float)) for key, v in bound.arguments.items()}
    if len({len(v) for v in columns.values()} - {1}) > 1:
        raise ValidationError(f"{name} parameter arrays must share one length or have length 1, got "
                              f"lengths { {key: len(v) for key, v in columns.items()} }")
    return _GRID_BUILDERS[name](*columns.values())
