import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from histories_lab.classicality import classify, detect_zero_cover
from histories_lab.cli import SWEEPABLE
from histories_lab.errors import ValidationError
from histories_lab.histories import (
    HistorySet,
    decoherence_stack,
    history_probabilities,
    identity_deviation,
    quasi_probabilities,
)
from histories_lab.operators import DEFAULT_TOL, Projector, bloch_projector, family_deviations, max_abs
from histories_lab.scenarios import (
    build_scenario,
    eprb,
    eprb_grid,
    eprb_planar,
    griffiths_spin,
    leggett_garg,
    planar_axis,
    scenario_grid,
    three_box,
)
from histories_lab.unify import (
    correlations_from_marginals,
    extract_marginals,
    find_unifying_probability,
    pair_correlation,
    probe_uniqueness,
)

ZHAT = (0.0, 0.0, 1.0)
XHAT = (1.0, 0.0, 0.0)


def test_griffiths_expected_values_verify_end_to_end():
    desc = griffiths_spin()
    for set_name, key in (("z", "z_probabilities"), ("x", "x_probabilities")):
        computed = history_probabilities(desc.build(set_name))
        for label, expected in desc.expected[key].value.items():
            assert abs(computed[label] - float(expected)) < 1e-12
    assert classify(desc.build("zx")).consistent is desc.expected["zx_consistent"].value
    tables = [extract_marginals(desc.build(n), desc.set_named(n).mapping) for n in ("x", "z")]
    verdict = find_unifying_probability(desc.space, tables)
    assert verdict.feasible
    assert abs(float(verdict.witness[(1, 1)])
               - float(desc.expected["unifier_cell_plus_up"].value)) < 2e-9


def test_three_box_expected_values_verify_end_to_end():
    desc = three_box()
    for set_name, key in (("box1", "box1_probabilities"), ("box2", "box2_probabilities")):
        computed = history_probabilities(desc.build(set_name))
        for label, expected in desc.expected[key].value.items():
            assert abs(computed[label] - float(expected)) < 1e-12
    fine = desc.build("fine")
    quasi = quasi_probabilities(fine)
    for label, expected in desc.expected["fine_quasi"].value.items():
        assert abs(quasi[label] - float(expected)) < 1e-12
    assert detect_zero_cover(fine).witness == desc.expected["zero_cover_witness"].value
    tables = [extract_marginals(desc.build(n), desc.set_named(n).mapping)
              for n in ("box1", "box2")]
    assert find_unifying_probability(desc.space, tables).status \
        == desc.expected["unification"].value


def test_eprb_zx_expected_table_and_uniqueness():
    desc = eprb(ZHAT, XHAT, ZHAT, XHAT)
    names = ("pair_13", "pair_14", "pair_23", "pair_24")
    tables = [extract_marginals(desc.build(n), desc.set_named(n).mapping) for n in names]
    for table, key in zip(tables, ("C13", "C14", "C23", "C24")):
        assert abs(pair_correlation(table) - desc.expected[key].value) < 1e-12
    verdict = probe_uniqueness(desc.space, [t.as_exact() for t in tables], exact=True)
    assert verdict.feasible and verdict.unique is desc.expected["unifier_unique"].value
    assert verdict.witness == desc.expected["unifying_table"].value


def test_eprb_correlation_is_minus_dot_product():
    rng = np.random.default_rng(41)
    axes = rng.normal(size=(4, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    desc = eprb(*map(tuple, axes))
    pair_axis = {"pair_13": (0, 2), "pair_14": (0, 3), "pair_23": (1, 2), "pair_24": (1, 3)}
    for name, (i, j) in pair_axis.items():
        table = extract_marginals(desc.build(name), desc.set_named(name).mapping)
        assert abs(pair_correlation(table) + float(axes[i] @ axes[j])) < 1e-12


def test_eprb_rejects_non_unit_axis():
    with pytest.raises(ValidationError):
        eprb((1.0, 1.0, 0.0), XHAT, ZHAT, XHAT)


def test_eprb_rejects_a_nan_axis_as_not_a_unit_vector():
    with pytest.raises(ValidationError, match="a1 must be a unit vector"):
        build_scenario("eprb", {"theta1": math.nan})
    with pytest.raises(ValidationError, match="unit vector"):
        bloch_projector(1, (math.nan, 0.0, 1.0))


@pytest.mark.parametrize("theta", [math.inf, -math.inf])
def test_eprb_refuses_an_infinite_angle_as_not_a_unit_vector(theta):
    with pytest.raises(ValidationError, match="a3 must be a unit vector"):
        build_scenario("eprb", {"theta3": theta})


def test_eprb_grid_marks_a_non_finite_angle_invalid():
    grid = scenario_grid("eprb", {"theta1": np.array([0.0, math.inf, -math.inf, math.nan])})
    assert grid.invalid.tolist() == [False, True, True, True]


@pytest.mark.parametrize("build", [
    lambda: eprb((math.inf, 0.0, 0.0), XHAT, ZHAT, XHAT),
    lambda: eprb((1e200, 0.0, 0.0), XHAT, ZHAT, XHAT),
    lambda: build_scenario("eprb", {"theta1": math.inf}),
], ids=["infinite-component", "overflowing-norm", "infinite-angle"])
def test_eprb_refuses_a_non_finite_axis_before_any_warning(build):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="^axis a1 must be a unit vector$"):
            build()


def test_leggett_garg_refuses_an_infinite_omega_before_any_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=r"^omega \* \(t2 - t1\) must be finite, got omega=inf"):
            leggett_garg(math.inf)


@pytest.mark.parametrize("name, parameters, message", [
    ("leggett_garg", {"omega": None}, "leggett_garg parameter omega must be an int or a float, got None"),
    ("eprb", {"theta1": "a"}, "eprb parameter theta1 must be an int or a float, got 'a'"),
])
def test_build_scenario_refuses_a_parameter_that_is_not_a_number(name, parameters, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        build_scenario(name, parameters)


@pytest.mark.parametrize("build, message", [
    (lambda: leggett_garg(None), "leggett_garg parameter omega must be an int or a float, got None"),
    (lambda: leggett_garg("1"), "leggett_garg parameter omega must be an int or a float, got '1'"),
    (lambda: leggett_garg(True), "leggett_garg parameter omega must be an int or a float, got True"),
    (lambda: eprb_planar("a"), "eprb parameter theta1 must be an int or a float, got 'a'"),
    (lambda: eprb_planar(True), "eprb parameter theta1 must be an int or a float, got True"),
    (lambda: eprb(("a", 0, 0), XHAT, ZHAT, XHAT), "eprb parameter a1x must be an int or a float, got 'a'"),
], ids=["lg-none", "lg-string", "lg-bool", "planar-string", "planar-bool", "eprb-string-component"])
def test_a_builder_called_directly_refuses_what_build_scenario_refuses(build, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("build, key", [
    (lambda: build_scenario("eprb", {"theta1": 10**400}), "eprb parameter theta1"),
    (lambda: build_scenario("leggett_garg", {"omega": 10**400}), "leggett_garg parameter omega"),
    (lambda: scenario_grid("leggett_garg", {"omega": 10**400}), "leggett_garg parameter omega"),
    (lambda: leggett_garg(1.0, 0.0, 1.0, -10**5000), "leggett_garg parameter t3"),
    (lambda: eprb((10**400, 0, 0), XHAT, ZHAT, XHAT), "eprb parameter a1x"),
], ids=["eprb", "lg", "lg-grid", "lg-unprintable", "eprb-component"])
def test_an_int_beyond_the_float_range_is_refused_by_name(build, key):
    with pytest.raises(ValidationError, match=f"^{re.escape(key)} must be within the float range, "
                                              r"got an int of \d+ bits$"):
        build()


@pytest.mark.parametrize("scenario, key", [("leggett_garg", "omega"), ("eprb", "theta4")])
@pytest.mark.parametrize("value, shown", [
    ([10**5000], "an int entry of 16610 bits"),
    ([0.5, -10**5000], "an int entry of 16610 bits"),
    ([[10**5000]], f"an entry holding an int of more than {sys.get_int_max_str_digits()} digits"),
], ids=["one", "second", "nested"])
def test_a_grid_parameter_holding_an_unprintable_int_is_refused_by_name(scenario, key, value, shown):
    with pytest.raises(ValidationError, match=f"^{scenario} parameter {key} must be an int or a float, "
                                              f"or a 1-D array of them, got {shown}$"):
        scenario_grid(scenario, {key: value})


def test_builders_accept_python_and_numpy_numbers():
    assert leggett_garg(np.float64(0.5), 0, np.float32(1.0)).parameters["omega"] == 0.5
    assert eprb_planar(np.float64(0.0), 1).parameters["theta2"] == 1.0
    assert eprb(np.array([0.0, 0.0, 1.0]), (1, 0, 0), [np.float64(0.0), 0, 1], XHAT).parameters["a1z"] == 1.0


def test_scenario_grid_refuses_parameter_arrays_of_different_lengths():
    lengths = "got lengths {'omega': 2, 't1': 3, 't2': 1, 't3': 1}"
    with pytest.raises(ValidationError, match=re.escape(lengths)):
        scenario_grid("leggett_garg", {"omega": np.array([1.0, 2.0]), "t1": np.array([0.0, 1.0, 2.0])})


def test_a_builder_prints_int_times_as_floats():
    with pytest.raises(ValidationError, match=re.escape("got (0.0, 0.0, 1.0)")):
        leggett_garg(1.0, 0, 0, 1)


def test_eprb_degenerate_equal_axes_give_identical_pair_sets():
    desc = eprb(ZHAT, ZHAT, XHAT, XHAT)
    ops13 = desc.build("pair_13").class_operators
    ops23 = desc.build("pair_23").class_operators
    for a, b in zip(ops13, ops23):
        assert max_abs(a - b) == 0.0


def test_eprb_planar_defaults_are_the_zx_configuration():
    desc = eprb_planar()
    assert "unifying_table" in desc.expected
    assert desc.parameters == {"theta1": 0.0, "theta2": math.pi / 2,
                               "theta3": 0.0, "theta4": math.pi / 2}


def test_planar_axis_is_unit():
    for theta in np.linspace(0.0, 2 * math.pi, 17):
        assert abs(np.linalg.norm(planar_axis(theta)) - 1.0) < 1e-12


def test_leggett_garg_correlator_and_consistency():
    omega, t1, t2, t3 = 1.3, 0.2, 1.1, 2.9
    desc = leggett_garg(omega, t1, t2, t3)
    spans = {"pair_12": t2 - t1, "pair_23": t3 - t2, "pair_13": t3 - t1}
    for name, span in spans.items():
        hset = desc.build(name)
        assert classify(hset).consistent
        table = extract_marginals(hset, desc.set_named(name).mapping)
        assert abs(pair_correlation(table) - math.cos(omega * span)) < 1e-12
        # pair table is (1/4)(1 + s s' cos(omega tau))
        probs = history_probabilities(hset)
        for (s1, s2), p in probs.items():
            assert abs(p - 0.25 * (1 + s1 * s2 * math.cos(omega * span))) < 1e-12
    assert not classify(desc.build("combined")).consistent


def test_leggett_garg_rejects_unordered_times():
    with pytest.raises(ValidationError):
        leggett_garg(1.0, 0.0, 2.0, 1.0)


def test_leggett_garg_refuses_omega_times_a_time_that_overflows():
    # omega times every gap is finite, but the propagator's phase omega * t is not
    with pytest.raises(ValidationError, match=r"omega \* t1 must be finite, got omega=1e\+307, t1=100.0"):
        leggett_garg(1e307, 100.0, 100.5, 101.0)
    grid = scenario_grid("leggett_garg", {"omega": np.array([1.0, 1e307]), "t1": np.array([100.0]),
                                          "t2": np.array([100.5]), "t3": np.array([101.0])})
    assert grid.invalid.tolist() == [False, True]


def test_leggett_garg_deterministic_constructor():
    a = leggett_garg(0.9, 0.0, 1.0, 2.0)
    b = leggett_garg(0.9, 0.0, 1.0, 2.0)
    assert a.expected["C12"].value == b.expected["C12"].value
    assert list(a.grid.slots) == list(b.grid.slots)
    for name, slots in a.grid.slots.items():
        for (_, projectors_a, _), (_, projectors_b, _) in zip(slots, b.grid.slots[name]):
            np.testing.assert_array_equal(projectors_a, projectors_b)


def _assert_matrices_valid(grid):
    """Every Hamiltonian of ``grid`` is Hermitian and every projector family is a
    projective decomposition, within ``DEFAULT_TOL``: the checks no grid makes itself."""
    h = grid.hamiltonians
    assert np.abs(h - h.conj().transpose(0, 2, 1)).max() <= DEFAULT_TOL
    families = {id(p): p for slots in grid.slots.values() for _, p, _ in slots}
    for p in families.values():
        assert max(float(d.max()) for d in family_deviations(p)) <= DEFAULT_TOL


@pytest.mark.parametrize("builder", [griffiths_spin, three_box])
def test_fixed_scenario_matrices_are_valid(builder):
    _assert_matrices_valid(builder().grid)


_ANGLES = st.floats(-10.0, 10.0)


def _valid_eprb_parameters(draw, column):
    names = draw(st.sets(st.sampled_from(["theta1", "theta2", "theta3", "theta4"]), min_size=1))
    return {name: column(_ANGLES) for name in sorted(names)}


def _valid_leggett_garg_parameters(draw, column):
    t1 = column(st.floats(-10.0, 10.0))
    t2 = t1 + column(st.floats(1e-3, 10.0))
    t3 = t2 + column(st.floats(1e-3, 10.0))
    return {"omega": column(st.floats(-1e3, 1e3)), "t1": t1, "t2": t2, "t3": t3}


_VALID_SWEEP_PARAMETERS = {"eprb": _valid_eprb_parameters, "leggett_garg": _valid_leggett_garg_parameters}


@st.composite
def _valid_sweep_grids(draw):
    size = draw(st.integers(1, 5))
    column = lambda values: np.array(draw(st.lists(values, min_size=size, max_size=size)))
    name = draw(st.sampled_from(sorted(_VALID_SWEEP_PARAMETERS)))
    return scenario_grid(name, _VALID_SWEEP_PARAMETERS[name](draw, column))


def _assert_derived_values_valid(grid):
    """What a sweep derives from a grid without checking it: at every point each
    set's class operators sum to the identity, every set but ``combined`` is
    consistent by ``classify``'s rule, each pair table is a ``MarginalTable``
    and their correlations are a ``CorrelationSet``."""
    size = len(grid.invalid)
    tables = [[] for _ in range(size)]
    for name in grid.slots:
        ops = grid.class_operators(name)
        ops = np.broadcast_to(ops, (size, *ops.shape[1:]))
        assert identity_deviation(ops).max() <= DEFAULT_TOL
        if name == "combined":
            continue
        p = decoherence_stack(ops, grid.fixed.initial.matrix).diagonal(axis1=1, axis2=2).real
        mapping = grid.fixed.mappings[name]
        for g in range(size):
            hset = HistorySet(grid.labels(name), ops[g], grid.fixed.initial, grid.fixed.final)
            assert classify(hset).consistent
            tables[g].append(mapping.marginal_table(dict(zip(grid.labels(name), p[g].tolist()))))
    for point in tables:
        correlations_from_marginals(point)


@settings(max_examples=60, deadline=None)
@given(_valid_sweep_grids())
def test_sweep_grid_matrices_are_valid_at_every_valid_point(grid):
    # a new sweepable built-in joins the strategy before its derived values are trusted
    assert sorted(_VALID_SWEEP_PARAMETERS) == sorted(SWEEPABLE)
    assert not grid.invalid.any()
    _assert_matrices_valid(grid)
    _assert_derived_values_valid(grid)


def _eprb_axes(axis):
    return (axis, XHAT, ZHAT, XHAT)


@pytest.mark.parametrize("excess", [0.9e-10, -0.9e-10])
def test_an_axis_within_default_tol_of_unit_length_gives_projectors(excess):
    axis = (0.0, 0.0, 1.0 + excess)
    for s in (1, -1):
        Projector(bloch_projector(s, axis))  # Hermitian and idempotent
    eprb(*_eprb_axes(axis))
    assert not eprb_grid([np.array([a]) for a in _eprb_axes(axis)]).invalid.any()


@pytest.mark.parametrize("excess", [1.5e-10, 6e-10, -6e-10])
def test_an_axis_further_from_unit_length_is_not_a_unit_vector(excess):
    axis = (0.0, 0.0, 1.0 + excess)
    with pytest.raises(ValidationError, match="axis must be a unit vector"):
        bloch_projector(1, axis)
    with pytest.raises(ValidationError, match="axis a1 must be a unit vector"):
        eprb(*_eprb_axes(axis))
    assert eprb_grid([np.array([a]) for a in _eprb_axes(axis)]).invalid.all()


def test_build_scenario_dispatch_and_validation():
    assert build_scenario("three_box").name == "three_box"
    assert build_scenario("eprb", {"theta4": 0.5}).parameters["theta4"] == 0.5
    with pytest.raises(ValidationError):
        build_scenario("unknown_scenario")
    with pytest.raises(ValidationError):
        build_scenario("eprb", {"bogus": 1.0})
    with pytest.raises(ValidationError):
        build_scenario("griffiths_spin", {"x": 1.0})


def test_expected_values_carry_provenance_tags():
    for name in ("griffiths_spin", "eprb", "three_box", "leggett_garg"):
        desc = build_scenario(name)
        assert desc.expected, name
        for entry in desc.expected.values():
            assert entry.tag in ("published", "derived", "trivial")
