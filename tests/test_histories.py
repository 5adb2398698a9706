import itertools

import numpy as np
import pytest

from histories_lab import scenarios
from histories_lab.errors import (
    DegeneratePostSelectionError,
    HistoryCountError,
    ValidationError,
)
from histories_lab.histories import (
    HistorySchedule,
    HistorySet,
    Slot,
    build_class_operators,
    decoherence_functional,
    history_probabilities,
    history_set,
    negation_interference,
    quasi_probabilities,
)
from histories_lab.operators import (
    DensityOperator,
    PAULI_Z,
    Projector,
    heisenberg_projector,
    ket,
    max_abs,
    projector_onto,
)

from conftest import random_decomposition, random_hermitian, random_history_set

H2 = np.zeros((2, 2))
UP = np.array([1.0, 0.0])
DOWN = np.array([0.0, 1.0])
PLUS = ket([1.0, 1.0])
MINUS = ket([1.0, -1.0])

Z_DECOMP = (Projector(projector_onto(UP)), Projector(projector_onto(DOWN)))
X_DECOMP = (Projector(projector_onto(PLUS)), Projector(projector_onto(MINUS)))


def spin_set(slots, initial=UP, final=PLUS):
    schedule = HistorySchedule(tuple(slots), H2)
    fin = DensityOperator.pure(final) if final is not None else None
    return history_set(schedule, DensityOperator.pure(initial), fin)


def test_single_slot_class_operators_are_the_projectors():
    schedule = HistorySchedule((Slot(0.0, Z_DECOMP, (1, -1)),), H2)
    ops = build_class_operators(schedule)
    assert schedule.labels == ((1,), (-1,))
    np.testing.assert_array_equal(ops[0], Z_DECOMP[0].matrix)


def test_two_slot_ordering_latest_projector_leftmost():
    # x projected first, z second: C = P_z P_x
    schedule = HistorySchedule((Slot(0.0, X_DECOMP, (1, -1)), Slot(1.0, Z_DECOMP, (1, -1))), H2)
    ops = dict(zip(schedule.labels, build_class_operators(schedule)))
    expected = Z_DECOMP[0].matrix @ X_DECOMP[1].matrix
    np.testing.assert_allclose(ops[(-1, 1)], expected, atol=1e-15)


def test_class_operators_sum_to_identity():
    schedule = HistorySchedule((Slot(0.0, X_DECOMP, (1, -1)), Slot(1.0, Z_DECOMP, (1, -1))), H2)
    total = sum(build_class_operators(schedule))
    assert max_abs(total - np.eye(2)) < 1e-12


def test_history_cap():
    slots = tuple(Slot(float(t), Z_DECOMP, (1, -1)) for t in range(13))
    schedule = HistorySchedule(slots, H2)
    with pytest.raises(HistoryCountError):
        build_class_operators(schedule)  # 2^13 > 4096


def test_build_class_operators_checks_the_cap_before_any_product(monkeypatch):
    schedule = HistorySchedule(tuple(Slot(float(t), Z_DECOMP, (1, -1)) for t in range(13)), H2)
    built = []  # every class-operator product goes through these two helpers
    for helper in ("heisenberg_stack", "extend_prefix"):
        monkeypatch.setattr(scenarios, helper, lambda *args, helper=helper: built.append(helper))
    monkeypatch.setattr(np.linalg, "eigh", lambda m: built.append("eigh"))
    with pytest.raises(HistoryCountError, match="schedule yields 8192 histories, cap is 4096"):
        build_class_operators(schedule)
    assert built == []


def test_schedule_rejects_unordered_times():
    with pytest.raises(ValidationError):
        HistorySchedule((Slot(1.0, Z_DECOMP, (1, -1)), Slot(1.0, X_DECOMP, (1, -1))), H2)


def test_schedule_rejects_bad_decomposition():
    skew = (Projector(0.5 * (np.eye(2) + PAULI_Z)),)
    with pytest.raises(ValidationError):
        Slot(0.0, skew, (1,))
    with pytest.raises(ValidationError):
        HistorySchedule((Slot(0.0, skew, (1,)),), H2)


def test_class_operators_match_heisenberg_products():
    # three slots: the prefix-product construction equals the plain product
    # of Heisenberg projectors, latest time on the left, bit for bit
    rng = np.random.default_rng(31)
    for _ in range(40):
        dim = int(rng.integers(2, 5))
        h = random_hermitian(rng, dim)
        slots = []
        for t in np.sort(rng.uniform(0.0, 3.0, size=3)):
            decomposition = random_decomposition(rng, dim)
            slots.append(Slot(float(t), decomposition, tuple(range(len(decomposition)))))
        schedule = HistorySchedule(tuple(slots), h)
        ops = build_class_operators(schedule)
        assert list(schedule.labels) == list(itertools.product(*(s.symbols for s in slots)))
        for label, c in zip(schedule.labels, ops):
            product = None
            for slot, i in zip(slots, label):
                moved = heisenberg_projector(slot.projectors[i], h, slot.time).matrix
                product = moved if product is None else moved @ product
            assert np.array_equal(c, product)


def test_one_eigendecomposition_per_schedule(monkeypatch):
    rng = np.random.default_rng(5)
    h = random_hermitian(rng, 3)
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(m):
        calls.append(m)
        return eigh(m)

    slots = []
    for t in (0.5, 1.0, 2.0):
        decomposition = random_decomposition(rng, 3)
        slots.append(Slot(t, decomposition, tuple(range(len(decomposition)))))
    schedule = HistorySchedule(tuple(slots), h)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    build_class_operators(schedule)
    build_class_operators(schedule)
    assert len(calls) == 1


def test_post_selected_probabilities_griffiths():
    zset = spin_set([Slot(0.0, Z_DECOMP, (1, -1))])
    probs = history_probabilities(zset)
    assert abs(probs[(1,)] - 1.0) < 1e-12
    assert abs(probs[(-1,)]) < 1e-12
    xset = spin_set([Slot(0.0, X_DECOMP, (1, -1))])
    probs = history_probabilities(xset)
    assert abs(probs[(1,)] - 1.0) < 1e-12


def test_degenerate_post_selection_rejected():
    with pytest.raises(DegeneratePostSelectionError):
        spin_set([Slot(0.0, Z_DECOMP, (1, -1))], initial=UP, final=DOWN)


def test_decoherence_functional_griffiths_z_diagonal():
    zset = spin_set([Slot(0.0, Z_DECOMP, (1, -1))])
    d = decoherence_functional(zset)
    np.testing.assert_allclose(d.diagonal(), [1.0, 0.0], atol=1e-12)
    assert zset.classicality_diagnostics[0] < 1e-12  # max off-diagonal |D|


def test_single_decomposition_gives_born_diagonal():
    rng = np.random.default_rng(7)
    from conftest import random_decomposition, random_density

    rho = random_density(rng, 3)
    decomposition = random_decomposition(rng, 3, blocks=3)
    schedule = HistorySchedule((Slot(0.0, decomposition, (0, 1, 2)),), np.zeros((3, 3)))
    hset = history_set(schedule, rho)
    d = decoherence_functional(hset)
    assert hset.classicality_diagnostics[0] < 1e-12  # max off-diagonal |D|
    born = [np.trace(p.matrix @ rho.matrix).real for p in decomposition]
    np.testing.assert_allclose(d.diagonal(), born, atol=1e-12)
    assert abs(sum(d.diagonal()) - 1.0) < 1e-12


def test_decoherence_functional_hermitian_exactly():
    rng = np.random.default_rng(8)
    for _ in range(10):
        d = decoherence_functional(random_history_set(rng))
        np.testing.assert_array_equal(d.entries, d.entries.conj().T)


def test_decoherence_functional_total_is_one_without_final_state():
    rng = np.random.default_rng(9)
    for _ in range(10):
        d = decoherence_functional(random_history_set(rng))
        assert abs(d.total() - 1.0) < 1e-10


def test_eprb_functional_vanishes_when_late_outcomes_differ():
    # labels (s1, s3, s2, s4); entries with s2 != s2' or s4 != s4' vanish
    eye = np.eye(2, dtype=complex)
    from histories_lab.operators import bloch_projector

    def slot_a(axis, t):
        return Slot(t, tuple(Projector(np.kron(bloch_projector(s, axis), eye)) for s in (1, -1)), (1, -1))

    def slot_b(axis, t):
        return Slot(t, tuple(Projector(np.kron(eye, bloch_projector(s, axis))) for s in (1, -1)), (1, -1))

    z, x = (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)
    schedule = HistorySchedule(
        (slot_a(z, 0.0), slot_b(z, 1.0), slot_a(x, 2.0), slot_b(x, 3.0)), np.zeros((4, 4)))
    singlet = DensityOperator.pure(ket([0.0, 1.0, -1.0, 0.0]))
    d = decoherence_functional(history_set(schedule, singlet))
    for i, li in enumerate(d.labels):
        for j, lj in enumerate(d.labels):
            if li[2] != lj[2] or li[3] != lj[3]:
                assert abs(d.entries[i, j]) < 1e-12


def test_quasi_probability_matches_probability_on_consistent_set():
    zset = spin_set([Slot(0.0, Z_DECOMP, (1, -1))])
    probs = history_probabilities(zset)
    quasi = quasi_probabilities(zset)
    for label in probs:
        assert abs(probs[label] - quasi[label]) < 1e-12


def test_quasi_probabilities_sum_to_one():
    rng = np.random.default_rng(10)
    for post in (False, True):
        hset = random_history_set(rng, post_selected=post)
        assert abs(sum(quasi_probabilities(hset).values()) - 1.0) < 1e-10


def test_three_box_quasi_probability_has_negative_entry():
    basis = np.eye(3)
    projs = tuple(Projector(projector_onto(basis[i])) for i in range(3))
    schedule = HistorySchedule((Slot(0.0, projs, ("1", "2", "3")),), np.zeros((3, 3)))
    hset = history_set(schedule, DensityOperator.pure(ket([1, 1, 1])),
                       DensityOperator.pure(ket([1, 1, -1])))
    quasi = quasi_probabilities(hset)
    assert abs(quasi[("1",)] - 1.0) < 1e-12
    assert abs(quasi[("2",)] - 1.0) < 1e-12
    assert abs(quasi[("3",)] + 1.0) < 1e-12


def test_interference_with_negation_identity():
    # q - p = Re D(x, not-x), with and without a final state
    rng = np.random.default_rng(11)
    for post in (False, True):
        hset = random_history_set(rng, post_selected=post)
        probs = history_probabilities(hset)
        quasi = quasi_probabilities(hset)
        for label in probs:
            gap = quasi[label] - probs[label]
            assert abs(gap - negation_interference(hset, label).real) < 1e-10


def test_post_selection_weight_is_computed_once(monkeypatch):
    rng = np.random.default_rng(17)
    for _ in range(30):
        hset = random_history_set(rng, slots=int(rng.integers(1, 4)), post_selected=True)
        final, rho = hset.final.matrix, hset.initial.matrix
        weight = float(np.trace(final @ rho).real)
        assert hset.post_selection_weight() == weight
        ops = hset.class_operators
        flat_left = (final @ ops @ rho).reshape(len(ops), -1)
        entries = (flat_left @ ops.reshape(len(ops), -1).conj().T) / weight
        entries = (entries + entries.conj().T) / 2
        assert decoherence_functional(hset).entries.tobytes() == entries.tobytes()

        traced = []
        trace = np.trace

        def counting_trace(m, *args, **kwargs):
            traced.append(m)
            return trace(m, *args, **kwargs)

        monkeypatch.setattr(np, "trace", counting_trace)
        quasi = quasi_probabilities(hset)
        monkeypatch.undo()
        # one trace of the stacked products, none for the weight
        assert [m.shape[:2] for m in traced] == [(1, len(hset.labels))]
        for label, c in zip(hset.labels, hset.class_operators):
            expected = float((complex(np.trace(final @ (c @ rho))) / weight).real)
            assert quasi[label] == expected


def test_history_probability_unknown_label():
    # an unknown history label is rejected, with and without a final state
    zset = spin_set([Slot(0.0, Z_DECOMP, (1, -1))])
    rng = np.random.default_rng(11)
    for hset in (zset, random_history_set(rng, post_selected=False)):
        with pytest.raises(ValidationError):
            negation_interference(hset, ("nope",))


def test_history_set_requires_sum_to_identity():
    ops = build_class_operators(HistorySchedule((Slot(0.0, Z_DECOMP, (1, -1)),), H2))
    with pytest.raises(ValidationError):
        HistorySet(((1,),), ops[:1], DensityOperator.pure(UP))


def test_slot_rejects_unhashable_symbols():
    with pytest.raises(ValidationError, match="slot symbols must be hashable"):
        Slot(0.0, Z_DECOMP, ([1], [2]))


def test_history_set_rejects_malformed_labels():
    ops = build_class_operators(HistorySchedule((Slot(0.0, Z_DECOMP, (1, -1)),), H2))
    up = DensityOperator.pure(UP)
    with pytest.raises(ValidationError, match="must be a tuple"):
        HistorySet((1, -1), ops, up)
    with pytest.raises(ValidationError, match="must be hashable"):
        HistorySet(((1,), ([2],)), ops, up)
    with pytest.raises(ValidationError, match="must be distinct"):
        HistorySet(((1,), (1,)), ops, up)
    HistorySet(((1,), (-1,)), ops, up)


def test_history_set_rejects_a_stack_of_the_wrong_shape_or_count():
    ops = build_class_operators(HistorySchedule((Slot(0.0, Z_DECOMP, (1, -1)),), H2))
    up = DensityOperator.pure(UP)
    labels = ((1,), (-1,))
    for bad in (ops[0], ops[:, :1], np.zeros((2, 3, 3)), list(ops) + [np.eye(3)]):
        with pytest.raises(ValidationError, match="class operators must"):
            HistorySet(labels, bad, up)
    with pytest.raises(ValidationError, match=r"must form a \(3, 2, 2\) stack"):
        HistorySet(labels + ((0,),), ops, up)  # one label too many
    with pytest.raises(ValidationError, match=r"must form a \(1, 2, 2\) stack"):
        HistorySet(labels[:1], ops, up)


def test_history_set_keeps_its_own_read_only_stack():
    schedule = HistorySchedule((Slot(0.0, Z_DECOMP, (1, -1)),), H2)
    ops = build_class_operators(schedule)
    hset = HistorySet(schedule.labels, ops, DensityOperator.pure(UP))
    ops[0, 0, 0] = 7.0
    assert hset.class_operators[0, 0, 0] == 1.0
    assert not hset.class_operators.flags.writeable
    assert not decoherence_functional(hset).entries.flags.writeable
