import itertools

import numpy as np
import pytest

from histories_lab.classicality import DEFAULT_ZERO_COVER_THRESHOLD, classify, detect_zero_cover
from histories_lab.histories import (
    HistorySchedule,
    Slot,
    decoherence_functional,
    history_set,
    quasi_probabilities,
)
from histories_lab.operators import DensityOperator, Projector, ket, projector_onto

from conftest import random_history_set

H2 = np.zeros((2, 2))
UP = np.array([1.0, 0.0])
PLUS = ket([1.0, 1.0])
Z_DECOMP = (Projector(projector_onto(UP)), Projector(projector_onto([0.0, 1.0])))
X_DECOMP = (Projector(projector_onto(PLUS)), Projector(projector_onto(ket([1.0, -1.0]))))


def griffiths(slots):
    return history_set(HistorySchedule(tuple(slots), H2),
                       DensityOperator.pure(UP), DensityOperator.pure(PLUS))


def three_box_fine():
    basis = np.eye(3)
    projs = tuple(Projector(projector_onto(basis[i])) for i in range(3))
    return history_set(HistorySchedule((Slot(0.0, projs, ("1", "2", "3")),), np.zeros((3, 3))),
                       DensityOperator.pure(ket([1, 1, 1])),
                       DensityOperator.pure(ket([1, 1, -1])))


def test_griffiths_z_set_is_decoherent():
    report = classify(griffiths([Slot(0.0, Z_DECOMP, (1, -1))]))
    assert report.decoherent and report.consistent
    assert report.partially_decoherent and report.linearly_positive


def test_griffiths_combined_set_is_not_consistent():
    report = classify(griffiths([Slot(0.0, X_DECOMP, (1, -1)), Slot(1.0, Z_DECOMP, (1, -1))]))
    assert not report.consistent
    assert report.max_offdiag_re > 0.2


def test_single_time_decomposition_is_decoherent():
    rng = np.random.default_rng(21)
    from conftest import random_decomposition, random_density

    decomposition = random_decomposition(rng, 4)
    schedule = HistorySchedule((Slot(0.0, decomposition, tuple(range(len(decomposition)))),),
                               np.zeros((4, 4)))
    assert classify(history_set(schedule, random_density(rng, 4))).decoherent


def test_hierarchy_never_inverts_on_random_sets():
    rng = np.random.default_rng(22)
    for _ in range(100):
        r = classify(random_history_set(rng))
        assert (not r.decoherent) or r.consistent
        assert (not r.consistent) or r.partially_decoherent
        assert (not r.partially_decoherent) or r.linearly_positive


def test_cached_values_cannot_be_changed():
    # D and the quasi-probabilities are computed once per set and shared by
    # every consumer, so no caller may be able to alter them
    rng = np.random.default_rng(24)
    for post in (False, True):
        hset = random_history_set(rng, slots=2, post_selected=post)
        d = decoherence_functional(hset)
        assert decoherence_functional(hset) is d
        assert not d.entries.flags.writeable
        with pytest.raises(ValueError):
            d.entries[0, 0] = 5.0
        before = classify(hset)
        quasi = quasi_probabilities(hset)
        for label in quasi:
            quasi[label] = -7.0
        assert quasi_probabilities(hset) != quasi
        assert classify(hset) == before


def test_classify_monotone_in_tolerance():
    rng = np.random.default_rng(23)
    flags = ("decoherent", "consistent", "partially_decoherent", "linearly_positive")
    for _ in range(30):
        hset = random_history_set(rng)
        previous = None
        for tol in (1e-12, 1e-8, 1e-4, 1e-1, 10.0):
            report = classify(hset, tol)
            current = {f: getattr(report, f) for f in flags}
            if previous is not None:
                for f in flags:
                    assert not (previous[f] and not current[f])
            previous = current


def test_combined_eprb_set_linearly_positive_but_inconsistent_exists():
    # search the planar-angle family for a combined four-spin set whose
    # quasi-probabilities are all non-negative while interference persists
    import math
    from histories_lab.scenarios import eprb_planar

    found = False
    for theta4 in np.linspace(math.pi / 2 - 0.4, math.pi / 2 + 0.4, 9):
        desc = eprb_planar(0.0, math.pi / 2, 0.0, float(theta4))
        report = classify(desc.build("combined"))
        if report.linearly_positive and not report.consistent:
            found = True
            break
    assert found


def test_zero_cover_three_box_witness():
    report = detect_zero_cover(three_box_fine())
    assert report.evaluated and report.found and not report.preclusive
    assert report.witness == (("2",), ("3",))


def test_zero_cover_griffiths_z_is_preclusive():
    report = detect_zero_cover(griffiths([Slot(0.0, Z_DECOMP, (1, -1))]))
    assert report.evaluated and not report.found and report.preclusive


def test_zero_cover_uniform_born_is_preclusive():
    rho = DensityOperator.maximally_mixed(2)
    hset = history_set(HistorySchedule((Slot(0.0, Z_DECOMP, (1, -1)),), H2), rho)
    report = detect_zero_cover(hset)
    assert report.preclusive


def test_zero_cover_threshold_zero_on_exactly_consistent_set():
    # additivity: union measure equals the member sum, so no cover can exist
    rho = DensityOperator.maximally_mixed(2)
    hset = history_set(HistorySchedule((Slot(0.0, X_DECOMP, (1, -1)),), H2), rho)
    report = detect_zero_cover(hset)
    assert report.preclusive and not report.found


def test_zero_cover_not_evaluated_when_too_large():
    dim = 13  # 13 histories exceeds the automatic enumeration limit of 12
    basis = np.eye(dim)
    projs = tuple(Projector(projector_onto(basis[i])) for i in range(dim))
    hset = history_set(
        HistorySchedule((Slot(0.0, projs, tuple(range(dim))),), np.zeros((dim, dim))),
        DensityOperator.maximally_mixed(dim))
    report = detect_zero_cover(hset)
    assert not report.evaluated
    assert not report.found and not report.preclusive


def _zero_cover_one_subset_at_a_time(hset):
    """Reference search: every subset's sub-matrix summed on its own."""
    d = decoherence_functional(hset)
    n, threshold = len(d.labels), DEFAULT_ZERO_COVER_THRESHOLD
    measures = d.diagonal()
    for size in range(2, n + 1):
        keys = [(tuple(i for i in range(n) if i not in subset), subset)
                for subset in itertools.combinations(range(n), size)
                if all(measures[i] > threshold for i in subset)
                and d.entries[np.ix_(subset, subset)].sum().real <= threshold]
        if keys:
            return tuple(d.labels[i] for i in min(keys)[1])
    return None


def _post_selected_zero_set(rng, dim, zero_subsets):
    """One slot of rank-1 projectors in a random basis, post-selected on a state
    orthogonal to (sum of P_k over S)|psi> for each S in ``zero_subsets``: those
    unions have measure zero, and a one-member S is a history of measure zero.
    None when the post-selection weight comes out too small."""
    basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    projs = tuple(Projector(projector_onto(basis[:, k])) for k in range(dim))
    psi = ket(rng.normal(size=dim) + 1j * rng.normal(size=dim))
    f = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    if zero_subsets:
        q, _ = np.linalg.qr(np.stack([sum(projs[k].matrix for k in s) @ psi for s in zero_subsets],
                                     axis=1))
        f -= q @ (q.conj().T @ f)
    if abs(np.vdot(f, psi)) < 1e-3:
        return None
    return history_set(HistorySchedule((Slot(0.0, projs, tuple(range(dim))),), np.zeros((dim, dim))),
                       DensityOperator.pure(psi), DensityOperator.pure(f))


def _check_against_one_subset_at_a_time(hset) -> tuple[int, bool]:
    """The witness size of ``detect_zero_cover`` (0 for none), after checking it
    against the reference search, and whether another subset of that size ties."""
    report = detect_zero_cover(hset)
    expected = _zero_cover_one_subset_at_a_time(hset)
    assert report.witness == expected
    assert report.found == (expected is not None) == (not report.preclusive)
    if not report.found:
        return 0, False
    d = decoherence_functional(hset)
    live = d.diagonal() > DEFAULT_ZERO_COVER_THRESHOLD
    size = len(report.witness)
    ties = sum(live[list(subset)].all()
               and d.entries[np.ix_(subset, subset)].sum().real <= DEFAULT_ZERO_COVER_THRESHOLD
               for subset in itertools.combinations(range(len(d.labels)), size)) > 1
    return size, ties


def test_zero_cover_matches_the_one_subset_at_a_time_search():
    # post-select on a state orthogonal to (sum of P_k over S)|psi> for one or
    # two subsets S of one size: those unions have measure zero, like
    # three_box's {2, 3}, and two of them exercise the tie-break
    rng = np.random.default_rng(41)
    found = ties = 0
    for _ in range(80):
        dim = int(rng.integers(3, 8))
        size = int(rng.integers(2, dim))
        hset = _post_selected_zero_set(rng, dim, [rng.choice(dim, size=size, replace=False)
                                                  for _ in range(int(rng.integers(1, 3)))])
        if hset is None:
            continue
        witness_size, tie = _check_against_one_subset_at_a_time(hset)
        found += witness_size > 0
        ties += tie
    assert found > 60 and ties > 20

    # 8 to 12 histories, up to the enumeration limit: covers found at size 2
    # and at larger sizes, ties, no cover, and histories of measure zero,
    # whose unions with each other have measure zero too but are no cover
    sizes, ties, dead = [], 0, 0
    for case in range(60):
        dim = int(rng.integers(8, 13))
        kind = case % 5
        if kind == 0:  # no cover
            zero = []
        elif kind == 4:  # two to four dead histories, and sometimes a cover among the others
            members = rng.permutation(dim)
            count = int(rng.integers(2, 5))
            zero = [[k] for k in members[:count]]
            if rng.integers(2):
                zero.append(members[count:count + int(rng.integers(2, 5))])
        else:  # one or two covers of size 2, or of a larger size
            size = 2 if kind == 1 else int(rng.integers(3, 7))
            zero = [rng.choice(dim, size=size, replace=False) for _ in range(1 + (kind == 3))]
        hset = _post_selected_zero_set(rng, dim, zero)
        if hset is None:
            continue
        witness_size, tie = _check_against_one_subset_at_a_time(hset)
        sizes.append(witness_size)
        ties += tie
        dead += kind == 4
    assert sizes.count(0) >= 12 and sizes.count(2) >= 10 and sum(s > 2 for s in sizes) >= 15
    assert ties >= 5 and dead >= 10
