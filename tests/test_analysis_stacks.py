"""``analyze`` reads every set's report from its grid's stacks.

The reference is the one-set path: ``descriptor.build(name)`` gives a
checked ``HistorySet``, and ``classify``, ``detect_zero_cover`` and
``extract_marginals`` read it.  Every ``sets`` block and every marginal
table of the report must equal that path's, compared by ``repr``, on random
config documents whose sets share a shape or not.
"""

import numpy as np
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from histories_lab.analysis import _encode_marginal, _pairs, analyze, encode_value
from histories_lab.classicality import classify, detect_zero_cover
from histories_lab.config import parse_config
from histories_lab.errors import ConfigValidationError
from histories_lab.histories import decoherence_functional, quasi_probabilities
from histories_lab.operators import DEFAULT_TOL, identity_deviation
from histories_lab.unify import extract_marginals

from conftest import random_decomposition, random_hermitian


def _matrix(m) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m)]


@st.composite
def _documents(draw):
    """A config document: dim 2 to 5, one to four sets of one to three slots,
    some sets sharing one shape of slot outcome counts, an initial state
    that is maximally mixed (so one-slot sets are decoherent), pure or mixed,
    an optional final state, and a ``unify`` map of some of the sets onto
    dichotomic variables, one per slot position.  A final state may be drawn
    orthogonal to (P_0 + P_1)|psi>, P_k the first slot's projectors of the
    first set under a zero Hamiltonian: a zero cover when that set has one
    slot of three outcomes."""
    dim = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = st.lists(st.integers(2, min(dim, 3)), min_size=1, max_size=3)
    shared = draw(counts)
    shapes = draw(st.lists(st.one_of(st.just(shared), counts), min_size=1, max_size=4))
    projectors = [[[p.matrix for p in random_decomposition(rng, dim, blocks=k)] for k in shape]
                  for shape in shapes]
    sets = []
    for s, (shape, families) in enumerate(zip(shapes, projectors)):
        times = np.cumsum(rng.uniform(0.1, 1.0, size=len(shape))).tolist()
        sets.append({"name": f"set{s}", "slots": [
            {"time": t, "labels": [f"o{j}" for j in range(len(family))],
             "projectors": [_matrix(p) for p in family]} for t, family in zip(times, families)]})
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    final = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    hamiltonian = random_hermitian(rng, dim) if draw(st.booleans()) else np.zeros((dim, dim))
    kind = draw(st.sampled_from(["maximally_mixed", "pure", "mixed", "cover"]))
    if kind == "maximally_mixed":
        initial = {"matrix": _matrix(np.eye(dim) / dim)}
    elif kind == "mixed":
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = m @ m.conj().T
        initial = {"matrix": _matrix(rho / np.trace(rho).real)}
    else:
        if kind == "cover":
            hamiltonian = np.zeros((dim, dim))
            zero = (projectors[0][0][0] + projectors[0][0][1]) @ psi
            final -= zero * (np.vdot(zero, final) / np.vdot(zero, zero))
        initial = {"ket": _matrix([psi])[0]}
    doc = {"dim": dim, "initial": initial,
           "final": {"ket": _matrix([final])[0]} if kind == "cover" or draw(st.booleans()) else None,
           "hamiltonian": _matrix(hamiltonian), "sets": sets}
    mapped = [s for s in sets if draw(st.booleans())]
    if mapped:
        doc["unify"] = {
            "variables": [{"name": f"v{p}", "outcomes": [1, -1]} for p in range(max(map(len, shapes)))],
            "map": {s["name"]: [{"variable": f"v{p}",
                                 "groups": {label: [1] if j == 0 else [-1]
                                            for j, label in enumerate(slot["labels"])}}
                                for p, slot in enumerate(s["slots"])] for s in mapped}}
    return doc


def _one_set_report(descriptor, name: str) -> dict:
    """A set's ``sets`` block through the set's own checked ``HistorySet``."""
    hset = descriptor.build(name)
    functional = decoherence_functional(hset)
    probabilities = dict(zip(functional.labels, functional.diagonal()))
    cover = detect_zero_cover(hset)
    return {
        "labels": encode_value(list(functional.labels)),
        "probabilities": _pairs(probabilities),
        "probability_sum": float(sum(probabilities.values())),
        "quasi_probabilities": _pairs(quasi_probabilities(hset)),
        "classicality": dict(vars(classify(hset))),
        "zero_cover": {**vars(cover), "witness": encode_value(cover.witness)},
    }


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_documents())
def test_analyze_reports_each_set_as_its_own_history_set_does(doc):
    try:
        descriptor = parse_config(doc)
    except ConfigValidationError:  # a final state nearly orthogonal to the initial one
        reject()
    report = analyze(descriptor)

    groups = {}
    for sset in descriptor.sets:
        ops = descriptor.grid.class_operators(sset.name)
        groups.setdefault(ops.shape, []).append(ops)
    for stacks in groups.values():
        assert (identity_deviation(np.concatenate(stacks)) <= DEFAULT_TOL).all()

    tables, excluded = [], {}
    for sset in descriptor.sets:
        expected = _one_set_report(descriptor, sset.name)
        assert repr(report["sets"][sset.name]) == repr(expected)
        if sset.mapping is None:
            continue
        if expected["classicality"]["consistent"]:
            table = extract_marginals(descriptor.build(sset.name), sset.mapping)
            tables.append(_encode_marginal(sset.name, table))
        else:
            excluded[sset.name] = "inconsistent"
    assert list(report["sets"]) == [s.name for s in descriptor.sets]
    unification = report["unification"]
    if not tables:
        assert unification is None
        return
    assert repr(unification["marginals"]) == repr(tables)
    assert unification["marginal_sets"] == [t["set"] for t in tables]
    assert unification["excluded_sets"] == excluded
