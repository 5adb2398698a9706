"""Randomized structural invariants, seeded for reproducibility.

Smaller sweeps of the same properties the acceptance suite runs at full
scale: class-operator completeness, decoherence-functional structure, the
interference-with-negation identity, the classicality hierarchy, composite
factorization, and witness/certificate validity of the unifier LP.
"""

import functools
import itertools

import numpy as np

from histories_lab.classicality import classify
from histories_lab.histories import (
    decoherence_functional,
    history_probabilities,
    negation_interference,
    quasi_probabilities,
)
from histories_lab.operators import max_abs
from histories_lab.unify import (
    JointSampleSpace,
    MarginalTable,
    Variable,
    band_test,
    build_constraint_system,
    find_unifying_probability,
    verify_witness,
)

from conftest import product_history_set, random_history_set


def test_class_operators_sum_to_identity_randomized():
    rng = np.random.default_rng(101)
    for _ in range(100):
        hset = random_history_set(rng)
        total = sum(hset.class_operators)
        assert max_abs(total - np.eye(hset.dim)) < 1e-10


def test_homogeneous_normalization_identity():
    # sum_x C_x^dag C_x = 1 for homogeneous builds
    rng = np.random.default_rng(102)
    for _ in range(100):
        hset = random_history_set(rng)
        total = sum(c.conj().T @ c for c in hset.class_operators)
        assert max_abs(total - np.eye(hset.dim)) < 1e-10


def test_decoherence_functional_structure_randomized():
    rng = np.random.default_rng(103)
    for _ in range(100):
        hset = random_history_set(rng)
        d = decoherence_functional(hset)
        np.testing.assert_array_equal(d.entries, d.entries.conj().T)
        assert abs(d.total() - 1.0) < 1e-10
        assert min(d.diagonal()) > -1e-10


def test_interference_identity_randomized():
    rng = np.random.default_rng(104)
    for _ in range(60):
        hset = random_history_set(rng, post_selected=bool(rng.integers(2)))
        probs = history_probabilities(hset)
        quasi = quasi_probabilities(hset)
        for label in probs:
            gap = quasi[label] - probs[label]
            assert abs(gap - negation_interference(hset, label).real) < 1e-10


def test_hierarchy_randomized():
    rng = np.random.default_rng(105)
    for _ in range(150):
        r = classify(random_history_set(rng))
        assert (not r.decoherent) or r.consistent
        assert (not r.consistent) or r.partially_decoherent
        assert (not r.partially_decoherent) or r.linearly_positive


def test_composite_factorization_randomized():
    rng = np.random.default_rng(106)
    for _ in range(40):
        set_a, set_b, combined = product_history_set(rng)
        da = decoherence_functional(set_a)
        db = decoherence_functional(set_b)
        dab = decoherence_functional(combined)
        expected = np.kron(da.entries, db.entries)
        assert max_abs(dab.entries - expected) < 1e-10


def test_witness_and_certificate_validity_randomized():
    # random marginal systems over 2-4 dichotomic variables; every feasible
    # verdict must carry a valid witness, every infeasible one a certificate
    rng = np.random.default_rng(107)
    feasible = infeasible = 0
    for _ in range(120):
        n_vars = int(rng.integers(2, 5))
        variables = [Variable(f"v{k}", (0, 1)) for k in range(n_vars)]
        space = JointSampleSpace(tuple(variables))
        tables = []
        for _ in range(int(rng.integers(1, 4))):
            size = int(rng.integers(1, min(n_vars, 2) + 1))
            chosen = sorted(rng.choice(n_vars, size=size, replace=False))
            vs = tuple(variables[k] for k in chosen)
            raw = rng.uniform(size=2 ** size)
            raw /= raw.sum()
            keys = list(np.ndindex(*(2,) * size))
            tables.append(MarginalTable(vs, {tuple(key): float(p) for key, p in zip(keys, raw)}))
        verdict = find_unifying_probability(space, tables)
        if verdict.feasible:
            feasible += 1
            values = np.array([float(v) for v in verdict.witness.values()])
            assert values.min() >= -1e-12
            assert abs(values.sum() - 1.0) < 1e-8
        else:
            infeasible += 1
            system = build_constraint_system(space, tables)
            assert band_test(system.matrix, verdict.farkas_certificate, verdict.delta)(system.rhs)
    # random marginals over shared variables should produce both outcomes
    assert feasible > 10 and infeasible > 10


def test_product_of_independent_tables_accepted_by_unifier():
    rng = np.random.default_rng(108)
    for _ in range(20):
        variables = [Variable(f"v{k}", (0, 1)) for k in range(3)]
        marginals = [np.array([p, 1.0 - p]) for p in rng.uniform(0.05, 0.95, len(variables))]
        tables = [MarginalTable((v,), {(0,): p0, (1,): p1}) for v, (p0, p1) in zip(variables, marginals)]
        space = JointSampleSpace(tuple(variables))
        verdict = find_unifying_probability(space, tables)
        assert verdict.feasible
        # the product joint itself passes the witness validator; outcome k is index k
        product = functools.reduce(np.multiply.outer, marginals)
        witness = {cell: float(product[cell]) for cell in itertools.product((0, 1), repeat=3)}
        verify_witness(space, tables, witness)
