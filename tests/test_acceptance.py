"""Acceptance criteria, one test per criterion.

Each criterion runs at its stated tolerance, is timed against its runtime
budget (after a one-off kernel warm-up), and prints one pass/fail line; run
with ``pytest tests/test_acceptance.py -s -v`` to see the lines as they go.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from histories_lab.classicality import classify, detect_zero_cover
from histories_lab.cli import main
from histories_lab.histories import (
    decoherence_functional,
    history_probabilities,
    negation_interference,
    quasi_probabilities,
)
from histories_lab.operators import max_abs
from histories_lab.scenarios import build_scenario, eprb, eprb_planar, leggett_garg, three_box
from histories_lab.simplex import verify_certificate
from histories_lab.unify import (
    build_constraint_system,
    correlations_from_marginals,
    cycle_check,
    extract_marginals,
    find_unifying_probability,
    pair_correlation,
    probe_uniqueness,
)

from conftest import product_history_set, random_history_set

SEED = 20260810


@contextmanager
def criterion(number, budget_seconds, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL ({time.perf_counter() - start:.2f}s) {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, \
        f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
    print(f"[criterion {number}] PASS ({elapsed:.2f}s) {description}")


def _marginals(descriptor, names, exact=False):
    tables = []
    for name in names:
        table = extract_marginals(descriptor.build(name), descriptor.set_named(name).mapping)
        tables.append(table.as_exact() if exact else table)
    return tables


def test_criterion_1_griffiths_spin():
    with criterion(1, 1.0, "griffiths spin: one-direction sets certain, combined "
                           "set inconsistent, unifier puts all mass on (+x, up)"):
        desc = build_scenario("griffiths_spin")
        for name in ("z", "x"):
            report = classify(desc.build(name))
            assert report.consistent
            probs = history_probabilities(desc.build(name))
            assert abs(probs[(1,)] - 1.0) <= 1e-12
            assert abs(probs[(-1,)]) <= 1e-12
        assert not classify(desc.build("zx")).consistent

        tables = _marginals(desc, ("x", "z"))
        verdict = find_unifying_probability(desc.space, tables)
        assert verdict.feasible
        assert abs(float(verdict.witness[(1, 1)]) - 1.0) <= 2e-9
        exact = find_unifying_probability(desc.space, [t.as_exact() for t in tables], exact=True)
        assert exact.feasible and exact.witness[(1, 1)] == Fraction(1)


def test_criterion_2_three_box():
    with criterion(2, 1.0, "three-box: contrary certainties, zero cover on the fine "
                           "set, unification infeasible with verified certificate"):
        desc = three_box()
        assert abs(history_probabilities(desc.build("box1"))[("1",)] - 1.0) <= 1e-12
        assert abs(history_probabilities(desc.build("box2"))[("2",)] - 1.0) <= 1e-12

        cover = detect_zero_cover(desc.build("fine"))
        assert cover.found and cover.witness == (("2",), ("3",))

        tables = _marginals(desc, ("box1", "box2"), exact=True)
        verdict = find_unifying_probability(desc.space, tables, exact=True)
        assert verdict.status == "infeasible"
        system = build_constraint_system(desc.space, tables, exact=True)
        assert verify_certificate(system.matrix, system.rhs, verdict.farkas_certificate)


def test_criterion_3_eprb_zx_unifier():
    with criterion(3, 5.0, "EPRB z/x: unifier feasible, witness is the closed-form "
                           "product table, and it is unique"):
        desc = eprb_planar()  # defaults are the z/x configuration
        names = ("pair_13", "pair_14", "pair_23", "pair_24")
        tables = _marginals(desc, names)

        closed_form = {cell: (1 - cell[0] * cell[2]) * (1 - cell[1] * cell[3]) / 16
                       for cell in desc.space.cells()}
        float_verdict = probe_uniqueness(desc.space, tables)
        assert float_verdict.feasible and float_verdict.unique
        for cell, value in float_verdict.witness.items():
            assert abs(float(value) - closed_form[cell]) <= 1e-9

        exact_tables = [t.as_exact() for t in tables]
        exact_verdict = probe_uniqueness(desc.space, exact_tables, exact=True)
        assert exact_verdict.feasible and exact_verdict.unique
        for cell, value in exact_verdict.witness.items():
            assert value == Fraction((1 - cell[0] * cell[2]) * (1 - cell[1] * cell[3]), 16)


def test_criterion_4_eprb_tsirelson():
    with criterion(4, 5.0, "EPRB Tsirelson angles: max CHSH combination 2*sqrt(2), "
                           "inequalities violated, LP infeasible"):
        desc = eprb_planar(0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)
        names = ("pair_13", "pair_14", "pair_23", "pair_24")
        tables = _marginals(desc, names)
        check = cycle_check(correlations_from_marginals(tables))
        assert abs(check.max_value - 2 * math.sqrt(2)) <= 1e-9
        assert not check.satisfied
        verdict = find_unifying_probability(desc.space, tables)
        assert verdict.status == "infeasible"


def test_criterion_5_leggett_garg():
    with criterion(5, 10.0, "Leggett-Garg: two-time correlator cos(omega tau) on a "
                            "50-point grid; violation at pi/3 spacing, feasible at pi/2"):
        t1, t2, t3 = 0.0, 1.3, 2.9
        for omega in np.linspace(0.05, 3.1, 50):
            desc = leggett_garg(float(omega), t1, t2, t3)
            table = extract_marginals(desc.build("pair_12"), desc.set_named("pair_12").mapping)
            assert abs(pair_correlation(table) - math.cos(omega * (t2 - t1))) <= 1e-12

        violated = leggett_garg(math.pi / 3, 0.0, 1.0, 2.0)
        tables = _marginals(violated, ("pair_12", "pair_23", "pair_13"))
        check = cycle_check(correlations_from_marginals(tables))
        assert abs(check.max_value - 1.5) <= 1e-12
        assert abs(check.slack + 0.5) <= 1e-12
        assert not check.satisfied
        assert find_unifying_probability(violated.space, tables).status == "infeasible"

        boundary = leggett_garg(math.pi / 2, 0.0, 1.0, 2.0)
        tables = _marginals(boundary, ("pair_12", "pair_23", "pair_13"))
        assert find_unifying_probability(boundary.space, tables).feasible


def test_criterion_6_fine_theorem_equivalence():
    with criterion(6, 60.0, "Fine's theorem: LP feasibility matches the 3-cycle (Leggett-Garg) "
                            "inequalities on 500 random three-time instances and the 4-cycle "
                            "(CHSH) ones on 500 random axis quadruples (boundary cases skipped)"):
        rng = np.random.default_rng(SEED)

        checked = 0
        for _ in range(500):
            omega = float(rng.uniform(0.1, 6.0))
            times = np.sort(rng.uniform(0.0, 5.0, size=3))
            while np.min(np.diff(times)) < 1e-3:
                times = np.sort(rng.uniform(0.0, 5.0, size=3))
            desc = leggett_garg(omega, *map(float, times))
            tables = _marginals(desc, ("pair_12", "pair_23", "pair_13"))
            check = cycle_check(correlations_from_marginals(tables))
            if abs(check.slack) < 1e-8:
                continue
            verdict = find_unifying_probability(desc.space, tables)
            assert verdict.feasible == check.satisfied, (omega, times, check.slack)
            checked += 1
        assert checked >= 450

        checked = 0
        for _ in range(500):
            axes = rng.normal(size=(4, 3))
            axes /= np.linalg.norm(axes, axis=1)[:, None]
            desc = eprb(*map(tuple, axes))
            tables = _marginals(desc, ("pair_13", "pair_14", "pair_23", "pair_24"))
            check = cycle_check(correlations_from_marginals(tables))
            if abs(2.0 - check.max_value) < 1e-8:
                continue
            verdict = find_unifying_probability(desc.space, tables)
            assert verdict.feasible == check.satisfied, (axes, check.max_value)
            checked += 1
        assert checked >= 450


def test_criterion_7_structural_invariants():
    with criterion(7, 60.0, "structural invariants on 1000 random history sets "
                            "(dims 2-4) plus 150 composite product systems"):
        rng = np.random.default_rng(SEED + 1)
        for _ in range(1000):
            hset = random_history_set(rng)
            total = sum(c.matrix for c in hset.class_operators)
            assert max_abs(total - np.eye(hset.dim)) <= 1e-10

            functional = decoherence_functional(hset)
            np.testing.assert_array_equal(functional.entries, functional.entries.conj().T)
            assert abs(functional.total() - 1.0) <= 1e-10

            probs = dict(zip(functional.labels, functional.diagonal()))
            quasi = quasi_probabilities(hset)
            for label in probs:
                gap = quasi[label] - probs[label]
                assert abs(gap - negation_interference(hset, label).real) <= 1e-10

            report = classify(hset)
            assert (not report.decoherent) or report.consistent
            assert (not report.consistent) or report.partially_decoherent
            assert (not report.partially_decoherent) or report.linearly_positive

        for _ in range(150):
            set_a, set_b, combined = product_history_set(rng)
            expected = np.kron(decoherence_functional(set_a).entries,
                               decoherence_functional(set_b).entries)
            assert max_abs(decoherence_functional(combined).entries - expected) <= 1e-10


def test_criterion_8_determinism(tmp_path):
    with criterion(8, 120.0, "determinism: consecutive analyze runs are byte-identical "
                             "for every scenario"):
        for name in ("griffiths_spin", "eprb", "three_box", "leggett_garg"):
            first = tmp_path / f"{name}_1.json"
            second = tmp_path / f"{name}_2.json"
            assert main(["analyze", "--scenario", name, "--out", str(first)]) == 0
            assert main(["analyze", "--scenario", name, "--out", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes(), name
