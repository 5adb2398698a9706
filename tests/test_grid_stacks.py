"""A grid shares its Heisenberg stacks and label prefixes, and stacks rows, not columns.

Every set's class operators, decoherence functional and quasi-probabilities
must equal, bit for bit, the plain formulas below: one point at a time, one
matrix product per pair of matrices, nothing shared between sets.  Each
distinct slot's Heisenberg stack is built once per grid.
"""

import numpy as np
import pytest

from histories_lab import histories, scenarios
from histories_lab.histories import decoherence_stack, quasi_stack
from histories_lab.scenarios import scenario_grid, three_box


def _reference_class_operators(grid, name):
    """Per point and per matrix: C = P_n(t_n) ... P_1(t_1), each P(t) = u(t)^dag P u(t)."""
    points = []
    for g in range(len(grid.invalid)):
        w, v = np.linalg.eigh(grid.hamiltonians[min(g, len(grid.hamiltonians) - 1)])
        ops = None
        for t, p, _ in grid.slots[name]:
            time = t[min(g, len(t) - 1)]
            u = (v * np.exp(-1j * w * time)) @ v.conj().T
            moved = [u.conj().T @ projector @ u for projector in p[min(g, len(p) - 1)]]
            ops = moved if ops is None else [m @ c for c in ops for m in moved]
        points.append(ops)
    return np.array(points)


def _reference_functional(ops, rho, final, weight):
    entries = []
    for point in ops:
        left = [c @ rho if final is None else final @ c @ rho for c in point]
        flat_left = np.array(left).reshape(len(point), -1)
        flat_ops = point.reshape(len(point), -1)
        d = (flat_left @ flat_ops.conj().T) / weight
        entries.append((d + d.conj().T) / 2)
    return np.array(entries)


def _reference_quasi(ops, rho, final, weight):
    return np.array([[np.trace(c @ rho if final is None else final @ (c @ rho)).real / weight
                      for c in point] for point in ops])


def _random_grids(seed):
    rng = np.random.default_rng(seed)
    for _ in range(6):
        size = int(rng.integers(2, 12))
        names = rng.choice([f"theta{k}" for k in (1, 2, 3, 4)], size=int(rng.integers(1, 3)),
                           replace=False)
        yield scenario_grid("eprb", {str(n): rng.uniform(-np.pi, np.pi, size) for n in names})
        # ordered with each other and with the defaults t1, t2, t3 = 0, 1, 2
        params = {"omega": rng.uniform(-4.0, 4.0, size), "t1": rng.uniform(-2.0, -0.1, size),
                  "t2": rng.uniform(0.1, 1.9, size), "t3": rng.uniform(2.1, 5.0, size)}
        keep = rng.choice(sorted(params), size=int(rng.integers(1, 5)), replace=False)
        yield scenario_grid("leggett_garg", {str(k): params[k] for k in keep})


@pytest.mark.parametrize("seed", [3, 17])
def test_grid_stacks_equal_the_per_matrix_formulas_bit_for_bit(seed):
    grids = list(_random_grids(seed)) + [three_box().grid]
    for grid in grids:
        assert not grid.invalid.any()
        rho = grid.fixed.initial.matrix
        final = None if grid.fixed.final is None else grid.fixed.final.matrix
        weight = 1.0 if final is None else float(np.trace(final @ rho).real)
        for name in grid.slots:
            ops = grid.class_operators(name)
            expected = _reference_class_operators(grid, name)
            assert np.array_equal(np.broadcast_to(ops, expected.shape), expected)
            assert np.array_equal(decoherence_stack(ops, rho, final, weight),
                                  _reference_functional(ops, rho, final, weight))
            assert np.array_equal(quasi_stack(ops, rho, final, weight),
                                  _reference_quasi(ops, rho, final, weight))


@pytest.mark.parametrize("name, params, slots, extensions", (
    ("leggett_garg", {"omega": np.linspace(0.0, 3.0, 7)}, 3, 4),
    ("eprb", {"theta4": np.linspace(2.0, 2.8, 5)}, 6, 6),
))
def test_each_distinct_slot_and_prefix_is_built_once_per_grid(monkeypatch, name, params, slots,
                                                               extensions):
    calls = []
    for helper in ("heisenberg_stack", "extend_prefix"):
        def counted(*args, helper=helper, real=getattr(histories, helper)):
            calls.append(helper)
            return real(*args)
        monkeypatch.setattr(scenarios, helper, counted)
    grid = scenario_grid(name, params)
    stacks = [grid.class_operators(n) for n in grid.slots]
    assert all(grid.class_operators(n) is ops for n, ops in zip(grid.slots, stacks))
    assert calls.count("heisenberg_stack") == slots
    assert calls.count("extend_prefix") == extensions
    assert not any(ops.flags.writeable for ops in stacks)
