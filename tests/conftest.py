import numpy as np

from histories_lab.histories import HistorySchedule, HistorySet, Slot, history_set
from histories_lab.operators import DensityOperator, Projector


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2


def random_density(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return DensityOperator(rho / np.trace(rho).real)


def random_decomposition(rng, dim, blocks=None):
    """Random orthogonal projective decomposition from a random eigenbasis."""
    _, vectors = np.linalg.eigh(random_hermitian(rng, dim))
    k = blocks if blocks is not None else int(rng.integers(2, dim + 1))
    sizes = [1] * k
    for _ in range(dim - k):
        sizes[int(rng.integers(k))] += 1
    projectors = []
    start = 0
    for size in sizes:
        block = vectors[:, start:start + size]
        projectors.append(Projector(block @ block.conj().T))
        start += size
    return tuple(projectors)


def random_history_set(rng, dim=None, slots=2, post_selected=False):
    dim = dim if dim is not None else int(rng.integers(2, 5))
    h = random_hermitian(rng, dim)
    times = np.sort(rng.uniform(0.0, 3.0, size=slots))
    while slots > 1 and np.min(np.diff(times)) < 1e-3:
        times = np.sort(rng.uniform(0.0, 3.0, size=slots))
    slot_list = []
    for t in times:
        decomposition = random_decomposition(rng, dim)
        slot_list.append(Slot(float(t), decomposition, tuple(range(len(decomposition)))))
    schedule = HistorySchedule(tuple(slot_list), h)
    final = random_density(rng, dim) if post_selected else None
    return history_set(schedule, random_density(rng, dim), final)


def product_history_set(rng, dim_a=2, dim_b=2):
    """Uncorrelated non-interacting composite: product state, product class operators."""
    set_a = random_history_set(rng, dim=dim_a)
    set_b = random_history_set(rng, dim=dim_b)
    labels = tuple((la, lb) for la in set_a.labels for lb in set_b.labels)
    ops = [np.kron(ca, cb) for ca in set_a.class_operators for cb in set_b.class_operators]
    rho = DensityOperator(np.kron(set_a.initial.matrix, set_b.initial.matrix))
    return set_a, set_b, HistorySet(labels, ops, rho)
