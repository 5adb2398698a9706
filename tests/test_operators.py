import numpy as np
import pytest

from histories_lab.errors import ValidationError
from histories_lab.operators import (
    DensityOperator,
    PAULI_X,
    PAULI_Z,
    Projector,
    bloch_projector,
    heisenberg_projector,
    max_abs,
    projector_onto,
    propagator,
    validate_projective_decomposition,
)

from conftest import random_hermitian


def test_propagator_at_zero_time_is_identity():
    rng = np.random.default_rng(2)
    h = random_hermitian(rng, 3)
    np.testing.assert_allclose(propagator(h, 0.0), np.eye(3), atol=1e-14)


def test_propagator_half_pi_rotation():
    # exp(-i (pi/2) sigma_x) = cos(pi/2) I - i sin(pi/2) sigma_x = -i sigma_x
    omega, t = 2.0, np.pi / 2
    u = propagator(0.5 * omega * PAULI_X, t)
    np.testing.assert_allclose(u, -1j * PAULI_X, atol=1e-12)


def test_propagator_group_inverse():
    rng = np.random.default_rng(3)
    h = random_hermitian(rng, 4)
    u = propagator(h, 0.7) @ propagator(h, -0.7)
    assert max_abs(u - np.eye(4)) < 1e-12


def test_propagator_unitary_on_random_hermitian():
    rng = np.random.default_rng(4)
    for _ in range(50):
        dim = int(rng.integers(2, 6))
        h = random_hermitian(rng, dim)
        t = float(rng.normal())
        u = propagator(h, t)
        assert max_abs(u @ u.conj().T - np.eye(dim)) < 1e-10


def test_propagator_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        propagator(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def test_heisenberg_projector_zero_hamiltonian():
    p = Projector(projector_onto([0.0, 1.0]))
    moved = heisenberg_projector(p, np.zeros((2, 2)), 2.3)
    np.testing.assert_array_equal(moved.matrix, p.matrix)


def test_heisenberg_projector_identity_commutes():
    rng = np.random.default_rng(5)
    h = random_hermitian(rng, 3)
    p = Projector(np.eye(3))
    moved = heisenberg_projector(p, h, 1.1)
    assert max_abs(moved.matrix - np.eye(3)) < 1e-12


def test_heisenberg_projector_preserves_invariants():
    rng = np.random.default_rng(6)
    for _ in range(25):
        dim = int(rng.integers(2, 5))
        h = random_hermitian(rng, dim)
        v = np.linalg.eigh(random_hermitian(rng, dim))[1][:, 0]
        p = Projector(np.outer(v, v.conj()))
        moved = heisenberg_projector(p, h, float(rng.normal()))
        assert max_abs(moved.matrix @ moved.matrix - moved.matrix) < 1e-10
        assert max_abs(moved.matrix - moved.matrix.conj().T) < 1e-10


def test_validate_decomposition_spin_z():
    ps = [Projector(0.5 * (np.eye(2) + PAULI_Z)), Projector(0.5 * (np.eye(2) - PAULI_Z))]
    report = validate_projective_decomposition(ps)
    assert report.valid
    assert report.max_violation < 1e-15


def test_validate_decomposition_rank_split_dimension_three():
    basis = np.eye(3)
    ps = [projector_onto(basis[0]), projector_onto(basis[1]) + projector_onto(basis[2])]
    assert validate_projective_decomposition(ps).valid


def test_validate_decomposition_rejects_skew_pair():
    ps = [0.5 * (np.eye(2) + PAULI_Z), 0.5 * (np.eye(2) + PAULI_X)]
    report = validate_projective_decomposition(ps)
    assert not report.valid
    assert report.max_violation > 0.1


def test_density_operator_validation():
    with pytest.raises(ValidationError):
        DensityOperator(np.eye(2))  # trace 2
    with pytest.raises(ValidationError):
        DensityOperator(np.array([[1.5, 0.0], [0.0, -0.5]]))  # negative eigenvalue
    rho = DensityOperator.maximally_mixed(3)
    assert abs(np.trace(rho.matrix) - 1.0) < 1e-15


def test_projector_validation():
    with pytest.raises(ValidationError):
        Projector(0.5 * np.eye(2))  # not idempotent
    with pytest.raises(ValidationError):
        Projector(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not Hermitian


def test_bloch_projector_decomposition():
    axis = (0.6, 0.0, 0.8)
    report = validate_projective_decomposition(
        [Projector(bloch_projector(1, axis)), Projector(bloch_projector(-1, axis))]
    )
    assert report.valid
    with pytest.raises(ValidationError):
        bloch_projector(1, (1.0, 1.0, 0.0))


def test_hamiltonian_evolution_unitary():
    u = propagator(0.5 * PAULI_X, 1.3)
    assert max_abs(u @ u.conj().T - np.eye(2)) < 1e-12


def test_matrices_are_frozen():
    rho = DensityOperator.maximally_mixed(2)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 5.0
