from fractions import Fraction

import numpy as np
import pytest

from histories_lab._kernels import active_backend
from histories_lab.errors import NumericError, ValidationError
from histories_lab.simplex import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    solve_lp,
    solve_lp_exact,
    solve_lp_float,
    verify_certificate,
)


def test_feasible_point_found():
    result = solve_lp_float([[1, 1], [1, -1]], [1, 0])
    assert result.status == OPTIMAL
    np.testing.assert_allclose(result.x, [0.5, 0.5], atol=1e-12)


def test_exact_feasible_point():
    result = solve_lp_exact([[1, 1], [1, -1]], [1, 0])
    assert result.status == OPTIMAL
    assert result.x == [Fraction(1, 2), Fraction(1, 2)]


def test_infeasible_has_verifying_certificate():
    A, b = [[1, 1], [1, 1]], [1, 2]
    for result in (solve_lp_float(A, b), solve_lp_exact(A, b)):
        assert result.status == INFEASIBLE
        assert verify_certificate(A, b, result.certificate)


def test_infeasibility_through_sign_constraint():
    # x1 - x2 = -1 and x1 + x2 = 0 force x = 0, contradiction
    A, b = [[1, -1], [1, 1]], [-1, 0]
    result = solve_lp_exact(A, b)
    assert result.status == INFEASIBLE
    assert verify_certificate(A, b, result.certificate)


def test_minimization():
    result = solve_lp_float([[1, 1]], [1], [-1.0, 0.0])
    assert result.status == OPTIMAL
    np.testing.assert_allclose(result.x, [1.0, 0.0], atol=1e-12)
    assert abs(result.objective + 1.0) < 1e-12
    exact = solve_lp_exact([[1, 1]], [1], [-1, 0])
    assert exact.objective == Fraction(-1)


def test_unbounded_detected():
    assert solve_lp_float([[1, -1]], [0], [-1.0, 0.0]).status == UNBOUNDED
    assert solve_lp_exact([[1, -1]], [0], [-1, 0]).status == UNBOUNDED


def test_redundant_rows_are_dropped():
    result = solve_lp_float([[1, 1], [1, 1], [2, 2]], [1, 1, 2], [1.0, 0.0])
    assert result.status == OPTIMAL
    assert abs(result.objective) < 1e-12
    exact = solve_lp_exact([[1, 1], [1, 1], [2, 2]], [1, 1, 2], [1, 0])
    assert exact.status == OPTIMAL
    assert exact.x == [Fraction(0), Fraction(1)]
    assert exact.objective == 0


def test_shape_validation():
    with pytest.raises(ValidationError):
        solve_lp_float([[1, 1]], [1, 2])
    with pytest.raises(ValidationError):
        solve_lp_float([[1, 1]], [1], [1.0])
    with pytest.raises(ValidationError):
        solve_lp_exact([[1, 1]], [1], c=[0.5, 0])  # non-integral float in exact mode


def test_iteration_limit_raises():
    with pytest.raises(NumericError):
        solve_lp_float([[1, 1], [1, -1]], [1, 0], max_iter=1)
    with pytest.raises(NumericError):
        solve_lp_exact([[1, 1], [1, -1]], [1, 0], max_iter=1)


def test_float_and_exact_agree_on_rational_instances():
    rng = np.random.default_rng(31)
    for _ in range(60):
        m, n = int(rng.integers(2, 6)), int(rng.integers(2, 8))
        A = rng.integers(-3, 4, size=(m, n))
        if rng.random() < 0.5:
            x0 = rng.integers(0, 3, size=n)
            b = A @ x0
        else:
            b = rng.integers(-4, 5, size=m)
        c = rng.integers(-3, 4, size=n) if rng.random() < 0.5 else None
        fl = solve_lp_float(A.astype(float), b.astype(float), c)
        ex = solve_lp_exact(A.tolist(), b.tolist(), None if c is None else c.tolist())
        assert fl.status == ex.status
        if ex.status == OPTIMAL:
            assert abs(fl.objective - float(ex.objective)) < 1e-9
        if ex.status == INFEASIBLE:
            assert verify_certificate(A.tolist(), b.tolist(), ex.certificate)
            assert verify_certificate(A.astype(float), b.astype(float), fl.certificate)


def test_runs_are_deterministic():
    rng = np.random.default_rng(33)
    A = rng.normal(size=(6, 9))
    b = A @ rng.uniform(size=9)
    c = rng.normal(size=9)
    first = solve_lp_float(A, b, c)
    second = solve_lp_float(A, b, c)
    np.testing.assert_array_equal(first.x, second.x)


def test_active_backend_reports_a_known_name():
    assert active_backend() == "numpy"


def test_solve_lp_dispatch():
    assert solve_lp([[1, 1]], [1], exact=True).x == [Fraction(1), Fraction(0)]
    assert solve_lp([[1, 1]], [1], exact=False).status == OPTIMAL
