import numpy as np
import pytest

from quadpencil import QuadraticPencil


@pytest.fixture
def diag_pencil():
    """Two uncoupled modes: one overdamped (roots -3 +- sqrt7), one not."""
    return QuadraticPencil(np.diag([2.0, 8.0]), np.diag([6.0, 2.0]))


@pytest.fixture
def undamped_pencil():
    return QuadraticPencil(np.diag([2.0, 8.0]), np.zeros((2, 2)))


@pytest.fixture
def critical_1x1():
    """Double root at -1 sitting exactly at the p-minus supremum."""
    return QuadraticPencil([[1.0]], [[2.0]])


@pytest.fixture
def overdamped_1x1():
    return QuadraticPencil([[2.0]], [[6.0]])


@pytest.fixture
def rotated_pencil():
    """A0 = Q diag(1e-6, 1) Q^T with Q the rotation by 0.3, D = 3 I: valid,
    cond(A0) = 1e6, all four eigenvalues real (-3.33e-7 and -0.382 above
    alpha). The rounding of A0^{1/2} A0^{-1/2} here is about 2e-10."""
    c, s = np.cos(0.3), np.sin(0.3)
    q = np.array([[c, -s], [s, c]])
    a0 = q @ np.diag([1e-6, 1.0]) @ q.T
    return QuadraticPencil((a0 + a0.T) / 2.0, 3.0 * np.eye(2))
