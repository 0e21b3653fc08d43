import numpy as np
import pytest

from gridcoord import numkit
from gridcoord.errors import SingularMatrix


class TestSolveLinear:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.5])
        x = numkit.solve_linear(np.eye(3), b)
        np.testing.assert_allclose(x, b)

    def test_diagonal(self):
        x = numkit.solve_linear(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
        np.testing.assert_allclose(x, [1.0, 1.0])

    def test_round_trip_well_conditioned(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(10, 10)) + 10.0 * np.eye(10)
        x_true = rng.normal(size=10)
        x = numkit.solve_linear(a, a @ x_true)
        np.testing.assert_allclose(x, x_true, atol=1e-9)

    def test_matrix_rhs(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 6)) + 6.0 * np.eye(6)
        b = rng.normal(size=(6, 4))
        x = numkit.solve_linear(a, b)
        np.testing.assert_allclose(a @ x, b, atol=1e-9)

    def test_residual_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = rng.integers(2, 12)
            a = rng.normal(size=(n, n)) + n * np.eye(n)
            b = rng.normal(size=n)
            x = numkit.solve_linear(a, b)
            assert np.max(np.abs(a @ x - b)) <= 1e-9 * (1.0 + np.max(np.abs(b)))

    def test_singular_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrix):
            numkit.solve_linear(a, np.ones(2))

    def test_requires_square(self):
        with pytest.raises(ValueError):
            numkit.solve_linear(np.ones((2, 3)), np.ones(2))

