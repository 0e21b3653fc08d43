import numpy as np
import pytest

from gridcoord import numkit
from gridcoord.errors import SingularMatrix


class TestSolveLinear:
    """The cases every solve must pass, run on the loop LU of context
    builds; ``TestSolve`` runs them again on the LAPACK solve."""

    solve = staticmethod(numkit.solve_linear)

    def test_identity(self):
        b = np.array([3.0, -1.0, 2.5])
        x = self.solve(np.eye(3), b)
        np.testing.assert_allclose(x, b)

    def test_diagonal(self):
        x = self.solve(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
        np.testing.assert_allclose(x, [1.0, 1.0])

    def test_round_trip_well_conditioned(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(10, 10)) + 10.0 * np.eye(10)
        x_true = rng.normal(size=10)
        x = self.solve(a, a @ x_true)
        np.testing.assert_allclose(x, x_true, atol=1e-9)

    def test_matrix_rhs(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 6)) + 6.0 * np.eye(6)
        b = rng.normal(size=(6, 4))
        x = self.solve(a, b)
        assert x.shape == (6, 4)
        np.testing.assert_allclose(a @ x, b, atol=1e-9)

    def test_residual_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = rng.integers(2, 12)
            a = rng.normal(size=(n, n)) + n * np.eye(n)
            b = rng.normal(size=n)
            x = self.solve(a, b)
            assert x.shape == (n,)
            assert np.max(np.abs(a @ x - b)) <= 1e-9 * (1.0 + np.max(np.abs(b)))

    def test_singular_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrix):
            self.solve(a, np.ones(2))

    def test_pivot_just_below_tolerance_raises(self):
        """A pivot one step under PIVOT_TOL is singular, after a row swap
        too; one at it is not."""
        below = np.nextafter(numkit.PIVOT_TOL, 0.0)
        for a in (np.diag([1.0, below, 1.0]),
                  np.array([[0.0, below, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])):
            with pytest.raises(SingularMatrix):
                self.solve(a, np.ones(3))
        x = self.solve(np.diag([1.0, numkit.PIVOT_TOL, 1.0]), np.ones(3))
        np.testing.assert_allclose(x, [1.0, 1.0 / numkit.PIVOT_TOL, 1.0])

    def test_empty_system(self):
        """A 0 x 0 system (a transmission case with no PV or PQ bus has a
        0 x 0 Jacobian) solves to an empty answer."""
        assert self.solve(np.zeros((0, 0)), np.zeros(0)).shape == (0,)
        assert self.solve(np.zeros((0, 0)), np.zeros((0, 2))).shape == (0, 2)

    def test_requires_square(self):
        with pytest.raises(ValueError):
            self.solve(np.ones((2, 3)), np.ones(2))

    def test_rhs_rows_must_match(self):
        with pytest.raises(ValueError):
            self.solve(np.eye(3), np.ones((2, 3)))


class TestSolve(TestSolveLinear):
    solve = staticmethod(numkit.solve)


def test_solves_agree():
    """Both solves reach the same answer to rounding on a random system."""
    rng = np.random.default_rng(5)
    a = rng.normal(size=(8, 8)) + 8.0 * np.eye(8)
    b = rng.normal(size=(8, 3))
    np.testing.assert_allclose(numkit.solve(a, b), numkit.solve_linear(a, b),
                               rtol=1e-12, atol=1e-12)
