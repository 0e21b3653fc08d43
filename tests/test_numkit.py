import importlib.machinery
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

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


# Runs numkit's compiled routines and scipy.linalg's on the same seeded
# inputs and prints what differs; argv[1] names the module imported first.
SAME_ROUTINES = """
import sys
import numpy as np
first = sys.argv[1]
if first == "scipy.linalg":
    import scipy.linalg
from gridcoord import numkit

def calls(dger, dgetrf, dgetrs):
    rng = np.random.default_rng(2024)
    out = []
    for m, n in ((1, 1), (7, 5), (40, 63), (130, 64)):
        T = rng.normal(size=(m, n))   # C-contiguous, as the simplex keeps it
        col, row = rng.normal(size=m), rng.normal(size=n)
        a = T.T
        # T -= outer(col, row) in place, as milp._rank1_update calls it
        res = dger(-1.0, row, col, a=a, overwrite_a=1)
        out += [T, np.shares_memory(res, T)]
    for n in (1, 6, 50):
        a = rng.normal(size=(n, n)) + (n % 3) * np.eye(n)
        b = rng.normal(size=(n, 4))
        lu, piv, info = dgetrf(a)
        x, info_s = dgetrs(lu, piv, b)
        lu_o, piv_o, _ = dgetrf(a.copy(), overwrite_a=1)
        x_o = dgetrs(lu_o, piv_o, b[:, 0].copy(), overwrite_b=1)[0]
        out += [lu, piv, info, x, info_s, lu_o, piv_o, x_o]
    return out

got = calls(numkit.dger, numkit.dgetrf, numkit.dgetrs)
if first == "gridcoord":
    assert "scipy.linalg" not in sys.modules
    import scipy.linalg
from scipy.linalg import blas, lapack
assert sys.modules["scipy.linalg._fblas"] is scipy.linalg._fblas
assert sys.modules["scipy.linalg._flapack"] is scipy.linalg._flapack
want = calls(blas.dger, lapack.dgetrf, lapack.dgetrs)
for k, (g, w) in enumerate(zip(got, want)):
    g, w = np.asarray(g), np.asarray(w)
    if g.dtype != w.dtype or g.shape != w.shape or g.tobytes() != w.tobytes():
        print("call output", k, "differs")
"""


@pytest.mark.parametrize("first", ["gridcoord", "scipy.linalg"])
def test_compiled_routines_match_scipy_linalg(first):
    """``dger``, ``dgetrf`` and ``dgetrs`` give scipy.linalg's results bit
    for bit whichever is imported first, ``dger`` updates a C-contiguous
    array in place through its transpose, and a later ``import
    scipy.linalg`` builds its package with its compiled modules."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SAME_ROUTINES, first], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "", proc.stdout


def test_missing_compiled_module_names_its_folder(monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.linalg._fblas", raising=False)
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing.so"])
    folder = os.path.join(scipy.__path__[0], "linalg")
    with pytest.raises(ImportError, match=re.escape(folder)):
        numkit._linalg_extension("_fblas")
