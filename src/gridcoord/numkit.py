"""Minimal dense linear-algebra kernel shared by the numeric modules.

Matrices are plain ``numpy.ndarray`` in row-major order; vectors are
1-D arrays (treated as single-column matrices where it matters).  The
systems in this package are at most a few hundred rows, so everything
is dense and direct.

Two solves share one rule: a pivot whose magnitude falls below
``PIVOT_TOL`` (an exact zero included) raises :class:`SingularMatrix`.

- ``solve`` factors through LAPACK (``dgetrf``/``dgetrs``).  It serves
  the solves whose results reach no stage model: the TSO's Newton steps
  and V-Q sensitivities, the feeder's linearized voltages, and the check
  in ``feeder.build_blocks`` that the load coupling K is not singular.
- ``solve_linear`` is an LU with partial pivoting written as a Python
  loop.  It serves exactly the solves whose results reach a stage model
  (``feeder.partition_blocks``' K1, ``observable_matrices`` and
  ``dso_dispatch.sensitivity_weights``), because the branch and bound
  turns on the last bits of the stage models' coefficients.  Swapping
  those solves to LAPACK too moved those bits: the feeder13-highpv bench
  round then took 366 LP pivots instead of 277, and a stage1-budget pass
  385 ms instead of 240 ms (one BLAS thread).

The module is also the one place that knows where the compiled
routines come from: ``dger`` (the simplex's rank-1 update), ``dgetrf``
and ``dgetrs`` are scipy's f2py wrappers of BLAS and LAPACK, taken from
the extension modules ``scipy/linalg/_fblas`` and ``_flapack``.  Those
two files are loaded on their own, without ``scipy/linalg/__init__.py``:
the package pulls in ``_cythonized_array_utils``, whose array-API layer
imports ``numpy.f2py`` and ``numpy.testing``, and none of it is used.
On a shared 2-core x86-64 host with no bytecode cache (``python -X
importtime``, 5 runs), importing the package took 0.33-0.42 s of a
0.50-0.60 s ``gridcoord.milp`` import, which peaked at 55.6 MB RSS;
loading the two files instead makes ``numkit`` a 22-33 ms import and
``gridcoord.milp`` a 0.15-0.20 s one at 32.6 MB.  The routines are
scipy.linalg's own compiled functions, so every result is the same bit
for bit.  When ``scipy.linalg`` is already imported, its modules are
used; otherwise the loaded module leaves ``sys.modules`` again, so a
later ``import scipy.linalg`` builds its package as usual.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np
import scipy

from .errors import SingularMatrix

PIVOT_TOL = 1e-12


def _linalg_extension(name):
    """The compiled module ``scipy.linalg.<name>``, loaded from its file
    without running the ``scipy.linalg`` package (see the module
    docstring); ``ImportError`` when no file of that name is there."""
    full = f"scipy.linalg.{name}"
    if full in sys.modules:
        return sys.modules[full]
    folder = os.path.join(scipy.__path__[0], "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, name + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(full, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules.pop(full, None)
            return module
    raise ImportError(f"no compiled {name} module in {folder}")


dger = _linalg_extension("_fblas").dger
_flapack = _linalg_extension("_flapack")
dgetrf, dgetrs = _flapack.dgetrf, _flapack.dgetrs


def _system(a, b):
    """``a`` and ``b`` as float arrays, checked to be a square system."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"coefficient matrix must be square, got {a.shape}")
    if b.ndim not in (1, 2) or b.shape[0] != a.shape[0]:
        raise ValueError("right-hand side rows do not match matrix order")
    return a, b


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b`` through LAPACK's LU with partial pivoting.

    ``a`` must be square; ``b`` may be a vector or a matrix of right-hand
    sides.  Raises :class:`SingularMatrix` when any pivot magnitude falls
    below ``PIVOT_TOL``.
    """
    a, b = _system(a, b)
    if a.size == 0:
        return b.copy()
    lu, piv, _ = dgetrf(a)
    pivots = np.abs(np.diag(lu))
    low = np.flatnonzero(pivots < PIVOT_TOL)
    if low.size:
        k = int(low[0])
        raise SingularMatrix(f"pivot {pivots[k]:.3e} below {PIVOT_TOL:g} at column {k}")
    return dgetrs(lu, piv, b)[0]


def solve_linear(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b`` by LU factorization with partial pivoting,
    written as a loop (see the module docstring for which solves use it).

    ``a`` must be square; ``b`` may be a vector or a matrix of right-hand
    sides.  Raises :class:`SingularMatrix` when any pivot magnitude falls
    below ``PIVOT_TOL``.
    """
    a, b = _system(a, b)
    n = a.shape[0]
    vector_rhs = b.ndim == 1
    rhs = b.reshape(n, 1).copy() if vector_rhs else b.copy()

    lu = a.copy()
    perm = np.arange(n)
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if abs(lu[p, k]) < PIVOT_TOL:
            raise SingularMatrix(f"pivot {abs(lu[p, k]):.3e} below {PIVOT_TOL:g} at column {k}")
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            perm[[k, p]] = perm[[p, k]]
        factors = lu[k + 1:, k] / lu[k, k]
        lu[k + 1:, k] = factors
        lu[k + 1:, k + 1:] -= np.outer(factors, lu[k, k + 1:])

    x = rhs[perm]
    for k in range(n):          # forward: L y = P b
        x[k + 1:] -= np.outer(lu[k + 1:, k], x[k])
    for k in range(n - 1, -1, -1):  # backward: U x = y
        x[k] /= lu[k, k]
        if k:
            x[:k] -= np.outer(lu[:k, k], x[k])
    return x[:, 0] if vector_rhs else x
