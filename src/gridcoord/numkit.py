"""Minimal dense linear-algebra kernel shared by the numeric modules.

Matrices are plain ``numpy.ndarray`` in row-major order; vectors are
1-D arrays (treated as single-column matrices where it matters).  The
systems in this package are at most a few hundred rows, so everything
is dense and direct.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrix

PIVOT_TOL = 1e-12


def solve_linear(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b`` by LU factorization with partial pivoting.

    ``a`` must be square; ``b`` may be a vector or a matrix of right-hand
    sides.  Raises :class:`SingularMatrix` when any pivot magnitude falls
    below ``PIVOT_TOL``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"coefficient matrix must be square, got {a.shape}")
    n = a.shape[0]
    vector_rhs = b.ndim == 1
    rhs = b.reshape(n, -1).copy() if not vector_rhs else b.reshape(n, 1).copy()
    if rhs.shape[0] != n:
        raise ValueError("right-hand side rows do not match matrix order")

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

