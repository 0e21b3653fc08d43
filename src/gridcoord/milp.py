"""Linear / mixed-integer linear model container and embedded solver.

The LP engine is a bounded-variable tableau simplex over the structural
columns and one slack column per row.  A cold solve starts from the
slack basis: phase 1 drives artificial columns out, phase 2 optimizes,
both with Devex-weighted Dantzig pricing and a Bland anti-cycling
fallback.  ``solve_lp`` and ``brute_force`` are cold solves, and so is
the root node of ``solve_milp`` unless it is given a start.

- **Start basis.**  ``solve_milp(start=...)`` takes an earlier solve's
  optimal root basis (``MilpSolution.root_basis``) from a model with the
  same structural variables and rows that are a prefix of this model's;
  each extra row starts with its slack basic.  The root loads it (a
  refactor) and, when every basic value is within ``FEAS_TOL`` of its
  bounds, runs primal phase 2 only.  Phase 2 from a primal feasible
  basis ends on the same verdict a cold solve's does: confirmed by
  primal pricing.  Wrong lengths, a singular refactor, an infeasible
  start or a phase 2 that does not end optimal go to the cold solve,
  and the pivots spent count.  Rows here are the constraints with
  coefficients; empty ones never enter the LP.
- **Condensed tableau.**  The m basic columns of B^-1 [A | I] are unit
  columns, so only the nonbasic ones are stored: T is m x n_struct (plus
  one column per artificial during phase 1), never m x (n_struct + m).
  Column k holds variable ``nb[k]``.  A pivot is a Jordan exchange: one
  rank-1 update of T, with the leaving variable taking the entering
  one's column.  Exact ties in pricing and in the ratio tests go to the
  lowest variable id, so the search does not depend on where a variable
  sits in T.

Branch and bound is best-first and warm-started.  Branching only
tightens bounds, so a parent's optimal basis stays dual feasible in its
children; each child re-optimizes from it with a bounded dual simplex
that pivots only on the rows the branch made primal infeasible.

- **Node order.**  Open nodes pop in order of their LP bound rounded
  down to ``GAP``, newest first among equal keys.  Stage models often
  have a root bound equal to the optimum, so the search is a hunt for an
  incumbent on a plateau of equal bounds; keyed on the exact bound,
  round-off of 1e-12 between siblings reordered that plateau and broke
  the plunge.  The rounded key only orders the search: pruning, the
  reported ``best_bound`` and ``gap`` read each node's exact bound.
- **What a node stores.**  Its bounds, plus its parent's optimal basis
  (int32, one entry per row) and variable statuses (int8, one per
  structural or slack).  Siblings share those two arrays.  No node stores a tableau.
- **One working tableau.**  A node whose parent was the last node
  solved re-optimizes in that tableau in place.  Any other node is
  rebased: Jordan exchanges that move no value pivot the working
  tableau onto its stored basis, a few rank-1 updates where a refactor
  would rebuild every column.  A cold solve's tableau becomes the
  working one; when its node branches, it drops the artificial columns
  (a basic artificial gives way to its row's slack), so every stored
  basis indexes structurals and slacks only.
- **Refactor.**  Slack and artificial columns are signed unit columns,
  so B^-1 needs only an LU of the block of basic structural columns on
  the rows no basic unit column covers (at most n_struct square).  The
  refactor renumbers the nonbasic columns in variable order and rebuilds
  them in place, a few at a time.  It runs after every
  ``_REFACTOR_PERIOD`` pivots, in the primal and the dual simplex alike,
  and when a node is loaded from its stored basis instead of rebased:
  after a cold solve, at the period, when an exchange finds no pivot
  above ``_REBASE_TOL``, and to retry a node whose rebased solve ended
  without a verdict.
- **B^-1 rows.**  Column i of B^-1 is slack i's column of the full
  tableau: its column of T when the slack is nonbasic, else the unit
  column of the row it is basic in.  The dual steepest-edge weights and
  the Farkas check rebuild the rows they need from that.  The squared
  norm of each row is kept across pivots.  A pivot marks stale only
  the pivot row and the rows with a nonzero in the entering column: a
  row with a zero there is unchanged bit for bit.  A refactor or the
  drop of the artificials marks every row stale.
- **Verdicts.**  A node is optimal only after a primal pricing pass on
  the dual simplex's end point finds nothing to improve.  It is pruned
  as infeasible only when a Farkas check recomputed from the original
  rows (row r of B^-1 applied to A and b) proves the bounds infeasible.
  An unconfirmed verdict or a dual stall (more than max(64, rows)
  pivots) after a rebase retries once from the refactored stored basis;
  one after any other start, or a singular refactor, falls back to a
  cold solve of that node.
- **Memory.**  The search holds one m x n_struct tableau, never a copy
  per node.  A cold fallback first releases it, dropping artificials
  reuses its buffer, and the refactor works in blocks of columns, so the
  warm path adds only the refactor's LU and a few blocks to a cold
  solve.  The slack identity is never stored: ``_Arrays.A`` holds
  structural columns only.

A brute-force enumerator over binary assignments and SOS1 active-member
choices, made of cold LP solves, serves as the test oracle.

Fixed settings (module constants no caller changes): the tolerances
``FEAS_TOL = 1e-7``, ``INT_TOL = 1e-6`` and ``GAP = 1e-6``, and
``ITER_FACTOR = 50``.  An LP solve stops with ``IterLimit`` after
``ITER_FACTOR * (rows + cols)`` pivots (``_Arrays.iter_cap``), a guard
against cycling far above what the stage LPs take.

Scale notes: models in this package stay below roughly two thousand
rows and a few hundred structural columns, so T is kept dense and no
presolve is attempted beyond skipping empty rows.
"""

from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
from scipy.linalg.blas import dger as _dger

from .errors import TooLarge, UnknownVariable


def _rank1_update(T, col, row):
    """T -= outer(col, row) in place; T must be C-contiguous."""
    # operate on the F-contiguous transpose view so no copy is made
    _dger(-1.0, row, col, a=T.T, overwrite_a=1)


CONTINUOUS = "continuous"
BINARY = "binary"

LE, GE, EQ = "<=", ">=", "=="

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"
ITER_LIMIT = "IterLimit"     # a node LP hit the simplex iteration cap
NODE_LIMIT = "NodeLimit"     # branch and bound stopped at MilpOptions.node_limit

MIN, MAX = "min", "max"


FEAS_TOL = 1e-7     # primal feasibility of a basic solution
INT_TOL = 1e-6      # integrality of binaries and SOS1 members
GAP = 1e-6          # absolute optimality gap at termination
ITER_FACTOR = 50    # simplex cap per LP solve = ITER_FACTOR * (rows + cols)


@dataclass
class MilpOptions:
    """``node_limit`` stays an option because callers differ: the stages
    run to optimality, a budgeted benchmark workload stops at 60 nodes."""
    node_limit: int = 10 ** 6


@dataclass
class _Variable:
    name: str
    lo: float
    hi: float
    kind: str


@dataclass
class _Constraint:
    coeffs: list
    sense: str
    rhs: float
    name: str


class MilpModel:
    """Mutable builder for an LP/MILP instance.

    Variables and constraints are identified by the integer ids returned
    from the ``add_*`` methods.  Binary variables always carry [0, 1]
    bounds; SOS1 sets are ordered lists of variable ids (duplicates are
    dropped, keeping first occurrence).
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self.variables: list[_Variable] = []
        self.constraints: list[_Constraint] = []
        self.sos1_sets: list[list[int]] = []
        self.objective_sense = MIN
        self.objective: dict[int, float] = {}
        self.objective_const = 0.0

    def add_variable(self, lo=0.0, hi=np.inf, kind=CONTINUOUS, name=None) -> int:
        if kind == BINARY:
            lo, hi = 0.0, 1.0
        if lo > hi:
            raise ValueError(f"variable lower bound {lo} above upper bound {hi}")
        vid = len(self.variables)
        self.variables.append(_Variable(name or f"x{vid}", float(lo), float(hi), kind))
        return vid

    def add_constraint(self, coeffs, sense, rhs, name=None) -> int:
        if sense not in (LE, GE, EQ):
            raise ValueError(f"unknown sense {sense!r}")
        items = list(coeffs.items()) if isinstance(coeffs, dict) else list(coeffs)
        for vid, _ in items:
            self._check_var(vid)
        cid = len(self.constraints)
        self.constraints.append(_Constraint(items, sense, float(rhs), name or f"c{cid}"))
        return cid

    def add_sos1(self, var_ids) -> int:
        seen, members = set(), []
        for vid in var_ids:
            self._check_var(vid)
            if vid not in seen:
                seen.add(vid)
                members.append(vid)
        self.sos1_sets.append(members)
        return len(self.sos1_sets) - 1

    def set_objective(self, sense, coeffs, const=0.0):
        if sense not in (MIN, MAX):
            raise ValueError(f"unknown objective sense {sense!r}")
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        obj = {}
        for vid, c in items:
            self._check_var(vid)
            obj[vid] = obj.get(vid, 0.0) + float(c)
        self.objective_sense = sense
        self.objective = obj
        self.objective_const = float(const)

    def fix_variable(self, vid, value):
        self._check_var(vid)
        v = self.variables[vid]
        v.lo = v.hi = float(value)

    def _check_var(self, vid):
        if not isinstance(vid, (int, np.integer)) or not 0 <= vid < len(self.variables):
            raise UnknownVariable(f"variable id {vid!r} not in model")

    @property
    def binary_ids(self):
        return [i for i, v in enumerate(self.variables) if v.kind == BINARY]

    def dump_lp(self) -> str:
        """Plain-text LP-format-style dump for debugging."""
        lines = [f"\\ model {self.name}",
                 "Minimize" if self.objective_sense == MIN else "Maximize"]
        terms = " ".join(f"{c:+g} {self.variables[v].name}"
                         for v, c in sorted(self.objective.items()))
        lines.append(f"  obj: {terms or '0'}")
        lines.append("Subject To")
        for con in self.constraints:
            terms = " ".join(f"{c:+g} {self.variables[v].name}" for v, c in con.coeffs)
            op = {LE: "<=", GE: ">=", EQ: "="}[con.sense]
            lines.append(f"  {con.name}: {terms} {op} {con.rhs:g}")
        lines.append("Bounds")
        for v in self.variables:
            lines.append(f"  {v.lo:g} <= {v.name} <= {v.hi:g}")
        bins = [self.variables[i].name for i in self.binary_ids]
        if bins:
            lines.append("Binary")
            lines.append("  " + " ".join(bins))
        if self.sos1_sets:
            lines.append("SOS")
            for k, members in enumerate(self.sos1_sets):
                body = " ".join(f"{self.variables[v].name}:{w + 1}"
                                for w, v in enumerate(members))
                lines.append(f"  s{k}: S1 :: {body}")
        lines.append("End")
        return "\n".join(lines)


@dataclass
class MilpSolution:
    """A solve's outcome, in the model's objective sense.

    ``best_bound`` is the best objective any solution can reach, as far
    as the search proved it, and ``gap`` is |objective - best_bound|
    (inf without an incumbent).  ``root_basis`` is the root LP's optimal
    (basis int32[m], status int8[n + m]) over structurals and slacks,
    kept when the root branched (None otherwise, and from ``solve_lp``
    and ``brute_force``); ``solve_milp(start=...)`` takes it.
    """
    status: str
    objective: float | None
    x: np.ndarray | None
    node_count: int = 0
    simplex_iterations: int = 0
    best_bound: float = np.nan
    gap: float = np.inf
    root_basis: tuple | None = field(default=None, repr=False, compare=False)

    def value(self, vid: int) -> float:
        return float(self.x[vid])

    def binary_assignment(self, model: MilpModel) -> dict[int, int]:
        return {i: int(round(self.x[i])) for i in model.binary_ids}

    def sos_active(self, model: MilpModel, tol: float = 1e-6) -> list[int | None]:
        out = []
        for members in model.sos1_sets:
            active = [v for v in members if abs(self.x[v]) > tol]
            out.append(active[0] if active else None)
        return out


# ---------------------------------------------------------------------------
# bounded-variable simplex on a condensed tableau
# ---------------------------------------------------------------------------

_AT_LO, _AT_HI, _BASIC, _FREE = 0, 1, 2, 3
_PIV_TOL = 1e-9
_REBASE_TOL = 1e-7       # smallest |pivot| an exchange toward a stored basis takes
_D_TOL = 1e-9
_REFACTOR_PERIOD = 500   # pivots between two refactors of a tableau
_REFACTOR_BLOCK = 64     # tableau columns (or rows) gathered at a time
_FARKAS_TOL = 1e-6       # infeasibility margin a Farkas row must show


class _Arrays:
    """Standardized arrays: A x + s = b with bounded structurals x and
    slacks s.  ``A`` holds the structural columns only; the slack block
    is the identity and stays implicit, as do lo, hi and c of the
    columns after A's (the slacks)."""

    def __init__(self, model: MilpModel):
        n = len(model.variables)
        rows = [c for c in model.constraints if c.coeffs]
        m = len(rows)
        A = np.zeros((m, n))
        b = np.zeros(m)
        lo = np.empty(n + m)
        hi = np.empty(n + m)
        for j, v in enumerate(model.variables):
            lo[j], hi[j] = v.lo, v.hi
        for i, con in enumerate(rows):
            for vid, coef in con.coeffs:
                A[i, vid] += coef
            b[i] = con.rhs
            if con.sense == LE:
                lo[n + i], hi[n + i] = 0.0, np.inf
            elif con.sense == GE:
                lo[n + i], hi[n + i] = -np.inf, 0.0
            else:
                lo[n + i], hi[n + i] = 0.0, 0.0
        self.trivially_infeasible = any(
            not {LE: 0.0 <= con.rhs + 1e-12,
                 GE: 0.0 >= con.rhs - 1e-12,
                 EQ: abs(con.rhs) <= 1e-12}[con.sense]
            for con in model.constraints if not con.coeffs)
        c = np.zeros(n + m)
        sign = 1.0 if model.objective_sense == MIN else -1.0
        for vid, coef in model.objective.items():
            c[vid] = sign * coef
        self.A, self.b, self.lo, self.hi, self.c = A, b, lo, hi, c
        self.n_struct, self.m = n, m
        self.iter_cap = ITER_FACTOR * (m + n)
        self.obj_sign, self.obj_const = sign, model.objective_const

    def solution(self, status, objective, x, bound, nodes=0, iterations=0, root_basis=None):
        """A MilpSolution in the model's sense from internal (min-sense) values."""
        gap = np.inf
        if objective is not None:
            gap = abs(objective - bound)
            objective = self.obj_sign * objective + self.obj_const
        return MilpSolution(status, objective, x, nodes, iterations,
                            self.obj_sign * bound + self.obj_const, gap, root_basis)

    def start_basis(self, start):
        """An earlier model's (basis, status) as a basis of these rows, or
        None when it cannot be one.  The earlier model must have the same
        structural variables and rows that are a prefix of these; each
        extra row starts with its slack basic.  The basis must name
        exactly the variables its statuses mark basic."""
        if start is None:
            return None
        basis, status = (np.asarray(a) for a in start)
        n, m = self.n_struct, self.m
        m0 = basis.size
        if basis.ndim != 1 or status.ndim != 1 or status.size != n + m0 or m0 > m:
            return None
        if not np.array_equal(np.sort(basis), np.flatnonzero(status == _BASIC)):
            return None
        return (np.concatenate([basis, np.arange(n + m0, n + m)]).astype(np.int32),
                np.concatenate([status, np.full(m - m0, _BASIC)]).astype(np.int8))


class _SimplexResult:
    __slots__ = ("status", "x", "objective", "iterations")

    def __init__(self, status, x, objective, iterations):
        self.status, self.x, self.objective, self.iterations = status, x, objective, iterations


class _Simplex:
    """A condensed tableau: T = B^-1 [A | I | art] on the nonbasic columns.

    Column k of T holds variable ``nb[k]`` and ``pos`` is the inverse map
    (-1 for a basic variable); variables are numbered structurals, slacks,
    then artificials.  The m basic columns of the full tableau are unit
    columns and are not stored, so T is m x (n_struct + n_art) during a
    cold solve and m x n_struct once ``drop_artificials`` has run.  A pivot
    is a Jordan exchange: the leaving variable takes the entering one's
    column.  Pricing and ratio-test ties go to the lowest variable id, as
    they would in a tableau stored in variable order.
    """

    def __init__(self, A, b, lo, hi, c, iter_cap):
        self.m, n = A.shape
        self.n_tot = n + self.m
        self.A, self.b = A, b
        self.c_user = c
        self.iter_cap = iter_cap
        self.iters = 0
        self.since_refactor = 0

        m, n_tot = self.m, self.n_tot
        xval = np.zeros(n_tot)
        status = np.full(n_tot, _FREE, dtype=np.int8)
        lo_fin, hi_fin = np.isfinite(lo), np.isfinite(hi)
        status[lo_fin] = _AT_LO
        xval[lo_fin] = lo[lo_fin]
        only_hi = ~lo_fin & hi_fin
        status[only_hi] = _AT_HI
        xval[only_hi] = hi[only_hi]

        basis = np.arange(n, n_tot)
        resid = b - A @ xval[:n]
        status[basis] = _BASIC

        sl_lo, sl_hi = lo[basis], hi[basis]
        clamped = np.clip(resid, sl_lo, sl_hi)
        viol = np.where(np.abs(resid - clamped) > FEAS_TOL)[0]
        n_art = len(viol)
        self.n_art = n_art
        self.art_rows = viol
        self.art_signs = np.ones(n_art)

        # nonbasic: every structural, then the slacks artificials displace
        self.nb = np.concatenate([np.arange(n), n + viol])
        T = np.zeros((m, n + n_art))
        T[:, :n] = A
        T[viol, n + np.arange(n_art)] = 1.0
        self.lo = np.concatenate([lo, np.zeros(n_art)])
        self.hi = np.concatenate([hi, np.full(n_art, np.inf)])
        self.xval = np.concatenate([xval, np.zeros(n_art)])
        self.status = np.concatenate([status, np.full(n_art, _BASIC, dtype=np.int8)])
        xB = resid.copy()

        for k, r in enumerate(viol):
            gap = resid[r] - clamped[r]
            sgn = 1.0 if gap > 0 else -1.0
            self.art_signs[k] = sgn
            s_id = basis[r]
            self.status[s_id] = _AT_HI if gap > 0 else _AT_LO
            self.xval[s_id] = clamped[r]
            basis[r] = n_tot + k
            if sgn < 0:
                T[r, :] *= -1.0  # keep T = B^{-1}A with the -1 basis column
            xB[r] = abs(gap)

        self.T = T
        self.xB = xB
        self.basis = basis
        self.N = n_tot + n_art
        self.pos = np.full(self.N, -1)
        self.pos[self.nb] = np.arange(self.nb.size)
        self.fixed = self.hi - self.lo <= 0.0
        # |row i of B^-1|^2, valid where norm_stale is False
        self.row_norm = np.empty(m)
        self.norm_stale = np.ones(m, dtype=bool)

    # -- helpers ---------------------------------------------------------------

    def refactor(self):
        """Rebuild T and x_B in place from A, b and the basis.

        With S the basic structurals and R the rows that no basic unit
        (slack or artificial) column covers, B^-1 M needs only an LU of
        A[R, S]: the S rows solve against it, and each unit row then
        follows by substitution.  The nonbasic columns are renumbered in
        variable order and rebuilt a block at a time.  Returns the
        renumbering (new column k held old column ``perm[k]``), or None,
        leaving T and x_B as they were, when A[R, S] is singular.
        """
        self.since_refactor = 0
        self.norm_stale[:] = True
        m, n = self.m, self.n_tot - self.m
        basis = self.basis
        pos_s = np.flatnonzero(basis < n)
        pos_u = np.flatnonzero(basis >= n)
        # column n + i is slack i and column n + m + k artificial k: a signed
        # unit column on row unit_rows[i] (or [m + k])
        unit_rows = np.concatenate([np.arange(m), self.art_rows])
        unit_signs = np.concatenate([np.ones(m), self.art_signs])
        u_rows = unit_rows[basis[pos_u] - n]
        u_sign = unit_signs[basis[pos_u] - n][:, None]
        uncovered = np.ones(m, dtype=bool)
        uncovered[u_rows] = False
        rows_r = np.flatnonzero(uncovered)
        if rows_r.size != pos_s.size:
            return None   # two unit columns on one row
        cols_s = basis[pos_s]
        lu = None
        if pos_s.size:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", LinAlgWarning)
                lu = lu_factor(self.A[np.ix_(rows_r, cols_s)], overwrite_a=True,
                                check_finite=False)
            diag = np.abs(np.diag(lu[0]))
            if not diag.min() > 1e-11 * diag.max():
                return None
        a_us = self.A[np.ix_(u_rows, cols_s)]

        def binv(rhs):
            out = np.empty_like(rhs)
            y_s = rhs[rows_r]
            if lu is not None:
                y_s = lu_solve(lu, y_s, check_finite=False)
            out[pos_s] = y_s
            out[pos_u] = u_sign * (rhs[u_rows] - a_us @ y_s)
            return out

        nonbasic = np.flatnonzero(self.status != _BASIC)
        perm = self.pos[nonbasic]
        for c0 in range(0, nonbasic.size, _REFACTOR_BLOCK):
            cols = nonbasic[c0:c0 + _REFACTOR_BLOCK]
            block = np.zeros((m, cols.size))
            struct = cols < n
            block[:, struct] = self.A[:, cols[struct]]
            k = cols[~struct] - n
            block[unit_rows[k], np.flatnonzero(~struct)] = unit_signs[k]
            self.T[:, c0:c0 + cols.size] = binv(block)
        self.nb[:] = nonbasic
        self.pos.fill(-1)
        self.pos[nonbasic] = np.arange(nonbasic.size)
        x_nb = np.where(self.status != _BASIC, self.xval, 0.0)
        self.xB = binv((self.b - self.A @ x_nb[:n] - x_nb[n:self.n_tot])[:, None])[:, 0]
        return perm

    def drop_artificials(self):
        """Narrow to structural and slack variables, reusing T's buffer;
        T must then be refactored.

        A basic artificial is replaced by its row's slack: the two span
        the same unit column, so the basis stays nonsingular and x_B and
        the reduced costs do not change.
        """
        m, n_tot = self.m, self.n_tot
        art = self.basis >= n_tot
        self.basis[art] = n_tot - m + self.art_rows[self.basis[art] - n_tot]
        self.status = self.status[:n_tot].copy()
        self.status[self.basis] = _BASIC
        self.lo, self.hi = self.lo[:n_tot].copy(), self.hi[:n_tot].copy()
        self.xval, self.fixed = self.xval[:n_tot].copy(), self.fixed[:n_tot].copy()
        n = n_tot - m
        self.T = self.T.reshape(-1)[:m * n].reshape(m, n)
        self.nb = np.flatnonzero(self.status != _BASIC)
        self.pos = np.full(n_tot, -1)
        self.pos[self.nb] = np.arange(n)
        self.N, self.n_art = n_tot, 0
        self.art_rows, self.art_signs = self.art_rows[:0], self.art_signs[:0]
        self.norm_stale[:] = True

    def _place_nonbasic(self):
        """Put every nonbasic column at the bound its status names, or at
        the finite one when that bound is gone (0 when both are)."""
        st, lo, hi = self.status, self.lo, self.hi
        nb = st != _BASIC
        lo_f, hi_f = np.isfinite(lo), np.isfinite(hi)
        to_hi = nb & hi_f & ((st == _AT_HI) | ~lo_f)
        to_lo = nb & lo_f & ~to_hi
        to_free = nb & ~to_hi & ~to_lo
        st[to_hi], st[to_lo], st[to_free] = _AT_HI, _AT_LO, _FREE
        self.xval[to_hi] = hi[to_hi]
        self.xval[to_lo] = lo[to_lo]
        self.xval[to_free] = 0.0

    def _set_struct_bounds(self, lo_s, hi_s):
        n = self.n_tot - self.m
        self.lo[:n], self.hi[:n] = lo_s, hi_s
        self.fixed = self.hi - self.lo <= 0.0

    def set_bounds(self, lo_s, hi_s):
        """New structural bounds on the same basis; x_B follows the moved
        nonbasic columns."""
        self._set_struct_bounds(lo_s, hi_s)
        old = self.xval.copy()
        self._place_nonbasic()
        delta = self.xval - old
        moved = np.flatnonzero(delta)
        if moved.size:
            self.xB -= self.T[:, self.pos[moved]] @ delta[moved]

    def load(self, basis, status, lo_s, hi_s):
        """Adopt a stored basis under new structural bounds; refactors."""
        if self.n_art:
            self.drop_artificials()
        self.basis[:] = basis
        self.status[:] = status
        self._set_struct_bounds(lo_s, hi_s)
        self._place_nonbasic()
        return self.refactor() is not None

    def rebase(self, basis, status, lo_s, hi_s):
        """Adopt a stored basis under new structural bounds by Jordan
        exchanges from the current one, with no artificials present.

        Each variable of the stored basis that is not basic enters, in
        ascending id, at the row with the largest |T[r, k]| among the
        rows whose variable must leave (the first on a tie).  No value
        moves: the leaving variable keeps its basic value until the
        stored statuses are applied, and x_B then follows as in
        ``set_bounds``.  The basic variables are then the stored ones,
        though not necessarily on the same rows.  Returns False, leaving
        the tableau for ``load``, when an exchange finds no pivot above
        ``_REBASE_TOL``.
        """
        in_stored = np.zeros(self.N, dtype=bool)
        in_stored[basis] = True
        leaving = ~in_stored[self.basis]
        for q in np.flatnonzero(in_stored & (self.pos >= 0)):
            rows = np.flatnonzero(leaving)
            col = np.abs(self.T[rows, self.pos[q]])
            i = int(np.argmax(col))
            if not col[i] > _REBASE_TOL:
                return False
            r = int(rows[i])
            leave, value = self.basis[r], self.xB[r]
            self._pivot(r, self.pos[q], 0.0, _AT_LO)
            self.xval[leave] = value
            leaving[r] = False
        self.status[:] = status
        self.set_bounds(lo_s, hi_s)
        return True

    def solution_x(self):
        x = self.xval[:self.n_tot].copy()
        real = self.basis < self.n_tot
        x[self.basis[real]] = self.xB[real]
        return x

    def _optimal(self):
        n_tot = self.n_tot
        x = self.solution_x()
        np.clip(x, np.where(np.isfinite(self.lo[:n_tot]), self.lo[:n_tot], -np.inf),
                np.where(np.isfinite(self.hi[:n_tot]), self.hi[:n_tot], np.inf), out=x)
        return _SimplexResult(OPTIMAL, x, float(self.c_user @ x), self.iters)

    def _reduced_costs(self, cost):
        """cost - cost_B B^-1 [A | I | art], on the nonbasic columns."""
        return cost[self.nb] - cost[self.basis] @ self.T

    def _pivot(self, r, k, step, leave_status):
        """Basis change: the variable of column k enters at row r after
        moving by ``step``; the leaving one goes to the bound
        ``leave_status`` names and takes column k.  Returns the new row r
        of T and the pivot element."""
        T, basis = self.T, self.basis
        q, leave = self.nb[k], basis[r]
        enter_val = self.xval[q] + step
        self.xB -= step * T[:, k]
        self.status[leave] = leave_status
        self.xval[leave] = self.hi[leave] if leave_status == _AT_HI else self.lo[leave]
        basis[r] = q
        self.status[q] = _BASIC
        self.nb[k], self.pos[leave], self.pos[q] = leave, k, -1
        piv = T[r, k]
        Trow = T[r] / piv
        Trow[k] = 1.0 / piv
        colv = T[:, k].copy()
        colv[r] = 0.0
        # from a zero column the update leaves the leaving variable's column,
        # -colv / piv off row r and 1 / piv on it
        T[:, k] = 0.0
        T[r] = Trow
        _rank1_update(T, colv, Trow)
        # a row with colv == 0 keeps its B^-1 row bit for bit (up to the sign
        # of a zero), and with it its norm
        self.norm_stale[colv != 0.0] = True
        self.norm_stale[r] = True
        self.xB[r] = enter_val
        self.iters += 1
        self.since_refactor += 1
        return Trow, piv

    def _binv_rows(self, rows):
        """Rows of B^-1 at full width m: column i is slack i's column of T
        when the slack is nonbasic, else the unit column of its row.  The
        zeros stay in, so a sum along a row adds the same terms in the same
        order whichever slacks are basic."""
        n = self.n_tot - self.m
        out = np.zeros((rows.size, self.m))
        slack_col = self.pos[n:self.n_tot]
        nonbasic = slack_col >= 0
        out[:, nonbasic] = self.T[rows][:, slack_col[nonbasic]]
        held = self.basis[rows] - n
        unit = (held >= 0) & (held < self.m)
        out[unit, held[unit]] = 1.0
        return out

    def _binv_row_norms(self, rows):
        """|row i of B^-1|^2 for each given row.  Kept across pivots:
        only the rows a pivot or refactor touched since their last use
        are recomputed, a few rows at a time."""
        stale = rows[self.norm_stale[rows]]
        for c0 in range(0, stale.size, _REFACTOR_BLOCK):
            part = stale[c0:c0 + _REFACTOR_BLOCK]
            b_inv = self._binv_rows(part)
            self.row_norm[part] = np.einsum("ij,ij->i", b_inv, b_inv)
        self.norm_stale[stale] = False
        return self.row_norm[rows]

    def _farkas(self, r):
        """Whether row r of B^-1, applied to the original A and b, proves
        the current bounds infeasible."""
        n_tot = self.n_tot
        rho = self._binv_rows(np.array([r]))[0]
        alpha = np.concatenate([rho @ self.A, rho])
        beta = float(rho @ self.b)
        lo, hi = self.lo[:n_tot], self.hi[:n_tot]
        # round-off on a column with an infinite bound would void the proof
        alpha[(np.abs(alpha) < 1e-11) & ~(np.isfinite(lo) & np.isfinite(hi))] = 0.0
        with np.errstate(invalid="ignore"):
            low = np.sum(np.where(alpha > 0, alpha * lo, np.where(alpha < 0, alpha * hi, 0.0)))
            high = np.sum(np.where(alpha > 0, alpha * hi, np.where(alpha < 0, alpha * lo, 0.0)))
        return beta < low - _FARKAS_TOL or beta > high + _FARKAS_TOL

    # -- core loops --------------------------------------------------------------

    def run_phase(self, cost, phase1):
        """Primal simplex on ``cost`` from a primal feasible basis."""
        T, lo, hi = self.T, self.lo, self.hi
        status, xval, basis, nb = self.status, self.xval, self.basis, self.nb
        d = self._reduced_costs(cost) if np.any(cost[basis]) else cost[nb]
        devex = np.ones(nb.size)   # reference weights, approximate steepest edge
        stall = 0
        bland = False
        while True:
            if self.iters >= self.iter_cap:
                return ITER_LIMIT
            st = status[nb]
            at_lo = st == _AT_LO
            at_hi = st == _AT_HI
            free = st == _FREE
            viol = np.zeros(nb.size)
            viol[at_lo] = -d[at_lo]
            viol[at_hi] = d[at_hi]
            viol[free] = np.abs(d[free])
            viol[self.fixed[nb]] = 0.0
            if bland:
                elig = np.flatnonzero(viol > _D_TOL)
                if elig.size == 0:
                    return OPTIMAL
                k = int(elig[np.argmin(nb[elig])])
            else:
                score = np.where(viol > _D_TOL, viol * viol / devex, 0.0)
                k = int(np.argmax(score))
                if score[k] <= 0.0:
                    return OPTIMAL
                ties = np.flatnonzero(score == score[k])
                k = int(ties[np.argmin(nb[ties])])
            q = nb[k]
            if status[q] == _AT_HI:
                sgn = -1.0
            elif status[q] == _AT_LO:
                sgn = 1.0
            else:
                sgn = 1.0 if d[k] < 0 else -1.0
            w = T[:, k] * sgn

            t_flip = hi[q] - lo[q]
            if not np.isfinite(t_flip):
                t_flip = np.inf
            t_best, r_best = t_flip, -1
            cand = np.where(np.abs(w) > _PIV_TOL)[0]
            if cand.size:
                wc = w[cand]
                tgt = np.where(wc > 0, lo[basis[cand]], hi[basis[cand]])
                with np.errstate(invalid="ignore"):
                    tt = (self.xB[cand] - tgt) / wc
                tt[~np.isfinite(tgt)] = np.inf
                tt = np.maximum(tt, 0.0)
                tmin = float(np.min(tt)) if tt.size else np.inf
                if tmin < t_best:
                    ties = np.where(tt <= tmin + 1e-12)[0]
                    if bland:
                        sel = ties[np.argmin(basis[cand[ties]])]
                    else:
                        sel = ties[np.argmax(np.abs(wc[ties]))]
                    t_best, r_best = float(tt[sel]), int(cand[sel])
            if not np.isfinite(t_best):
                # phase 1 objective is bounded below; treat as numerical stop
                return OPTIMAL if phase1 else UNBOUNDED
            if t_best <= 1e-12:
                stall += 1
                if stall > max(64, self.m):
                    bland = True
            else:
                stall = 0
                bland = False

            if r_best < 0:
                self.iters += 1
                self.since_refactor += 1
                self.xB -= (t_best * sgn) * T[:, k]
                status[q] = _AT_HI if status[q] == _AT_LO else _AT_LO
                xval[q] = hi[q] if status[q] == _AT_HI else lo[q]
                continue

            Trow, piv = self._pivot(r_best, k, t_best * sgn,
                                    _AT_LO if w[r_best] > 0 else _AT_HI)
            d_q, d[k] = d[k], 0.0
            d -= d_q * Trow
            # Devex reference update from the (normalized) pivot row; column
            # k now holds the leaving variable
            wq = devex[k]
            np.maximum(devex, (Trow * Trow) * wq, out=devex)
            devex[k] = max(wq / (piv * piv), 1.0)
            if np.max(devex) > 1e8:
                devex[:] = 1.0
            if self.since_refactor >= _REFACTOR_PERIOD:
                perm = self.refactor()
                if perm is not None:
                    devex = devex[perm]
                d = self._reduced_costs(cost)

    def run_dual(self):
        """Bounded dual simplex on the user cost from a dual feasible basis.

        Returns OPTIMAL once x_B is within its bounds (to ``FEAS_TOL``),
        INFEASIBLE when the leaving row admits no entering column and the
        Farkas check confirms it, and None on a stall or an unconfirmed
        verdict.
        """
        T, lo, hi = self.T, self.lo, self.hi
        status, basis, nb = self.status, self.basis, self.nb
        d = self._reduced_costs(self.c_user)
        for _ in range(max(64, self.m)):
            if self.iters >= self.iter_cap:
                return None
            xB, lb, ub = self.xB, lo[basis], hi[basis]
            infeas = np.maximum(lb - xB, xB - ub)
            rows = np.flatnonzero(infeas > FEAS_TOL)
            if rows.size == 0:
                return OPTIMAL
            # dual steepest edge pricing with exact weights
            r = int(rows[np.argmax(infeas[rows] ** 2 / self._binv_row_norms(rows))])
            above = xB[r] > ub[r]
            # a > 0 marks the direction in which a nonbasic column moves x_B[r]
            # back toward the violated bound
            a = T[r] if above else -T[r]
            st = status[nb]
            cand = np.flatnonzero(~self.fixed[nb] & (
                ((st == _AT_LO) & (a > _PIV_TOL))
                | ((st == _AT_HI) & (a < -_PIV_TOL))
                | ((st == _FREE) & (np.abs(a) > _PIV_TOL))))
            if cand.size == 0:
                return INFEASIBLE if self._farkas(r) else None
            # Harris two-pass ratio test: the largest pivot among the columns
            # whose dual ratio is within tolerance of the smallest
            ac, dc = np.abs(a[cand]), np.abs(d[cand])
            t_max = float(np.min((dc + _D_TOL) / ac))
            near = np.flatnonzero(dc / ac <= t_max)
            best = cand[near[ac[near] == np.max(ac[near])]]
            k = int(best[np.argmin(nb[best])])
            bound = ub[r] if above else lb[r]
            Trow, _ = self._pivot(r, k, (xB[r] - bound) / T[r, k],
                                  _AT_HI if above else _AT_LO)
            d_q, d[k] = d[k], 0.0
            d -= d_q * Trow
            if self.since_refactor >= _REFACTOR_PERIOD:
                self.refactor()
                d = self._reduced_costs(self.c_user)
        return None

    def solve(self):
        """Cold solve: phase 1 on the artificials, then phase 2."""
        n_tot, n_art = self.n_tot, self.n_art
        if n_art:
            art_cost = np.zeros(self.N)
            art_cost[n_tot:] = 1.0
            st = self.run_phase(art_cost, phase1=True)
            if st == ITER_LIMIT:
                return _SimplexResult(ITER_LIMIT, None, None, self.iters)
            infeas = sum(self.xB[i] for i in range(self.m) if self.basis[i] >= n_tot)
            if infeas > 10 * FEAS_TOL:
                return _SimplexResult(INFEASIBLE, None, None, self.iters)
            self.lo[n_tot:] = 0.0
            self.hi[n_tot:] = 0.0
            self.fixed[n_tot:] = True
            self.xval[n_tot:] = 0.0
        cost = np.concatenate([self.c_user, np.zeros(n_art)])
        st = self.run_phase(cost, phase1=False)
        if st in (ITER_LIMIT, UNBOUNDED):
            return _SimplexResult(st, None, None, self.iters)
        return self._optimal()

    def reoptimize(self):
        """Warm solve after ``set_bounds``, ``rebase`` or ``load``: dual
        simplex, then a primal pass that confirms optimality.  None asks
        for another start.  ``iters`` keeps counting from where the
        caller left it."""
        st = self.run_dual()
        if st == INFEASIBLE:
            return _SimplexResult(INFEASIBLE, None, None, self.iters)
        if st is None or self.run_phase(self.c_user, phase1=False) != OPTIMAL:
            return None
        return self._optimal()


# ---------------------------------------------------------------------------
# public solves
# ---------------------------------------------------------------------------

def solve_lp(model: MilpModel) -> MilpSolution:
    """Solve the LP relaxation (integrality dropped, bounds kept)."""
    if not model.variables:
        raise ValueError("model has no variables")
    arrs = _Arrays(model)
    if arrs.trivially_infeasible:
        return arrs.solution(INFEASIBLE, None, None, np.inf)
    res = _Simplex(arrs.A, arrs.b, arrs.lo, arrs.hi, arrs.c, arrs.iter_cap).solve()
    if res.status != OPTIMAL:
        bound = {INFEASIBLE: np.inf, UNBOUNDED: -np.inf}.get(res.status, np.nan)
        return arrs.solution(res.status, None, None, bound, 0, res.iterations)
    return arrs.solution(OPTIMAL, res.objective, res.x[:arrs.n_struct], res.objective,
                         0, res.iterations)


def _full_bounds(arrs: _Arrays, lo, hi):
    lo_full = arrs.lo.copy()
    hi_full = arrs.hi.copy()
    lo_full[:arrs.n_struct] = lo
    hi_full[:arrs.n_struct] = hi
    return lo_full, hi_full


@dataclass(order=True)
class _Node:
    key: float       # floor(bound / GAP): orders the search, never prunes
    neg_nid: int     # ties on the key prefer the newest node (plunge)
    bound: float = field(compare=False)
    lo: np.ndarray = field(compare=False)
    hi: np.ndarray = field(compare=False)
    parent: int = field(default=-1, compare=False)
    # the parent's optimal basis (at the root, the start's), int32
    basis: np.ndarray | None = field(default=None, compare=False)
    status: np.ndarray | None = field(default=None, compare=False)   # parent's, int8


class _NodeLp:
    """Node LP solves of one search around its single working tableau.

    A node starts from its parent's optimal basis: by ``set_bounds`` when
    the tableau holds its parent, else by ``rebase`` when the tableau
    comes out of a warm solve, else by ``load`` (a refactor).  Rebasing
    and the in-place change need the tableau within ``_REFACTOR_PERIOD``
    pivots of its last refactor.  A rebased solve that ends without a
    verdict is retried once from ``load``; any other node without one,
    or whose basis the refactor finds singular, is solved cold.  The
    root is solved cold, or by ``_primal_start`` when it carries a start
    basis.
    """

    def __init__(self, arrs: _Arrays):
        self.arrs = arrs
        self.lp = None       # _Simplex over structural and slack columns
        self.holds = None    # id of the node whose optimal basis lp holds
        self.warm = False    # lp comes out of a warm solve, not a cold one

    def solve(self, node, nid):
        res, spent, lp = None, 0, self.lp
        if node.parent < 0 and node.basis is not None:
            res, spent = self._primal_start(node)
        elif node.basis is not None and lp is not None:
            lp.iters = 0
            fresh = lp.since_refactor < _REFACTOR_PERIOD
            stored = (node.basis, node.status, node.lo, node.hi)
            if node.parent == self.holds and fresh:
                lp.set_bounds(node.lo, node.hi)
                res = lp.reoptimize()
            else:
                # a warm tableau has no artificials: basis_of_last dropped them
                if self.warm and fresh and lp.rebase(*stored):
                    res = lp.reoptimize()
                # a failed rebase, or a rebased solve that ended without a
                # verdict, starts again from the refactored stored basis
                if res is None and lp.load(*stored):
                    res = lp.reoptimize()
            spent = lp.iters
        self.warm = res is not None and node.parent >= 0
        if res is None:
            res = self._cold(node)
            res.iterations += spent
        self.holds = nid if res.status == OPTIMAL and self.lp is not None else None
        return res

    def _primal_start(self, node):
        """The root from a start basis: load it, and when every basic
        value is within ``FEAS_TOL`` of its bounds run primal phase 2.
        Returns (result or None, pivots spent); None when the basis is
        singular or infeasible or phase 2 does not end optimal."""
        arrs = self.arrs
        self.lp = None
        lp = _Simplex(arrs.A, arrs.b, *_full_bounds(arrs, node.lo, node.hi), arrs.c,
                      arrs.iter_cap)
        lp.drop_artificials()
        if lp.load(node.basis, node.status, node.lo, node.hi):
            lb, ub = lp.lo[lp.basis], lp.hi[lp.basis]
            if (np.all((lp.xB >= lb - FEAS_TOL) & (lp.xB <= ub + FEAS_TOL))
                    and lp.run_phase(lp.c_user, phase1=False) == OPTIMAL):
                self.lp = lp
                return lp._optimal(), lp.iters
        return None, lp.iters

    def _cold(self, node):
        arrs = self.arrs
        self.lp = None   # release the working tableau before building another
        # its artificials stay until a child needs this basis (basis_of_last)
        self.lp = _Simplex(arrs.A, arrs.b, *_full_bounds(arrs, node.lo, node.hi), arrs.c,
                           arrs.iter_cap)
        return self.lp.solve()

    def basis_of_last(self):
        """The working tableau's basis and statuses, to store in children;
        (None, None) when the tableau cannot be narrowed to them."""
        if self.lp.n_art:
            self.lp.drop_artificials()
            if self.lp.refactor() is None:
                self.lp = self.holds = None
                return None, None
        return self.lp.basis.astype(np.int32), self.lp.status.copy()


def solve_milp(model: MilpModel, options: MilpOptions | None = None,
               start: tuple | None = None) -> MilpSolution:
    """Best-first branch and bound over binaries and SOS1 sets.

    The root LP is a cold primal solve, or with ``start`` (an earlier
    solve's ``root_basis``; see the module docstring for which models
    may share one) primal phase 2 from that basis when it is feasible,
    else the cold solve.  A solution from a start may be another
    optimal vertex than the cold solve's, with the same objective
    within ``GAP``.  Every other node re-optimizes
    from its parent's optimal basis with the dual simplex: in place when
    its parent was the last node solved, otherwise after Jordan
    exchanges onto the basis it stores, or a refactor from it where the
    exchanges cannot be used (see the module docstring for the node
    storage, refactor policy, infeasibility confirmation and memory
    rule).  A rebased node whose warm solve cannot reach a confirmed
    verdict is retried once from a refactor; a node still without one
    is solved cold.
    ``simplex_iterations`` counts every primal and dual pivot and every
    exchange of a rebase, and those of a start that fell back to cold.

    Deterministic for fixed inputs and options.  Open nodes are keyed on
    ``floor(bound / GAP)``, their relaxation bound rounded down to the
    termination gap, with ties resolved toward the most recently created
    node.  Bounds equal within ``GAP`` are one plateau to the search,
    which it plunges depth-first until the first incumbent closes it;
    keyed on the exact bound, siblings whose bounds differ only by
    round-off would jump ahead of one another and break the plunge.  The
    key orders the search and nothing else: pruning (``bound >=
    incumbent - GAP``), ``best_bound`` and ``gap`` read the exact bound.
    Fractional ties break to the lowest variable id, and SOS splits
    follow the ordered member list.

    Status: ``NodeLimit`` when ``node_limit`` stopped the search with
    open nodes left, else ``IterLimit`` when a node LP hit the simplex
    cap and was dropped, else ``Optimal`` or ``Infeasible``.
    ``best_bound`` covers the incumbent, the open nodes and the nodes
    dropped at the cap; ``gap`` is its distance to the incumbent.
    """
    if not model.variables:
        raise ValueError("model has no variables")
    opts = options or MilpOptions()
    arrs = _Arrays(model)
    if arrs.trivially_infeasible:
        return arrs.solution(INFEASIBLE, None, None, np.inf)
    n = arrs.n_struct
    bin_ids = np.array(model.binary_ids, dtype=int)
    sos_sets = [np.array(s, dtype=int) for s in model.sos1_sets]
    node_lp = _NodeLp(arrs)

    total_iters = 0
    node_count = 0
    next_id = 1
    incumbent_obj = np.inf  # internal min sense
    incumbent_x = None
    dropped_bound = np.inf  # best bound among nodes dropped at the simplex cap
    stopped = False

    basis, status = arrs.start_basis(start) or (None, None)
    heap = [_Node(-np.inf, 0, -np.inf, arrs.lo[:n].copy(), arrs.hi[:n].copy(),
                  basis=basis, status=status)]
    root_basis = None

    while heap:
        node = heapq.heappop(heap)
        if node.bound >= incumbent_obj - GAP:
            continue
        if node_count >= opts.node_limit:
            heapq.heappush(heap, node)
            stopped = True
            break
        nid = -node.neg_nid
        res = node_lp.solve(node, nid)
        node_count += 1
        total_iters += res.iterations
        if res.status == ITER_LIMIT:
            dropped_bound = min(dropped_bound, node.bound)
            continue
        if res.status == UNBOUNDED:
            return arrs.solution(UNBOUNDED, None, None, -np.inf, node_count, total_iters)
        if res.status != OPTIMAL:
            continue
        if res.objective >= incumbent_obj - GAP:
            continue
        x = res.x[:n]

        branch_var = -1
        if bin_ids.size:
            fracs = np.abs(x[bin_ids] - np.round(x[bin_ids]))
            j = int(np.argmax(fracs))
            if fracs[j] > INT_TOL:
                branch_var = int(bin_ids[j])
        viol_sos = -1
        if branch_var < 0:
            for k, members in enumerate(sos_sets):
                if np.count_nonzero(np.abs(x[members]) > INT_TOL) > 1:
                    viol_sos = k
                    break

        if branch_var < 0 and viol_sos < 0:
            incumbent_obj = res.objective
            incumbent_x = x.copy()
            continue

        # children are pushed preferred-last: equal bounds pop newest first,
        # so the plunge follows the relaxation's strongest hint
        if branch_var >= 0:
            lo_d, hi_d = node.lo.copy(), node.hi.copy()
            hi_d[branch_var] = 0.0
            down = (lo_d, hi_d)
            lo_u, hi_u = node.lo.copy(), node.hi.copy()
            lo_u[branch_var] = 1.0
            up = (lo_u, hi_u)
            bounds = (down, up) if x[branch_var] >= 0.5 else (up, down)
        else:
            members = sos_sets[viol_sos]
            weights = np.arange(1.0, len(members) + 1.0)
            absx = np.abs(x[members])
            wbar = float(weights @ absx / absx.sum())
            split = min(max(int(np.floor(wbar)), 1), len(members) - 1)
            top = int(np.argmax(absx))
            zero_sets = [members[split:], members[:split]]
            if top >= split:   # dominant member lives in the tail: keep it last
                zero_sets.reverse()
            bounds = []
            for zero_ids in zero_sets:
                lo_c, hi_c = node.lo.copy(), node.hi.copy()
                lo_c[zero_ids] = 0.0
                hi_c[zero_ids] = 0.0
                bounds.append((lo_c, hi_c))
        basis, status = node_lp.basis_of_last() if node_lp.holds == nid else (None, None)
        if nid == 0 and basis is not None:
            root_basis = (basis, status)
        key = np.floor(res.objective / GAP)
        for lo_c, hi_c in bounds:
            heapq.heappush(heap, _Node(key, -next_id, res.objective, lo_c, hi_c, nid, basis,
                                       status))
            next_id += 1

    bound = min([incumbent_obj, dropped_bound] + [nd.bound for nd in heap])
    if stopped:
        status = NODE_LIMIT
    elif dropped_bound < np.inf:
        status = ITER_LIMIT
    else:
        status = OPTIMAL if incumbent_x is not None else INFEASIBLE
    objective = incumbent_obj if incumbent_x is not None else None
    return arrs.solution(status, objective, incumbent_x, bound, node_count, total_iters,
                         root_basis)


def brute_force(model: MilpModel) -> MilpSolution:
    """Enumerate binary assignments x SOS1 active-member choices; solve each LP.

    Intended as a test oracle.  ``Unbounded`` when any enumerated LP is
    unbounded; ``IterLimit`` (with the best optimum found, and no bound)
    when any hit the simplex cap, since that LP may hold a better one;
    else ``Optimal`` or ``Infeasible``.  Raises :class:`TooLarge` above
    2^20 combinations.
    """
    if not model.variables:
        raise ValueError("model has no variables")
    arrs = _Arrays(model)
    if arrs.trivially_infeasible:
        return arrs.solution(INFEASIBLE, None, None, np.inf)
    n = arrs.n_struct
    bin_ids = model.binary_ids
    sos_sets = model.sos1_sets
    combos = 2 ** len(bin_ids)
    for s in sos_sets:
        combos *= len(s) + 1
    if combos > 2 ** 20:
        raise TooLarge(f"{combos} combinations exceed the enumeration cap")

    lo0 = arrs.lo[:n].copy()
    hi0 = arrs.hi[:n].copy()
    best = {"obj": np.inf, "x": None}
    stats = {"iters": 0, "solves": 0}
    statuses = set()

    def enumerate_sos(k, lo, hi):
        if k == len(sos_sets):
            res = _Simplex(arrs.A, arrs.b, *_full_bounds(arrs, lo, hi), arrs.c,
                           arrs.iter_cap).solve()
            stats["solves"] += 1
            stats["iters"] += res.iterations
            statuses.add(res.status)
            if res.status == OPTIMAL and res.objective < best["obj"] - 1e-12:
                best["obj"] = res.objective
                best["x"] = res.x[:n].copy()
            return
        for choice in range(-1, len(sos_sets[k])):
            lo2, hi2 = lo.copy(), hi.copy()
            for idx, vid in enumerate(sos_sets[k]):
                if idx != choice:
                    lo2[vid] = 0.0
                    hi2[vid] = 0.0
            enumerate_sos(k + 1, lo2, hi2)

    for mask in range(2 ** len(bin_ids)):
        lo, hi = lo0.copy(), hi0.copy()
        for j, vid in enumerate(bin_ids):
            bit = float((mask >> j) & 1)
            lo[vid] = hi[vid] = bit
        enumerate_sos(0, lo, hi)

    if UNBOUNDED in statuses:
        return arrs.solution(UNBOUNDED, None, None, -np.inf, stats["solves"], stats["iters"])
    bound = best["obj"]
    if ITER_LIMIT in statuses:
        status, bound = ITER_LIMIT, -np.inf
    else:
        status = OPTIMAL if best["x"] is not None else INFEASIBLE
    objective = best["obj"] if best["x"] is not None else None
    return arrs.solution(status, objective, best["x"], bound,
                         stats["solves"], stats["iters"])
