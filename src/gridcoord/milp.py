"""Linear / mixed-integer linear model container and embedded solver.

The LP engine is a bounded-variable tableau simplex over the structural
columns and one slack column per row.  A cold solve starts from the
slack basis: phase 1 drives artificial columns out, phase 2 optimizes,
both with Devex-weighted Dantzig pricing and a Bland anti-cycling
fallback.  ``solve_lp`` and ``brute_force`` are cold solves, and so is
the root node of ``solve_milp`` unless it is given a start.

- **Rows the LP keeps.**  A row enters the LP when it has coefficients
  and the variable bounds do not already satisfy it: an LE or GE row
  whose activity range over the model's variable box lies inside its
  bound (an exact test, with no tolerance) is left out.  Node bounds
  only tighten, so such a row holds at every node, and the search
  never needs it.  EQ rows with coefficients are always kept.
- **Kept LP form.**  A model keeps its standardized form between solves
  (``solve_lp``, ``solve_milp`` and ``brute_force`` alike): the kept
  rows with their summed nonzeros, ``b``, and the bounds of the
  structurals and of the slacks, which carry the senses (``_LpForm``).
  Its arrays are read-only, so no solver path can write to them.  The
  objective is not part of it: ``c``, like the dense A, is filled at
  each solve and freed after it.  ``set_objective`` keeps the form, and
  ``set_rhs`` on a kept EQ row replaces that entry of ``b``.  Any other
  change through the model's methods drops it (``add_variable``,
  ``add_constraint``, ``add_sos1``, ``fix_variable``, and ``set_rhs``
  on any other row, whose new bound may move it into or out of the LP),
  and the next solve builds it again.  The variable and row entries are
  frozen, so a model changes only through those methods, and a kept
  form always equals the one a freshly built model would give.
- **Start basis.**  ``solve_milp(start=...)`` takes an earlier solve's
  optimal root basis (``MilpSolution.root_basis``) from a model whose
  structural variables, and rows the LP keeps, are prefixes of this
  model's.  Slack ids shift past the appended structurals; each
  appended structural starts nonbasic at a finite bound (free when it
  has none), and each appended row with its slack basic.  That basis is
  the root node's stored basis, and the root is solved as any node
  whose stored basis meets no tableau: a tableau built straight from the
  basis (its nonbasic columns placed at their bounds, then a refactor;
  no cold tableau with artificial columns is filled first), the dual
  simplex for at most max(64, rows) pivots, and the primal pass that
  confirms its verdict.  A primal feasible start takes no dual
  pivot and ends on primal phase 2, as a cold solve does; one that is
  dual feasible as given takes the dual simplex, as a branch child
  does.  Any other start may still reach a confirmed verdict.  Wrong
  lengths, a singular refactor, or a solve that ends without a verdict
  go to the cold solve, and the pivots spent count.  A cold root's
  ``root_basis`` is taken without a refactor (see "One working
  tableau"), so a basis that a refactor would find singular is still
  returned; a start from it goes cold at its refactor.  A later model that
  appends rows and structurals but keeps the earlier variable bounds
  keeps the same earlier rows, so the prefix holds; a start that does
  not match is only a worse basis, never a wrong answer.
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

- **Root fixings.**  Once per ``solve_milp``, before the root LP,
  activity-based bound propagation over the kept rows fixes binaries
  (Savelsbergh, *ORSA J. Comput.* 6, 1994): a binary goes to 0 (or 1)
  when its other value makes some row's activity range over the box
  miss the row's bound by more than ``_FARKAS_TOL``, and the passes
  repeat on the tightened box until one fixes nothing.  Continuous
  bounds stay as they are; tightening them too sent feeder13-lowpv's
  stage 1 back to its node limit.  The fixings are the root node's
  bounds only, never written into the model or its kept form: a
  ``set_rhs`` that keeps the form would leave them stale, the
  start-basis prefix rule stays true, and ``solve_lp`` and
  ``brute_force`` keep the model's own box.  A row that misses its
  bound over the root box, or a binary with both values ruled out,
  ends the solve ``Infeasible`` with no LP.  Child nodes do not
  propagate.
- **Root point.**  ``solve_milp(root_point=f)`` calls ``f`` once, on a
  copy of the root LP's optimal x, and only when the root LP ends
  optimal.  ``f`` returns a candidate incumbent, typically that x with
  its integer variables rewritten, or None.  The candidate is checked,
  never trusted: within the root node's bounds (the fixings included),
  every row the LP keeps within ``FEAS_TOL`` of its bounds (the rows
  left out hold over the box), every binary within ``INT_TOL`` of 0 or
  1, and at most one member of each SOS1 set above ``INT_TOL`` in
  magnitude.  A candidate that passes is the incumbent, so one within
  ``GAP`` of the root bound ends the search at the root.  One that
  fails, or None, is dropped, and the search then runs as it does with
  no ``f``, pivot for pivot: the check reads the solve's arrays and
  changes nothing.  ``MilpSolution.root_point`` says whether the final
  incumbent is the candidate.

- **Node order.**  Open nodes pop in order of their LP bound rounded
  down to ``GAP``, newest first among equal keys.  Stage models often
  have a root bound equal to the optimum, so a search that no root
  point closes is a hunt for an incumbent on a plateau of equal
  bounds; keyed on the exact bound, round-off of 1e-12 between
  siblings reordered that plateau and broke the plunge.  The rounded
  key only orders the search: pruning, the reported ``best_bound`` and
  ``gap`` read each node's exact bound.
- **What a node stores.**  Its bounds, plus its parent's optimal basis
  (int32, one entry per row) and variable statuses (int8, one per
  structural or slack).  Siblings share those two arrays.  No node stores a tableau.
- **One working tableau.**  A node whose parent was the last node
  solved re-optimizes in that tableau in place.  Any other node is
  rebased: Jordan exchanges that move no value pivot the working
  tableau onto its stored basis, a few rank-1 updates where a refactor
  would rebuild every column.  A node whose stored basis meets no
  tableau, or a cold one (a root with a start basis, or a node after a
  cold solve that did not branch), gets a new tableau built from that
  basis.  A cold solve's tableau becomes the working one.  Every stored
  basis indexes structurals and slacks only: a basic artificial gives
  way to its row's slack, which spans the same unit column.  That
  narrowing reads the basis and leaves the tableau alone, so a cold
  root that closes returns its ``root_basis`` with no refactor.  Only a
  cold node that branches has its tableau replaced by one built at the
  narrowed basis, which its first child then re-optimizes in place.
- **Refactor.**  Slack and artificial columns are signed unit columns,
  so B^-1 needs only an LU of the block of basic structural columns on
  the rows no basic unit column covers (at most n_struct square).  The
  refactor renumbers the nonbasic columns in variable order and rebuilds
  them in place, ``_REFACTOR_BLOCK`` (64) at a time.  The LU's block,
  the unit rows' block and each block of columns are scattered from the
  nonzeros of their columns, which the kept form holds sorted by column
  (``_LpForm.by_col``), with the LU's rows first and then the rows under
  the basic unit columns.  Dense gathers of A cost about a third of each
  refactor.  LAPACK's results depend on where a column sits in its
  block, so the block split and the arrays passed to ``dgetrf``,
  ``dgetrs`` and the product with the unit rows are the gathers', bit
  for bit, in values, shape and layout.  It runs after every
  ``_REFACTOR_PERIOD`` pivots, in the primal and the dual simplex alike,
  when a tableau is built from a stored basis (a start, a node that
  meets no warm tableau, a cold node that branches), and when a node is
  loaded from its stored basis instead of rebased: at the period, when
  an exchange finds no pivot above ``_REBASE_TOL``, and to retry a node
  whose warm solve (in place or rebased) ended without a verdict.  The
  LU goes through LAPACK's ``dgetrf`` and ``dgetrs`` directly, and each
  pivot's rank-1 update through BLAS's ``dger``: scipy's compiled
  wrappers, which ``numkit`` loads without the ``scipy.linalg`` package.
- **B^-1 rows.**  Column i of B^-1 is slack i's column of the full
  tableau: its column of T when the slack is nonbasic, else the unit
  column of the row it is basic in.  The dual steepest-edge weights and
  the Farkas check rebuild the rows they need from that.  The squared
  norm of each row is kept across pivots.  A pivot marks stale only
  the pivot row and the rows with a nonzero in the entering column: a
  row with a zero there is unchanged bit for bit.  A refactor marks
  every row stale.
- **Verdicts.**  A node is optimal only after a primal pricing pass on
  the dual simplex's end point finds nothing to improve.  It is pruned
  as infeasible only when a Farkas check recomputed from the original
  rows (row r of B^-1 applied to A and b) proves the bounds infeasible.
  An unconfirmed verdict or a dual stall (more than max(64, rows)
  pivots) after an in-place change or a rebase retries once from the
  refactored stored basis; one after that retry or on a tableau built
  from the stored basis, or a singular refactor, falls back to a cold
  solve of that node.
- **Memory.**  The search holds one tableau, never a copy per node:
  m x n_struct, or m x (n_struct + n_art) after a cold solve.  Each
  new tableau, cold or built from a basis, is made only after the old
  one is released, and the refactor works in blocks of columns, so the
  warm path adds only the refactor's LU and a few blocks to a cold
  solve.  The slack identity is never stored: ``_Arrays.A`` holds
  structural columns only.

A brute-force enumerator over binary assignments and SOS1 active-member
choices, made of cold LP solves, serves as the test oracle.

Fixed settings (module constants no caller changes): the tolerances
``FEAS_TOL = 1e-7``, ``INT_TOL = 1e-7`` and ``GAP = 1e-6``, and
``ITER_FACTOR = 50``.  An LP solve stops with ``IterLimit`` after
``ITER_FACTOR * (rows + cols)`` pivots (``_Arrays.iter_cap``), a guard
against cycling far above what the stage LPs take.

Scale notes: models in this package stay below roughly two thousand
rows and a few hundred structural columns, so T is kept dense.  The
only presolve is the row-activity test above: it keeps out of the LP
the rows the variable box already satisfies (about a quarter of the
bundled feeders' stage rows, among them the zero-M Big-M rows and the
capability rows the boxes cover), and fixes binaries at the root
(38-62% of the bundled Big-M stage models' binaries).  Only the root
fixings tighten bounds, and neither removes an integer-feasible point.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import TooLarge, UnknownVariable
from .numkit import dger as _dger, dgetrf, dgetrs


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
# integrality of binaries and SOS1 members.  A Big-M row turns a binary
# INT_TOL off integral into a droop error of up to M * INT_TOL, so the value
# must stay below the droop check's 1e-6 over the largest M of the stage
# models (3.25 in the bundled ones)
INT_TOL = 1e-7
GAP = 1e-6          # absolute optimality gap at termination
ITER_FACTOR = 50    # simplex cap per LP solve = ITER_FACTOR * (rows + cols)


@dataclass(frozen=True)
class MilpOptions:
    """``node_limit`` stays an option because callers differ: the stages
    run to optimality, a budgeted benchmark workload stops at 60 nodes.
    It must be an int of at least 1 (a bool is not one); anything else
    raises ``ValueError``."""
    node_limit: int = 10 ** 6

    def __post_init__(self):
        limit = self.node_limit
        if not isinstance(limit, int) or isinstance(limit, bool) or limit < 1:
            raise ValueError(f"node_limit must be an int of at least 1, not {limit!r}")


@dataclass(frozen=True)
class _Variable:
    name: str
    lo: float
    hi: float
    kind: str


@dataclass(frozen=True)
class _Constraint:
    coeffs: tuple      # (variable id, coefficient) pairs, as given
    sense: str
    rhs: float
    name: str


def _finite(value, what):
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{what} {value} is not finite")
    return value


def _bound(value):
    value = float(value)
    if math.isnan(value):
        raise ValueError("variable bound is NaN")
    return value


class MilpModel:
    """Mutable builder for an LP/MILP instance.

    Variables and constraints are identified by the integer ids returned
    from the ``add_*`` methods.  Binary variables always carry [0, 1]
    bounds; SOS1 sets are ordered lists of variable ids (duplicates are
    dropped, keeping first occurrence).  Bounds may be infinite but not
    NaN; coefficients and right-hand sides must be finite.

    The entries of ``variables`` and ``constraints`` are frozen: a model
    changes only through its methods.  A solve keeps the model's
    standardized LP form for the next one; ``set_objective`` and
    ``set_rhs`` on a kept EQ row keep it too, and every other change
    drops it (see "Kept LP form" in the module docstring).
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self.variables: list[_Variable] = []
        self.constraints: list[_Constraint] = []
        self.sos1_sets: list[list[int]] = []
        self.objective_sense = MIN
        self.objective: dict[int, float] = {}
        self.objective_const = 0.0
        self._form: _LpForm | None = None

    def add_variable(self, lo=0.0, hi=np.inf, kind=CONTINUOUS, name=None) -> int:
        if kind == BINARY:
            lo, hi = 0.0, 1.0
        lo, hi = _bound(lo), _bound(hi)
        if lo > hi:
            raise ValueError(f"variable lower bound {lo} above upper bound {hi}")
        vid = len(self.variables)
        self.variables.append(_Variable(name or f"x{vid}", lo, hi, kind))
        self._form = None
        return vid

    def add_constraint(self, coeffs, sense, rhs, name=None) -> int:
        if sense not in (LE, GE, EQ):
            raise ValueError(f"unknown sense {sense!r}")
        items = tuple(coeffs.items()) if isinstance(coeffs, dict) else tuple(coeffs)
        for vid, coef in items:
            self._check_var(vid)
            if not math.isfinite(coef):
                raise ValueError(f"row coefficient {coef} is not finite")
        cid = len(self.constraints)
        self.constraints.append(_Constraint(items, sense, _finite(rhs, "right-hand side"),
                                            name or f"c{cid}"))
        self._form = None
        return cid

    def add_sos1(self, var_ids) -> int:
        seen, members = set(), []
        for vid in var_ids:
            self._check_var(vid)
            if vid not in seen:
                seen.add(vid)
                members.append(vid)
        self.sos1_sets.append(members)
        self._form = None
        return len(self.sos1_sets) - 1

    def set_objective(self, sense, coeffs, const=0.0):
        if sense not in (MIN, MAX):
            raise ValueError(f"unknown objective sense {sense!r}")
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        obj = {}
        for vid, c in items:
            self._check_var(vid)
            obj[vid] = obj.get(vid, 0.0) + _finite(c, "objective coefficient")
        self.objective_sense = sense
        self.objective = obj
        self.objective_const = _finite(const, "objective constant")

    def set_rhs(self, row, value):
        """Set a row's right-hand side.  On a row the LP keeps with sense
        EQ the kept LP form stays, with that entry of its ``b`` replaced;
        on any other row (an LE/GE row may enter or leave the LP with its
        bound) the form is dropped."""
        if not isinstance(row, (int, np.integer)) or not 0 <= row < len(self.constraints):
            raise ValueError(f"row id {row!r} not in model")
        con = self.constraints[row]
        value = _finite(value, "right-hand side")
        self.constraints[row] = replace(con, rhs=value)
        form = self._form
        if form is not None and con.sense == EQ:
            k = int(np.searchsorted(form.rows, row))
            if k < form.rows.size and form.rows[k] == row:
                b = form.b.copy()
                b[k] = value
                form.b = _read_only(b)
                return
        self._form = None

    def fix_variable(self, vid, value):
        self._check_var(vid)
        value = _bound(value)
        self.variables[vid] = replace(self.variables[vid], lo=value, hi=value)
        self._form = None

    def copy(self, name=None):
        """A new model with this one's variables, rows, SOS1 sets and
        objective.  The two share the frozen variable and row entries, so
        a copy costs one reference per entry; either model may then
        change on its own."""
        out = MilpModel(self.name if name is None else name)
        out.variables, out.constraints = list(self.variables), list(self.constraints)
        out.sos1_sets = [list(members) for members in self.sos1_sets]
        out.objective_sense, out.objective_const = self.objective_sense, self.objective_const
        out.objective = dict(self.objective)
        return out

    def _check_var(self, vid):
        if not isinstance(vid, (int, np.integer)) or not 0 <= vid < len(self.variables):
            raise UnknownVariable(f"variable id {vid!r} not in model")

    @property
    def binary_ids(self):
        return [i for i, v in enumerate(self.variables) if v.kind == BINARY]


@dataclass
class MilpSolution:
    """A solve's outcome, in the model's objective sense.

    ``best_bound`` is the best objective any solution can reach, as far
    as the search proved it, and ``gap`` is |objective - best_bound|
    (inf without an incumbent).  ``root_basis`` is the root LP's optimal
    (basis int32[m], status int8[n + m]) over structurals and the
    slacks of the rows the LP kept, kept whenever the root LP ends
    optimal (None otherwise, and from ``solve_lp`` and
    ``brute_force``).  A cold root's basis has each basic artificial
    replaced by its row's slack, with no refactor, so it is returned
    even when a refactor would find it singular; a start from such a
    basis goes cold.
    ``solve_milp(start=...)`` takes it for this model or one that
    appends structurals and rows to it under the same variable bounds,
    as the root node's stored basis, solved as any node's.
    ``lp_rows`` is the number of rows the LP kept.  ``root_fixed``
    counts the binaries that root bound propagation fixed before the
    root LP (0 from ``solve_lp`` and ``brute_force``, and when
    propagation proves the model infeasible).  ``root_point`` is True
    when the incumbent is the point the ``root_point`` function of
    ``solve_milp`` returned (see "Root point" in the module docstring).
    """
    status: str
    objective: float | None
    x: np.ndarray | None
    node_count: int = 0
    simplex_iterations: int = 0
    best_bound: float = np.nan
    gap: float = np.inf
    root_basis: tuple | None = field(default=None, repr=False, compare=False)
    lp_rows: int = 0
    root_fixed: int = 0
    root_point: bool = False

    def value(self, vid: int) -> float:
        return float(self.x[vid])


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


def _activity_terms(a, lo, hi):
    """Least and greatest value of each term a * x over lo <= x <= hi,
    elementwise; -inf or inf where a nonzero coefficient meets an
    infinite bound.  A row's activity range is the sum of its terms."""
    pos, neg = a > 0, a < 0
    # a zero coefficient takes the bound 0, never an infinite one
    at_low = np.where(pos, lo, np.where(neg, hi, 0.0))
    at_high = np.where(pos, hi, np.where(neg, lo, 0.0))
    return a * at_low, a * at_high


def _read_only(a):
    a.flags.writeable = False
    return a


class _LpForm:
    """A model's standardized rows and bounds, which its solves keep
    between them (``MilpModel._form``); the objective is not part of it.

    Rows are the model's constraints with coefficients, less each LE or
    GE row whose activity range over the variable bounds already lies
    inside its bound (tested exactly): node bounds only tighten, so such
    a row holds at every node.  ``rows`` holds the model's ids of the
    rows kept, ascending; ``r``, ``j`` and ``vals`` their nonzeros, with
    repeated entries summed and ``r`` counting kept rows; ``b`` their
    right-hand sides; ``lo`` and ``hi`` the bounds of the structurals,
    then of each kept row's slack, which carry its sense.  ``by_col``
    holds the nonzeros again as (r, j, vals) sorted by column, rows
    ascending within one, for the refactor.  Every array is read-only."""

    def __init__(self, model: MilpModel):
        n = len(model.variables)
        lo_s = np.array([v.lo for v in model.variables])
        hi_s = np.array([v.hi for v in model.variables])
        ids = np.array([i for i, con in enumerate(model.constraints) if con.coeffs],
                       dtype=np.intp)
        rows = [model.constraints[i] for i in ids]
        # the nonzeros as (row, column) keys, with repeated entries summed
        # in list order, as a loop of A[i, vid] += coef would
        entries = [item for con in rows for item in con.coeffs]
        vids, coefs = zip(*entries) if entries else ((), ())
        keys = (np.repeat(np.arange(ids.size), [len(con.coeffs) for con in rows]) * n
                + np.array(vids, dtype=np.intp))
        keys, inverse = np.unique(keys, return_inverse=True)
        vals = np.bincount(inverse, np.array(coefs, dtype=float), minlength=keys.size)
        r, j = np.divmod(keys, n)
        low, high = (np.bincount(r, t, minlength=ids.size)
                     for t in _activity_terms(vals, lo_s[j], hi_s[j]))
        b = np.array([con.rhs for con in rows], dtype=float)
        sense = np.array([con.sense for con in rows], dtype=object)
        keep = ~(((sense == LE) & (high <= b)) | ((sense == GE) & (low >= b)))
        b, sense = b[keep], sense[keep]
        nz = keep[r]
        self.rows = _read_only(ids[keep])
        self.r = _read_only((np.cumsum(keep) - 1)[r[nz]])
        self.j, self.vals = _read_only(j[nz]), _read_only(vals[nz])
        order = np.argsort(self.j, kind="stable")
        self.by_col = tuple(_read_only(a[order]) for a in (self.r, self.j, self.vals))
        self.b = _read_only(b)
        self.lo = _read_only(np.concatenate([lo_s, np.where(sense == GE, -np.inf, 0.0)]))
        self.hi = _read_only(np.concatenate([hi_s, np.where(sense == LE, np.inf, 0.0)]))
        self.trivially_infeasible = any(
            not {LE: 0.0 <= con.rhs + 1e-12,
                 GE: 0.0 >= con.rhs - 1e-12,
                 EQ: abs(con.rhs) <= 1e-12}[con.sense]
            for con in model.constraints if not con.coeffs)


def _integer_violation(x, bin_ids, sos_sets):
    """The search's integer-feasibility rule for ``x``, as (binary to
    branch on, index of the SOS1 set to split): the binary farthest from
    integral when one is more than ``INT_TOL`` off, else the first SOS1
    set with more than one member above ``INT_TOL`` in magnitude, else
    (-1, -1), which means ``x`` is integer feasible."""
    if bin_ids.size:
        fracs = np.abs(x[bin_ids] - np.round(x[bin_ids]))
        j = int(np.argmax(fracs))
        if fracs[j] > INT_TOL:
            return int(bin_ids[j]), -1
    for k, members in enumerate(sos_sets):
        if np.count_nonzero(np.abs(x[members]) > INT_TOL) > 1:
            return -1, k
    return -1, -1


class _Arrays:
    """Standardized arrays of one solve: A x + s = b with bounded
    structurals x and slacks s.  ``A`` holds the structural columns only;
    the slack block is the identity and stays implicit, as do lo, hi and
    c of the columns after A's (the slacks).

    Everything but ``A`` and ``c`` is read from the model's kept
    ``_LpForm``, built first when the model has none.  ``A`` is filled
    from the form's nonzeros and ``c`` from the objective, and both live
    as long as the solve."""

    def __init__(self, model: MilpModel):
        if model._form is None:
            model._form = _LpForm(model)
        form = model._form
        n, m = len(model.variables), form.b.size
        A = np.zeros((m, n))
        A[form.r, form.j] = form.vals
        c = np.zeros(n + m)
        sign = 1.0 if model.objective_sense == MIN else -1.0
        for vid, coef in model.objective.items():
            c[vid] = sign * coef
        self.rows, self.trivially_infeasible = form.rows, form.trivially_infeasible
        self.nonzeros, self.by_col = (form.r, form.j, form.vals), form.by_col
        self.A, self.b, self.lo, self.hi, self.c = A, form.b, form.lo, form.hi, c
        self.n_struct, self.m = n, m
        self.iter_cap = ITER_FACTOR * (m + n)
        self.obj_sign, self.obj_const = sign, model.objective_const

    def solution(self, status, objective, x, bound, nodes=0, iterations=0, root_basis=None,
                 fixed=0, from_root_point=False):
        """A MilpSolution in the model's sense from internal (min-sense) values."""
        gap = np.inf
        if objective is not None:
            gap = abs(objective - bound)
            objective = self.obj_sign * objective + self.obj_const
        return MilpSolution(status, objective, x, nodes, iterations,
                            self.obj_sign * bound + self.obj_const, gap, root_basis,
                            self.m, fixed, from_root_point)

    def admits(self, x, lo, hi, binaries, sos_sets):
        """Whether ``x`` is an integer-feasible point within the structural
        box [lo, hi]: every kept row within ``FEAS_TOL`` of its bounds,
        and integer feasible by the search's own rule
        (``_integer_violation``).  Rows the LP leaves out hold over the
        model's box, and so over [lo, hi]."""
        x = np.asarray(x, dtype=float)
        n = self.n_struct
        if x.shape != (n,) or not np.all(np.isfinite(x) & (lo <= x) & (x <= hi)):
            return False
        slack = self.b - self.A @ x
        if np.any((slack < self.lo[n:] - FEAS_TOL) | (slack > self.hi[n:] + FEAS_TOL)):
            return False
        return _integer_violation(x, binaries, sos_sets) == (-1, -1)

    def simplex(self, lo, hi, stored=None):
        """A tableau of this LP with the structurals in [lo, hi]: cold, or
        built at a stored (basis, status) over structurals and slacks and
        refactored; None when that basis is singular."""
        n = self.n_struct
        lp = _Simplex(self.A, self.by_col, self.b, np.concatenate([lo, self.lo[n:]]),
                      np.concatenate([hi, self.hi[n:]]), self.c, self.iter_cap, stored)
        if stored is not None and lp.refactor() is None:
            return None
        return lp

    def root_box(self, binaries):
        """The structural box with every binary fixed that root bound
        propagation fixes, as (lo, hi, number fixed); None when one row's
        activity range over the box misses its bound by more than
        ``_FARKAS_TOL``, which proves the model infeasible.

        A binary still free goes to 0 when its value 1 makes some row's
        activity range over the rest of the box miss the row's bound by
        more than ``_FARKAS_TOL``, and to 1 when 0 does; both at once
        prove infeasibility.  The passes repeat on the tightened box until
        one fixes nothing.  Continuous bounds stay as they are."""
        n, m = self.n_struct, self.m
        r, j, vals = self.nonzeros
        lo, hi = self.lo[:n].copy(), self.hi[:n].copy()
        # the bounds of each row's activity A x, from its slack's bounds
        upper = self.b - self.lo[n:] + _FARKAS_TOL
        lower = self.b - self.hi[n:] - _FARKAS_TOL
        free = np.zeros(n, dtype=bool)
        free[binaries] = lo[binaries] < hi[binaries]
        n_free = np.count_nonzero(free)
        while True:
            t_lo, t_hi = _activity_terms(vals, lo[j], hi[j])
            low = np.bincount(r, t_lo, minlength=m)
            high = np.bincount(r, t_hi, minlength=m)
            if np.any((low > upper) | (high < lower)):
                return None
            k = free[j].nonzero()[0]
            rk, a = r[k], vals[k]
            # the row's range over the box without binary j[k]'s term
            rest_lo, rest_hi = low[rk] - t_lo[k], high[rk] - t_hi[k]
            no_one = (rest_lo + a > upper[rk]) | (rest_hi + a < lower[rk])
            no_zero = (rest_lo > upper[rk]) | (rest_hi < lower[rk])
            to_zero = np.zeros(n, dtype=bool)
            to_one = np.zeros(n, dtype=bool)
            to_zero[j[k[no_one]]] = True
            to_one[j[k[no_zero]]] = True
            if np.any(to_zero & to_one):
                return None
            if not (to_zero.any() or to_one.any()):
                return lo, hi, int(n_free - np.count_nonzero(free))
            hi[to_zero] = 0.0
            lo[to_one] = 1.0
            free &= ~(to_zero | to_one)

    def start_basis(self, start):
        """An earlier model's (basis, status) as a basis of this model, or
        None when it cannot be one.  The earlier model's structural
        variables and rows must be prefixes of these.  Its slack ids shift
        by the number of appended structurals.  Each appended structural
        starts nonbasic at its lower bound, or at its upper bound when
        only that one is finite, else free; each appended row starts with
        its slack basic.  The basis must name exactly the variables its
        statuses mark basic."""
        if start is None:
            return None
        basis, status = (np.asarray(a) for a in start)
        n, m = self.n_struct, self.m
        m0 = basis.size
        n0 = status.size - m0
        if basis.ndim != 1 or status.ndim != 1 or not (0 <= n0 <= n and m0 <= m):
            return None
        if not np.array_equal(np.sort(basis), np.flatnonzero(status == _BASIC)):
            return None
        lo_f, hi_f = np.isfinite(self.lo[n0:n]), np.isfinite(self.hi[n0:n])
        appended = np.where(lo_f, _AT_LO, np.where(hi_f, _AT_HI, _FREE))
        return (np.concatenate([np.where(basis < n0, basis, basis + (n - n0)),
                                np.arange(n + m0, n + m)]).astype(np.int32),
                np.concatenate([status[:n0], appended, status[n0:],
                                np.full(m - m0, _BASIC)]).astype(np.int8))


class _SimplexResult:
    __slots__ = ("status", "x", "objective", "iterations")

    def __init__(self, status, x, objective, iterations):
        self.status, self.x, self.objective, self.iterations = status, x, objective, iterations


class _Simplex:
    """A condensed tableau: T = B^-1 [A | I | art] on the nonbasic columns.

    Column k of T holds variable ``nb[k]`` and ``pos`` is the inverse map
    (-1 for a basic variable); variables are numbered structurals, slacks,
    then artificials.  The m basic columns of the full tableau are unit
    columns and are not stored.  Built cold (``stored`` None), it starts
    from the slack basis with one artificial column per row the slack
    cannot cover, so T is m x (n_struct + n_art); built at a stored
    (basis, status) over structurals and slacks, it has no artificials,
    T is m x n_struct, and T and x_B are unset until ``refactor`` builds
    them; no cold tableau is made for it.  A pivot
    is a Jordan exchange: the leaving variable takes the entering one's
    column.  Pricing and ratio-test ties go to the lowest variable id, as
    they would in a tableau stored in variable order.  ``by_col`` is A's
    nonzeros sorted by column (``_LpForm.by_col``), which ``refactor``
    reads.
    """

    def __init__(self, A, by_col, b, lo, hi, c, iter_cap, stored=None):
        self.m, n = A.shape
        self.n_tot = n + self.m
        self.A, self.by_col, self.b = A, by_col, b
        self.c_user = c
        self.iter_cap = iter_cap
        self.iters = 0
        self.since_refactor = 0
        # |row i of B^-1|^2, valid where norm_stale is False
        self.row_norm = np.empty(self.m)
        self.norm_stale = np.ones(self.m, dtype=bool)
        if stored is None:
            self._slack_start(lo, hi)
            return
        m, n_tot = self.m, self.n_tot
        self.n_art, self.N = 0, n_tot
        self.art_rows, self.art_signs = np.empty(0, dtype=np.intp), np.empty(0)
        self.lo, self.hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
        self.fixed = self.hi - self.lo <= 0.0
        self.basis = np.empty(m, dtype=np.intp)
        self.status = np.empty(n_tot, dtype=np.int8)
        self.xval = np.zeros(n_tot)
        self.T, self.xB = np.empty((m, n)), np.empty(m)
        self.nb, self.pos = np.empty(n, dtype=np.intp), np.full(n_tot, -1)
        self._adopt(*stored)

    def _slack_start(self, lo, hi):
        """The slack basis, each nonbasic column at a finite bound (free
        when it has none), and an artificial basic in each row whose slack
        its bounds cannot hold."""
        m, n_tot, A, b = self.m, self.n_tot, self.A, self.b
        n = n_tot - m
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

    # -- helpers ---------------------------------------------------------------

    def refactor(self):
        """Rebuild T and x_B in place from A, b and the basis.

        With S the basic structurals and R the rows that no basic unit
        (slack or artificial) column covers, B^-1 M needs only an LU of
        A[R, S]: the S rows solve against it, and each unit row U then
        follows by substitution.  The nonbasic columns are renumbered in
        variable order and rebuilt a block at a time.  A[R, S], A[U, S]
        and each block's R and U rows are scattered from the nonzeros of
        their columns (``by_col``), never gathered from the dense A.
        Returns the renumbering (new column k held old column
        ``perm[k]``), or None, leaving T and x_B as they were, when
        A[R, S] is singular.
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
        n_r = rows_r.size
        if n_r != pos_s.size:
            return None   # two unit columns on one row
        # every row's slot in a right-hand side: the R rows first, in order,
        # then the U rows in basis order
        slot = np.empty(m, dtype=np.intp)
        slot[rows_r] = np.arange(n_r)
        slot[u_rows] = np.arange(n_r, m)
        r_c, j_c, v_c = self.by_col
        # A[R, S] and A[U, S], scattered from the S columns' nonzeros
        col_s = np.full(n, -1)
        col_s[basis[pos_s]] = np.arange(n_r)
        k_c = col_s[j_c]
        kept = k_c >= 0
        a_s = np.zeros((m, n_r))
        a_s[slot[r_c[kept]], k_c[kept]] = v_c[kept]
        a_us = a_s[n_r:]
        lu = None
        if n_r:
            # an exactly singular block leaves a zero on U's diagonal
            lu, piv, _ = dgetrf(a_s[:n_r], overwrite_a=1)
            diag = np.abs(np.diag(lu))
            if not diag.min() > 1e-11 * diag.max():
                return None

        def binv(rhs_r, rhs_u):
            """B^-1 rhs on the S and the U basis positions, from the R and
            the U rows of rhs."""
            y_s = rhs_r if lu is None else dgetrs(lu, piv, rhs_r, overwrite_b=1)[0]
            return y_s, u_sign * (rhs_u - a_us @ y_s)

        nonbasic = np.flatnonzero(self.status != _BASIC)
        perm = self.pos[nonbasic]
        # every entry of the nonbasic columns in new-column order: the
        # structurals' nonzeros, then the unit columns, whose ids come later
        new_col = np.full(self.N, -1)
        new_col[nonbasic] = np.arange(nonbasic.size)
        k_c = new_col[j_c]
        kept = k_c >= 0
        units = nonbasic[nonbasic >= n]
        ent_col = np.concatenate([k_c[kept], new_col[units]])
        ent_row = slot[np.concatenate([r_c[kept], unit_rows[units - n]])]
        ent_val = np.concatenate([v_c[kept], unit_signs[units - n]])
        starts = np.searchsorted(ent_col, np.arange(0, nonbasic.size, _REFACTOR_BLOCK))
        ends = np.append(starts[1:], ent_col.size)
        for c0, e0, e1 in zip(range(0, nonbasic.size, _REFACTOR_BLOCK), starts, ends):
            width = min(_REFACTOR_BLOCK, nonbasic.size - c0)
            block = np.zeros((m, width))
            block[ent_row[e0:e1], ent_col[e0:e1] - c0] = ent_val[e0:e1]
            y_s, y_u = binv(block[:n_r], block[n_r:])
            self.T[pos_s, c0:c0 + width] = y_s
            self.T[pos_u, c0:c0 + width] = y_u
        self.nb[:] = nonbasic
        self.pos.fill(-1)
        self.pos[nonbasic] = np.arange(nonbasic.size)
        x_nb = np.where(self.status != _BASIC, self.xval, 0.0)
        rhs = (self.b - self.A @ x_nb[:n] - x_nb[n:self.n_tot])[:, None]
        y_s, y_u = binv(rhs[rows_r], rhs[u_rows])
        self.xB = np.empty(m)
        self.xB[pos_s], self.xB[pos_u] = y_s[:, 0], y_u[:, 0]
        return perm

    def narrowed(self):
        """The basis and statuses over structural and slack variables
        only, as (basis int32, status int8); the tableau is not touched.

        A basic artificial gives way to its row's slack: the two span the
        same unit column up to sign, so the basis stays nonsingular and
        its basic solution is the same.
        """
        n_tot = self.n_tot
        basis = self.basis.copy()
        art = basis >= n_tot
        basis[art] = n_tot - self.m + self.art_rows[basis[art] - n_tot]
        status = self.status[:n_tot].copy()
        status[basis] = _BASIC
        return basis.astype(np.int32), status

    def _place_nonbasic(self, cols):
        """Put the given nonbasic columns (ascending ids) at the bound their
        status names, or at the finite one when that bound is gone (0 when
        both are).  Returns how far each moved."""
        st, lo, hi = self.status[cols], self.lo[cols], self.hi[cols]
        lo_f, hi_f = np.isfinite(lo), np.isfinite(hi)
        to_hi = hi_f & ((st == _AT_HI) | ~lo_f)
        to_lo = lo_f & ~to_hi
        self.status[cols] = np.where(to_hi, _AT_HI, np.where(to_lo, _AT_LO, _FREE))
        new = np.where(to_hi, hi, np.where(to_lo, lo, 0.0))
        delta = new - self.xval[cols]
        self.xval[cols] = new
        return delta

    def _shift_basic(self, cols, delta):
        """x_B follows nonbasic columns ``cols`` (ascending ids) moved by
        ``delta``."""
        moved = delta != 0.0
        if moved.any():
            self.xB -= self.T[:, self.pos[cols[moved]]] @ delta[moved]

    def _set_struct_bounds(self, lo_s, hi_s):
        n = self.n_tot - self.m
        self.lo[:n], self.hi[:n] = lo_s, hi_s
        self.fixed = self.hi - self.lo <= 0.0

    def _place_all(self, lo_s, hi_s):
        """New structural bounds with every nonbasic column placed anew;
        x_B follows the ones that moved."""
        self._set_struct_bounds(lo_s, hi_s)
        cols = (self.status != _BASIC).nonzero()[0]
        self._shift_basic(cols, self._place_nonbasic(cols))

    def set_bounds(self, lo_s, hi_s):
        """New structural bounds on the same basis; x_B follows the moved
        nonbasic columns.  Only the columns whose bounds changed are
        placed: every other nonbasic column already sits where its status
        puts it."""
        n = self.n_tot - self.m
        changed = ((lo_s != self.lo[:n]) | (hi_s != self.hi[:n])).nonzero()[0]
        self._set_struct_bounds(lo_s, hi_s)
        cols = changed[self.status[changed] != _BASIC]
        self._shift_basic(cols, self._place_nonbasic(cols))

    def _adopt(self, basis, status):
        """Take a stored basis and statuses, each nonbasic column placed
        at the bound its status names; T and x_B are left to a refactor."""
        self.basis[:] = basis
        self.status[:] = status
        self._place_nonbasic((self.status != _BASIC).nonzero()[0])

    def load(self, basis, status, lo_s, hi_s):
        """Adopt a stored basis under new structural bounds in a tableau
        with no artificials; refactors.  False when the basis is
        singular."""
        self._set_struct_bounds(lo_s, hi_s)
        self._adopt(basis, status)
        return self.refactor() is not None

    def rebase(self, basis, status, lo_s, hi_s):
        """Adopt a stored basis under new structural bounds by Jordan
        exchanges from the current one, with no artificials present.

        Each variable of the stored basis that is not basic enters, in
        ascending id, at the row with the largest |T[r, k]| among the
        rows whose variable must leave (the first on a tie).  No value
        moves: the leaving variable keeps its basic value until the
        stored statuses are applied, and x_B then follows every nonbasic
        column placed at its stored bound.  The basic variables are then
        the stored ones, though not necessarily on the same rows.  Returns
        False, leaving the tableau for ``load``, when an exchange finds no
        pivot above ``_REBASE_TOL``.
        """
        in_stored = np.zeros(self.N, dtype=bool)
        in_stored[basis] = True
        leaving = ~in_stored[self.basis]
        for q in (in_stored & (self.pos >= 0)).nonzero()[0]:
            rows = leaving.nonzero()[0]
            col = np.abs(self.T[rows, self.pos[q]])
            i = int(col.argmax())
            if not col[i] > _REBASE_TOL:
                return False
            r = int(rows[i])
            leave, value = self.basis[r], self.xB[r]
            self._pivot(r, self.pos[q], 0.0, _AT_LO)
            self.xval[leave] = value
            leaving[r] = False
        self.status[:] = status
        self._place_all(lo_s, hi_s)
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
        colv = T[:, k].copy()
        self.xB -= step * colv
        self.status[leave] = leave_status
        self.xval[leave] = self.hi[leave] if leave_status == _AT_HI else self.lo[leave]
        basis[r] = q
        self.status[q] = _BASIC
        self.nb[k], self.pos[leave], self.pos[q] = leave, k, -1
        piv = colv[r]
        Trow = T[r] / piv
        Trow[k] = 1.0 / piv
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
        low, high = (t.sum() for t in _activity_terms(alpha, lo, hi))
        return beta < low - _FARKAS_TOL or beta > high + _FARKAS_TOL

    # -- core loops --------------------------------------------------------------

    def _pricing_signs(self):
        """Per tableau column, the sign s that makes d * s the gain of
        moving the column off its bound: -1 at the lower bound, +1 at the
        upper, 0 when fixed.  Also whether it is free, where the gain is
        |d|."""
        st, fixed = self.status[self.nb], self.fixed[self.nb]
        sign = np.where(st == _AT_HI, 1.0, -1.0)
        sign[fixed] = 0.0
        return sign, (st == _FREE) & ~fixed

    def _movable(self):
        """Per tableau column, whether its variable may rise from where it
        sits and whether it may fall; a fixed one may do neither."""
        st, free = self.status[self.nb], ~self.fixed[self.nb]
        return free & (st != _AT_HI), free & (st != _AT_LO)

    def run_phase(self, cost, phase1):
        """Primal simplex on ``cost`` from a primal feasible basis.

        The pricing signs and the basic rows' bounds are kept across
        pivots and bound flips, updated at the column and row that
        change."""
        T, lo, hi = self.T, self.lo, self.hi
        status, xval, basis, nb = self.status, self.xval, self.basis, self.nb
        d = self._reduced_costs(cost) if cost[basis].any() else cost[nb]
        devex = np.ones(nb.size)   # reference weights, approximate steepest edge
        sign, free = self._pricing_signs()
        lb, ub = lo[basis], hi[basis]
        stall = 0
        bland = False
        while True:
            if self.iters >= self.iter_cap:
                return ITER_LIMIT
            viol = d * sign
            np.abs(d, out=viol, where=free)
            if bland:
                elig = (viol > _D_TOL).nonzero()[0]
                if elig.size == 0:
                    return OPTIMAL
                k = int(elig[nb[elig].argmin()])
            else:
                score = np.where(viol > _D_TOL, viol * viol / devex, 0.0)
                k = int(score.argmax())
                if score[k] <= 0.0:
                    return OPTIMAL
                ties = (score == score[k]).nonzero()[0]
                if ties.size > 1:
                    k = int(ties[nb[ties].argmin()])
            q = nb[k]
            if status[q] == _AT_HI:
                sgn = -1.0
            elif status[q] == _AT_LO:
                sgn = 1.0
            else:
                sgn = 1.0 if d[k] < 0 else -1.0
            w = T[:, k] * sgn

            t_flip = hi[q] - lo[q]
            if not math.isfinite(t_flip):
                t_flip = np.inf
            t_best, r_best = t_flip, -1
            cand = (np.abs(w) > _PIV_TOL).nonzero()[0]
            if cand.size:
                wc = w[cand]
                # w > 0 heads for lb, never +inf, and w < 0 for ub, never
                # -inf: an infinite bound gives +inf, never a NaN
                tgt = np.where(wc > 0, lb[cand], ub[cand])
                tt = np.maximum((self.xB[cand] - tgt) / wc, 0.0)
                tmin = float(tt.min())
                if tmin < t_best:
                    ties = (tt <= tmin + 1e-12).nonzero()[0]
                    if bland:
                        sel = ties[basis[cand[ties]].argmin()]
                    else:
                        sel = ties[np.abs(wc[ties]).argmax()]
                    t_best, r_best = float(tt[sel]), int(cand[sel])
            if not math.isfinite(t_best):
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
                sign[k] = 1.0 if status[q] == _AT_HI else -1.0
                continue

            leave, leave_status = basis[r_best], _AT_LO if w[r_best] > 0 else _AT_HI
            Trow, piv = self._pivot(r_best, k, t_best * sgn, leave_status)
            sign[k] = (0.0 if self.fixed[leave] else
                       1.0 if leave_status == _AT_HI else -1.0)
            free[k] = False
            lb[r_best], ub[r_best] = lo[q], hi[q]
            d_q, d[k] = d[k], 0.0
            d -= d_q * Trow
            # Devex reference update from the (normalized) pivot row; column
            # k now holds the leaving variable
            wq = devex[k]
            np.maximum(devex, (Trow * Trow) * wq, out=devex)
            devex[k] = max(wq / (piv * piv), 1.0)
            if devex.max() > 1e8:
                devex[:] = 1.0
            if self.since_refactor >= _REFACTOR_PERIOD:
                perm = self.refactor()
                if perm is not None:
                    devex = devex[perm]
                d = self._reduced_costs(cost)
                sign, free = self._pricing_signs()

    def run_dual(self):
        """Bounded dual simplex on the user cost from a dual feasible basis,
        for at most max(64, rows) pivots.

        Returns OPTIMAL once x_B is within its bounds (to ``FEAS_TOL``),
        INFEASIBLE when the leaving row admits no entering column and the
        Farkas check confirms it, and None on a stall or an unconfirmed
        verdict.  The basic rows' bounds and each column's eligibility to
        rise or fall are kept across pivots, updated at the row and column
        that change.
        """
        T, lo, hi = self.T, self.lo, self.hi
        basis, nb = self.basis, self.nb
        d = self._reduced_costs(self.c_user)
        lb, ub = lo[basis], hi[basis]
        can_rise, can_fall = self._movable()
        xB = self.xB
        for _ in range(max(64, self.m)):
            if self.iters >= self.iter_cap:
                return None
            infeas = np.maximum(lb - xB, xB - ub)
            rows = (infeas > FEAS_TOL).nonzero()[0]
            if rows.size == 0:
                return OPTIMAL
            # dual steepest edge pricing with exact weights
            r = int(rows[(infeas[rows] ** 2 / self._binv_row_norms(rows)).argmax()])
            above = xB[r] > ub[r]
            # the columns that move x_B[r] back toward its violated bound:
            # above it, a rising column with T[r] > 0 or a falling one with
            # T[r] < 0; below it, the reverse
            Tr = T[r]
            pos_r, neg_r = Tr > _PIV_TOL, Tr < -_PIV_TOL
            if above:
                cand = ((can_rise & pos_r) | (can_fall & neg_r)).nonzero()[0]
            else:
                cand = ((can_rise & neg_r) | (can_fall & pos_r)).nonzero()[0]
            if cand.size == 0:
                return INFEASIBLE if self._farkas(r) else None
            # Harris two-pass ratio test: the largest pivot among the columns
            # whose dual ratio is within tolerance of the smallest
            ac, dc = np.abs(Tr[cand]), np.abs(d[cand])
            t_max = float(((dc + _D_TOL) / ac).min())
            near = (dc / ac <= t_max).nonzero()[0]
            best = cand[near[ac[near] == ac[near].max()]]
            k = int(best[nb[best].argmin()]) if best.size > 1 else int(best[0])
            q, leave = nb[k], basis[r]
            bound = ub[r] if above else lb[r]
            Trow, _ = self._pivot(r, k, (xB[r] - bound) / Tr[k],
                                  _AT_HI if above else _AT_LO)
            movable = not self.fixed[leave]
            can_rise[k], can_fall[k] = movable and not above, movable and above
            lb[r], ub[r] = lo[q], hi[q]
            d_q, d[k] = d[k], 0.0
            d -= d_q * Trow
            if self.since_refactor >= _REFACTOR_PERIOD:
                self.refactor()
                d = self._reduced_costs(self.c_user)
                can_rise, can_fall = self._movable()
                xB = self.xB   # the refactor replaces x_B
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
            # left to right over numpy scalars, which Python 3.12's sum()
            # does not compensate as it does exact floats
            infeas = sum(self.xB[self.basis >= n_tot])
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
    res = _Simplex(arrs.A, arrs.by_col, arrs.b, arrs.lo, arrs.hi, arrs.c,
                   arrs.iter_cap).solve()
    if res.status != OPTIMAL:
        bound = {INFEASIBLE: np.inf, UNBOUNDED: -np.inf}.get(res.status, np.nan)
        return arrs.solution(res.status, None, None, bound, 0, res.iterations)
    return arrs.solution(OPTIMAL, res.objective, res.x[:arrs.n_struct], res.objective,
                         0, res.iterations)


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
    pivots of its last refactor.  An in-place or rebased solve that ends
    without a verdict is retried once from ``load``; a node still
    without one, or whose basis the refactor finds singular, is solved
    cold.  A node whose stored basis meets no tableau, or a cold one
    (the root's start, or any node after a cold solve that did not
    branch), gets a new tableau built at that basis: no cold tableau is
    filled for it.  The root is solved cold unless it stores a start
    basis.
    """

    def __init__(self, arrs: _Arrays):
        self.arrs = arrs
        self.lp = None       # _Simplex, cold or over structural and slack columns
        self.holds = None    # id of the node whose optimal basis lp holds
        self.warm = False    # lp comes out of a warm solve, not a cold one

    def solve(self, node, nid):
        res, spent = None, 0
        if node.basis is not None:
            stored = (node.basis, node.status, node.lo, node.hi)
            if self.lp is None or self.lp.n_art:
                self.lp = None   # release a cold tableau before building another
                self.lp = self.arrs.simplex(node.lo, node.hi, stored[:2])
                if self.lp is not None:
                    res = self.lp.reoptimize()
            else:
                lp = self.lp
                lp.iters = 0
                fresh = lp.since_refactor < _REFACTOR_PERIOD
                if node.parent == self.holds and fresh:
                    lp.set_bounds(node.lo, node.hi)
                    res = lp.reoptimize()
                elif self.warm and fresh and lp.rebase(*stored):
                    res = lp.reoptimize()
                # a failed rebase, or a warm solve that ended without a
                # verdict, starts again from the refactored stored basis
                if res is None and lp.load(*stored):
                    res = lp.reoptimize()
            spent = 0 if self.lp is None else self.lp.iters
        self.warm = res is not None
        if res is None:
            res = self._cold(node)
            res.iterations += spent
        self.holds = nid if res.status == OPTIMAL else None
        return res

    def _cold(self, node):
        arrs = self.arrs
        self.lp = None   # release the working tableau before building another
        # its artificials stay until a child needs this basis (basis_of_last)
        self.lp = arrs.simplex(node.lo, node.hi)
        return self.lp.solve()

    def basis_of_last(self):
        """The working tableau's basis and statuses over structurals and
        slacks, to store in children.  A cold tableau gives way to one
        built at that basis and refactored, which the first child then
        re-optimizes in place; (None, None) when the refactor finds the
        basis singular."""
        basis, status = self.lp.narrowed()
        if self.lp.n_art:
            n = self.arrs.n_struct
            lo, hi = self.lp.lo[:n], self.lp.hi[:n]
            self.lp = None   # release the cold tableau before building another
            self.lp = self.arrs.simplex(lo, hi, (basis, status))
            if self.lp is None:
                self.holds = None
                return None, None
        return basis, status


def solve_milp(model: MilpModel, options: MilpOptions | None = None,
               start: tuple | None = None, root_point=None) -> MilpSolution:
    """Best-first branch and bound over binaries and SOS1 sets.

    Before the root, bound propagation fixes each binary that some row
    rules out at one value, to a fixed point (see "Root fixings" in the
    module docstring); the fixings are the root node's bounds, and
    ``root_fixed`` counts them.  When one row proves the propagated box
    infeasible, the solve returns ``Infeasible`` with no node.
    ``root_point``, when given, is called once on a copy of the root
    LP's optimal x and may return a candidate incumbent; one that passes
    the check against the root bounds, the kept rows, integrality and
    the SOS1 sets is the incumbent, and one within ``GAP`` of the root
    bound closes the search at the root.  None, or a candidate that
    fails, leaves the search as it is without ``root_point``, pivot for
    pivot (see "Root point" in the module docstring).
    The root LP is a cold primal solve unless ``start`` (an earlier
    solve's ``root_basis``, from this model or one whose structurals and
    rows are prefixes of its own; see the module docstring) gives it a
    stored basis.  Every node with a stored basis, the root's start or
    its parent's optimal basis, re-optimizes from it with the dual
    simplex: in place when its parent was the last node solved,
    otherwise after Jordan exchanges onto that basis, or a refactor from
    it where the exchanges cannot be used (see the module docstring for
    the node storage, refactor policy, infeasibility confirmation and
    memory rule).  A node whose in-place or rebased warm solve cannot
    reach a confirmed verdict is retried once from a refactor; a node
    still without one is solved cold.  A solution from a start may be
    another optimal vertex than the cold solve's, with the same
    objective within ``GAP``.  The model's LP form is built by the
    first solve and kept for the next (see ``MilpModel``).
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
    box = arrs.root_box(bin_ids)
    if box is None:
        return arrs.solution(INFEASIBLE, None, None, np.inf)
    root_lo, root_hi, root_fixed = box
    sos_sets = [np.array(s, dtype=int) for s in model.sos1_sets]
    node_lp = _NodeLp(arrs)

    total_iters = 0
    node_count = 0
    next_id = 1
    incumbent_obj = np.inf  # internal min sense
    incumbent_x = None
    dropped_bound = np.inf  # best bound among nodes dropped at the simplex cap
    stopped = False
    from_root_point = False

    basis, status = arrs.start_basis(start) or (None, None)
    heap = [_Node(-np.inf, 0, -np.inf, root_lo, root_hi, basis=basis, status=status)]
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
        node_count += 1
        res = node_lp.solve(node, nid)
        total_iters += res.iterations
        if res.status == ITER_LIMIT:
            dropped_bound = min(dropped_bound, node.bound)
            continue
        if res.status == UNBOUNDED:
            return arrs.solution(UNBOUNDED, None, None, -np.inf, node_count, total_iters,
                                 fixed=root_fixed)
        if res.status != OPTIMAL:
            continue
        if nid == 0:
            root_basis = node_lp.lp.narrowed()
            point = None if root_point is None else root_point(res.x[:n].copy())
            if point is not None and arrs.admits(point, root_lo, root_hi, bin_ids, sos_sets):
                incumbent_x = np.asarray(point, dtype=float)
                incumbent_obj = float(arrs.c[:n] @ incumbent_x)
                from_root_point = True
        if res.objective >= incumbent_obj - GAP:
            continue
        x = res.x[:n]

        branch_var, viol_sos = _integer_violation(x, bin_ids, sos_sets)
        if branch_var < 0 and viol_sos < 0:
            incumbent_obj = res.objective
            incumbent_x = x.copy()
            from_root_point = False
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
                         root_basis, root_fixed, from_root_point)


def brute_force(model: MilpModel) -> MilpSolution:
    """Enumerate binary assignments x SOS1 active-member choices; solve each LP.

    Intended as a test oracle.  Each binary takes the values 0 and 1
    that its bounds allow, so a fixed one takes only its own.
    ``Unbounded`` when any enumerated LP is unbounded; ``IterLimit``
    (with the best optimum found, and no bound) when any hit the simplex
    cap, since that LP may hold a better one; else ``Optimal`` or
    ``Infeasible``.  Raises :class:`TooLarge` above 2^20 combinations.
    """
    if not model.variables:
        raise ValueError("model has no variables")
    arrs = _Arrays(model)
    if arrs.trivially_infeasible:
        return arrs.solution(INFEASIBLE, None, None, np.inf)
    n = arrs.n_struct
    bin_ids = model.binary_ids
    sos_sets = model.sos1_sets
    lo0 = arrs.lo[:n].copy()
    hi0 = arrs.hi[:n].copy()
    values = [[v for v in (0.0, 1.0) if lo0[vid] <= v <= hi0[vid]] for vid in bin_ids]
    combos = math.prod(len(v) for v in values)
    for s in sos_sets:
        combos *= len(s) + 1
    if combos > 2 ** 20:
        raise TooLarge(f"{combos} combinations exceed the enumeration cap")

    best = {"obj": np.inf, "x": None}
    stats = {"iters": 0, "solves": 0}
    statuses = set()

    def enumerate_sos(k, lo, hi):
        if k == len(sos_sets):
            res = arrs.simplex(lo, hi).solve()
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

    # the first binary varies fastest
    for assignment in itertools.product(*values[::-1]):
        lo, hi = lo0.copy(), hi0.copy()
        lo[bin_ids[::-1]] = hi[bin_ids[::-1]] = assignment
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
