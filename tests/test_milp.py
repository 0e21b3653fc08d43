import copy
import dataclasses
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg.lapack import dgetrf, dgetrs

from gridcoord import dso_dispatch as dd
from gridcoord import milp
from gridcoord.data import load_scenario
from gridcoord.errors import TooLarge, UnknownVariable


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def vertex_enumeration(model, tol=1e-8):
    """Brute-force LP oracle: enumerate candidate active sets, keep the best vertex.

    Only usable on small, bounded models.  Returns (objective, x) or
    (None, None) when no feasible vertex exists.
    """
    n = len(model.variables)
    planes = []  # (normal, rhs, is_forced)
    rows = []
    for con in model.constraints:
        a = np.zeros(n)
        for vid, c in con.coeffs:
            a[vid] += c
        rows.append((a, con.sense, con.rhs))
        planes.append((a, con.rhs, con.sense == milp.EQ))
    for j, v in enumerate(model.variables):
        e = np.zeros(n)
        e[j] = 1.0
        if np.isfinite(v.lo):
            planes.append((e, v.lo, False))
        if np.isfinite(v.hi):
            planes.append((e, v.hi, False))

    forced = [i for i, p in enumerate(planes) if p[2]]
    optional = [i for i, p in enumerate(planes) if not p[2]]
    need = n - len(forced)
    if need < 0:
        return None, None

    sign = 1.0 if model.objective_sense == milp.MIN else -1.0
    cvec = np.zeros(n)
    for vid, c in model.objective.items():
        cvec[vid] = sign * c

    def feasible(x):
        for a, sense, rhs in rows:
            v = a @ x
            if sense == milp.LE and v > rhs + tol:
                return False
            if sense == milp.GE and v < rhs - tol:
                return False
            if sense == milp.EQ and abs(v - rhs) > tol:
                return False
        for j, var in enumerate(model.variables):
            if x[j] < var.lo - tol or x[j] > var.hi + tol:
                return False
        return True

    best_obj, best_x = None, None
    for combo in itertools.combinations(optional, need):
        active = forced + list(combo)
        A = np.array([planes[i][0] for i in active])
        b = np.array([planes[i][1] for i in active])
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        if not feasible(x):
            continue
        obj = float(cvec @ x)
        if best_obj is None or obj < best_obj - 1e-12:
            best_obj, best_x = obj, x
    if best_obj is None:
        return None, None
    return sign * best_obj + model.objective_const, best_x


def random_lp(rng, n=None, m=None):
    """Random bounded feasible LP built around a known interior point."""
    n = n or int(rng.integers(2, 7))
    m = m or int(rng.integers(1, 8))
    model = milp.MilpModel()
    lo = rng.uniform(-3, 0, size=n)
    hi = lo + rng.uniform(0.5, 4, size=n)
    for j in range(n):
        model.add_variable(lo[j], hi[j])
    x0 = rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo))
    for _ in range(m):
        a = rng.normal(size=n) * (rng.random(size=n) < 0.8)
        if not np.any(a):
            a[int(rng.integers(0, n))] = 1.0
        sense = rng.choice([milp.LE, milp.GE])
        slack = rng.uniform(0.05, 1.0)
        rhs = float(a @ x0) + (slack if sense == milp.LE else -slack)
        model.add_constraint([(j, a[j]) for j in range(n) if a[j] != 0.0], sense, rhs)
    c = rng.normal(size=n)
    model.set_objective(rng.choice([milp.MIN, milp.MAX]),
                        {j: c[j] for j in range(n)})
    return model


def random_milp(rng, n_bin=None):
    """Random mixed instance with a known integer-feasible point."""
    n_cont = int(rng.integers(0, 9))
    n_bin = int(rng.integers(0, 7)) if n_bin is None else n_bin
    n_sos = int(rng.integers(0, 3))
    model = milp.MilpModel()
    ids_cont, ids_bin = [], []
    x0 = []
    for _ in range(n_cont):
        l = float(rng.uniform(-2, 0))
        h = l + float(rng.uniform(0.5, 3))
        ids_cont.append(model.add_variable(l, h))
        x0.append(float(rng.uniform(l, h)))
    for _ in range(n_bin):
        ids_bin.append(model.add_variable(kind=milp.BINARY))
        x0.append(float(rng.integers(0, 2)))
    sos_members = []
    for _ in range(n_sos):
        size = int(rng.integers(2, 6))
        members = []
        for _ in range(size):
            vid = model.add_variable(0.0, float(rng.uniform(0.5, 2.0)))
            members.append(vid)
            x0.append(0.0)
        keep = int(rng.integers(0, size))
        x0[members[keep]] = float(rng.uniform(0.0, model.variables[members[keep]].hi))
        model.add_sos1(members)
        sos_members.extend(members)
    n = len(model.variables)
    if n == 0:
        model.add_variable(0.0, 1.0)
        x0.append(0.5)
        n = 1
    x0 = np.array(x0)
    for _ in range(int(rng.integers(1, 6))):
        a = rng.normal(size=n) * (rng.random(size=n) < 0.7)
        if not np.any(a):
            a[int(rng.integers(0, n))] = 1.0
        sense = rng.choice([milp.LE, milp.GE])
        slack = rng.uniform(0.05, 1.0)
        rhs = float(a @ x0) + (slack if sense == milp.LE else -slack)
        model.add_constraint([(j, a[j]) for j in range(n) if a[j] != 0.0], sense, rhs)
    c = rng.normal(size=n)
    model.set_objective(rng.choice([milp.MIN, milp.MAX]), {j: c[j] for j in range(n)})
    return model


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

class TestBuilders:
    def test_single_variable_model(self):
        m = milp.MilpModel()
        x = m.add_variable(0, 10)
        m.add_constraint({x: 1.0}, milp.GE, 1.0)
        m.set_objective(milp.MIN, {x: 1.0})
        sol = milp.solve_lp(m)
        assert sol.status == milp.OPTIMAL
        assert sol.objective == pytest.approx(1.0)

    def test_duplicate_sos_member_idempotent(self):
        m = milp.MilpModel()
        a = m.add_variable(0, 1)
        b = m.add_variable(0, 1)
        m.add_sos1([a, b, a])
        assert m.sos1_sets[0] == [a, b]

    def test_unknown_variable(self):
        m = milp.MilpModel()
        m.add_variable(0, 1)
        with pytest.raises(UnknownVariable):
            m.add_constraint({5: 1.0}, milp.LE, 1.0)
        with pytest.raises(UnknownVariable):
            m.set_objective(milp.MIN, {3: 1.0})

    def test_binary_bounds_forced(self):
        m = milp.MilpModel()
        z = m.add_variable(lo=-5, hi=5, kind=milp.BINARY)
        assert (m.variables[z].lo, m.variables[z].hi) == (0.0, 1.0)

    @pytest.mark.parametrize("call", [
        lambda m, x: m.add_variable(np.nan, 1.0),
        lambda m, x: m.add_variable(0.0, np.nan),
        lambda m, x: m.add_constraint({x: np.nan}, milp.LE, 1.0),
        lambda m, x: m.add_constraint({x: np.inf}, milp.LE, 1.0),
        lambda m, x: m.add_constraint({x: 1.0}, milp.LE, np.nan),
        lambda m, x: m.add_constraint({x: 1.0}, milp.GE, -np.inf),
        lambda m, x: m.set_objective(milp.MIN, {x: np.nan}),
        lambda m, x: m.set_objective(milp.MIN, {x: -np.inf}),
        lambda m, x: m.fix_variable(x, np.nan),
        lambda m, x: m.set_rhs(0, np.nan),
        lambda m, x: m.set_rhs(0, np.inf),
        lambda m, x: m.set_rhs(1, 1.0),
        lambda m, x: m.fix_variable(2, 0.5),
        lambda m, x: m.fix_variable(2, -1.0),
        lambda m, x: m.fix_variable(x, np.inf),
        lambda m, x: m.fix_variable(x, -np.inf),
        lambda m, x: m.add_variable(np.inf, np.inf),
        lambda m, x: m.add_variable(-np.inf, -np.inf),
        lambda m, x: m.add_variable(0.0, 1.0, kind="integer"),
    ], ids=["var-lo-nan", "var-hi-nan", "row-coef-nan", "row-coef-inf", "rhs-nan",
            "rhs-inf", "obj-nan", "obj-inf", "fix-nan", "set-rhs-nan", "set-rhs-inf",
            "set-rhs-unknown-row", "fix-binary-half", "fix-binary-minus-one", "fix-inf",
            "fix-minus-inf", "var-lo-inf", "var-hi-minus-inf", "kind-integer"])
    def test_nan_and_non_finite_inputs_rejected(self, call):
        """A NaN bound, a non-finite coefficient, right-hand side or fixed
        value, an unknown row, a binary fixed off 0 and 1, bounds that
        hold no finite value and an unknown kind raise and leave the model
        as it was.  Unchecked, a NaN objective coefficient, row
        coefficient or right-hand side solved to ``Optimal`` with
        objective nan, and a NaN lower bound passed the lo > hi test; a
        binary fixed at 0.5 ran the search to its node limit where
        ``brute_force`` proves the model infeasible, x fixed at +inf under
        x <= 5 solved as an LP to x = 5, and ``integer`` was kept as a
        continuous variable.  Infinite bounds stay legal."""
        m = milp.MilpModel()
        x = m.add_variable(0.0, 1.0)
        y = m.add_variable(-np.inf, np.inf)
        m.add_variable(kind=milp.BINARY)
        m.add_constraint({x: 1.0, y: 1.0}, milp.EQ, 1.0)
        m.set_objective(milp.MAX, {x: 2.0, y: 1.0})
        before = list(m.variables)
        with pytest.raises(ValueError):
            call(m, x)
        assert m.variables == before
        m.fix_variable(y, 0.0)
        sol = milp.solve_milp(m)
        assert (sol.status, sol.objective) == (milp.OPTIMAL, 2.0)


# ---------------------------------------------------------------------------
# LP relaxation engine
# ---------------------------------------------------------------------------

class TestSolveLp:
    def test_min_with_lower_row(self):
        m = milp.MilpModel()
        x = m.add_variable(-np.inf, np.inf)
        m.add_constraint({x: 1.0}, milp.GE, 2.0)
        m.add_constraint({x: 1.0}, milp.LE, 5.0)
        m.set_objective(milp.MIN, {x: 1.0})
        sol = milp.solve_lp(m)
        assert sol.status == milp.OPTIMAL
        assert sol.objective == pytest.approx(2.0)

    def test_max_sum(self):
        m = milp.MilpModel()
        x = m.add_variable(0, np.inf)
        y = m.add_variable(0, np.inf)
        m.add_constraint({x: 1.0, y: 1.0}, milp.LE, 1.0)
        m.set_objective(milp.MAX, {x: 1.0, y: 1.0})
        sol = milp.solve_lp(m)
        assert sol.objective == pytest.approx(1.0)

    def test_infeasible_rows(self):
        m = milp.MilpModel()
        x = m.add_variable(-10, 10)
        m.add_constraint({x: 1.0}, milp.GE, 2.0)
        m.add_constraint({x: 1.0}, milp.LE, 1.0)
        m.set_objective(milp.MIN, {x: 1.0})
        assert milp.solve_lp(m).status == milp.INFEASIBLE

    def test_unbounded(self):
        m = milp.MilpModel()
        x = m.add_variable(0, np.inf)
        m.add_constraint({x: -1.0}, milp.LE, 0.0)
        m.set_objective(milp.MAX, {x: 1.0})
        assert milp.solve_lp(m).status == milp.UNBOUNDED

    def test_equality_row(self):
        m = milp.MilpModel()
        x = m.add_variable(0, 10)
        y = m.add_variable(0, 10)
        m.add_constraint({x: 1.0, y: 2.0}, milp.EQ, 4.0)
        m.set_objective(milp.MIN, {x: 1.0, y: 1.0})
        sol = milp.solve_lp(m)
        assert sol.status == milp.OPTIMAL
        assert sol.objective == pytest.approx(2.0)  # y = 2, x = 0

    def test_empty_row_infeasible(self):
        m = milp.MilpModel()
        m.add_variable(0, 1)
        m.add_constraint([], milp.GE, 1.0)
        assert milp.solve_lp(m).status == milp.INFEASIBLE

    def test_free_variable(self):
        m = milp.MilpModel()
        x = m.add_variable(-np.inf, np.inf)
        m.add_constraint({x: 2.0}, milp.EQ, -7.0)
        m.set_objective(milp.MIN, {x: 1.0})
        sol = milp.solve_lp(m)
        assert sol.x[0] == pytest.approx(-3.5)

    def test_random_lps_match_vertex_enumeration(self):
        rng = np.random.default_rng(2024)
        solved = 0
        for _ in range(50):
            model = random_lp(rng)
            oracle_obj, _ = vertex_enumeration(model)
            sol = milp.solve_lp(model)
            assert oracle_obj is not None, "generator must produce feasible LPs"
            assert sol.status == milp.OPTIMAL
            assert sol.objective == pytest.approx(oracle_obj, abs=1e-6)
            solved += 1
        assert solved == 50

    def test_solution_feasibility(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            model = random_lp(rng)
            sol = milp.solve_lp(model)
            assert sol.status == milp.OPTIMAL
            x = sol.x
            for con in model.constraints:
                v = sum(c * x[j] for j, c in con.coeffs)
                if con.sense == milp.LE:
                    assert v <= con.rhs + 1e-7
                elif con.sense == milp.GE:
                    assert v >= con.rhs - 1e-7
                else:
                    assert v == pytest.approx(con.rhs, abs=1e-7)
            for j, var in enumerate(model.variables):
                assert var.lo - 1e-9 <= x[j] <= var.hi + 1e-9


def rowless_model(case):
    """A model without rows (every row it has is empty); returns it with
    the expected (status, objective) of solve_lp and of the MILP solvers."""
    m = milp.MilpModel()
    if case == "boxed":
        x, y = m.add_variable(-1, 2), m.add_variable(0, 3)
        m.set_objective(milp.MAX, {x: 1.0, y: 2.0})
        return m, (milp.OPTIMAL, 8.0), (milp.OPTIMAL, 8.0)
    if case == "lower":
        x = m.add_variable(1, np.inf)
        m.set_objective(milp.MIN, {x: 1.0})
        return m, (milp.OPTIMAL, 1.0), (milp.OPTIMAL, 1.0)
    if case == "upper":
        x = m.add_variable(-np.inf, 2)
        m.set_objective(milp.MAX, {x: 3.0})
        return m, (milp.OPTIMAL, 6.0), (milp.OPTIMAL, 6.0)
    if case == "unbounded":
        x = m.add_variable(0, np.inf)
        m.set_objective(milp.MAX, {x: 1.0})
        return m, (milp.UNBOUNDED, None), (milp.UNBOUNDED, None)
    if case == "free":
        x, y = m.add_variable(-np.inf, np.inf), m.add_variable(0, 1)
        m.set_objective(milp.MIN, {x: 0.0, y: -1.0})
        return m, (milp.OPTIMAL, -1.0), (milp.OPTIMAL, -1.0)
    if case == "binary":
        z1, z2 = m.add_variable(kind=milp.BINARY), m.add_variable(kind=milp.BINARY)
        m.set_objective(milp.MAX, {z1: 3.0, z2: -1.0})
        return m, (milp.OPTIMAL, 3.0), (milp.OPTIMAL, 3.0)
    if case == "sos1":
        a, b = m.add_variable(0, 1), m.add_variable(0, 2)
        m.add_sos1([a, b])
        m.set_objective(milp.MAX, {a: 1.0, b: 1.0})
        return m, (milp.OPTIMAL, 3.0), (milp.OPTIMAL, 2.0)
    if case == "empty_rows":
        x = m.add_variable(0, 4)
        m.add_constraint([], milp.LE, 1.0)
        m.add_constraint([], milp.EQ, 0.0)
        m.set_objective(milp.MIN, {x: -1.0})
        return m, (milp.OPTIMAL, -4.0), (milp.OPTIMAL, -4.0)
    raise ValueError(case)


@pytest.mark.parametrize("case", ["boxed", "lower", "upper", "unbounded", "free",
                                  "binary", "sos1", "empty_rows"])
def test_rowless_models(case):
    """Models without rows go through the same simplex as any other:
    bound flips alone reach the optimum, or show it unbounded."""
    model, lp_expected, milp_expected = rowless_model(case)
    for solve, (status, objective) in ((milp.solve_lp, lp_expected),
                                       (milp.solve_milp, milp_expected),
                                       (milp.brute_force, milp_expected)):
        sol = solve(model)
        assert sol.status == status, solve.__name__
        if objective is None:
            assert sol.x is None
            continue
        assert sol.objective == pytest.approx(objective, abs=1e-12), solve.__name__
        for j, var in enumerate(model.variables):
            assert var.lo <= sol.x[j] <= var.hi
        c = np.array([model.objective.get(j, 0.0) for j in range(len(model.variables))])
        assert c @ sol.x == pytest.approx(objective, abs=1e-12)


# ---------------------------------------------------------------------------
# branch and bound
# ---------------------------------------------------------------------------

class TestSolveMilp:
    def test_pure_lp_degenerate_case(self):
        rng = np.random.default_rng(5)
        model = random_lp(rng)
        lp = milp.solve_lp(model)
        mi = milp.solve_milp(model)
        assert mi.status == milp.OPTIMAL
        assert mi.objective == pytest.approx(lp.objective, abs=1e-9)

    def test_knapsack(self):
        m = milp.MilpModel()
        x1 = m.add_variable(kind=milp.BINARY)
        x2 = m.add_variable(kind=milp.BINARY)
        m.add_constraint({x1: 1.0, x2: 1.0}, milp.LE, 1.0)
        m.set_objective(milp.MAX, {x1: 3.0, x2: 2.0})
        sol = milp.solve_milp(m)
        assert sol.objective == pytest.approx(3.0)
        assert sol.x[[x1, x2]].tolist() == pytest.approx([1.0, 0.0], abs=1e-6)

    def test_sos1_pick_best_member(self):
        m = milp.MilpModel()
        a = m.add_variable(0, 2)
        b = m.add_variable(0, 2)
        c = m.add_variable(0, 2)
        m.add_sos1([a, b, c])
        m.add_constraint({a: 1.0, b: 1.0, c: 1.0}, milp.LE, 2.0)
        m.set_objective(milp.MAX, {a: 1.0, b: 3.0, c: 2.0})
        sol = milp.solve_milp(m)
        assert sol.objective == pytest.approx(6.0)
        assert sol.x[[a, b, c]].tolist() == pytest.approx([0.0, 2.0, 0.0], abs=1e-6)

    def test_sos1_semantics_on_solution(self):
        rng = np.random.default_rng(99)
        for _ in range(30):
            model = random_milp(rng)
            sol = milp.solve_milp(model)
            if sol.status != milp.OPTIMAL:
                continue
            for members in model.sos1_sets:
                nonzero = [v for v in members if abs(sol.x[v]) > 1e-6]
                assert len(nonzero) <= 1

    def test_infeasible_integer_model(self):
        m = milp.MilpModel()
        z1 = m.add_variable(kind=milp.BINARY)
        z2 = m.add_variable(kind=milp.BINARY)
        m.add_constraint({z1: 1.0, z2: 1.0}, milp.EQ, 1.0)
        m.add_constraint({z1: 1.0}, milp.GE, 0.5)
        m.add_constraint({z1: 1.0}, milp.LE, 0.5)
        m.set_objective(milp.MIN, {z1: 1.0})
        # z1 >= 0.5 fixes z1 = 1 and z1 <= 0.5 fixes z1 = 0: infeasible
        # before any LP
        with mock.patch.object(milp._NodeLp, "solve", side_effect=AssertionError):
            sol = milp.solve_milp(m)
        assert (sol.status, sol.node_count) == (milp.INFEASIBLE, 0)
        assert milp.brute_force(m).status == milp.INFEASIBLE

    def test_near_integral_binary_does_not_carry_a_big_m_row(self):
        """The root LP puts z 6.2e-7 off integral, with x = 3.25 z = 2e-6
        on the Big-M row (3.25 is the largest M of the stage models).
        Accepted as integral, z would round to 0 while x kept the row's
        room, past the 1e-6 droop tolerance; ``INT_TOL`` must branch."""
        m = milp.MilpModel()
        x = m.add_variable(0.0, 2e-6)
        z = m.add_variable(kind=milp.BINARY)
        m.add_constraint({x: 1.0, z: -3.25}, milp.LE, 0.0)
        m.set_objective(milp.MAX, {x: 1.0, z: -1.0})
        assert milp.solve_lp(m).x[z] == pytest.approx(2e-6 / 3.25)
        sol = milp.solve_milp(m)
        assert sol.status == milp.OPTIMAL
        assert sol.x[x] <= 3.25 * round(sol.x[z]) + 1e-6
        assert sol.objective == pytest.approx(0.0, abs=milp.GAP)

    def test_matches_brute_force_on_corpus(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(60):
            model = random_milp(rng)
            bf = milp.brute_force(model)
            bb = milp.solve_milp(model)
            assert bb.status == bf.status
            if bf.status == milp.OPTIMAL:
                assert bb.objective == pytest.approx(bf.objective, abs=1e-6)
                checked += 1
        assert checked >= 40

    def test_relaxation_bounds_milp(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            model = random_milp(rng)
            lp = milp.solve_lp(model)
            mi = milp.solve_milp(model)
            if lp.status != milp.OPTIMAL or mi.status != milp.OPTIMAL:
                continue
            if model.objective_sense == milp.MIN:
                assert lp.objective <= mi.objective + 1e-6
            else:
                assert lp.objective >= mi.objective - 1e-6

    def test_determinism(self):
        rng = np.random.default_rng(13)
        model = random_milp(rng)
        s1 = milp.solve_milp(model)
        s2 = milp.solve_milp(model)
        assert s1.status == s2.status
        assert s1.node_count == s2.node_count
        assert s1.simplex_iterations == s2.simplex_iterations
        if s1.status == milp.OPTIMAL:
            np.testing.assert_array_equal(s1.x, s2.x)


class TestBruteForce:
    def test_one_binary_two_solves(self):
        m = milp.MilpModel()
        z = m.add_variable(kind=milp.BINARY)
        m.add_constraint({z: 1.0}, milp.LE, 1.0)
        m.set_objective(milp.MAX, {z: 1.0})
        sol = milp.brute_force(m)
        assert sol.node_count == 2  # solves reported through node_count
        assert sol.objective == pytest.approx(1.0)

    def test_sos_five_members_six_solves(self):
        m = milp.MilpModel()
        ids = [m.add_variable(0, 1) for _ in range(5)]
        m.add_sos1(ids)
        m.add_constraint([(i, 1.0) for i in ids], milp.LE, 1.0)
        m.set_objective(milp.MAX, {ids[2]: 2.0})
        sol = milp.brute_force(m)
        assert sol.node_count == 6  # 5 member choices plus the all-zero case
        assert sol.objective == pytest.approx(2.0)

    def test_fixed_binary_takes_only_its_value(self):
        """Fixed at 1, z makes 3 z >= 3 hold over the box, so the LP
        leaves the row out: enumerating z = 0 as well would find 0."""
        m = milp.MilpModel()
        z = m.add_variable(kind=milp.BINARY)
        m.add_constraint({z: 3.0}, milp.GE, 3.0)
        m.set_objective(milp.MIN, {z: 2.0})
        m.fix_variable(z, 1.0)
        sol = milp.brute_force(m)
        assert (sol.status, sol.objective, sol.node_count) == (milp.OPTIMAL, 2.0, 1)

    def test_too_large(self):
        m = milp.MilpModel()
        for _ in range(21):
            m.add_variable(kind=milp.BINARY)
        m.add_constraint({0: 1.0}, milp.LE, 1.0)
        m.set_objective(milp.MIN, {0: 1.0})
        with pytest.raises(TooLarge):
            milp.brute_force(m)

    def test_unbounded_like_solve_milp(self):
        """max x + z with x - y <= 1, x, y >= 0, z binary."""
        m = milp.MilpModel()
        x, y = m.add_variable(0, np.inf), m.add_variable(0, np.inf)
        z = m.add_variable(kind=milp.BINARY)
        m.add_constraint({x: 1.0, y: -1.0}, milp.LE, 1.0)
        m.set_objective(milp.MAX, {x: 1.0, z: 1.0})
        assert milp.solve_milp(m).status == milp.UNBOUNDED
        sol = milp.brute_force(m)
        assert sol.status == milp.UNBOUNDED
        assert sol.x is None and sol.node_count == 2

    def test_iteration_cap_is_not_an_optimum(self, monkeypatch):
        m = milp.MilpModel()
        x = m.add_variable(0, 4)
        z = m.add_variable(kind=milp.BINARY)
        m.add_constraint({x: 1.0, z: 1.0}, milp.LE, 3.0)
        m.set_objective(milp.MAX, {x: 1.0, z: 2.0})
        assert milp.brute_force(m).objective == pytest.approx(4.0)
        monkeypatch.setattr(milp, "ITER_FACTOR", 0)
        sol = milp.brute_force(m)
        assert sol.status == milp.ITER_LIMIT
        assert sol.x is None and sol.gap == np.inf


# ---------------------------------------------------------------------------
# warm-started search against the oracle
# ---------------------------------------------------------------------------


small_int = st.integers(-3, 3)


@st.composite
def oracle_milps(draw):
    """Small MILPs with binaries, SOS1 sets, LE/GE/EQ rows and boxed,
    one-sided and free variables; about half come with a known feasible
    point, the rest have free right-hand sides and are often infeasible.
    Unboxed variables get LE/GE rows, so every relaxation stays bounded."""
    model = milp.MilpModel()
    x0 = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["box", "lower", "upper", "free"]))
        lo = float(draw(st.integers(-2, 0))) if kind in ("box", "lower") else -np.inf
        hi = float(draw(st.integers(1, 3))) if kind in ("box", "upper") else np.inf
        vid = model.add_variable(lo, hi)
        x0.append(draw(st.integers(int(max(lo, -3)), int(min(hi, 3)))) / 2.0)
        if not np.isfinite(hi):
            model.add_constraint({vid: 1.0}, milp.LE, 4.0)
        if not np.isfinite(lo):
            model.add_constraint({vid: 1.0}, milp.GE, -4.0)
    for _ in range(draw(st.integers(0, 3))):
        model.add_variable(kind=milp.BINARY)
        x0.append(float(draw(st.integers(0, 1))))
    for size in draw(st.lists(st.integers(2, 4), max_size=2)):
        members = [model.add_variable(0.0, float(draw(st.integers(1, 2))))
                   for _ in range(size)]
        model.add_sos1(members)
        keep = draw(st.integers(0, size - 1))
        x0.extend(model.variables[v].hi / 2.0 if k == keep else 0.0
                  for k, v in enumerate(members))
    if not model.variables:
        model.add_variable(0.0, 1.0)
        x0.append(0.5)
    n, x0 = len(model.variables), np.array(x0)
    anchored = draw(st.booleans())
    for _ in range(draw(st.integers(1, 4))):
        coeffs = {j: float(c) for j in range(n) if (c := draw(small_int))}
        if not coeffs:
            continue
        sense = draw(st.sampled_from([milp.LE, milp.GE, milp.EQ]))
        if anchored:
            act = sum(c * x0[j] for j, c in coeffs.items())
            rhs = act + {milp.LE: 1.0, milp.GE: -1.0, milp.EQ: 0.0}[sense] * draw(
                st.integers(0, 2)) / 2.0
        else:
            rhs = float(draw(st.integers(-4, 4)))
        model.add_constraint(coeffs, sense, rhs)
    model.set_objective(draw(st.sampled_from([milp.MIN, milp.MAX])),
                        {j: float(draw(small_int)) for j in range(n)})
    return model


class TestWarmSearch:
    @settings(max_examples=250, derandomize=True, deadline=None, database=None)
    @given(oracle_milps())
    def test_matches_brute_force(self, model):
        bf = milp.brute_force(model)
        bb = milp.solve_milp(model)
        assert bb.status == bf.status
        if bf.status == milp.OPTIMAL:
            assert bb.objective == pytest.approx(bf.objective, abs=1e-6)
            assert bb.gap <= milp.GAP + 1e-9

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(oracle_milps(), st.sampled_from(["farkas", "dual"]))
    def test_cold_fallback_matches_brute_force(self, model, broken):
        """Node verdicts the warm path cannot confirm go to a cold solve:
        force that for every infeasible node (no Farkas proof holds) or
        for every node (the dual simplex always stalls)."""
        if broken == "farkas":
            patch = mock.patch.object(milp, "_FARKAS_TOL", np.inf)
        else:
            patch = mock.patch.object(milp._Simplex, "run_dual", lambda self: None)
        bf = milp.brute_force(model)
        with patch:
            bb = milp.solve_milp(model)
        assert bb.status == bf.status
        if bf.status == milp.OPTIMAL:
            assert bb.objective == pytest.approx(bf.objective, abs=1e-6)

    def test_node_limit_status_and_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            model = random_milp(rng)
            full = milp.solve_milp(model)
            if full.status == milp.OPTIMAL and full.node_count > 1:
                break
        sol = milp.solve_milp(model, milp.MilpOptions(node_limit=1))
        assert sol.status == milp.NODE_LIMIT
        assert sol.node_count == 1
        best = milp.brute_force(model).objective
        sign = 1.0 if model.objective_sense == milp.MIN else -1.0
        assert sign * sol.best_bound <= sign * best + 1e-6
        if sol.x is not None:
            assert sign * sol.best_bound <= sign * sol.objective + 1e-9
            assert sol.gap == pytest.approx(abs(sol.objective - sol.best_bound))
        else:
            assert sol.gap == np.inf

    @pytest.mark.parametrize("limit", [None, 0, -3, 2.5, True, "60"])
    def test_node_limit_must_be_a_positive_int(self, limit):
        """A node limit that is not an int of at least 1 is refused when
        the options are made, and cannot be set on them afterwards."""
        with pytest.raises(ValueError, match="node_limit"):
            milp.MilpOptions(node_limit=limit)
        with pytest.raises(dataclasses.FrozenInstanceError):
            milp.MilpOptions(node_limit=1).node_limit = limit

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(oracle_milps(), st.sampled_from([1, 2, 3, 5]))
    def test_node_limit_bound_is_valid(self, model, node_limit):
        """Open nodes are ordered on their bound rounded to GAP, but the
        bound a stopped search reports must still be a proven one: never
        past the optimum, with any incumbent no better than it."""
        bf = milp.brute_force(model)
        sol = milp.solve_milp(model, milp.MilpOptions(node_limit=node_limit))
        sign = 1.0 if model.objective_sense == milp.MIN else -1.0
        if bf.status == milp.OPTIMAL:
            assert sign * sol.best_bound <= sign * bf.objective + 1e-6
            if sol.x is not None:
                assert sign * sol.objective >= sign * bf.objective - 1e-6
        elif bf.status == milp.INFEASIBLE:
            assert sol.x is None
        if sol.x is not None:
            assert sol.gap == abs(sol.objective - sol.best_bound)
        else:
            assert sol.gap == np.inf

    def test_refactor_reproduces_tableau(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            arrs = milp._Arrays(random_lp(rng))
            lp = milp._Simplex(arrs.A, arrs.by_col, arrs.b, arrs.lo, arrs.hi, arrs.c, 10 ** 4)
            assert lp.solve().status == milp.OPTIMAL
            T, xB = lp.T.copy(), lp.xB.copy()
            perm = lp.refactor()
            assert perm is not None
            np.testing.assert_allclose(lp.T, T[:, perm], atol=1e-9)
            np.testing.assert_allclose(lp.xB, xB, atol=1e-9)
            assert np.all(np.diff(lp.nb) > 0)   # renumbered in variable order
            # narrowed: T = B^-1 [A | I] on the nonbasic columns, with B^-1
            # read from the slack columns; the basic values stay
            lp = narrowed(arrs, lp)
            assert lp is not None
            assert lp.T.shape == (arrs.m, arrs.n_struct)
            binv = lp._binv_rows(np.arange(arrs.m))
            full = np.hstack([arrs.A, np.eye(arrs.m)])
            np.testing.assert_allclose(lp.T, binv @ full[:, lp.nb], atol=1e-9)
            np.testing.assert_allclose(lp.xB, xB, atol=1e-7)

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(oracle_milps())
    def test_condensed_tableau_invariants(self, model):
        """nb, pos and basis partition the variables, T is B^-1 [A | I | art]
        on the nonbasic columns and the B^-1 rows that the dual pricing and
        the Farkas check read are the explicit inverse's: after a cold
        solve, after a bound change (a rebase with no exchange) and its
        warm solve, after a rebase back onto the first basis and after a
        refactor at that basis in the same tableau (``load``)."""
        arrs = milp._Arrays(model)
        if arrs.trivially_infeasible or arrs.m == 0:
            return
        lp = milp._Simplex(arrs.A, arrs.by_col, arrs.b, arrs.lo, arrs.hi, arrs.c, 10 ** 4)
        lp.solve()
        check_condensed(lp)
        lp = narrowed(arrs, lp)
        if lp is None:
            return
        check_condensed(lp)
        basis, status = lp.basis.copy(), lp.status.copy()
        n = arrs.n_struct
        lo, hi = arrs.lo[:n].copy(), arrs.hi[:n].copy()
        j = int(np.argmax(np.isfinite(lo)))
        if np.isfinite(lo[j]):
            hi[j] = lo[j]
            set_bounds_by_rebase(lp, lo, hi)
            check_condensed(lp)
            lp.reoptimize()
            check_condensed(lp)
        if lp.rebase(basis, status, arrs.lo[:n], arrs.hi[:n]):
            assert np.array_equal(np.sort(lp.basis), np.sort(basis))
            check_condensed(lp)
        if load(lp, basis, status, arrs.lo[:n], arrs.hi[:n]):
            check_condensed(lp)

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(oracle_milps(), st.data())
    def test_set_bounds_matches_full_placement(self, model, data):
        """A rebase onto the tableau's own basis, as a child of the node
        it holds takes, makes no exchange and places every nonbasic
        column.  After a cold solve (narrowed to structurals and slacks,
        as before any warm node) and each of a few structural bound
        changes and the warm solve that may follow, its statuses and x_B
        are bit for bit those of placing only the columns whose bounds
        changed (``set_bounds``), and so are its values up to the sign of
        a zero: a bound that goes from 0.0 to -0.0 is no change to
        ``set_bounds``, while the rebase writes it."""
        arrs = milp._Arrays(model)
        if arrs.trivially_infeasible or arrs.m == 0:
            return
        lp = milp._Simplex(arrs.A, arrs.by_col, arrs.b, arrs.lo, arrs.hi, arrs.c, 10 ** 4)
        lp.solve()
        lp = narrowed(arrs, lp)
        if lp is None:
            return
        n = arrs.n_struct
        lo, hi = arrs.lo[:n].copy(), arrs.hi[:n].copy()
        bound = st.one_of(st.just(np.inf), st.integers(-2, 3).map(float))
        for _ in range(data.draw(st.integers(1, 4))):
            for j in data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)):
                lo[j], hi[j] = sorted((-data.draw(bound), data.draw(bound)))
            changed_only = copy.deepcopy(lp)
            set_bounds(changed_only, lo, hi)
            iters = lp.iters
            set_bounds_by_rebase(lp, lo, hi)
            assert lp.iters == iters
            for name in ("status", "xB"):
                assert identical_arrays(getattr(lp, name), getattr(changed_only, name)), name
            assert np.array_equal(lp.xval, changed_only.xval)
            if data.draw(st.booleans()):
                lp.reoptimize()

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(oracle_milps(), st.data())
    def test_start_basis_matches_brute_force(self, model, data):
        """A root started from another solve's optimal root basis: on the
        same rows with the objective negated (always feasible, so the
        root is not cold), with one row appended, and from the model
        without its last structural and its last row.  That last start
        is not cold whenever it is usable: nonsingular, and primal
        feasible or dual feasible as ``load`` places it.  Wrong lengths
        and a singular basis fall back to a cold root; a shuffled basic
        set is cold when singular and warm when usable."""
        if len(model.variables) > 1 and model.constraints:
            sub = milp.solve_milp(drop_last(model))
            if sub.root_basis is not None:
                arrs = milp._Arrays(model)
                n = arrs.n_struct
                b0, s0 = sub.root_basis
                ext_basis, ext_status = arrs.start_basis(sub.root_basis)
                # slack ids shift past the appended structural, which is nonbasic
                assert np.array_equal(ext_basis[:b0.size], np.where(b0 < n - 1, b0, b0 + 1))
                assert ext_status[n - 1] != milp._BASIC
                cold = check_start(model, sub.root_basis)
                if start_usable(model, ext_basis, ext_status):
                    assert not cold
        sol = milp.solve_milp(model)
        if sol.root_basis is None:
            return
        basis, status = sol.root_basis
        flipped = copy.deepcopy(model)
        flipped.set_objective(milp.MAX if model.objective_sense == milp.MIN else milp.MIN,
                              model.objective)
        assert not check_start(flipped, sol.root_basis)
        extended = copy.deepcopy(flipped)
        n = len(model.variables)
        coeffs = {j: float(c) for j in range(n) if (c := data.draw(small_int))} or {0: 1.0}
        extended.add_constraint(coeffs, data.draw(st.sampled_from([milp.LE, milp.GE])),
                                float(data.draw(st.integers(-4, 4))))
        check_start(extended, sol.root_basis)

        arrs = milp._Arrays(flipped)
        m = arrs.m
        if m == 0:
            return
        for bad in ((basis[:-1], status),
                    (np.append(basis, n + m), np.append(status, milp._BASIC))):
            assert check_start(flipped, bad)
        check_start(flipped, (basis, status[:-1]))   # a start with one structural fewer
        zeros = np.argwhere(arrs.A == 0.0)
        if zeros.size:
            r, j = zeros[0]
            singular = np.arange(n, n + m)
            singular[r] = j
            st_s = np.full(n + m, milp._AT_LO, dtype=np.int8)
            st_s[singular] = milp._BASIC
            assert check_start(flipped, (singular, st_s))
        shuffled = np.array(data.draw(st.permutations(range(n + m))))[:m]
        st_sh = np.where(status == milp._BASIC, milp._AT_LO, status).astype(np.int8)
        st_sh[shuffled] = milp._BASIC
        usable = start_usable(flipped, shuffled, st_sh)
        cold = check_start(flipped, (shuffled, st_sh))
        if usable:
            assert not cold
        if np.linalg.matrix_rank(full_matrix(arrs)[:, shuffled]) < m:
            assert cold

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(oracle_milps())
    def test_start_tableau_is_built_from_its_basis(self, model):
        """A start's tableau is built at its basis, with no cold tableau
        and no artificial columns made first, and it is bit for bit the
        tableau that a cold one gives once its artificials are dropped and
        the start is loaded into it.  The start is the root basis under
        the negated objective."""
        sol = milp.solve_milp(model)
        if sol.root_basis is None:
            return
        flipped = copy.deepcopy(model)
        flipped.set_objective(milp.MAX if model.objective_sense == milp.MIN else milp.MIN,
                              model.objective)
        arrs = milp._Arrays(flipped)
        lo, hi, _ = arrs.root_box(np.array(model.binary_ids, dtype=int))
        basis, status = arrs.start_basis(sol.root_basis)
        reference = cold_then_load(arrs, lo, hi, basis, status)
        events = []   # None for each cold tableau made, then the start's tableau
        init, reoptimize = milp._Simplex.__init__, milp._Simplex.reoptimize

        def logged_init(self, *args):
            if len(args) == 7 or args[7] is None:   # no stored basis: cold
                events.append(None)
            init(self, *args)

        def logged_reoptimize(self):
            events.append({name: getattr(self, name).copy()
                           for name in ("T", "xB", "nb", "pos", "status", "xval")})
            return reoptimize(self)

        with mock.patch.object(milp._Simplex, "__init__", logged_init), \
                mock.patch.object(milp._Simplex, "reoptimize", logged_reoptimize):
            milp.solve_milp(flipped, milp.MilpOptions(node_limit=1), start=sol.root_basis)
        if reference is None:   # singular: the root goes cold
            assert events[0] is None
            return
        start = events[0]
        assert start is not None and start["T"].shape == (arrs.m, arrs.n_struct)
        for name in ("T", "xB", "nb", "pos", "status"):
            assert np.array_equal(start[name], getattr(reference, name)), name
        assert np.array_equal(start["xval"][start["nb"]], reference.xval[reference.nb])

    def test_start_that_goes_cold_counts_every_pivot(self):
        """A start root whose warm solve ends without a verdict is solved
        cold, and ``simplex_iterations`` counts the warm pivots as well as
        the cold solve's.  The start is a root basis under the negated
        objective, so its primal pass pivots; that pass, on the start's
        tableau (the first one to price), is made to report a limit."""
        rng = np.random.default_rng(11)
        for _ in range(60):
            model = random_milp(rng)
            sol = milp.solve_milp(model)
            if sol.root_basis is not None:
                break
        model.set_objective(milp.MAX if model.objective_sense == milp.MIN else milp.MIN,
                            model.objective)
        run_phase, cold = milp._Simplex.run_phase, milp._NodeLp._cold
        tableaux, warm, cold_pivots = [], [], []

        def stalled(self, cost, phase1):
            status = run_phase(self, cost, phase1)
            if not tableaux:
                tableaux.append(self)
            if self is tableaux[0]:
                warm.append(self.iters)
                return milp.ITER_LIMIT
            return status

        def logged_cold(self, node):
            res = cold(self, node)
            cold_pivots.append(res.iterations)
            return res

        with mock.patch.object(milp._Simplex, "run_phase", stalled), \
                mock.patch.object(milp._NodeLp, "_cold", logged_cold):
            out = milp.solve_milp(model, milp.MilpOptions(node_limit=1), start=sol.root_basis)
        assert out.node_count == 1 and len(warm) == 1 and len(cold_pivots) == 1
        assert warm[0] > 0 and cold_pivots[0] > 0
        assert out.simplex_iterations == warm[0] + cold_pivots[0]

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(oracle_milps())
    def test_every_pivot_is_counted_once(self, model):
        """``simplex_iterations`` is the sum of the pivots each primal
        pass, dual pass and rebase makes, wherever the node's solve
        goes next."""
        sol, counted = count_pivots(lambda: milp.solve_milp(model))
        assert sol.simplex_iterations == counted

    def test_every_pivot_is_counted_once_on_a_budgeted_stage(self):
        """The same on feeder13-lowpv's Big-M stage 1 at 60 nodes, whose
        search makes rebases with exchanges and retries a rebased solve
        that ended without a verdict on a tableau built at the node's
        basis, which counts on from the pivots spent before it."""
        ctx = dd.make_context(load_scenario("feeder13-lowpv"), encoding="bigm")
        mm, handles = dd.build_stage_model(ctx, "stage1")
        mm.set_objective(milp.MAX, {p: ctx.specs[i].s_rated for i, p in enumerate(handles.p)})
        exchanges, verdicts = [], []
        rebase, reoptimize = milp._Simplex.rebase, milp._Simplex.reoptimize

        def logged_rebase(self, *args):
            before = self.iters
            ok = rebase(self, *args)
            exchanges.append(self.iters - before if ok else None)
            return ok

        def logged_reoptimize(self):
            res = reoptimize(self)
            verdicts.append(res is not None)
            return res

        with mock.patch.object(milp._Simplex, "rebase", logged_rebase), \
                mock.patch.object(milp._Simplex, "reoptimize", logged_reoptimize):
            sol, counted = count_pivots(
                lambda: milp.solve_milp(mm, milp.MilpOptions(node_limit=60)))
        assert sol.status == milp.NODE_LIMIT and sol.node_count == 60
        assert any(exchanges)
        assert not all(verdicts)
        assert sol.simplex_iterations == counted


def count_pivots(solve):
    """Run ``solve()`` and count the pivots where they are made: the
    rise of ``iters`` across every ``run_phase``, ``run_dual`` and
    ``rebase`` call.  Returns (what ``solve`` returned, pivots)."""
    counted = []

    def counting(method):
        def wrapped(self, *args, **kwargs):
            before = self.iters
            try:
                return method(self, *args, **kwargs)
            finally:
                counted.append(self.iters - before)
        return wrapped

    simplex = milp._Simplex
    with mock.patch.multiple(simplex, run_phase=counting(simplex.run_phase),
                             run_dual=counting(simplex.run_dual),
                             rebase=counting(simplex.rebase)):
        out = solve()
    return out, sum(counted)


def set_bounds_by_rebase(lp, lo, hi):
    """New structural bounds on ``lp``'s own basis: a rebase that makes
    no exchange."""
    assert lp.rebase(lp.basis.copy(), lp.status.copy(), lo, hi)


def set_bounds(lp, lo_s, hi_s):
    """New structural bounds on the same basis, placing only the
    nonbasic columns whose bounds changed; x_B follows the ones that
    moved.  The in-place step a child of the tableau's node once took."""
    n = lp.n_tot - lp.m
    changed = ((lo_s != lp.lo[:n]) | (hi_s != lp.hi[:n])).nonzero()[0]
    lp.lo[:n], lp.hi[:n] = lo_s, hi_s
    lp.fixed = lp.hi - lp.lo <= 0.0
    cols = changed[lp.status[changed] != milp._BASIC]
    delta = lp._place_nonbasic(cols)
    moved = delta != 0.0
    if moved.any():
        lp.xB -= lp.T[:, lp.pos[cols[moved]]] @ delta[moved]


def load(lp, basis, status, lo_s, hi_s):
    """A stored basis under new structural bounds in ``lp``'s own
    tableau, which has no artificials: set the bounds, adopt the basis
    with each nonbasic column at the bound its status names, refactor.
    False when the basis is singular."""
    n = lp.n_tot - lp.m
    lp.lo[:n], lp.hi[:n] = lo_s, hi_s
    lp.fixed = lp.hi - lp.lo <= 0.0
    lp.basis[:] = basis
    lp.status[:] = status
    lp._place_nonbasic((lp.status != milp._BASIC).nonzero()[0])
    return lp.refactor() is not None


def cold_then_load(arrs, lo, hi, basis, status):
    """A start's tableau made the way a start used to make it: a cold
    tableau, its artificial columns dropped (T keeps its buffer), then
    ``load``; None when the start is singular."""
    lp = arrs.simplex(lo, hi)
    m, n, n_tot = lp.m, arrs.n_struct, lp.n_tot
    lp.status, lp.lo, lp.hi, lp.xval = (a[:n_tot].copy()
                                        for a in (lp.status, lp.lo, lp.hi, lp.xval))
    lp.T = lp.T.reshape(-1)[:m * n].reshape(m, n)
    lp.nb, lp.pos = np.empty(n, dtype=np.intp), np.full(n_tot, -1)
    lp.N, lp.n_art, lp.art_rows, lp.art_signs = n_tot, 0, lp.art_rows[:0], lp.art_signs[:0]
    return lp if load(lp, basis, status, lo, hi) else None


def narrowed(arrs, lp):
    """A tableau built at a cold ``lp``'s basis narrowed to structurals
    and slacks (the basis its node's children store), under ``lp``'s
    bounds, and refactored; None when that basis is singular."""
    n = arrs.n_struct
    return arrs.simplex(lp.lo[:n], lp.hi[:n], lp.narrowed())


def check_start(model, start):
    """Solve ``model`` from ``start`` and check it against brute force;
    returns whether the root was solved cold."""
    roots = []
    cold = milp._NodeLp._cold

    def logged_cold(self, node):
        roots.append(node.neg_nid == 0)
        return cold(self, node)

    with mock.patch.object(milp._NodeLp, "_cold", logged_cold):
        sol = milp.solve_milp(model, start=start)
    bf = milp.brute_force(model)
    assert sol.status == bf.status
    if bf.status == milp.OPTIMAL:
        assert sol.objective == pytest.approx(bf.objective, abs=1e-6)
        assert sol.gap <= milp.GAP + 1e-9
    return any(roots)


def full_matrix(arrs):
    """[A | I]: the structural and slack columns of ``arrs``."""
    return np.hstack([arrs.A, np.eye(arrs.m)])


def start_usable(model, basis, status):
    """Whether a start basis of ``model`` is nonsingular, and primal
    feasible or dual feasible where ``load`` puts it under the root
    node's bounds (each movable nonbasic column's reduced cost at least
    -``_D_TOL`` at its lower bound, at most ``_D_TOL`` at its upper, and
    within ``_D_TOL`` of 0 when free), from an explicit inverse; None
    when round-off could tip the solver's verdict either way, or when
    root propagation leaves no LP to solve."""
    arrs = milp._Arrays(model)
    box = arrs.root_box(np.array(model.binary_ids, dtype=int))
    if box is None:
        return None
    n, m = arrs.n_struct, arrs.m
    full = full_matrix(arrs)
    B = full[:, basis]
    if np.linalg.matrix_rank(B) < m:
        return False
    if m and np.linalg.cond(B) > 1e8:
        return None
    lo, hi = np.concatenate([box[0], arrs.lo[n:]]), np.concatenate([box[1], arrs.hi[n:]])
    x = np.zeros(n + m)
    to_hi = np.isfinite(hi) & ((status == milp._AT_HI) | ~np.isfinite(lo))
    to_lo = np.isfinite(lo) & ~to_hi
    x[to_hi], x[to_lo] = hi[to_hi], lo[to_lo]
    x[basis] = 0.0
    xB = np.linalg.solve(B, arrs.b - arrs.A @ x[:n] - x[n:])
    viol = np.max(np.maximum(lo[basis] - xB, xB - hi[basis]), initial=0.0)
    if viol <= 1e-9:
        return True
    d = arrs.c - full.T @ np.linalg.solve(B.T, arrs.c[basis])
    # what moving each column off where it sits gains
    gain = np.where(to_lo, -d, np.where(to_hi, d, np.abs(d)))
    movable = hi - lo > 0.0
    movable[basis] = False
    worst = np.max(gain[movable], initial=-np.inf)
    if worst <= milp._D_TOL - 1e-10:
        return True
    return False if viol > 1e-6 and worst > milp._D_TOL + 1e-10 else None


def drop_last(model):
    """``model`` without its last structural variable and its last row."""
    last = len(model.variables) - 1
    out = milp.MilpModel()
    for v in model.variables[:-1]:
        out.add_variable(v.lo, v.hi, v.kind)
    for con in model.constraints[:-1]:
        out.add_constraint([(j, c) for j, c in con.coeffs if j != last], con.sense, con.rhs)
    for members in model.sos1_sets:
        if len(members) > (last in members):
            out.add_sos1([j for j in members if j != last])
    out.set_objective(model.objective_sense,
                      {j: c for j, c in model.objective.items() if j != last})
    return out


def rebuilt(model):
    """``model`` built again from scratch through its methods."""
    out = milp.MilpModel(model.name)
    for j, v in enumerate(model.variables):
        if out.variables[out.add_variable(v.lo, v.hi, v.kind, v.name)] != v:
            out.fix_variable(j, v.lo)   # a fixed binary
    for con in model.constraints:
        out.add_constraint(con.coeffs, con.sense, con.rhs, con.name)
    for members in model.sos1_sets:
        out.add_sos1(members)
    out.set_objective(model.objective_sense, model.objective, model.objective_const)
    return out


def check_condensed(lp):
    m, n_tot, N = lp.m, lp.n_tot, lp.N
    assert lp.T.shape == (m, N - m) and lp.nb.size == N - m
    assert np.array_equal(np.sort(np.concatenate([lp.nb, lp.basis])), np.arange(N))
    assert np.array_equal(lp.pos[lp.nb], np.arange(N - m))
    assert np.all(lp.pos[lp.basis] == -1)
    assert np.all(lp.status[lp.basis] == milp._BASIC)
    assert np.all(lp.status[lp.nb] != milp._BASIC)
    art = np.zeros((m, N - n_tot))
    art[lp.art_rows, np.arange(lp.n_art)] = lp.art_signs
    full = np.hstack([lp.A, np.eye(m), art])
    B = full[:, lp.basis]
    expected = np.linalg.solve(B, full[:, lp.nb])
    np.testing.assert_allclose(lp.T, expected, atol=1e-8 * max(1.0, np.abs(expected).max()))
    b_inv = np.linalg.inv(B)
    rows = np.arange(m)
    tol = 1e-8 * max(1.0, np.abs(b_inv).max())
    np.testing.assert_allclose(lp._binv_rows(rows), b_inv, atol=tol)
    np.testing.assert_allclose(lp._binv_row_norms(rows), np.sum(b_inv * b_inv, axis=1),
                               rtol=1e-7, atol=tol)



# ---------------------------------------------------------------------------
# row activity over a box: children one row breaks, and implied rows
# ---------------------------------------------------------------------------


FAR = 1e6   # stands in for an infinite bound when corners are enumerated


def box_extremes(model, coeffs):
    """Least and greatest value of sum(c * x) over the model's variable box."""
    low = high = 0.0
    for j, c in coeffs.items():
        v = model.variables[j]
        low += c * (v.lo if c > 0 else v.hi)
        high += c * (v.hi if c > 0 else v.lo)
    return low, high


def row_vector(model, con):
    a = np.zeros(len(model.variables))
    for j, c in con.coeffs:
        a[j] += c
    return a


def corner_activities(a, lo, hi):
    """a @ x at every corner of the box lo <= x <= hi over the variables
    a touches, an infinite bound taken as +/- ``FAR``."""
    support = np.flatnonzero(a)
    sides = [(max(lo[j], -FAR), min(hi[j], FAR)) for j in support]
    corners = np.array(list(itertools.product(*sides))).reshape(-1, support.size)
    return corners @ a[support]


@st.composite
def settling_milps(draw):
    """``oracle_milps`` plus rows that one branch child breaks on its own
    box.  For a binary z: 2 z plus a boxed part, against one past that
    part's least value (z = 1 breaks it) or its greatest (z = 0 breaks
    it), or against the extreme itself (no child breaks it).  For an
    SOS1 set: a floor of 0.25 on one member, which every child that
    zeroes the member breaks."""
    model = draw(oracle_milps())
    boxed = [j for j, v in enumerate(model.variables)
             if v.kind == milp.CONTINUOUS and np.isfinite(v.lo) and np.isfinite(v.hi)]
    for z in model.binary_ids:
        rest = {j: float(c) for j in boxed if (c := draw(small_int))}
        low, high = box_extremes(model, rest)
        step = float(draw(st.sampled_from([0, 1])))
        if draw(st.booleans()):
            model.add_constraint({z: 2.0, **rest}, milp.LE, low + 1.0 + step)
        else:
            model.add_constraint({z: 2.0, **rest}, milp.GE, high + 1.0 - step)
    for members in model.sos1_sets:
        model.add_constraint({draw(st.sampled_from(members)): 1.0}, milp.GE, 0.25)
    return model


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(settling_milps())
def test_children_that_one_row_breaks_match_brute_force(model):
    """Branch children that one row proves infeasible on their own box
    get their LP, which the dual simplex and the Farkas check must
    prove infeasible; the search still matches the oracle."""
    bf = milp.brute_force(model)
    sol = milp.solve_milp(model)
    assert sol.status == bf.status
    if bf.status == milp.OPTIMAL:
        assert sol.objective == pytest.approx(bf.objective, abs=1e-6)


class TestRootFixings:
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(oracle_milps())
    def test_fixings_keep_the_optimum(self, model):
        """Root propagation fixes only binaries whose other value no
        solution takes: with every fixing applied through
        ``fix_variable``, brute force finds the same status and optimum,
        and a model that propagation proves infeasible is infeasible to
        brute force too.  The fixings are a fixed point: propagation on
        the fixed copy fixes nothing more.  ``solve_milp`` reports the
        fixings it made."""
        bf = milp.brute_force(model)
        box = milp._Arrays(model).root_box(model.binary_ids)
        if box is None:
            assert bf.status == milp.INFEASIBLE
            assert milp.solve_milp(model).node_count == 0
            return
        lo, hi, count = box
        new = [j for j in model.binary_ids
               if lo[j] == hi[j] and model.variables[j].lo < model.variables[j].hi]
        assert count == len(new)
        fixed = model.copy()
        for j in new:
            fixed.fix_variable(j, lo[j])
        assert milp._Arrays(fixed).root_box(fixed.binary_ids)[2] == 0
        ref = milp.brute_force(fixed)
        assert ref.status == bf.status
        if bf.status == milp.OPTIMAL:
            assert ref.objective == pytest.approx(bf.objective, abs=milp.GAP)
        assert milp.solve_milp(model).root_fixed == count


# ---------------------------------------------------------------------------
# the checked root point
# ---------------------------------------------------------------------------


def broken_properties(model, x, lo, hi):
    """What ``x`` breaks of the root node's feasible set, the box [lo, hi]:
    a subset of "bounds", "rows" (each to ``FEAS_TOL``), "integrality"
    and "sos1" (each to ``INT_TOL``)."""
    broken = set()
    if np.any(x < lo) or np.any(x > hi):
        broken.add("bounds")
    for con in model.constraints:
        miss = row_vector(model, con) @ x - con.rhs
        if {milp.LE: miss, milp.GE: -miss, milp.EQ: abs(miss)}[con.sense] > milp.FEAS_TOL:
            broken.add("rows")
    z = x[model.binary_ids]
    if np.any(np.abs(z - np.round(z)) > milp.INT_TOL):
        broken.add("integrality")
    if any(np.count_nonzero(np.abs(x[s]) > milp.INT_TOL) > 1 for s in model.sos1_sets):
        broken.add("sos1")
    return broken


def corrupted_points(model, x, lo, hi):
    """Copies of ``x``, each breaking exactly one property of the root
    node's feasible set, by kind; a kind this model offers no such copy
    of is left out.  "rows": a continuous variable moved so that a row
    the LP keeps misses its bound by 1e-4; "integrality": a free binary
    at 0.5; "sos1": a zero member of an SOS1 set at half its upper bound,
    next to a nonzero one; "bounds": a variable 1e-4 past a finite bound."""
    n = len(model.variables)
    in_sos = {j for s in model.sos1_sets for j in s}
    continuous = [j for j in range(n)
                  if model.variables[j].kind == milp.CONTINUOUS and j not in in_sos]
    candidates = {"rows": [], "integrality": [], "sos1": [], "bounds": []}
    for r in milp._Arrays(model).rows:
        con = model.constraints[r]
        a = row_vector(model, con)
        target = con.rhs + (-1e-4 if con.sense == milp.GE else 1e-4)
        move = target - a @ x
        candidates["rows"] += [(j, x[j] + move / a[j]) for j in continuous if a[j]]
    candidates["integrality"] = [(j, 0.5) for j in model.binary_ids if lo[j] < hi[j]]
    for s in model.sos1_sets:
        if np.count_nonzero(np.abs(x[s]) > milp.INT_TOL) == 1:
            candidates["sos1"] += [(j, hi[j] / 2.0) for j in s if x[j] == 0.0]
    for j in range(n):
        for bound, step in ((lo[j], -1e-4), (hi[j], 1e-4)):
            if np.isfinite(bound):
                candidates["bounds"].append((j, bound + step))
    out = {}
    for kind, moves in candidates.items():
        for j, value in moves:
            bad = x.copy()
            bad[j] = value
            if broken_properties(model, bad, lo, hi) == {kind}:
                out[kind] = bad
                break
    return out


def same_bits(sol, ref):
    """``same_solution``, with the objective compared bit for bit."""
    same_solution(sol, ref)
    assert np.float64(sol.objective).tobytes() == np.float64(ref.objective).tobytes()


class TestRootPoint:
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(oracle_milps())
    def test_optimal_point_is_taken(self, model):
        """A root point at ``brute_force``'s optimum keeps its status and
        objective.  It is taken when it breaks nothing, and then closes
        the search at the root when it lies within ``GAP`` of the root
        bound."""
        bf = milp.brute_force(model)
        if bf.status != milp.OPTIMAL:
            return
        sol = milp.solve_milp(model, root_point=lambda x: bf.x.copy())
        assert sol.status == bf.status
        assert sol.objective == pytest.approx(bf.objective, abs=1e-6)
        lo, hi, _ = milp._Arrays(model).root_box(model.binary_ids)
        clean = not broken_properties(model, bf.x, lo, hi)
        assert sol.root_point == clean
        root = milp.solve_milp(model, milp.MilpOptions(node_limit=1))
        if clean and abs(bf.objective - root.best_bound) <= milp.GAP:
            assert sol.node_count == 1
            assert np.array_equal(sol.x, bf.x)

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(oracle_milps())
    def test_broken_points_change_nothing(self, model):
        """Copies of the optimum that break one bound, one row, the
        integrality of one binary or one SOS1 set are each rejected, and
        the search then runs as it does without a root point, bit for
        bit."""
        bf = milp.brute_force(model)
        if bf.status != milp.OPTIMAL:
            return
        lo, hi, _ = milp._Arrays(model).root_box(model.binary_ids)
        if broken_properties(model, bf.x, lo, hi):
            return
        ref = milp.solve_milp(model)
        for kind, bad in corrupted_points(model, bf.x, lo, hi).items():
            sol = milp.solve_milp(model, root_point=lambda x, bad=bad: bad.copy())
            assert not sol.root_point, kind
            same_bits(sol, ref)

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(oracle_milps())
    def test_no_point_changes_nothing(self, model):
        """A root point of None leaves the search as it is without one,
        bit for bit.  The function is called once, on the root LP's
        optimal x, and only when the root LP ends optimal."""
        calls = []
        sol = milp.solve_milp(model, root_point=lambda x: calls.append(x.copy()))
        same_bits(sol, milp.solve_milp(model))
        assert not sol.root_point
        root = milp.solve_milp(model, milp.MilpOptions(node_limit=1))
        assert len(calls) == (root.status in (milp.OPTIMAL, milp.NODE_LIMIT))
        if calls:
            objective = sum(c * calls[0][j] for j, c in model.objective.items())
            assert objective + model.objective_const == pytest.approx(root.best_bound,
                                                                      abs=1e-9)

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(oracle_milps())
    def test_cold_root_refactors_only_to_branch(self, model):
        """With a root point at ``brute_force``'s optimum, a cold root
        makes no refactor, whether it closes or branches.  Its tableau
        keeps its artificial columns, so when it has some, the first
        child's solve builds a tableau at the root's basis and refactors
        once there; without them the child is rebased onto the root's
        tableau as it is.  Either way ``root_basis`` is the cold root's
        basis narrowed to structurals and slacks: each basic artificial
        gives way to its row's slack."""
        bf = milp.brute_force(model)
        if bf.status != milp.OPTIMAL:
            return
        events = []
        refactor, solve = milp._Simplex.refactor, milp._NodeLp.solve

        def logged_refactor(self):
            events.append("refactor")
            return refactor(self)

        def logged_solve(self, node):
            events.append("root" if node.neg_nid == 0 else "node")
            return solve(self, node)

        with mock.patch.object(milp._Simplex, "refactor", logged_refactor), \
                mock.patch.object(milp._NodeLp, "solve", logged_solve):
            sol = milp.solve_milp(model, root_point=lambda x: bf.x.copy())
        arrs = milp._Arrays(model)
        lo, hi, _ = arrs.root_box(np.array(model.binary_ids, dtype=int))
        cold = arrs.simplex(lo, hi)
        assert cold.solve().status == milp.OPTIMAL
        solves = [i for i, e in enumerate(events) if e != "refactor"] + [len(events)]
        # the refactors made in each node's solve, in solve order
        refactors = [b - a - 1 for a, b in zip(solves, solves[1:])]
        assert events[0] == "root" and refactors[0] == 0
        if sol.node_count > 1 and cold.n_art:
            assert events[solves[1]] == "node" and refactors[1] == 1
        basis = cold.basis.copy()
        art = basis >= cold.n_tot
        basis[art] = arrs.n_struct + cold.art_rows[basis[art] - cold.n_tot]
        status = cold.status[:cold.n_tot].copy()
        status[basis] = milp._BASIC
        got_basis, got_status = sol.root_basis
        assert got_basis.dtype == np.int32 and np.array_equal(got_basis, basis)
        assert got_status.dtype == np.int8 and np.array_equal(got_status, status)


FORM_ARRAYS = ("rows", "r", "j", "vals", "b", "lo", "hi")
MUTATORS = ("add_variable", "add_constraint", "add_sos1", "fix_variable", "set_objective",
            "set_rhs EQ", "set_rhs LE")


def same_solution(sol, ref):
    assert (sol.status, sol.node_count, sol.simplex_iterations,
            sol.lp_rows) == (ref.status, ref.node_count, ref.simplex_iterations, ref.lp_rows)
    assert sol.objective == ref.objective
    assert (sol.x is None and ref.x is None) or np.array_equal(sol.x, ref.x)


class TestKeptForm:
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(oracle_milps(), st.sampled_from(MUTATORS), st.data())
    def test_changed_model_solves_as_rebuilt(self, model, mutator, data):
        """A solve keeps the model's LP form, read-only.  After one change
        through a model method, the form and the next solve equal those of
        the model built again from scratch, bit for bit.  The form object
        survives exactly the changes that cannot move it: a new objective,
        and a new right-hand side on an EQ row the LP keeps."""
        milp.solve_milp(model)
        form = model._form
        for name in FORM_ARRAYS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(form, name)[...] = 0
        n = len(model.variables)
        value = float(data.draw(st.integers(-4, 4)))
        kept = False
        if mutator == "add_variable":
            model.add_variable(min(value, 0.0), max(value, 0.0),
                               data.draw(st.sampled_from([milp.CONTINUOUS, milp.BINARY])))
        elif mutator == "add_constraint":
            coeffs = {j: float(c) for j in range(n) if (c := data.draw(small_int))}
            model.add_constraint(coeffs, data.draw(st.sampled_from([milp.LE, milp.GE, milp.EQ])),
                                 value)
        elif mutator == "add_sos1":
            model.add_sos1(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)))
        elif mutator == "fix_variable":
            j = data.draw(st.integers(0, n - 1))
            # a binary is fixed only at 0 or 1
            binary = model.variables[j].kind == milp.BINARY
            model.fix_variable(j, float(data.draw(st.integers(0, 1))) if binary else value / 2.0)
        elif mutator == "set_objective":
            model.set_objective(data.draw(st.sampled_from([milp.MIN, milp.MAX])),
                                {j: float(data.draw(small_int)) for j in range(n)})
            kept = True
        else:
            sense = mutator.split()[1]
            rows = [i for i, con in enumerate(model.constraints)
                    if con.sense == {"EQ": milp.EQ, "LE": milp.LE}[sense]]
            assume(rows)
            row = data.draw(st.sampled_from(rows))
            model.set_rhs(row, value)
            kept = sense == "EQ" and row in form.rows
        assert (model._form is form) == kept
        fresh = rebuilt(model)
        same_solution(milp.solve_milp(model), milp.solve_milp(fresh))
        for name in FORM_ARRAYS:
            assert np.array_equal(getattr(model._form, name), getattr(fresh._form, name)), name


@st.composite
def padded_milps(draw):
    """``oracle_milps`` plus rows the variable box may already satisfy:
    copies of finite bounds (x_j <= hi_j or x_j >= lo_j, scaled by 1 or
    2), and rows over random coefficients whose right-hand side sits a
    drawn step from the box's extreme activity, from half a unit inside
    (the row can bind) to a unit outside (it cannot)."""
    model = draw(oracle_milps())
    n = len(model.variables)
    for _ in range(draw(st.integers(0, 3))):
        j = draw(st.integers(0, n - 1))
        v, scale = model.variables[j], float(draw(st.sampled_from([1, 2])))
        if draw(st.booleans()) and np.isfinite(v.hi):
            model.add_constraint({j: scale}, milp.LE, scale * v.hi)
        elif np.isfinite(v.lo):
            model.add_constraint({j: scale}, milp.GE, scale * v.lo)
    for _ in range(draw(st.integers(0, 3))):
        coeffs = {j: float(c) for j in range(n) if (c := draw(small_int))}
        if not coeffs:
            continue
        low, high = box_extremes(model, coeffs)
        step = draw(st.integers(-1, 2)) / 2.0
        if draw(st.booleans()) and np.isfinite(high):
            model.add_constraint(coeffs, milp.LE, high + step)
        elif np.isfinite(low):
            model.add_constraint(coeffs, milp.GE, low - step)
    return model


class TestImpliedRows:
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(padded_milps())
    def test_dropped_rows_hold_at_every_corner(self, model):
        """Every LE/GE row ``_Arrays`` leaves out holds at every corner of
        the variable box, and every LE/GE row it keeps whose variables
        are all boxed is violated at some corner.  EQ rows with
        coefficients are always kept."""
        arrs = milp._Arrays(model)
        lo = [v.lo for v in model.variables]
        hi = [v.hi for v in model.variables]
        kept = set(arrs.rows.tolist())
        for i, con in enumerate(model.constraints):
            if not con.coeffs:
                assert i not in kept
                continue
            if con.sense == milp.EQ:
                assert i in kept
                continue
            a = row_vector(model, con)
            act = corner_activities(a, lo, hi)
            holds = act <= con.rhs if con.sense == milp.LE else act >= con.rhs
            if i not in kept:
                assert holds.all(), (i, con)
            elif all(np.isfinite(lo[j]) and np.isfinite(hi[j]) for j in np.flatnonzero(a)):
                assert not holds.all(), (i, con)
        assert arrs.m == len(kept)
        assert np.array_equal(arrs.b, [model.constraints[i].rhs for i in arrs.rows])


def dense_refactor(lp):
    """The refactor written with dense gathers, the reference for the
    scattered one: A[R, S], A[U, S] and each block of nonbasic columns
    gathered from the dense A, and the R and U rows from that block.
    Returns the (T, x_B, nb) it builds, leaving ``lp`` as it is, or None
    when A[R, S] is singular."""
    m, n = lp.m, lp.n_tot - lp.m
    basis = lp.basis
    pos_s = np.flatnonzero(basis < n)
    pos_u = np.flatnonzero(basis >= n)
    unit_rows = np.concatenate([np.arange(m), lp.art_rows])
    unit_signs = np.concatenate([np.ones(m), lp.art_signs])
    u_rows = unit_rows[basis[pos_u] - n]
    u_sign = unit_signs[basis[pos_u] - n][:, None]
    uncovered = np.ones(m, dtype=bool)
    uncovered[u_rows] = False
    rows_r = np.flatnonzero(uncovered)
    if rows_r.size != pos_s.size:
        return None
    cols_s = basis[pos_s]
    lu = None
    if pos_s.size:
        lu, piv, _ = dgetrf(lp.A[np.ix_(rows_r, cols_s)], overwrite_a=1)
        diag = np.abs(np.diag(lu))
        if not diag.min() > 1e-11 * diag.max():
            return None
    a_us = lp.A[np.ix_(u_rows, cols_s)]

    def binv(rhs):
        out = np.empty_like(rhs)
        y_s = rhs[rows_r]
        if lu is not None:
            y_s = dgetrs(lu, piv, y_s, overwrite_b=1)[0]
        out[pos_s] = y_s
        out[pos_u] = u_sign * (rhs[u_rows] - a_us @ y_s)
        return out

    nonbasic = np.flatnonzero(lp.status != milp._BASIC)
    T = np.empty((m, nonbasic.size))
    for c0 in range(0, nonbasic.size, milp._REFACTOR_BLOCK):
        cols = nonbasic[c0:c0 + milp._REFACTOR_BLOCK]
        block = np.zeros((m, cols.size))
        struct = cols < n
        block[:, struct] = lp.A[:, cols[struct]]
        k = cols[~struct] - n
        block[unit_rows[k], np.flatnonzero(~struct)] = unit_signs[k]
        T[:, c0:c0 + cols.size] = binv(block)
    x_nb = np.where(lp.status != milp._BASIC, lp.xval, 0.0)
    xB = binv((lp.b - lp.A @ x_nb[:n] - x_nb[n:lp.n_tot])[:, None])[:, 0]
    return T, xB, nonbasic


def identical_arrays(a, b):
    """Equal dtype, shape and bytes: -0.0 and 0.0 differ, as do NaNs."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def check_refactor(lp):
    """``lp.refactor()`` against ``dense_refactor``, bit for bit."""
    expect = dense_refactor(lp)
    perm = lp.refactor()
    assert (perm is None) == (expect is None)
    if expect is not None:
        T, xB, nb = expect
        assert identical_arrays(lp.T, T) and identical_arrays(lp.xB, xB)
        assert np.array_equal(lp.nb, nb)


def at_basis(arrs, lo, hi, stored):
    """A tableau at the stored (basis, status), not yet refactored."""
    n = arrs.n_struct
    return milp._Simplex(arrs.A, arrs.by_col, arrs.b, np.concatenate([lo, arrs.lo[n:]]),
                         np.concatenate([hi, arrs.hi[n:]]), arrs.c, arrs.iter_cap, stored)


class TestRefactorScatter:
    """The refactor scatters each block's R and U rows from the kept
    form's nonzeros; LAPACK must still see the arrays that the dense
    gathers gave it, so T, x_B and ``nb`` match them bit for bit."""

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(oracle_milps())
    def test_matches_dense_blocks(self, model):
        """After a cold solve (artificial columns included) and at the
        narrowed basis that a branching node is rebuilt at."""
        arrs = milp._Arrays(model)
        if arrs.trivially_infeasible or arrs.m == 0:
            return
        n = arrs.n_struct
        lp = arrs.simplex(arrs.lo[:n], arrs.hi[:n])
        lp.solve()
        stored = lp.narrowed()
        check_refactor(lp)
        check_refactor(at_basis(arrs, arrs.lo[:n], arrs.hi[:n], stored))

    @pytest.mark.parametrize("enc", ["bigm", "sos1"])
    @pytest.mark.parametrize("scenario", ["tiny-2bus", "feeder13-highpv", "feeder13-lowpv",
                                          "feeder40-highpv"])
    def test_stage_models_at_their_root_basis(self, scenario, enc):
        """The bundled stage-1 and stage-2a MIN models, at the root basis
        their first node ends on, with the root's fixings, and after the
        cold root solve."""
        ctx = dd.make_context(load_scenario(scenario), encoding=enc)
        mm, handles = dd.build_stage_model(ctx, "stage1")
        mm.set_objective(milp.MAX, {p: ctx.specs[i].s_rated for i, p in enumerate(handles.p)})
        root = milp.solve_lp(mm).objective
        mm2, handles2 = dd.build_stage_model(ctx, "stage2a", p_star_kw=0.999 * root)
        mm2.set_objective(milp.MIN, {q: ctx.specs[i].s_rated for i, q in enumerate(handles2.q)})
        for model in (mm, mm2):
            sol = milp.solve_milp(model, milp.MilpOptions(node_limit=1))
            assert sol.root_basis is not None
            arrs = milp._Arrays(model)
            lo, hi, _ = arrs.root_box(np.array(model.binary_ids, dtype=int))
            check_refactor(at_basis(arrs, lo, hi, sol.root_basis))
            lp = arrs.simplex(lo, hi)
            lp.solve()
            check_refactor(lp)
