import copy
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridcoord import milp
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

    def test_dump_lp_mentions_sections(self):
        m = milp.MilpModel()
        x = m.add_variable(0, 1, name="p")
        z = m.add_variable(kind=milp.BINARY, name="z")
        m.add_constraint({x: 1.0, z: -1.0}, milp.LE, 0.5)
        m.add_sos1([x, z])
        m.set_objective(milp.MAX, {x: 1.0})
        text = m.dump_lp()
        for section in ("Maximize", "Subject To", "Bounds", "Binary", "SOS"):
            assert section in text


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
        assert sol.binary_assignment(m) == {x1: 1, x2: 0}

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
        active = sol.sos_active(m)
        assert active == [b]

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
        assert milp.solve_milp(m).status == milp.INFEASIBLE

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
            lp = milp._Simplex(arrs.A, arrs.b, arrs.lo, arrs.hi, arrs.c, 10 ** 4)
            assert lp.solve().status == milp.OPTIMAL
            T, xB = lp.T.copy(), lp.xB.copy()
            perm = lp.refactor()
            assert perm is not None
            np.testing.assert_allclose(lp.T, T[:, perm], atol=1e-9)
            np.testing.assert_allclose(lp.xB, xB, atol=1e-9)
            assert np.all(np.diff(lp.nb) > 0)   # renumbered in variable order
            # narrowed: T = B^-1 [A | I] on the nonbasic columns, with B^-1
            # read from the slack columns; the basic values stay
            lp.drop_artificials()
            assert lp.refactor() is not None
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
        solve, after a bound change and its warm solve, after a rebase
        back onto the first basis and after a load."""
        arrs = milp._Arrays(model)
        if arrs.trivially_infeasible or arrs.m == 0:
            return
        lp = milp._Simplex(arrs.A, arrs.b, arrs.lo, arrs.hi, arrs.c, 10 ** 4)
        lp.solve()
        check_condensed(lp)
        lp.drop_artificials()
        if lp.refactor() is None:
            return
        check_condensed(lp)
        basis, status = lp.basis.copy(), lp.status.copy()
        n = arrs.n_struct
        lo, hi = arrs.lo[:n].copy(), arrs.hi[:n].copy()
        j = int(np.argmax(np.isfinite(lo)))
        if np.isfinite(lo[j]):
            hi[j] = lo[j]
            lp.set_bounds(lo, hi)
            check_condensed(lp)
            lp.reoptimize()
            check_condensed(lp)
        if lp.rebase(basis, status, arrs.lo[:n], arrs.hi[:n]):
            assert np.array_equal(np.sort(lp.basis), np.sort(basis))
            check_condensed(lp)
        if lp.load(basis, status, arrs.lo[:n], arrs.hi[:n]):
            check_condensed(lp)

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(oracle_milps(), st.data())
    def test_binv_row_norms_cached_exactly(self, model, data):
        """The B^-1 row norms kept across pivots are bit for bit the ones
        a fresh computation gives, after a cold solve and after each of
        a few bound changes, its warm solve and a rebase."""
        arrs = milp._Arrays(model)
        if arrs.trivially_infeasible or arrs.m == 0:
            return
        lp = milp._Simplex(arrs.A, arrs.b, arrs.lo, arrs.hi, arrs.c, 10 ** 4)
        rows = np.arange(arrs.m)
        lp._binv_row_norms(rows)   # every row cached before the first pivot
        lp.solve()
        check_norms_exact(lp)
        lp.drop_artificials()
        if lp.refactor() is None:
            return
        check_norms_exact(lp)
        basis, status = lp.basis.copy(), lp.status.copy()
        n = arrs.n_struct
        lo, hi = arrs.lo[:n].copy(), arrs.hi[:n].copy()
        for _ in range(data.draw(st.integers(1, 3))):
            boxed = np.flatnonzero(np.isfinite(lo) & np.isfinite(hi) & (lo < hi))
            if boxed.size == 0:
                break
            j = data.draw(st.sampled_from(boxed.tolist()))
            if data.draw(st.booleans()):
                lo[j] = hi[j]
            else:
                hi[j] = lo[j]
            lp.set_bounds(lo, hi)
            lp._binv_row_norms(rows)
            lp.reoptimize()
            check_norms_exact(lp)
            if not lp.rebase(basis, status, arrs.lo[:n], arrs.hi[:n]):
                break
            check_norms_exact(lp)

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(oracle_milps(), st.data())
    def test_start_basis_matches_brute_force(self, model, data):
        """A root started from another solve's optimal root basis: on the
        same rows with the objective negated (always feasible, so the
        root is not cold) and with one row appended.  Bad starts fall
        back to a cold root: wrong lengths, a singular basis, and a
        shuffled basic set whenever it is singular or infeasible."""
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
        for bad in ((basis[:-1], status), (basis, status[:-1]),
                    (np.append(basis, n + m), np.append(status, milp._BASIC))):
            assert check_start(flipped, bad)
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
        usable = start_usable(arrs, shuffled, st_sh)
        cold = check_start(flipped, (shuffled, st_sh))
        if usable is not None:
            assert cold != usable


def check_start(model, start):
    """Solve ``model`` from ``start`` and check it against brute force;
    returns whether the root was solved cold."""
    roots = []
    cold = milp._NodeLp._cold

    def logged_cold(self, node):
        roots.append(node.parent < 0)
        return cold(self, node)

    with mock.patch.object(milp._NodeLp, "_cold", logged_cold):
        sol = milp.solve_milp(model, start=start)
    bf = milp.brute_force(model)
    assert sol.status == bf.status
    if bf.status == milp.OPTIMAL:
        assert sol.objective == pytest.approx(bf.objective, abs=1e-6)
        assert sol.gap <= milp.GAP + 1e-9
    return any(roots)


def start_usable(arrs, basis, status):
    """Whether a start basis of ``arrs`` is nonsingular and primal
    feasible, from an explicit inverse; None when round-off could tip
    the solver's verdict either way."""
    n, m = arrs.n_struct, arrs.m
    B = np.hstack([arrs.A, np.eye(m)])[:, basis]
    if np.linalg.matrix_rank(B) < m:
        return False
    if np.linalg.cond(B) > 1e8:
        return None
    lo, hi = arrs.lo, arrs.hi
    x = np.zeros(n + m)
    to_hi = np.isfinite(hi) & ((status == milp._AT_HI) | ~np.isfinite(lo))
    to_lo = np.isfinite(lo) & ~to_hi
    x[to_hi], x[to_lo] = hi[to_hi], lo[to_lo]
    x[basis] = 0.0
    xB = np.linalg.solve(B, arrs.b - arrs.A @ x[:n] - x[n:])
    viol = np.max(np.maximum(lo[basis] - xB, xB - hi[basis]), initial=0.0)
    if viol > 1e-6:
        return False
    return True if viol <= 1e-9 else None


def check_norms_exact(lp):
    rows = np.arange(lp.m)
    b_inv = lp._binv_rows(rows)
    assert np.array_equal(lp._binv_row_norms(rows), np.einsum("ij,ij->i", b_inv, b_inv))


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
