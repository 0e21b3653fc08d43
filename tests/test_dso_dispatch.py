"""DSO dispatch stages on tiny-2bus in both droop encodings (their droop
and capability checks on feeder13-highpv too), the solver
on the benchmark's feeder13-highpv stage models, the stage models a
context keeps, the stage-2b sensitivity weights, and which solves go
through numkit's loop LU.

The tiny-2bus tests check invariants, not vertices: the dispatch of a
stage with several optimal solutions may change with the solver's pivot
path.
"""

import dataclasses
import sys

import numpy as np
import pytest

from gridcoord import data, inverter, milp, numkit
from gridcoord import feeder as feeder_mod
from gridcoord import dso_dispatch as dd
from gridcoord.errors import GridcoordError

ENCODINGS = ("bigm", "sos1")
SCENARIOS = ("tiny-2bus", "feeder13-highpv")
TOL = 1e-6


def stage1_model(ctx):
    mm, handles = dd.build_stage_model(ctx, "stage1")
    mm.set_objective(milp.MAX, {handles.p[i]: ctx.specs[i].s_rated
                                for i in range(len(handles.p))})
    return mm


def stage2a_model(ctx, p_star, sense):
    mm, handles = dd.build_stage_model(ctx, "stage2a", p_star_kw=p_star)
    mm.set_objective(sense, {handles.q[i]: ctx.specs[i].s_rated
                             for i in range(len(handles.q))})
    return mm


@pytest.fixture(scope="module")
def contexts():
    """One context per scenario and encoding."""
    return {(name, enc): dd.make_context(data.load_scenario(name), encoding=enc)
            for name in SCENARIOS for enc in ENCODINGS}


@pytest.fixture(scope="module")
def tiny(contexts):
    return {enc: contexts["tiny-2bus", enc] for enc in ENCODINGS}


@pytest.fixture(scope="module")
def stages(contexts):
    """Stage 1, 2a and 2b (at both envelope ends and the midpoint) per
    scenario and encoding, in order on one context."""
    out = {}
    for key, ctx in contexts.items():
        p_star, r1 = dd.stage1_max_power(ctx)
        (q_lo, q_hi), r_min, r_max = dd.stage2a_aggregate(ctx, p_star)
        r2b = {q: dd.stage2b_disaggregate(ctx, p_star, q)
               for q in (q_lo, 0.5 * (q_lo + q_hi), q_hi)}
        out[key] = {"p_star": p_star, "envelope": (q_lo, q_hi),
                    "results": [r1, r_min, r_max, *r2b.values()], "stage2b": r2b}
    return out


@pytest.mark.parametrize("enc", ENCODINGS)
def test_stage1_total_power_matches_brute_force(tiny, stages, enc):
    oracle = milp.brute_force(stage1_model(tiny["sos1"]))
    assert oracle.status == milp.OPTIMAL
    assert stages["tiny-2bus", enc]["p_star"] == pytest.approx(300.0, abs=TOL)
    assert stages["tiny-2bus", enc]["p_star"] == pytest.approx(oracle.objective, abs=TOL)


# the tiny-2bus cases keep the bare encoding as their id
@pytest.mark.parametrize("key", [(name, enc) for name in SCENARIOS for enc in ENCODINGS],
                         ids=lambda key: key[1] if key[0] == "tiny-2bus" else "-".join(key))
def test_every_stage_is_droop_compliant_and_capable(contexts, stages, key):
    """On tiny-2bus and on the benchmark round's 9-DER feeder13-highpv:
    every dispatch meets its droop segment within 1e-6 and the
    capability region (``milp.INT_TOL`` says why a near-integral binary
    could break the first)."""
    for result in stages[key]["results"]:
        for err, cap_ok in dd.droop_compliance_errors(contexts[key], result):
            assert err <= TOL, result.stage
            assert cap_ok, result.stage


@pytest.mark.parametrize("key", [(name, enc) for name in SCENARIOS for enc in ENCODINGS],
                         ids="/".join)
def test_every_stage_closes_at_its_root(stages, key):
    """Each stage's root LP puts every DER on one of its droop laws, so
    the rewritten root point is the incumbent and the search ends at the
    root, with stage 2b at both envelope ends and the midpoint."""
    for r in stages[key]["results"]:
        assert (r.stats["status"], r.stats["nodes"], r.stats["root_point"]) == (
            milp.OPTIMAL, 1, True), r.stage


def test_root_point_off_every_law_is_none():
    """feeder13-lowpv's stage 1 root LP puts a DER off every droop law,
    so its root point is None.  Under ``pq_free`` there is no root-point
    function: that policy has no droop laws."""
    ctx = dd.make_context(data.load_scenario("feeder13-lowpv"), encoding="bigm")
    mm, handles = dd.build_stage_model(ctx, "stage1")
    mm.set_objective(milp.MAX, {p: spec.s_rated for p, spec in zip(handles.p, ctx.specs)})
    point, points = dd.droop_root_point(ctx, handles), []
    milp.solve_milp(mm, milp.MilpOptions(node_limit=1),
                    root_point=lambda x: points.append(point(x)))
    assert points == [None]
    assert dd.droop_root_point(dataclasses.replace(ctx, policy=dd.ModePolicy(dd.PQ_FREE)),
                               handles) is None


@pytest.mark.parametrize("enc", ENCODINGS)
def test_envelope_ordered_and_stage2b_meets_request(stages, enc):
    q_lo, q_hi = stages["tiny-2bus", enc]["envelope"]
    assert q_lo <= q_hi
    for q_req, r2b in stages["tiny-2bus", enc]["stage2b"].items():
        assert r2b.q_sub_kvar == pytest.approx(q_req, abs=TOL)
        assert r2b.p_star_kw == pytest.approx(stages["tiny-2bus", enc]["p_star"], abs=TOL)


def test_stage1_mode_hierarchy(tiny):
    """The mode hierarchy the stages build: in sos1 each DER's mode set
    precedes its three segment sets, so branching resolves the mode
    first; in bigm one row makes all 13 of a DER's binaries sum to one."""
    for enc, ctx in tiny.items():
        mm, handles = dd.build_stage_model(ctx, "stage1")
        for i, encodings in enumerate(handles.encodings):
            segment_sets = [e.indicator_ids for e in encodings.values()]
            if enc == "sos1":
                excl = next(c for c in mm.constraints if c.name == f"mode_excl_d{i}")
                mode_vars = [v for v, _ in excl.coeffs]
                assert [mm.variables[v].name for v in mode_vars] == [
                    f"s_{mode}_d{i}" for mode in inverter.MODES]
                assert (excl.sense, excl.rhs) == (milp.EQ, 1.0)
                assert all(c == 1.0 for _, c in excl.coeffs)
                k = mm.sos1_sets.index(mode_vars)
                assert mm.sos1_sets[k + 1:k + 4] == segment_sets
            else:
                zs = {z for ids in segment_sets for z in ids}
                assert len(zs) == 13
                assert zs <= set(mm.binary_ids)
                rows = [c for c in mm.constraints if {v for v, _ in c.coeffs} == zs]
                assert len(rows) == 1
                assert (rows[0].sense, rows[0].rhs) == (milp.EQ, 1.0)
                assert all(c == 1.0 for _, c in rows[0].coeffs)


@pytest.mark.parametrize("selector", [{"encoding": "SOS1"},
                                      {"policy": dd.ModePolicy("pq-free")}],
                         ids=["encoding", "policy"])
def test_unknown_selector_rejected(selector):
    # both used to build a model silently: Big-M, and all three droop modes
    with pytest.raises(ValueError, match="unknown"):
        dd.make_context(data.load_scenario("tiny-2bus"), **selector)


def test_unknown_stage_rejected(tiny):
    # used to build stage 1's rows under the unknown name
    with pytest.raises(ValueError, match="unknown stage 'stage3'"):
        dd.build_stage_model(tiny["sos1"], "stage3")


def test_stage_error_reports_status_nodes_bound_and_gap(monkeypatch):
    """The error names the stopped search; stage 1's root basis is kept
    on the context all the same.  feeder13-lowpv's root LP puts some
    DER off every droop law, so no root point closes its stage 1 and
    the search stops at the root with no incumbent."""
    solve = milp.solve_milp
    monkeypatch.setattr(dd.milp, "solve_milp",
                        lambda mm, **kw: solve(mm, milp.MilpOptions(node_limit=1), **kw))
    ctx = dd.make_context(data.load_scenario("feeder13-lowpv"), encoding="bigm")
    with pytest.raises(GridcoordError) as err:
        dd.stage1_max_power(ctx)
    text = str(err.value)
    for part in ("stage1", milp.NODE_LIMIT, "1 nodes", "best bound 675", "gap inf"):
        assert part in text
    basis, status = ctx.stage1_root_basis
    assert np.array_equal(np.sort(basis), np.flatnonzero(status == milp._BASIC))


@pytest.mark.parametrize("enc", ENCODINGS)
def test_feeder13_highpv_stage_models(enc):
    """The benchmark round's stage 1 and both stage-2a models, as
    ``build_stage_model`` makes them, solve to their known optima.  Each
    root LP bound already equals the optimum, so the search only hunts
    for an incumbent on that plateau; plunged depth-first it takes a few
    dozen nodes (sos1 stage 2a MAX took 777 while round-off in the last
    bits of the bounds reshuffled the node order)."""
    ctx = dd.make_context(data.load_scenario("feeder13-highpv"), encoding=enc)
    expected = [(stage1_model(ctx), 2700.0),
                (stage2a_model(ctx, 2700.0, milp.MIN), -1239.559121),
                (stage2a_model(ctx, 2700.0, milp.MAX), 96.186799)]
    for mm, objective in expected:
        sol = milp.solve_milp(mm)
        assert sol.status == milp.OPTIMAL, mm.name
        assert sol.objective == pytest.approx(objective, abs=1e-6), mm.name
        assert np.isfinite(sol.best_bound) and sol.gap <= milp.GAP
        assert sol.node_count <= 100, mm.name


def test_warm_nodes_rebase_instead_of_refactoring(monkeypatch):
    """Warm nodes reach their parent's basis by exchanges.  On the
    benchmark round's bigm stage 2a MAX, the tableau is refactored only
    after a cold solve, at the refactor period, after a failed rebase,
    or to retry a rebased node whose solve ended without a verdict."""
    ctx = dd.make_context(data.load_scenario("feeder13-highpv"), encoding="bigm")
    simplex, node_lp = milp._Simplex, milp._NodeLp
    rebase, reoptimize = simplex.rebase, simplex.reoptimize
    refactor, cold = simplex.refactor, node_lp._cold
    log, refactors = [], []

    def logged_rebase(self, *args):
        ok = rebase(self, *args)
        log.append("rebased" if ok else "no rebase")
        return ok

    def logged_reoptimize(self):
        res = reoptimize(self)
        log.append("verdict" if res is not None else "no verdict")
        return res

    def logged_cold(self, node):
        log.append("cold")
        return cold(self, node)

    def checked_refactor(self):
        refactors.append(self.since_refactor >= milp._REFACTOR_PERIOD
                         or log[-1:] in (["cold"], ["no rebase"])
                         or log[-2:] == ["rebased", "no verdict"])
        return refactor(self)

    monkeypatch.setattr(simplex, "rebase", logged_rebase)
    monkeypatch.setattr(simplex, "reoptimize", logged_reoptimize)
    monkeypatch.setattr(simplex, "refactor", checked_refactor)
    monkeypatch.setattr(node_lp, "_cold", logged_cold)
    sol = milp.solve_milp(stage2a_model(ctx, 2700.0, milp.MAX))
    assert sol.status == milp.OPTIMAL
    assert sol.objective == pytest.approx(96.186799, abs=1e-6)
    assert "rebased" in log
    assert all(refactors), f"{refactors.count(False)} of {len(refactors)} refactors unneeded"


def test_stage2a_roots_start_from_earlier_bases(monkeypatch):
    """Stage 2a MIN starts from stage 1's root basis and MAX from MIN's,
    so after stage 1 the whole of stage 2a solves without a cold start
    (phase 1 included).  On a fresh context only MIN's root is cold.
    Both give the same envelope."""
    p_star = 2700.0
    colds = []
    cold = milp._NodeLp._cold

    def logged_cold(self, node):
        colds.append(node.neg_nid == 0)
        return cold(self, node)

    monkeypatch.setattr(milp._NodeLp, "_cold", logged_cold)
    scenario = data.load_scenario("feeder13-highpv")
    ctx = dd.make_context(scenario, encoding="bigm")
    assert dd.stage1_max_power(ctx)[0] == pytest.approx(p_star, abs=TOL)
    assert ctx.stage1_root_basis is not None
    colds.clear()
    warm_envelope = dd.stage2a_aggregate(ctx, p_star)[0]
    assert colds == []

    fresh = dd.make_context(scenario, encoding="bigm")
    cold_envelope = dd.stage2a_aggregate(fresh, p_star)[0]
    assert colds == [True]
    np.testing.assert_allclose(warm_envelope, cold_envelope, rtol=0.0, atol=1e-6)


def test_stage2b_root_starts_from_a_stage2a_basis(monkeypatch):
    """After stage 2a, stage 2b starts its root from the stage 2a root
    basis whose envelope end is nearer the request, by the dual simplex,
    at both ends of the envelope and its midpoint.  It meets the request
    and matches a cold 2b's objective; on a fresh context 2b is cold."""
    p_star = 2700.0
    colds = []
    cold = milp._NodeLp._cold

    def logged_cold(self, node):
        colds.append(node.neg_nid == 0)
        return cold(self, node)

    monkeypatch.setattr(milp._NodeLp, "_cold", logged_cold)
    scenario = data.load_scenario("feeder13-highpv")
    ctx = dd.make_context(scenario, encoding="bigm")
    (q_lo, q_hi), _, _ = dd.stage2a_aggregate(ctx, p_star)
    fresh = dd.make_context(scenario, encoding="bigm")
    for q_req in (q_lo, 0.5 * (q_lo + q_hi), q_hi):
        colds.clear()
        warm = dd.stage2b_disaggregate(ctx, p_star, q_req)
        assert True not in colds
        assert warm.q_sub_kvar == pytest.approx(q_req, abs=TOL)
        cold_2b = dd.stage2b_disaggregate(fresh, p_star, q_req)
        assert colds.count(True) == 1
        assert warm.objective == pytest.approx(cold_2b.objective, abs=milp.GAP)


def test_implied_rows_stay_out_of_the_lp(monkeypatch):
    """On feeder13-highpv bigm the LP leaves out the rows the variable
    boxes already satisfy (the capability rows and the zero-M Big-M
    rows among them): stage 1's LP keeps 409 of its rows, stage 2a's
    410 and stage 2b's 420.  The rows each stage appends stay at the
    end of the kept ones, so stage 2a and 2b still start warm."""
    p_star = 2700.0
    colds = []
    cold = milp._NodeLp._cold

    def logged_cold(self, node):
        colds.append(node.neg_nid == 0)
        return cold(self, node)

    monkeypatch.setattr(milp._NodeLp, "_cold", logged_cold)
    ctx = dd.make_context(data.load_scenario("feeder13-highpv"), encoding="bigm")
    mm = stage1_model(ctx)
    arrs = milp._Arrays(mm)
    assert (len(mm.constraints), arrs.m) == (661, 409)
    p1, r1 = dd.stage1_max_power(ctx)
    assert p1 == pytest.approx(p_star, abs=TOL)
    assert r1.stats["lp_rows"] == 409
    colds.clear()
    (q_lo, q_hi), r_min, r_max = dd.stage2a_aggregate(ctx, p_star)
    r2b = dd.stage2b_disaggregate(ctx, p_star, 0.5 * (q_lo + q_hi))
    assert colds.count(True) == 0
    assert [r.stats["lp_rows"] for r in (r_min, r_max, r2b)] == [410, 410, 420]
    # stage 2a keeps stage 1's rows, then its pstar row
    arrs_2a = milp._Arrays(stage2a_model(ctx, p_star, milp.MIN))
    assert np.array_equal(arrs_2a.rows[:409], arrs.rows)
    assert arrs_2a.rows[409] == len(mm.constraints)


def solve_log(monkeypatch):
    """Every stage solve from here on, as (status, nodes, pivots,
    objective, x)."""
    log = []
    solve = milp.solve_milp

    def logged(*args, **kwargs):
        sol = solve(*args, **kwargs)
        log.append((sol.status, sol.node_count, sol.simplex_iterations, sol.objective, sol.x))
        return sol

    monkeypatch.setattr(dd.milp, "solve_milp", logged)
    return log


def dispatch_round(ctx):
    """Stage 1, stage 2a, and stage 2b at both envelope ends and the
    midpoint; each stage 2b meets its request."""
    p_star, _ = dd.stage1_max_power(ctx)
    (q_lo, q_hi), _, _ = dd.stage2a_aggregate(ctx, p_star)
    for q_req in (q_lo, 0.5 * (q_lo + q_hi), q_hi):
        r2b = dd.stage2b_disaggregate(ctx, p_star, q_req)
        assert r2b.q_sub_kvar == pytest.approx(q_req, abs=TOL)


def assert_same_solves(run, reference):
    assert len(run) == len(reference)
    for got, want in zip(run, reference):
        assert got[:3] == want[:3]
        assert np.float64(got[3]).tobytes() == np.float64(want[3]).tobytes()
        assert np.array_equal(got[4], want[4])


@pytest.mark.parametrize("enc", ENCODINGS)
def test_kept_stage_models_solve_as_fresh_ones(monkeypatch, enc):
    """A context builds each stage model once and then only sets its
    objective and request rows.  Two rounds on one context and one on a
    fresh context make the same solves, bit for bit: status, nodes,
    pivots, objective and x."""
    log = solve_log(monkeypatch)
    scenario = data.load_scenario("feeder13-highpv")
    ctx = dd.make_context(scenario, encoding=enc)
    runs = []
    for run_ctx in (ctx, ctx, dd.make_context(scenario, encoding=enc)):
        log.clear()
        dispatch_round(run_ctx)
        runs.append(list(log))
    assert len(runs[0]) == 6
    for run in runs[1:]:
        assert_same_solves(run, runs[0])


def round_results(ctx):
    """Stage 1, 2a and 2b at the envelope midpoint, as (objective, q_sub,
    p per DER, q per DER) per result."""
    p_star, r1 = dd.stage1_max_power(ctx)
    (q_lo, q_hi), r_min, r_max = dd.stage2a_aggregate(ctx, p_star)
    r2b = dd.stage2b_disaggregate(ctx, p_star, 0.5 * (q_lo + q_hi))
    return [(r.objective, r.q_sub_kvar, [d.p_kw for d in r.per_der],
             [d.q_kvar for d in r.per_der]) for r in (r1, r_min, r_max, r2b)]


def test_context_inputs_are_fixed():
    """A context's inputs cannot change once it is made: assigning one,
    or writing into its available power, a curve set or a blocks array,
    raises.  ``dataclasses.replace`` makes a context for other inputs; it
    keeps nothing, gives what a newly made context with those inputs
    gives, and leaves the first context's results as they were."""
    scenario = data.load_scenario("tiny-2bus")
    ctx = dd.make_context(scenario, encoding="bigm")
    before = round_results(ctx)
    assert ctx.stage1_root_basis is not None and len(ctx.stage2a_root_bases) == 2
    for name, value in (("p_available_kw", np.zeros(1)), ("encoding", "sos1"),
                        ("specs", ()), ("stage1_root_basis", None)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ctx, name, value)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctx.policy.kind = dd.PQ_FREE
    with pytest.raises(ValueError, match="read-only"):
        ctx.p_available_kw[0] = 0.5 * ctx.p_available_kw[0]
    with pytest.raises(TypeError):
        ctx.curves[0][inverter.MODES[0]] = ctx.curves[0][inverter.MODES[1]]
    with pytest.raises(ValueError, match="read-only"):
        ctx.blocks.y0[0] = 1.0

    half = dataclasses.replace(ctx, p_available_kw=0.5 * ctx.p_available_kw)
    assert half.stage1_root_basis is None and half.stage2a_root_bases == ()
    scenario.p_available_kw = 0.5 * scenario.p_available_kw
    after = round_results(half)
    assert after == round_results(dd.make_context(scenario, encoding="bigm"))
    assert after != before
    assert round_results(ctx) == before


@pytest.mark.parametrize("scenario, weights", [
    ("feeder13-highpv", lambda n: np.full(n + 3, 0.5)),
    ("feeder13-highpv", lambda n: -np.ones(n)),
    ("feeder13-highpv", lambda n: np.ones(n - 1)),
    ("feeder13-highpv", lambda n: np.full(n, np.nan)),
    ("tiny-2bus", lambda n: np.full(n, np.nan)),
], ids=["longer", "negative", "shorter", "nan", "nan-tiny"])
def test_stage2b_rejects_malformed_weights(scenario, weights):
    """Weights must be one finite, nonnegative value per DER.  Before the
    check a longer array was cut short, negative weights broke the |q|
    split, a shorter one raised IndexError and NaN gave a NaN optimum."""
    ctx = dd.make_context(data.load_scenario(scenario), encoding="sos1")
    n_der = len(ctx.model.der_nodes)
    with pytest.raises(ValueError, match="weights"):
        dd.stage2b_disaggregate(ctx, 0.0, 0.0, weights=weights(n_der))


@pytest.mark.parametrize("change", [
    lambda p: np.where(np.arange(p.size) == 1, np.nan, p),
    lambda p: np.where(np.arange(p.size) == 1, -1.0, p),
    lambda p: np.append(p, 0.0),
    lambda p: p[:-1],
    lambda p: p[np.newaxis, :],
], ids=["nan", "negative", "longer", "shorter", "2d"])
def test_available_power_must_be_finite_and_non_negative(contexts, change):
    """One finite, non-negative value per DER of feeder13-highpv (9).
    Before the shape check 10 values were taken and stage 1 returned
    2700 kW, 8 raised IndexError and a (1, 9) array raised numpy's
    ambiguous truth value."""
    ctx = contexts["feeder13-highpv", "sos1"]
    with pytest.raises(ValueError, match="available power"):
        dd.DispatchContext(ctx.model, ctx.blocks, ctx.specs, ctx.curves,
                           change(ctx.p_available_kw))


@pytest.mark.parametrize("name, expected", [
    ("tiny-2bus", 0.0), ("feeder13-highpv", -177.99578), ("feeder40-highpv", -267.786045),
])
def test_flat_voltage_q_offset_sums_the_unobservable_loads(name, expected):
    """The substation offset is the linear model's reactive net injection
    at the flat voltage profile, summed over the unobservable
    bus-phases, in kvar; tiny-2bus sees every bus-phase."""
    ctx = dd.make_context(data.load_scenario(name))
    blocks = ctx.blocks
    q_net = feeder_mod.net_injections(blocks, blocks.y0, 0.0, 0.0)[1]
    offset = dd.flat_voltage_q_offset(ctx.model, blocks)
    assert offset == ctx.s_base * np.sum(q_net[blocks.partition.unobservable])
    assert offset == pytest.approx(expected, abs=1e-6)


@pytest.mark.parametrize("name", ["tiny-2bus", "feeder13-highpv", "feeder40-highpv"])
def test_sensitivity_weights_match_finite_difference(name):
    """The closed-form weights against a finite difference of the linear
    model's substation reactive flow; the model is linear, so only
    rounding (about eps * |q_sub| / step) separates the two."""
    ctx = dd.make_context(data.load_scenario(name))
    blocks, der_nodes = ctx.blocks, ctx.model.der_nodes
    zeros = np.zeros(blocks.k.shape[0])

    def q_sub(q_g):
        y = feeder_mod.lindist_voltages(blocks, zeros, q_g)
        return feeder_mod.substation_flow(blocks, y, zeros, q_g)[1]

    step = 1e-4
    sens = np.empty(len(der_nodes))
    for k, node in enumerate(der_nodes):
        q_g = zeros.copy()
        q_g[node] = step
        sens[k] = (q_sub(q_g) - q_sub(zeros)) / step
    weights = dd.sensitivity_weights(blocks, der_nodes)
    np.testing.assert_allclose(weights, 1.0 - sens / np.sum(sens), rtol=0.0, atol=1e-9)
    assert np.sum(weights) == pytest.approx(len(der_nodes) - 1.0)


@pytest.mark.parametrize("name, enc, expected", [
    ("feeder13-highpv", "bigm", {"partition_blocks", "observable_matrices",
                                 "sensitivity_weights"}),
    # every tiny-2bus bus-phase is observable: no K1 to solve for
    ("tiny-2bus", "sos1", {"observable_matrices", "sensitivity_weights"})],
    ids=["feeder13-highpv-bigm", "tiny-2bus-sos1"])
def test_loop_lu_serves_only_solves_that_reach_a_stage_model(monkeypatch, name, enc,
                                                             expected):
    """A context and one full round call ``numkit.solve_linear`` only from
    the three solves whose bits the stage models keep; the equivalents
    need no solve and the singular-K check goes through LAPACK."""
    callers = set()
    inner = numkit.solve_linear

    def traced(a, b):
        callers.add(sys._getframe(1).f_code.co_name)
        return inner(a, b)

    monkeypatch.setattr(numkit, "solve_linear", traced)
    ctx = dd.make_context(data.load_scenario(name), encoding=enc)
    p_star, _ = dd.stage1_max_power(ctx)
    (q_lo, q_hi), _, _ = dd.stage2a_aggregate(ctx, p_star)
    dd.stage2b_disaggregate(ctx, p_star, 0.5 * (q_lo + q_hi))
    assert callers == expected
