"""DSO dispatch stages on tiny-2bus in both droop encodings, the solver
on the benchmark's feeder13-highpv stage models, and the stage-2b
sensitivity weights.

The tiny-2bus tests check invariants, not vertices: the dispatch of a
stage with several optimal solutions may change with the solver's pivot
path.
"""

import numpy as np
import pytest

from gridcoord import data, inverter, milp
from gridcoord import feeder as feeder_mod
from gridcoord import dso_dispatch as dd
from gridcoord.errors import GridcoordError

ENCODINGS = ("bigm", "sos1")
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
def tiny():
    scenario = data.load_scenario("tiny-2bus")
    return {enc: dd.make_context(scenario, encoding=enc) for enc in ENCODINGS}


@pytest.fixture(scope="module")
def stages(tiny):
    """Stage 1, 2a and 2b (at both envelope ends and the midpoint) per encoding."""
    out = {}
    for enc, ctx in tiny.items():
        p_star, r1 = dd.stage1_max_power(ctx)
        (q_lo, q_hi), r_min, r_max = dd.stage2a_aggregate(ctx, p_star)
        r2b = {q: dd.stage2b_disaggregate(ctx, p_star, q)
               for q in (q_lo, 0.5 * (q_lo + q_hi), q_hi)}
        out[enc] = {"p_star": p_star, "envelope": (q_lo, q_hi),
                    "results": [r1, r_min, r_max, *r2b.values()], "stage2b": r2b}
    return out


@pytest.mark.parametrize("enc", ENCODINGS)
def test_stage1_total_power_matches_brute_force(tiny, stages, enc):
    oracle = milp.brute_force(stage1_model(tiny["sos1"]))
    assert oracle.status == milp.OPTIMAL
    assert stages[enc]["p_star"] == pytest.approx(300.0, abs=TOL)
    assert stages[enc]["p_star"] == pytest.approx(oracle.objective, abs=TOL)


@pytest.mark.parametrize("enc", ENCODINGS)
def test_every_stage_is_droop_compliant_and_capable(tiny, stages, enc):
    for result in stages[enc]["results"]:
        for err, cap_ok in dd.droop_compliance_errors(tiny[enc], result):
            assert err <= TOL, result.stage
            assert cap_ok, result.stage


@pytest.mark.parametrize("enc", ENCODINGS)
def test_envelope_ordered_and_stage2b_meets_request(stages, enc):
    q_lo, q_hi = stages[enc]["envelope"]
    assert q_lo <= q_hi
    for q_req, r2b in stages[enc]["stage2b"].items():
        assert r2b.q_sub_kvar == pytest.approx(q_req, abs=TOL)
        assert r2b.p_star_kw == pytest.approx(stages[enc]["p_star"], abs=TOL)


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
    on the context all the same."""
    solve = milp.solve_milp
    monkeypatch.setattr(dd.milp, "solve_milp",
                        lambda mm, **kw: solve(mm, milp.MilpOptions(node_limit=1), **kw))
    ctx = dd.make_context(data.load_scenario("tiny-2bus"), encoding="bigm")
    with pytest.raises(GridcoordError) as err:
        dd.stage1_max_power(ctx)
    text = str(err.value)
    for part in ("stage1", milp.NODE_LIMIT, "1 nodes", "best bound 300", "gap inf"):
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
        colds.append(node.parent < 0)
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


@pytest.mark.parametrize("p_kw", [np.nan, -1.0], ids=["nan", "negative"])
def test_available_power_must_be_finite_and_non_negative(tiny, p_kw):
    ctx = tiny["sos1"]
    with pytest.raises(ValueError, match="available power"):
        dd.DispatchContext(ctx.model, ctx.blocks, ctx.specs, ctx.curves, [p_kw])


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
