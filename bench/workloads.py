"""Benchmark workloads over gridcoord's public functions.

Every workload is closed-loop: one process, one caller, each step starts
when the previous one ends.  A workload is built once (set-up) and then
runs whole passes; one pass is the fixed list of steps in ``run_pass``.
Steps that raise a package error, or are stopped by the runaway guard,
are counted as failed and never dropped.  Output checks collect their
failures in ``Checks``; any failed check fails the run.

Every call into the program goes through a module attribute
(``dd.stage1_max_power``, ``milp.solve_milp``, ...) so the tracer, which
replaces those attributes, sees the same calls the program makes.
"""

from __future__ import annotations

import functools
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from gridcoord import data, milp, tso
from gridcoord import dso_dispatch as dd
from gridcoord import feeder as feeder_mod
from gridcoord.errors import GridcoordError

STAGE1_NODE_LIMIT = 60
TOL = 1e-6
SHIPPED_STAGE1_KW = {"feeder13-highpv": 2700.0, "tiny-2bus": 300.0}
STAGE1_BUDGET_CASES = [("feeder13-lowpv", "bigm"), ("feeder13-lowpv", "sos1"),
                       ("feeder40-highpv", "bigm"), ("feeder40-highpv", "sos1"),
                       ("feeder13-highpv", "sos1")]


class RunawayGuard(Exception):
    """Raised inside a step when the run's time guard fires."""


def seeded_scenario(name, seed):
    """Bundled scenario; seed 0 as shipped, otherwise each DER's available
    power scaled by a seeded factor in [0.9, 1.0]."""
    scenario = data.load_scenario(name)
    if seed:
        rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        scenario.p_available_kw = scenario.p_available_kw * rng.uniform(
            0.9, 1.0, scenario.p_available_kw.size)
    return scenario


def stage1_model(ctx):
    """The stage-1 model exactly as ``stage1_max_power`` builds it."""
    mm, handles = dd.build_stage_model(ctx, "stage1")
    mm.set_objective(milp.MAX, {handles.p[i]: ctx.specs[i].s_rated
                                for i in range(len(handles.p))})
    return mm


def bfm_voltage_error(ctx, result):
    """Largest |V_linear - V_BFM| (pu) of a dispatch, and the BFM sweeps."""
    model = ctx.model
    p_g = np.zeros(model.n_nodes)
    q_g = np.zeros(model.n_nodes)
    for d, node in zip(result.per_der, model.der_nodes):
        p_g[node] += d.p_kw / ctx.s_base
        q_g[node] += d.q_kvar / ctx.s_base
    plant = feeder_mod.bfm_oracle(model, p_g, q_g)
    v_lin = feeder_mod.voltage_from_Y(
        feeder_mod.lindist_voltages(ctx.blocks, p_g, q_g), ctx.blocks.y0)
    return float(np.max(np.abs(v_lin - plant.v_mag))), plant.sweeps


def interface_envelopes(case, q_lo, q_hi):
    """Feeder envelope (kvar) times each interface's multiplicity, in MVAr."""
    return {itf.bus: (q_lo * itf.multiplicity / 1e3, q_hi * itf.multiplicity / 1e3)
            for itf in case.interfaces}


@dataclass
class Checks:
    failures: list = field(default_factory=list)
    pending: list = field(default_factory=list)

    def expect(self, ok, what):
        if not ok:
            self.failures.append(what)

    def close(self, a, b, what):
        self.expect(abs(a - b) <= TOL * max(1.0, abs(a), abs(b)), f"{what}: {a} != {b}")

    def dispatch(self, ctx, result, label):
        """Queue the droop and capability check of one dispatch; ``flush``
        runs it after the step, outside its timing and trace."""
        self.pending.append((ctx, result, label))

    def flush(self):
        for ctx, result, label in self.pending:
            for k, (err, cap_ok) in enumerate(dd.droop_compliance_errors(ctx, result)):
                self.expect(err <= TOL, f"{label} DER {k}: droop error {err:.3g}")
                self.expect(cap_ok, f"{label} DER {k}: outside capability")
        self.pending.clear()

    def tso_trace(self, dispatch, label):
        trace = dispatch.trace
        self.expect(all(b <= a + 1e-12 for a, b in zip(trace, trace[1:])),
                    f"{label}: TSO objective trace increases {trace}")


@dataclass
class Step:
    """One closed-loop step: what it was, how long it took, what it found."""
    kind: str
    label: str
    seconds: float = 0.0
    error: str | None = None
    outcome: dict = field(default_factory=dict)
    solves: list = field(default_factory=list)   # (status, nodes, iterations)

    @property
    def stopped(self):
        """Whether the runaway guard stopped this step."""
        return bool(self.error) and self.error.startswith(RunawayGuard.__name__)


class SolveLog:
    """Appends (status, nodes, simplex iterations) of every ``solve_milp``
    call to ``calls``, so a failed step still reports its counts."""

    def __init__(self):
        self.calls = []
        inner = milp.solve_milp

        @functools.wraps(inner)
        def logged(*args, **kwargs):
            sol = inner(*args, **kwargs)
            self.calls.append((sol.status, sol.node_count, sol.simplex_iterations))
            return sol
        milp.solve_milp = logged


class Workload:
    """Base: subclasses build their inputs in ``__init__`` and define
    ``steps`` as (kind, label, callable) triples; ``op_kind`` is the step
    kind whose times give the op_s metrics, or None when the whole pass is
    the op."""

    op_kind = None

    def __init__(self, seed):
        self.seed = seed
        self.checks = Checks()
        self.solves = SolveLog()
        self.v_err = 0.0
        self.gaps = []           # stage-1 bound gaps, one per stage-1 solve
        self._first = None       # outcomes of the first pass, for repeat checks

    def run_pass(self, scope):
        """Run every step once; ``scope(label)`` is the context each step's
        program calls run in (runaway guard, tracing)."""
        steps = []
        for kind, label, fn in self.steps():
            step = Step(kind, label)
            self.solves.calls = step.solves
            t0 = time.perf_counter()
            try:
                with scope(label):
                    step.outcome = fn()
            except (GridcoordError, RunawayGuard) as exc:
                step.error = f"{type(exc).__name__}: {exc}"
            step.seconds = time.perf_counter() - t0
            self.checks.flush()
            steps.append(step)
            if step.stopped:
                break
        if all(s.error is None for s in steps):
            outcomes = [(s.label, s.outcome, s.solves) for s in steps]
            if self._first is None:
                self._first = outcomes
            self.checks.expect(outcomes == self._first,
                               "a repeated pass gave different outcomes")
        return steps

    def finish(self):
        """Checks that need a reference computed once per run."""

    def _stage1(self, ctx, label, root_bound, p_star, result):
        self.checks.expect(p_star <= root_bound + TOL * max(1.0, abs(root_bound)),
                           f"{label}: stage 1 {p_star} above root LP bound {root_bound}")
        self.gaps.append(abs(root_bound - p_star) / abs(root_bound))
        self.checks.dispatch(ctx, result, f"{label} stage1")

    def _stage2(self, ctx, label, q_lo, q_hi, results, q_req):
        self.checks.expect(q_lo <= q_hi, f"{label}: q_lo {q_lo} above q_hi {q_hi}")
        *envelope_results, r2b = results
        for r in envelope_results:
            self.checks.dispatch(ctx, r, f"{label} {r.stage}")
        self.checks.dispatch(ctx, r2b, f"{label} stage2b")
        self.checks.close(r2b.q_sub_kvar, q_req, f"{label}: stage2b q_sub vs q_req")
        v_err, sweeps = bfm_voltage_error(ctx, r2b)
        self.v_err = max(self.v_err, v_err)
        return {"v_err": v_err, "sweeps": sweeps}


class DispatchMilp(Workload):
    """Coordination round with droop-mode MILP stages, plus the outage TSO
    case and the tiny-2bus stage path in both encodings.

    The coordination round runs on the bundled inputs for every seed: a
    seeded [0.9, 1.0] power scaling moves feeder13-highpv's round from
    about 21 s to 28-87 s (stage 2a/2b node counts of 100-940), which no
    fixed-length run can hold steady.  The seed scales the tiny-2bus
    inputs.  ``main`` replaces feeder13-highpv for the smoke variant.
    """

    op_kind = "round"

    def __init__(self, seed, main="feeder13-highpv"):
        super().__init__(seed)
        self.main = main
        shipped = main == "feeder13-highpv" or seed == 0
        main_scenario = data.load_scenario(main) if shipped else seeded_scenario(main, seed)
        self.expected_p_star = SHIPPED_STAGE1_KW[main] if shipped else None
        outage = data.load_scenario("tx9-outage")
        self.case = outage.transmission
        self.outage_case = outage.transmission.remove_branch(*outage.outage)
        self.ctx = dd.make_context(main_scenario, encoding="bigm")
        self.root = milp.solve_lp(stage1_model(self.ctx)).objective
        tiny = seeded_scenario("tiny-2bus", seed)
        self.tiny = {enc: dd.make_context(tiny, encoding=enc) for enc in ("bigm", "sos1")}
        self.tiny_root = {enc: milp.solve_lp(stage1_model(ctx)).objective
                          for enc, ctx in self.tiny.items()}
        self.envelopes = None
        self.tiny_p = {}

    def steps(self):
        yield "round", self.main, self._round
        yield "tso", "tx9-outage", self._outage
        for enc in self.tiny:
            yield "tiny", f"tiny-2bus/{enc}", lambda enc=enc: self._tiny(enc)

    def _round(self):
        ctx, label = self.ctx, self.main
        p_star, r1 = dd.stage1_max_power(ctx)
        self._stage1(ctx, label, self.root, p_star, r1)
        if self.expected_p_star is not None:
            self.checks.close(p_star, self.expected_p_star, f"{label}: stage 1 total power")
        (q_lo, q_hi), r_min, r_max = dd.stage2a_aggregate(ctx, p_star)
        self.envelopes = interface_envelopes(self.case, q_lo, q_hi)
        dispatch = tso.tso_dispatch(self.case, self.envelopes)
        self.checks.tso_trace(dispatch, f"{label} TSO")
        # one stage 2b per distinct per-feeder request
        requests = sorted({round(dispatch.q_req_mvar[itf.bus] * 1e3 / itf.multiplicity, 6)
                           for itf in self.case.interfaces})
        outcome = {"p_star": p_star, "envelope": [q_lo, q_hi],
                   "tso": [dispatch.outer_iterations, dispatch.pf_iterations], "stage2b": []}
        for q_req in requests:
            r2b = dd.stage2b_disaggregate(ctx, p_star, q_req)
            outcome["stage2b"].append(
                {"q_req": q_req,
                 **self._stage2(ctx, label, q_lo, q_hi, (r_min, r_max, r2b), q_req)})
        return outcome

    def _outage(self):
        envelopes = self.envelopes or interface_envelopes(self.case, 0.0, 0.0)
        dispatch = tso.tso_dispatch(self.outage_case, envelopes)
        self.checks.tso_trace(dispatch, "tx9-outage TSO")
        return {"tso": [dispatch.outer_iterations, dispatch.pf_iterations],
                "objective": dispatch.objective}

    def _tiny(self, enc):
        ctx, label = self.tiny[enc], f"tiny-2bus/{enc}"
        p_star, r1 = dd.stage1_max_power(ctx)
        self._stage1(ctx, label, self.tiny_root[enc], p_star, r1)
        if self.seed == 0:
            self.checks.close(p_star, SHIPPED_STAGE1_KW["tiny-2bus"],
                              f"{label}: stage 1 total power")
        self.tiny_p[enc] = p_star
        (q_lo, q_hi), r_min, r_max = dd.stage2a_aggregate(ctx, p_star)
        r2b = dd.stage2b_disaggregate(ctx, p_star, q_hi)
        extra = self._stage2(ctx, label, q_lo, q_hi, (r_min, r_max, r2b), q_hi)
        return {"p_star": p_star, **extra}

    def finish(self):
        # the SOS1 model has the same feasible set as the Big-M one and
        # enumerates in well under a second (Big-M: 2^13 assignments)
        oracle = milp.brute_force(stage1_model(self.tiny["sos1"]))
        for enc, p_star in self.tiny_p.items():
            self.checks.close(p_star, oracle.objective,
                              f"tiny-2bus/{enc}: stage 1 vs brute force")


class Stage1Budget(Workload):
    """Stage-1 models solved under one fixed node limit.

    A solve that stops at the limit is the measured outcome of the step:
    it enters ``milp.incumbent_frac`` and ``bound_gap_rel`` (1.0 without
    an incumbent), and the results file's ``ops_failed_frac``.
    """

    op_kind = None   # one op is the whole batch of budgeted solves

    def __init__(self, seed, cases=STAGE1_BUDGET_CASES):
        super().__init__(seed)
        scenarios = {name: seeded_scenario(name, seed) for name, _ in cases}
        self.models = []
        for name, enc in cases:
            ctx = dd.make_context(scenarios[name], encoding=enc)
            mm = stage1_model(ctx)
            self.models.append((f"{name}/{enc}", mm, milp.solve_lp(mm).objective))
        self.options = milp.MilpOptions(node_limit=STAGE1_NODE_LIMIT)

    def steps(self):
        for label, mm, root in self.models:
            yield "solve", label, lambda mm=mm, label=label, root=root: self._solve(mm, label, root)

    def _solve(self, mm, label, root):
        sol = milp.solve_milp(mm, self.options)
        if sol.x is None:
            self.gaps.append(1.0)
        else:
            self.checks.expect(sol.objective <= root + TOL * max(1.0, abs(root)),
                               f"{label}: incumbent {sol.objective} above root bound {root}")
            self.gaps.append(abs(root - sol.objective) / abs(root))
        return {"status": sol.status, "objective": sol.objective, "root": root}


class DispatchLp(Workload):
    """LP-only dispatch intervals (``ModePolicy(PQ_FREE)``) over bundled
    scenarios: context, stage 1, 2a, sensitivity weights, 2b at the
    envelope midpoint, BFM validation, then TSO where the scenario has a
    transmission case, with its outage applied."""

    op_kind = "interval"

    def __init__(self, seed, names=None):
        super().__init__(seed)
        names = names or data.list_scenarios()
        self.policy = dd.ModePolicy(dd.PQ_FREE)
        self.scenarios = {}
        for name in names:
            scenario = seeded_scenario(name, seed)
            case = scenario.transmission
            if case is not None and scenario.outage:
                case = case.remove_branch(*scenario.outage)
            root = milp.solve_lp(stage1_model(dd.make_context(scenario, policy=self.policy)))
            self.scenarios[name] = (scenario, case, root.objective)

    def steps(self):
        for name in self.scenarios:
            yield "interval", name, lambda name=name: self._interval(name)

    def _interval(self, name):
        scenario, case, root = self.scenarios[name]
        ctx = dd.make_context(scenario, policy=self.policy)
        p_star, r1 = dd.stage1_max_power(ctx)
        self._stage1(ctx, name, root, p_star, r1)
        (q_lo, q_hi), r_min, r_max = dd.stage2a_aggregate(ctx, p_star)
        weights = dd.sensitivity_weights(ctx.blocks, ctx.model.der_nodes)
        q_req = 0.5 * (q_lo + q_hi)
        r2b = dd.stage2b_disaggregate(ctx, p_star, q_req, weights=weights)
        outcome = {"p_star": p_star, "envelope": [q_lo, q_hi],
                   **self._stage2(ctx, name, q_lo, q_hi, (r_min, r_max, r2b), q_req)}
        if case is not None:
            dispatch = tso.tso_dispatch(case, interface_envelopes(case, q_lo, q_hi))
            self.checks.tso_trace(dispatch, f"{name} TSO")
            outcome["tso"] = [dispatch.outer_iterations, dispatch.pf_iterations]
        return outcome


def make_workload(name, seed, smoke=False):
    """The named workload; ``smoke`` gives its tiny-2bus-only variant."""
    if name == "dispatch-milp":
        return DispatchMilp(seed, main="tiny-2bus" if smoke else "feeder13-highpv")
    if name == "stage1-budget":
        cases = [("tiny-2bus", "bigm"), ("tiny-2bus", "sos1")] if smoke else STAGE1_BUDGET_CASES
        return Stage1Budget(seed, cases)
    if name == "dispatch-lp":
        return DispatchLp(seed, ["tiny-2bus"] if smoke else None)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("dispatch-milp", "stage1-budget", "dispatch-lp")
