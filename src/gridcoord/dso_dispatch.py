"""Hierarchical DSO dispatch stages over the reduced observable model.

Stage 1 maximizes total DER real power, stage 2a sweeps the aggregate
reactive range at fixed total power (the envelope offered to the TSO),
and stage 2b splits a requested substation reactive value across DERs
with sensitivity weights favoring units electrically closer to the
substation.  All stages share one MILP skeleton: per-DER capability
rows, droop-mode encodings with mode exclusivity, the observable
voltage map, and the substation reactive-flow expression.

Stage 2a's model is stage 1's plus one ``pstar`` row, and its MIN and
MAX solves share every row and bound.  So stage 1 leaves its optimal
root basis on the context, stage 2a MIN starts its root from it
(``milp.solve_milp(start=...)``) and MAX from MIN's; each start is
solved by primal phase 2 alone when it is feasible, else cold.  A 2a
optimum may then be a different vertex, with the same objective, than a
cold solve gives, and where the optimum is not unique its substation
flow (the envelope end) may differ too; on the bundled scenarios the
envelopes agree within 1e-8.  Stage 1 and stage 2b start cold: 2b adds
structural variables, and its ``qreq`` row is violated at any 2a vertex.

Per-DER power variables are in device per-unit (fractions of the
inverter rating); stage objectives and reported quantities are in
kW/kvar; network coupling converts through the feeder power base.  The
substation reactive expression carries a constant offset for the
unobservable load contribution, evaluated from the linear model at the
flat voltage profile.  Each stage is solved once, on the model as
built: nothing here closes a loop against field measurements.  That
loop, with recursive least-squares (RLS) recalibration of the offset
and of the reduced model's K1 and c2, is planned in ROADMAP.md (item
3); ``DispatchContext.q_sub_offset_kvar`` and
``feeder.observable_matrices(k1, c2)`` stay settable for it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import feeder as feeder_mod
from . import inverter, milp, numkit
from .errors import DegenerateSensitivity, GridcoordError, InfeasibleStage

OPTIMIZED = "optimized"
PQ_FREE = "pq_free"
POLICIES = (OPTIMIZED, PQ_FREE)
ENCODINGS = inverter.ENCODINGS
STAGES = ("stage1", "stage2a", "stage2b")

V_LIMITS = (0.95, 1.05)   # planning voltage band on observable bus-phases, pu


@dataclass
class ModePolicy:
    """``optimized``: the stages pick each DER's droop mode, segment and
    setting; ``pq_free``: each DER's P and Q are free inside its capability."""

    kind: str = OPTIMIZED


@dataclass
class DispatchContext:
    """One feeder's dispatch inputs, shared by its stages.

    ``stage1_max_power`` leaves its optimal root basis in
    ``stage1_root_basis`` (None when its root did not branch), before
    it raises any error; ``stage2a_aggregate`` starts from it, so
    stage 2a run after stage 1 on the same context skips phase 1.
    """
    model: feeder_mod.FeederModel
    blocks: feeder_mod.SensitivityBlocks       # partitioned, k1/c2 current
    specs: list[inverter.InverterSpec]         # per DER placement
    curves: list[dict]                         # per DER: mode -> DroopCurve
    p_available_kw: np.ndarray
    encoding: str = "sos1"
    policy: ModePolicy = field(default_factory=ModePolicy)
    q_sub_offset_kvar: float | None = None     # None: flat-voltage estimate
    stage1_root_basis: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.encoding not in ENCODINGS:
            raise ValueError(f"unknown encoding {self.encoding!r}; have {ENCODINGS}")
        if self.policy.kind not in POLICIES:
            raise ValueError(f"unknown mode policy {self.policy.kind!r}; have {POLICIES}")
        n_der = len(self.model.der_nodes)
        if len(self.specs) != n_der or len(self.curves) != n_der:
            raise ValueError("specs/curves must match the DER placements")
        for curve_set in self.curves:
            for mode in inverter.MODES:
                if mode not in curve_set:
                    raise ValueError(f"missing {mode} curve")
        self.p_available_kw = np.asarray(self.p_available_kw, dtype=float)
        if not np.all(np.isfinite(self.p_available_kw) & (self.p_available_kw >= 0.0)):
            raise ValueError("available power must be finite and non-negative")
        for k, spec in enumerate(self.specs):
            if self.p_available_kw[k] > spec.p_max + 1e-9:
                raise ValueError("available power above inverter rating")
        if self.blocks.partition is None:
            raise ValueError("blocks must be partitioned")
        if self.q_sub_offset_kvar is None:
            self.q_sub_offset_kvar = flat_voltage_q_offset(self.model, self.blocks)

    @property
    def s_base(self):
        return self.model.s_base_kva


def make_context(scenario, encoding="sos1",
                 policy: ModePolicy | None = None) -> DispatchContext:
    """Build a dispatch context from a bundled scenario."""
    model = scenario.feeder
    blocks = feeder_mod.build_blocks(model)
    blocks = feeder_mod.partition_blocks(blocks, feeder_mod.make_partition(model))
    specs = [scenario.inverters[i] for i in model.der_inverter_ids]
    curves = [inverter.make_curve_set(spec, scenario.profile) for spec in specs]
    return DispatchContext(model, blocks, specs, curves,
                           scenario.p_available_kw.copy(), encoding=encoding,
                           policy=policy or ModePolicy())


def flat_voltage_q_offset(model, blocks) -> float:
    """Unobservable reactive-load contribution at the flat voltage profile (kvar)."""
    if blocks.partition is None or blocks.partition.n_u == 0:
        return 0.0
    u = blocks.partition.unobservable
    q_u = -(blocks.q_const[u] + blocks.q_coef[u] * blocks.y0[u])
    return float(np.sum(q_u) * model.s_base_kva)


# ---------------------------------------------------------------------------
# model assembly
# ---------------------------------------------------------------------------

@dataclass
class StageHandles:
    p: list[int]
    q: list[int]
    v: list[int]
    encodings: list[dict]          # per DER: mode -> DroopEncoding
    y_o: list[int]
    q_sub: int
    qp: list[int] | None = None
    qm: list[int] | None = None


def build_stage_model(ctx: DispatchContext, stage: str = "stage1",
                      p_star_kw: float | None = None,
                      q_req_kvar: float | None = None):
    """Assemble the MILP for one stage; returns (model, handles).

    ``stage`` is one of stage1 / stage2a / stage2b.  Stage 2a gets the
    total-power row; stage 2b additionally pins the substation reactive
    flow and adds the absolute-value split variables.
    """
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}; have {STAGES}")
    m = ctx.model
    blocks = ctx.blocks
    part = blocks.partition
    obs = part.observable
    obs_pos = {node: k for k, node in enumerate(obs)}
    n_der = len(m.der_nodes)
    s_base = ctx.s_base
    mm = milp.MilpModel(name=f"{stage}-{ctx.encoding}")

    v_lo, v_hi = V_LIMITS
    y_ids = [mm.add_variable(v_lo ** 2, v_hi ** 2, name=f"y_{m.node_ids[node]}")
             for node in obs]

    p_ids, q_ids, v_ids = [], [], []
    encodings: list[dict] = []
    for i, (node, spec) in enumerate(zip(m.der_nodes, ctx.specs)):
        sfx = f"d{i}"
        p_hi = min(spec.p_max, ctx.p_available_kw[i]) / spec.s_rated
        p_id = mm.add_variable(spec.p_min_pu, p_hi, name=f"p_{sfx}")
        q_id = mm.add_variable(spec.q_min_pu, spec.q_max_pu, name=f"q_{sfx}")
        # the voltage-link row pins V inside the image of the Y_o box, so the
        # variable box (and with it every droop Big-M) can be this tight
        y0n = blocks.y0[node]
        v_id = mm.add_variable(v_lo ** 2 / (2 * np.sqrt(y0n)) + np.sqrt(y0n) / 2,
                               v_hi ** 2 / (2 * np.sqrt(y0n)) + np.sqrt(y0n) / 2,
                               name=f"v_{sfx}")
        p_ids.append(p_id)
        q_ids.append(q_id)
        v_ids.append(v_id)
        inverter.add_capability_rows(mm, spec, p_id, q_id, sfx)

        # terminal voltage link onto the observable map
        if node not in obs_pos:
            raise InfeasibleStage(f"DER node {m.node_ids[node]} is unobservable")
        mm.add_constraint({v_id: 1.0,
                           y_ids[obs_pos[node]]: -1.0 / (2.0 * np.sqrt(y0n))},
                          milp.EQ, np.sqrt(y0n) / 2.0, name=f"vlink_{sfx}")

        encodings.append({} if ctx.policy.kind == PQ_FREE else inverter.encode_modes(
            mm, ctx.curves[i], {"v": v_id, "p": p_id, "q": q_id}, ctx.encoding, sfx))

    # observable voltage map rows: Y_o = AR P_o + AX Q_o + c
    ar, ax, c_aff = feeder_mod.observable_matrices(blocks)
    base = ar @ (-blocks.p_const[obs]) + ax @ (-blocks.q_const[obs]) + c_aff
    for j in range(len(obs)):
        coeffs = {y_ids[j]: 1.0}
        for i, node in enumerate(m.der_nodes):
            col = obs_pos[node]
            scale = ctx.specs[i].s_rated / s_base
            coeffs[p_ids[i]] = coeffs.get(p_ids[i], 0.0) - ar[j, col] * scale
            coeffs[q_ids[i]] = coeffs.get(q_ids[i], 0.0) - ax[j, col] * scale
        mm.add_constraint(coeffs, milp.EQ, float(base[j]), name=f"ydef_{j}")

    # substation reactive flow (kvar, injection-positive)
    q_sub = mm.add_variable(-np.inf, np.inf, name="q_sub")
    coeffs = {q_sub: 1.0}
    for i in range(n_der):
        coeffs[q_ids[i]] = coeffs.get(q_ids[i], 0.0) - ctx.specs[i].s_rated
    for j, node in enumerate(obs):
        if blocks.q_coef[node]:
            coeffs[y_ids[j]] = coeffs.get(y_ids[j], 0.0) + s_base * blocks.q_coef[node]
    rhs = -s_base * float(np.sum(blocks.q_const[obs])) + ctx.q_sub_offset_kvar
    mm.add_constraint(coeffs, milp.EQ, rhs, name="qsub_def")

    handles = StageHandles(p_ids, q_ids, v_ids, encodings, y_ids, q_sub)

    if stage in ("stage2a", "stage2b"):
        if p_star_kw is None:
            raise ValueError(f"{stage} needs p_star_kw")
        mm.add_constraint({p_ids[i]: ctx.specs[i].s_rated for i in range(n_der)},
                          milp.EQ, float(p_star_kw), name="pstar")
    if stage == "stage2b":
        if q_req_kvar is None:
            raise ValueError("stage2b needs q_req_kvar")
        mm.add_constraint({q_sub: 1.0}, milp.EQ, float(q_req_kvar), name="qreq")
        qp_ids, qm_ids = [], []
        for i in range(n_der):
            spec = ctx.specs[i]
            qp = mm.add_variable(0.0, max(spec.q_max_pu, 0.0), name=f"qp_d{i}")
            qm = mm.add_variable(0.0, max(-spec.q_min_pu, 0.0), name=f"qm_d{i}")
            mm.add_constraint({q_ids[i]: 1.0, qp: -1.0, qm: 1.0}, milp.EQ, 0.0,
                              name=f"qsplit_d{i}")
            qp_ids.append(qp)
            qm_ids.append(qm)
        handles.qp, handles.qm = qp_ids, qm_ids

    return mm, handles


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass
class DerDispatch:
    der_index: int
    bus_phase: str
    inverter_id: str
    mode: str | None
    segment: int | None
    setting: float | None
    p_kw: float
    q_kvar: float
    v_pu: float


@dataclass
class DispatchResult:
    stage: str
    objective: float
    per_der: list[DerDispatch]
    p_star_kw: float
    q_sub_kvar: float
    y_o: np.ndarray
    envelope_kvar: tuple | None
    stats: dict

    def to_dict(self):
        return {
            "stage": self.stage,
            "objective": self.objective,
            "p_star_kw": self.p_star_kw,
            "q_sub_kvar": self.q_sub_kvar,
            "envelope_kvar": list(self.envelope_kvar) if self.envelope_kvar else None,
            "per_der": [{
                "der": d.der_index, "bus_phase": d.bus_phase,
                "inverter_id": d.inverter_id, "mode": d.mode,
                "segment": d.segment, "setting": d.setting,
                "p_kw": d.p_kw, "q_kvar": d.q_kvar, "v_pu": d.v_pu,
            } for d in self.per_der],
            "y_o": [float(v) for v in self.y_o],
            "stats": self.stats,
        }


def _solve_stage(mm, start=None):
    """Solve one stage model, its root from ``start`` (an earlier root
    basis, or None for a cold root); returns (solution, stats)."""
    t0 = time.perf_counter()
    sol = milp.solve_milp(mm, start=start)
    wall_ms = 1e3 * (time.perf_counter() - t0)
    return sol, {"status": sol.status, "nodes": sol.node_count,
                 "simplex_iterations": sol.simplex_iterations, "wall_ms": wall_ms}


def _require_optimal(sol, stage):
    if sol.status == milp.INFEASIBLE:
        raise InfeasibleStage(f"{stage}: no feasible mode/setting assignment")
    if sol.status != milp.OPTIMAL:
        raise GridcoordError(f"{stage}: solver returned {sol.status} after "
                             f"{sol.node_count} nodes (best bound {sol.best_bound:.6g}, "
                             f"gap {sol.gap:.3g})")


def _extract(ctx, handles, sol, stage, stats) -> DispatchResult:
    m = ctx.model
    per_der = []
    for i, node in enumerate(m.der_nodes):
        spec = ctx.specs[i]
        mode = segment = setting = None
        for md, enc in handles.encodings[i].items():   # none under pq_free
            zvals = [sol.value(z) for z in enc.indicator_ids]
            if max(zvals) > 0.5:
                mode = md
                segment = int(np.argmax(zvals))
                setting = sol.value(enc.setting_id)
                break
        per_der.append(DerDispatch(
            i, m.node_ids[node], spec.inverter_id, mode, segment, setting,
            p_kw=sol.value(handles.p[i]) * spec.s_rated,
            q_kvar=sol.value(handles.q[i]) * spec.s_rated,
            v_pu=sol.value(handles.v[i])))
    y_o = np.array([sol.value(y) for y in handles.y_o])
    p_star = sum(d.p_kw for d in per_der)
    return DispatchResult(stage, sol.objective, per_der, p_star,
                          sol.value(handles.q_sub), y_o, None, stats)


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def stage1_max_power(ctx: DispatchContext):
    """Maximize total DER real power subject to network and controller rows."""
    mm, handles = build_stage_model(ctx, "stage1")
    mm.set_objective(milp.MAX, {handles.p[i]: ctx.specs[i].s_rated
                                for i in range(len(handles.p))})
    sol, stats = _solve_stage(mm)
    ctx.stage1_root_basis = sol.root_basis
    _require_optimal(sol, "stage1")
    result = _extract(ctx, handles, sol, "stage1", stats)
    return result.p_star_kw, result


def stage2a_aggregate(ctx: DispatchContext, p_star_kw: float):
    """Aggregate reactive envelope [q_lo, q_hi] (kvar) at fixed total power.

    Objective follows the total DER reactive sum; the reported envelope
    endpoints are the substation reactive flows of the two extreme
    solutions, which is what the TSO interface consumes.  MIN's root
    starts from ``ctx.stage1_root_basis`` and MAX's from MIN's root
    basis.
    """
    mm, handles = build_stage_model(ctx, "stage2a", p_star_kw=p_star_kw)
    q_total = {handles.q[i]: ctx.specs[i].s_rated for i in range(len(handles.q))}
    results = {}
    start = ctx.stage1_root_basis
    for sense, tag in ((milp.MIN, "stage2a_min"), (milp.MAX, "stage2a_max")):
        mm.set_objective(sense, q_total)
        sol, stats = _solve_stage(mm, start)
        _require_optimal(sol, tag)
        results[tag] = _extract(ctx, handles, sol, tag, stats)
        start = sol.root_basis
    q_lo = min(results["stage2a_min"].q_sub_kvar, results["stage2a_max"].q_sub_kvar)
    q_hi = max(results["stage2a_min"].q_sub_kvar, results["stage2a_max"].q_sub_kvar)
    for r in results.values():
        r.envelope_kvar = (q_lo, q_hi)
    return (q_lo, q_hi), results["stage2a_min"], results["stage2a_max"]


def sensitivity_weights(blocks: feeder_mod.SensitivityBlocks, der_nodes) -> np.ndarray:
    """Disaggregation weights from substation-reactive sensitivities.

    The linearized substation reactive flow is
    q_sub = sum(q_g - q_const - q_coef * y) with K y = y0 + Req (p_g - p_const)
    + Xeq (q_g - q_const), so its derivative with respect to the reactive
    injection at DER i's node is s_i = 1 - Xeq[:, i]^T K^-T q_coef: one
    solve with K^T serves every DER.  The weights are w_i = 1 - s_i / sum(s).
    """
    k_inv_t_q = numkit.solve_linear(blocks.k.T, blocks.q_coef)
    sens = 1.0 - blocks.xeq[:, list(der_nodes)].T @ k_inv_t_q
    total = float(np.sum(sens))
    if total <= 0.0:
        raise DegenerateSensitivity(f"sensitivity sum {total} is non-positive")
    return 1.0 - sens / total


def stage2b_disaggregate(ctx: DispatchContext, p_star_kw: float,
                         q_req_kvar: float, weights=None) -> DispatchResult:
    """Split the requested substation reactive power across DERs.

    Minimizes the sensitivity-weighted sum of absolute DER reactive
    outputs; the absolute value uses the standard nonnegative split
    (weights are nonnegative, so no simultaneous positive parts at the
    optimum).  ``weights`` defaults to ``sensitivity_weights``; it stays
    a parameter because a caller that computed them passes them in.
    """
    if weights is None:
        weights = sensitivity_weights(ctx.blocks, ctx.model.der_nodes)
    weights = np.asarray(weights, dtype=float)
    mm, handles = build_stage_model(ctx, "stage2b", p_star_kw=p_star_kw,
                                    q_req_kvar=q_req_kvar)
    obj = {}
    for i in range(len(handles.p)):
        s = ctx.specs[i].s_rated
        obj[handles.qp[i]] = weights[i] * s
        obj[handles.qm[i]] = weights[i] * s
    mm.set_objective(milp.MIN, obj)
    sol, stats = _solve_stage(mm)
    _require_optimal(sol, "stage2b")
    stats["weights"] = [float(w) for w in weights]
    return _extract(ctx, handles, sol, "stage2b", stats)


# ---------------------------------------------------------------------------
# compliance checks
# ---------------------------------------------------------------------------

def droop_compliance_errors(ctx: DispatchContext, result: DispatchResult):
    """Distance of each dispatched setpoint from its selected droop segment.

    Returns per-DER (curve_error_pu, capability_ok).  For the droop
    input the volt-modes use the model terminal voltage and watt-var
    uses the dispatched active power.
    """
    out = []
    for d in result.per_der:
        spec = ctx.specs[d.der_index]
        p_pu = d.p_kw / spec.s_rated
        q_pu = d.q_kvar / spec.s_rated
        cap_ok = inverter.satisfies_capability(spec, p_pu, q_pu, tol=1e-6)
        if d.mode is None:
            out.append((0.0, cap_ok))
            continue
        curve = ctx.curves[d.der_index][d.mode].with_setting(d.setting)
        values = {"v": d.v_pu, "p": p_pu, "q": q_pu}
        x, y = (values[k] for k in inverter.MODE_IO[d.mode])
        err = abs(inverter.evaluate_droop(curve, x) - y)
        out.append((float(err), cap_ok))
    return out
