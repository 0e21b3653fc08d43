"""Hierarchical DSO dispatch stages over the reduced observable model.

Stage 1 maximizes total DER real power, stage 2a sweeps the aggregate
reactive range at fixed total power (the envelope offered to the TSO),
and stage 2b splits a requested substation reactive value across DERs
with sensitivity weights favoring units electrically closer to the
substation.  All stages share one MILP skeleton: per-DER capability
rows, droop-mode encodings with mode exclusivity, the observable
voltage map, and the substation reactive-flow expression.

A context builds that skeleton once.  Its stage 1 model comes from
``build_stage_model`` on first use; stage 2a's is a copy of it plus the
``pstar`` row, and stage 2b's a copy of 2a's plus the ``qreq`` and |q|
split rows.  Copies share the frozen variable and row entries.  The
context keeps the three models, each with the LP form its solves keep
(see ``milp``), and the default ``sensitivity_weights``.  A stage call
then only sets its objective and the right-hand sides of the ``pstar``
and ``qreq`` rows, so a round assembles nothing and each solve makes
the pivots a freshly built model would.  A context's inputs are fixed
when it is made: it is frozen, holds ``specs`` and ``curves`` as tuples
(each curve set a read-only mapping) and ``p_available_kw`` as a
read-only copy, and makes the blocks' arrays read-only, so nothing the
kept models read can change under them.  Other inputs make another
context, e.g. ``dataclasses.replace(ctx, p_available_kw=...)``, which
starts with nothing kept.  ``build_stage_model`` still returns a fresh
model at each call.

Stage 2a's model is stage 1's plus one ``pstar`` row, and its MIN and
MAX solves share every row and bound.  So stage 1 leaves its optimal
root basis on the context, stage 2a MIN starts its root from it
(``milp.solve_milp(start=...)``) and MAX from MIN's.  A start is the
root node's stored basis, solved as any node's (see ``milp``): on the
bundled scenarios both 2a starts are primal feasible, so the dual
simplex takes no pivot and primal phase 2 runs from them.  A 2a
optimum may then be a different vertex, with the same objective, than a
cold solve gives, and where the optimum is not unique its substation
flow (the envelope end) may differ too; on the bundled scenarios the
envelopes agree within 1e-8.

Stage 2b's model is stage 2a's with the ``qp``/``qm`` structurals and
the ``qreq`` and ``qsplit`` rows appended.  Its ``qreq`` row is violated
at a 2a vertex, but its cost sits only on ``qp``/``qm``, which start
nonbasic at 0 with nonnegative weights, so a 2a basis extended by them
is dual feasible.  Stage 2a leaves both root bases on the context, each
with its envelope end, and stage 2b starts the dual simplex from the one
whose end is nearer its request.  Only stage 1 starts cold.  Each
stage keeps its root basis whenever its root LP ends optimal, so these
starts hold also when a stage closes at its root.

Every stage passes ``droop_root_point`` to ``milp.solve_milp``.  It
rewrites each DER's indicators and setting (and under sos1 its mode
variables) in the root LP's optimum to the first (mode, segment) whose
law reproduces the DER's (v, p, q) there (``inverter.segment_through``).
The stage objectives do not read those variables, so a rewritten point
that passes the solver's check is an incumbent at the root bound, and
the stage ends at its root with one node.  On every bundled stage that
finishes, each DER's root (v, p, q) lies on a law.  Where some DER lies
off every law (feeder13-lowpv; half the available power on
feeder13-highpv) the root point is None and the search runs as before.

Per-DER power variables are in device per-unit (fractions of the
inverter rating); stage objectives and reported quantities are in
kW/kvar; network coupling converts through the feeder power base.  The
substation reactive expression carries a constant offset for the
unobservable load contribution, evaluated from the linear model at the
flat voltage profile (``flat_voltage_q_offset``).  Each stage is solved
once, on the model as built: nothing here closes a loop against field
measurements.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace
from types import MappingProxyType

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


@dataclass(frozen=True)
class ModePolicy:
    """``optimized``: the stages pick each DER's droop mode, segment and
    setting; ``pq_free``: each DER's P and Q are free inside its capability."""

    kind: str = OPTIMIZED


@dataclass(frozen=True)
class DispatchContext:
    """One feeder's dispatch inputs, shared by its stages.

    ``stage1_max_power`` leaves its optimal root basis in
    ``stage1_root_basis`` (None when its root LP did not end optimal),
    before it raises any error; ``stage2a_aggregate`` starts from it, so
    stage 2a run after stage 1 on the same context skips phase 1.
    ``stage2a_aggregate`` leaves MAX's and MIN's root bases in
    ``stage2a_root_bases``, each as (its q_sub_kvar, basis), skipping a
    root that kept none; ``stage2b_disaggregate`` starts from the
    one whose q_sub is nearer its request (MAX's on a tie), and cold
    when there is none.

    The inputs are fixed when the context is made, so the models, the
    default weights and the root bases the stages keep on it never go
    stale (see the module docstring).
    """
    model: feeder_mod.FeederModel
    blocks: feeder_mod.SensitivityBlocks       # partitioned
    specs: tuple[inverter.InverterSpec, ...]   # per DER placement
    curves: tuple                              # per DER: mode -> DroopCurve
    p_available_kw: np.ndarray
    encoding: str = "sos1"
    policy: ModePolicy = field(default_factory=ModePolicy)
    # stage -> (model, handles), "weights" and the stages' root bases
    _kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        p_available = np.array(self.p_available_kw, dtype=float)
        if p_available.shape != (n_der,):
            raise ValueError(f"available power must be one value per DER ({n_der}), "
                             f"not shape {p_available.shape}")
        if not np.all(np.isfinite(p_available) & (p_available >= 0.0)):
            raise ValueError("available power must be finite and non-negative")
        for k, spec in enumerate(self.specs):
            if p_available[k] > spec.p_max + 1e-9:
                raise ValueError("available power above inverter rating")
        if self.blocks.partition is None:
            raise ValueError("blocks must be partitioned")
        # the kept models read these arrays: an edit in place must fail
        for holder in (self.blocks, self.blocks.partition):
            for f in fields(holder):
                value = getattr(holder, f.name)
                if isinstance(value, np.ndarray):
                    value.flags.writeable = False
        p_available.flags.writeable = False
        object.__setattr__(self, "specs", tuple(self.specs))
        object.__setattr__(self, "curves",
                           tuple(MappingProxyType(dict(c)) for c in self.curves))
        object.__setattr__(self, "p_available_kw", p_available)

    @property
    def s_base(self):
        return self.model.s_base_kva

    @property
    def stage1_root_basis(self):
        return self._kept.get("stage1_root_basis")

    @property
    def stage2a_root_bases(self):
        return tuple(self._kept.get("stage2a_root_bases", ()))

    def _stage_model(self, stage, p_star_kw=None, q_req_kvar=None):
        """This context's model of ``stage`` (built on first use, then
        kept), with its pstar and qreq rows set to the request."""
        kept = self._kept
        if stage not in kept:
            if stage == "stage1":
                kept[stage] = build_stage_model(self, stage)
            else:
                # the model of the stage before plus this stage's rows; the
                # two share their (frozen) variables and rows
                before = "stage1" if stage == "stage2a" else "stage2a"
                mm, handles = self._stage_model(before, p_star_kw)
                mm, handles = mm.copy(f"{stage}-{self.encoding}"), replace(handles)
                if stage == "stage2a":
                    _add_pstar_row(self, mm, handles, stage, p_star_kw)
                else:
                    _add_qreq_rows(self, mm, handles, q_req_kvar)
                kept[stage] = mm, handles
        mm, handles = kept[stage]
        if handles.pstar is not None:
            mm.set_rhs(handles.pstar, p_star_kw)
        if handles.qreq is not None:
            mm.set_rhs(handles.qreq, q_req_kvar)
        return mm, handles

    def _default_weights(self):
        """``sensitivity_weights`` of this context, computed once."""
        if "weights" not in self._kept:
            weights = sensitivity_weights(self.blocks, self.model.der_nodes)
            weights.flags.writeable = False
            self._kept["weights"] = weights
        return self._kept["weights"]


def make_context(scenario, encoding="sos1",
                 policy: ModePolicy | None = None) -> DispatchContext:
    """Build a dispatch context from a bundled scenario."""
    model = scenario.feeder
    blocks = feeder_mod.build_blocks(model)
    blocks = feeder_mod.partition_blocks(blocks, feeder_mod.make_partition(model))
    specs = [scenario.inverters[i] for i in model.der_inverter_ids]
    curves = [inverter.make_curve_set(spec, scenario.profile) for spec in specs]
    return DispatchContext(model, blocks, specs, curves, scenario.p_available_kw,
                           encoding=encoding, policy=policy or ModePolicy())


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
    pstar: int | None = None       # row ids of the stage's request rows
    qreq: int | None = None


def build_stage_model(ctx: DispatchContext, stage: str = "stage1",
                      p_star_kw: float | None = None,
                      q_req_kvar: float | None = None):
    """Assemble a fresh MILP for one stage; returns (model, handles).

    ``stage`` is one of stage1 / stage2a / stage2b.  Stage 2a gets the
    total-power row; stage 2b additionally pins the substation reactive
    flow and adds the absolute-value split variables.  The stage
    functions build stage 1's model with it once per context and keep
    it; the caller owns what this returns.
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
    rhs = -s_base * float(np.sum(blocks.q_const[obs])) + flat_voltage_q_offset(m, blocks)
    mm.add_constraint(coeffs, milp.EQ, rhs, name="qsub_def")

    handles = StageHandles(p_ids, q_ids, v_ids, encodings, y_ids, q_sub)
    if stage in ("stage2a", "stage2b"):
        _add_pstar_row(ctx, mm, handles, stage, p_star_kw)
    if stage == "stage2b":
        _add_qreq_rows(ctx, mm, handles, q_req_kvar)
    return mm, handles


def _add_pstar_row(ctx, mm, handles, stage, p_star_kw):
    """Stage 2a's total-power row."""
    if p_star_kw is None:
        raise ValueError(f"{stage} needs p_star_kw")
    handles.pstar = mm.add_constraint(
        {p: spec.s_rated for p, spec in zip(handles.p, ctx.specs)},
        milp.EQ, float(p_star_kw), name="pstar")


def _add_qreq_rows(ctx, mm, handles, q_req_kvar):
    """Stage 2b's substation request row and its |q| split per DER."""
    if q_req_kvar is None:
        raise ValueError("stage2b needs q_req_kvar")
    handles.qreq = mm.add_constraint({handles.q_sub: 1.0}, milp.EQ, float(q_req_kvar),
                                     name="qreq")
    handles.qp, handles.qm = [], []
    for i, (q_id, spec) in enumerate(zip(handles.q, ctx.specs)):
        qp = mm.add_variable(0.0, max(spec.q_max_pu, 0.0), name=f"qp_d{i}")
        qm = mm.add_variable(0.0, max(-spec.q_min_pu, 0.0), name=f"qm_d{i}")
        mm.add_constraint({q_id: 1.0, qp: -1.0, qm: 1.0}, milp.EQ, 0.0,
                          name=f"qsplit_d{i}")
        handles.qp.append(qp)
        handles.qm.append(qm)


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


def droop_root_point(ctx, handles):
    """The stage's root-point function for ``milp.solve_milp``, or None
    under ``pq_free``, which has no droop laws.

    Given the root LP's optimal x, it rewrites each DER's droop variables
    to the first (mode, segment) whose law reproduces the DER's (v, p, q)
    at some setting in range (``inverter.segment_through``): that
    segment's indicator is 1 and its mode's setting the one found, every
    other indicator of the DER is 0, and under sos1 so is every mode
    variable but the chosen one, which is 1.  Nothing else changes: the
    stage rows that do not read the droop variables hold as at the root,
    and the Big-M rows of a zero indicator hold over the variable box.
    It rewrites x in place and returns it, or returns None when some DER
    lies off every law."""
    if ctx.policy.kind == PQ_FREE:
        return None

    def root_point(x):
        for curves, encodings, ids in zip(ctx.curves, handles.encodings,
                                          zip(handles.v, handles.p, handles.q)):
            values = dict(zip("vpq", x[list(ids)]))
            chosen = None
            for enc in encodings.values():
                x_in, x_out = (values[k] for k in inverter.MODE_IO[enc.mode])
                hit = inverter.segment_through(curves[enc.mode], x_in, x_out)
                if hit is not None:
                    chosen = enc
                    break
            if chosen is None:
                return None
            for enc in encodings.values():
                x[enc.indicator_ids] = 0.0
                if enc.mode_var is not None:
                    x[enc.mode_var] = 0.0
            segment, x[chosen.setting_id] = hit
            x[chosen.indicator_ids[segment]] = 1.0
            if chosen.mode_var is not None:
                x[chosen.mode_var] = 1.0
        return x

    return root_point


def _solve_stage(ctx, mm, handles, start=None):
    """Solve one stage model, its root from ``start`` (an earlier root
    basis, or None for a cold root) and with the droop root point as a
    candidate incumbent; returns (solution, stats)."""
    t0 = time.perf_counter()
    sol = milp.solve_milp(mm, start=start, root_point=droop_root_point(ctx, handles))
    wall_ms = 1e3 * (time.perf_counter() - t0)
    return sol, {"status": sol.status, "nodes": sol.node_count,
                 "simplex_iterations": sol.simplex_iterations, "wall_ms": wall_ms,
                 "lp_rows": sol.lp_rows, "root_fixed": sol.root_fixed,
                 "root_point": sol.root_point}


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
    mm, handles = ctx._stage_model("stage1")
    mm.set_objective(milp.MAX, {handles.p[i]: ctx.specs[i].s_rated
                                for i in range(len(handles.p))})
    sol, stats = _solve_stage(ctx, mm, handles)
    ctx._kept["stage1_root_basis"] = sol.root_basis
    _require_optimal(sol, "stage1")
    result = _extract(ctx, handles, sol, "stage1", stats)
    return result.p_star_kw, result


def stage2a_aggregate(ctx: DispatchContext, p_star_kw: float):
    """Aggregate reactive envelope [q_lo, q_hi] (kvar) at fixed total power.

    Objective follows the total DER reactive sum; the reported envelope
    endpoints are the substation reactive flows of the two extreme
    solutions, which is what the TSO interface consumes.  MIN's root
    starts from ``ctx.stage1_root_basis`` and MAX's from MIN's root
    basis; both root bases are left in ``ctx.stage2a_root_bases``.
    """
    mm, handles = ctx._stage_model("stage2a", p_star_kw=p_star_kw)
    q_total = {handles.q[i]: ctx.specs[i].s_rated for i in range(len(handles.q))}
    results = {}
    start = ctx.stage1_root_basis
    bases = ctx._kept["stage2a_root_bases"] = []
    for sense, tag in ((milp.MIN, "stage2a_min"), (milp.MAX, "stage2a_max")):
        mm.set_objective(sense, q_total)
        sol, stats = _solve_stage(ctx, mm, handles, start)
        _require_optimal(sol, tag)
        results[tag] = _extract(ctx, handles, sol, tag, stats)
        start = sol.root_basis
        if start is not None:
            bases.insert(0, (results[tag].q_sub_kvar, start))
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
    optimum).  ``weights`` defaults to ``sensitivity_weights``,
    computed once per context; it stays a parameter because a caller
    that computed them passes them in.  They must be one finite,
    nonnegative value per DER, else ``ValueError``.
    The root starts from the stage 2a root basis in
    ``ctx.stage2a_root_bases`` whose envelope end is nearer
    ``q_req_kvar``, or cold when there is none.
    """
    n_der = len(ctx.model.der_nodes)
    weights = ctx._default_weights() if weights is None else np.asarray(weights, dtype=float)
    if weights.shape != (n_der,) or not np.all(np.isfinite(weights) & (weights >= 0.0)):
        raise ValueError(f"weights must be {n_der} finite nonnegative values, "
                         f"got {weights.tolist()}")
    mm, handles = ctx._stage_model("stage2b", p_star_kw, q_req_kvar)
    obj = {}
    for i in range(len(handles.p)):
        s = ctx.specs[i].s_rated
        obj[handles.qp[i]] = weights[i] * s
        obj[handles.qm[i]] = weights[i] * s
    mm.set_objective(milp.MIN, obj)
    # min() keeps the first of equal distances: MAX's basis on a tie
    start = min(ctx.stage2a_root_bases, key=lambda end: abs(end[0] - q_req_kvar),
                default=(None, None))[1]
    sol, stats = _solve_stage(ctx, mm, handles, start)
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
