"""Linearized unbalanced distribution feeder model and nonlinear oracle.

The linear model works in squared voltage magnitudes Y (pu^2) per
bus-phase.  For an oriented radial feeder the voltage drop along each
line couples phases through the rotation approximation
``V_phi / V_psi ~ exp(j(theta_phi - theta_psi))`` with phase angles
(0, -120, +120) degrees for (a, b, c).  With Z = R + jX the line
impedance (``FeederModel.z_line``: each node's upstream line, present
phases only) and gamma the rotation matrix over node phases, the real
drop matrices are

    ZP = 2 * Re(gamma * conj(Z))
    ZQ = -2 * Im(gamma * conj(Z))

so that Y_up - Y_down = ZP @ P_flow + ZQ @ Q_flow for lossless flows.
Those flows are -D @ (net injections), D the per-phase subtree matrix
(``FeederModel.subtree``), so Req, Xeq = D^T ZP D, D^T ZQ D.  ZIP loads
are linearized in Y; their constant part moves to the right hand side
and their Y-proportional part forms the load-coupling matrix K.  A
backward/forward sweep on the full nonlinear equations (ZIP evaluated
at actual |V|) provides the validation oracle and the field simulator
plant; it reads the same D and Z (see ``bfm_oracle``).  The oracle and
``lindist_voltages`` take one finite injection per node and raise
``ValidationError`` on anything else.

Solves: ``partition_blocks`` and ``observable_matrices`` go through
``numkit.solve_linear``, whose last bits the stage models keep;
``build_blocks``' singular-K check and ``lindist_voltages`` go through
LAPACK (``numkit.solve``).

Bus-phases are flattened in file order with phases a, b, c inside each
bus; missing phases are dropped (no zero padding).  All matrices are
indexed in this order.

Partition-block naming: superscripts follow the from/to convention, so
block "xy" maps x-side quantities into y-side rows (e.g. ``kuo`` has
observable rows and unobservable columns).  This is the only reading
under which the reduced observable-voltage equation is dimensionally
consistent.

Fixed settings: ``bfm_oracle`` gives up after ``BFM_MAX_SWEEPS = 100``
sweeps, a guard against a feeder loaded past voltage collapse; its
``tol`` stays a parameter, which tests tighten to 1e-12.
``make_partition`` takes the observable set from the feeder document
(``FeederModel.observable_ids``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import numkit
from .errors import (FIELD_ERRORS, InvalidPartition, NoConvergence, ParseError,
                     ValidationError)

PHASES = "abc"
BFM_MAX_SWEEPS = 100   # backward/forward sweeps before bfm_oracle gives up
_PHASE_ANGLE = {"a": 0.0, "b": -2.0 * math.pi / 3.0, "c": 2.0 * math.pi / 3.0}


@dataclass(frozen=True)
class Bus:
    bus_id: str
    phases: str


@dataclass(frozen=True)
class Line:
    from_bus: str
    to_bus: str
    z: np.ndarray  # complex 3x3 over abc slots, pu


@dataclass(frozen=True)
class ZipLoad:
    bus: str
    phase: str
    p_kw: float
    q_kvar: float
    a0: float
    a1: float
    a2: float


@dataclass(frozen=True)
class DerPlacement:
    bus: str
    phase: str
    inverter_id: str


@dataclass(frozen=True)
class OrientedLine:
    index: int          # position in the file order
    up: str
    down: str
    phases: str         # phases carried (= phases of the downstream bus)
    z: np.ndarray       # complex submatrix over `phases`


class FeederModel:
    """Validated radial multiphase feeder with flattened bus-phase indexing."""

    def __init__(self, s_base_kva, v_base_kv, substation_bus, y0_sub,
                 buses, lines, loads, ders, observable_ids):
        self.s_base_kva = float(s_base_kva)
        self.v_base_kv = float(v_base_kv)
        self.substation_bus = substation_bus
        self.y0_sub = dict(y0_sub)            # phase -> pu^2
        self.buses = list(buses)
        self.lines = list(lines)
        self.loads = list(loads)
        self.ders = list(ders)
        self.observable_ids = list(observable_ids)
        self._derive()

    # -- derivation ----------------------------------------------------------

    def _derive(self):
        bus_ids = [b.bus_id for b in self.buses]
        if len(set(bus_ids)) != len(bus_ids):
            raise ValidationError("duplicate bus ids")
        if self.substation_bus not in bus_ids:
            raise ValidationError(f"substation bus {self.substation_bus} not defined")
        self.bus_phases = {b.bus_id: "".join(p for p in PHASES if p in b.phases)
                           for b in self.buses}
        for b in self.buses:
            if not b.phases or len(set(b.phases) & set(PHASES)) != len(b.phases):
                raise ValidationError(f"bus {b.bus_id}: bad phase set {b.phases!r}")
        sub = self.substation_bus
        if set(self.y0_sub) != set(self.bus_phases[sub]):
            raise ValidationError(f"y0 gives phases {sorted(self.y0_sub)}, substation "
                                  f"{sub} has {self.bus_phases[sub]!r}")
        for name, value in [("base s_kva", self.s_base_kva), ("base v_kv", self.v_base_kv),
                            *((f"y0 of phase {p}", y) for p, y in self.y0_sub.items())]:
            if not (math.isfinite(value) and value > 0):
                raise ValidationError(f"{name} is {value!r}, not finite and positive")

        if len(self.lines) != len(self.buses) - 1:
            raise ValidationError(
                f"{len(self.lines)} lines with {len(self.buses)} buses: not radial")
        adj: dict[str, list[tuple[str, int]]] = {b: [] for b in bus_ids}
        for idx, ln in enumerate(self.lines):
            if ln.from_bus not in adj or ln.to_bus not in adj:
                raise ValidationError(f"line {ln.from_bus}-{ln.to_bus}: unknown bus")
            adj[ln.from_bus].append((ln.to_bus, idx))
            adj[ln.to_bus].append((ln.from_bus, idx))

        parent: dict[str, tuple[str, int]] = {}
        order = [sub]
        seen = {sub}
        for cur in order:   # breadth first: the loop reaches the buses it appends
            for nxt, idx in adj[cur]:
                if nxt in seen:
                    continue
                seen.add(nxt)
                parent[nxt] = (cur, idx)
                order.append(nxt)
        if len(seen) != len(bus_ids):
            raise ValidationError("feeder graph is not connected")
        self.bus_order = order

        self.oriented: list[OrientedLine] = []
        for idx, ln in enumerate(self.lines):
            if ln.to_bus in parent and parent[ln.to_bus][1] == idx:
                up, down = ln.from_bus, ln.to_bus
            elif ln.from_bus in parent and parent[ln.from_bus][1] == idx:
                up, down = ln.to_bus, ln.from_bus
            else:
                raise ValidationError(
                    f"line {ln.from_bus}-{ln.to_bus} closes a cycle")
            down_ph = self.bus_phases[down]
            up_ph = self.bus_phases[up]
            if any(p not in up_ph for p in down_ph):
                raise ValidationError(
                    f"bus {down} carries phases {down_ph} not present upstream at {up}")
            sel = [PHASES.index(p) for p in down_ph]
            zsub = np.asarray(ln.z, dtype=complex)[np.ix_(sel, sel)]
            if not np.all(np.isfinite(zsub.view(float))):
                raise ValidationError(f"line {up}-{down}: non-finite impedance")
            self.oriented.append(OrientedLine(idx, up, down, down_ph, zsub))

        # flattened bus-phase index (file order, phases a,b,c, substation excluded)
        self.nodes: list[tuple[str, str]] = []
        for b in self.buses:
            if b.bus_id == sub:
                continue
            for p in self.bus_phases[b.bus_id]:
                self.nodes.append((b.bus_id, p))
        self.node_ids = [f"{b}.{p}" for b, p in self.nodes]
        self.node_index = {node: k for k, node in enumerate(self.nodes)}
        self.n_nodes = len(self.nodes)

        # per-node load model (pu) and substation reference
        self.p0 = np.zeros(self.n_nodes)
        self.q0 = np.zeros(self.n_nodes)
        self.a0v = np.ones(self.n_nodes)
        self.a1v = np.zeros(self.n_nodes)
        self.a2v = np.zeros(self.n_nodes)
        claimed = set()
        for ld in self.loads:
            key = (ld.bus, ld.phase)
            if key not in self.node_index:
                raise ValidationError(f"load at unknown bus-phase {ld.bus}.{ld.phase}")
            if key in claimed:
                raise ValidationError(f"multiple loads at {ld.bus}.{ld.phase}")
            claimed.add(key)
            if not all(map(math.isfinite, (ld.p_kw, ld.q_kvar, ld.a0, ld.a1, ld.a2))):
                raise ValidationError(f"load at {ld.bus}.{ld.phase}: non-finite p_kw, "
                                      "q_kvar or ZIP fraction")
            if abs(ld.a0 + ld.a1 + ld.a2 - 1.0) > 1e-9:
                raise ValidationError(
                    f"ZIP fractions at {ld.bus}.{ld.phase} sum to "
                    f"{ld.a0 + ld.a1 + ld.a2}, expected 1")
            k = self.node_index[key]
            self.p0[k] = ld.p_kw / self.s_base_kva
            self.q0[k] = ld.q_kvar / self.s_base_kva
            self.a0v[k], self.a1v[k], self.a2v[k] = ld.a0, ld.a1, ld.a2

        self.y0_node = np.array([self.y0_sub[p] for _, p in self.nodes])

        self.der_nodes = []
        self.der_inverter_ids = []
        for der in self.ders:
            key = (der.bus, der.phase)
            if key not in self.node_index:
                raise ValidationError(f"DER at unknown bus-phase {der.bus}.{der.phase}")
            self.der_nodes.append(self.node_index[key])
            self.der_inverter_ids.append(der.inverter_id)

        for nid in self.observable_ids:
            if nid not in self.node_ids:
                raise ValidationError(f"observable id {nid} is not a bus-phase")

        # the sweep's arrays (bfm_oracle): subtree[a, b] = 1 when node b lies at
        # or below node a on its phase; z_line holds each node's upstream line
        # impedance, block-diagonal in node order; v_sub is the substation
        # voltage of each node's phase
        n = self.n_nodes
        self.subtree = np.zeros((n, n))
        self.z_line = np.zeros((n, n), dtype=complex)
        for ol in self.oriented:
            idx = [self.node_index[(ol.down, p)] for p in ol.phases]
            self.z_line[np.ix_(idx, idx)] = ol.z
        for bus in order[1:]:   # parents first: a node's ancestors are its parent's
            up = parent[bus][0]
            for p in self.bus_phases[bus]:
                k = self.node_index[(bus, p)]
                if up != sub:
                    self.subtree[:, k] = self.subtree[:, self.node_index[(up, p)]]
                self.subtree[k, k] = 1.0
        self.v_sub = np.array([math.sqrt(self.y0_sub[p]) * np.exp(1j * _PHASE_ANGLE[p])
                               for _, p in self.nodes], dtype=complex)
        self.sub_fed = np.array([parent[bus][0] == sub for bus, _ in self.nodes], dtype=bool)

    # -- convenience ----------------------------------------------------------

    def node_of(self, bus, phase) -> int:
        return self.node_index[(bus, phase)]

def load_feeder(doc: dict, load_scale: float = 1.0) -> FeederModel:
    """Parse and validate a feeder from its JSON document, already decoded."""
    if not isinstance(doc, dict):
        raise ParseError(f"feeder document must be a dict, not {type(doc).__name__}")

    try:
        base = doc["base"]
        subst = doc["substation"]
        buses = [Bus(str(b["id"]), str(b["phases"])) for b in doc["buses"]]
        lines = []
        for ln in doc["lines"]:
            z = np.zeros((3, 3), dtype=complex)
            raw = ln["z"]
            for i in range(3):
                for j in range(3):
                    re, im = raw[i][j]
                    z[i, j] = complex(re, im)
            lines.append(Line(str(ln["from"]), str(ln["to"]), z))
        loads = [ZipLoad(str(l["bus"]), str(l["phase"]),
                         float(l["p_kw"]) * load_scale,
                         float(l["q_kvar"]) * load_scale,
                         float(l["a0"]), float(l["a1"]), float(l["a2"]))
                 for l in doc.get("loads", [])]
        ders = [DerPlacement(str(d["bus"]), str(d["phase"]), str(d["inverter_id"]))
                for d in doc.get("ders", [])]
        sub_bus = str(subst["bus"])
        sub_phases = next(b.phases for b in buses if b.bus_id == sub_bus)
        y0_list = [float(v) for v in subst["y0"]]
        if len(y0_list) != len(sub_phases):
            raise ValidationError(f"substation y0 has {len(y0_list)} entries for "
                                  f"phases {sub_phases!r}")
        y0 = dict(zip(sub_phases, y0_list))
        observable = [str(x) for x in doc.get("observable", [])]
        return FeederModel(float(base["s_kva"]), float(base["v_kv"]), sub_bus, y0,
                           buses, lines, loads, ders, observable)
    except (*FIELD_ERRORS, StopIteration) as exc:
        raise ParseError(f"feeder document missing or malformed field: {exc}") from exc


# ---------------------------------------------------------------------------
# sensitivity blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObservablePartition:
    observable: np.ndarray      # node indices, model order
    unobservable: np.ndarray
    controllable: np.ndarray    # DER node indices

    @property
    def n_o(self):
        return len(self.observable)

    @property
    def n_u(self):
        return len(self.unobservable)


def make_partition(model: FeederModel) -> ObservablePartition:
    """The partition by ``model.observable_ids`` (bus-phases, as FeederModel checked)."""
    pos = {nid: k for k, nid in enumerate(model.node_ids)}
    obs = {pos[nid] for nid in model.observable_ids}
    unobs = [k for k in range(model.n_nodes) if k not in obs]
    return ObservablePartition(np.array(sorted(obs), dtype=int), np.array(unobs, dtype=int),
                               np.array(model.der_nodes, dtype=int))


@dataclass
class SensitivityBlocks:
    """Equivalents (from ``FeederModel.subtree`` and ``z_line``), load
    coupling, and optional partition blocks.

    Block names use the from/to superscript convention described in the
    module docstring: ``kou`` maps observable quantities to unobservable
    rows (shape n_u x n_o), and similarly for the ``r*`` / ``x*`` blocks.
    Only the blocks the reduced observable model reads are kept; the
    unobservable-column blocks enter it through ``k1`` and ``c2``.
    """

    req: np.ndarray
    xeq: np.ndarray
    k: np.ndarray
    y0: np.ndarray
    p_const: np.ndarray   # constant net-load part, pu
    q_const: np.ndarray
    p_coef: np.ndarray    # Y-proportional load coefficients, pu
    q_coef: np.ndarray
    partition: ObservablePartition | None = None
    koo: np.ndarray | None = None
    kou: np.ndarray | None = None
    roo: np.ndarray | None = None
    rou: np.ndarray | None = None
    xoo: np.ndarray | None = None
    xou: np.ndarray | None = None
    k1: np.ndarray | None = None
    c2: np.ndarray | None = None

    @property
    def kb(self):
        return self.k - np.eye(self.k.shape[0])


def build_equivalents(model: FeederModel):
    """Equivalent drop matrices Req, Xeq = D^T ZP D, D^T ZQ D on node
    indexing, D the subtree matrix (see the module docstring).  -D is the
    inverse of the tree's incidence matrix, so no solve is needed."""
    ang = np.array([_PHASE_ANGLE[p] for _, p in model.nodes])
    gz = np.exp(1j * (ang[:, None] - ang[None, :])) * np.conj(model.z_line)
    minv = -model.subtree
    req = minv.T @ (2.0 * np.real(gz)) @ minv
    xeq = minv.T @ (-2.0 * np.imag(gz)) @ minv
    return req, xeq


def build_blocks(model: FeederModel) -> SensitivityBlocks:
    """Assemble the linear-model matrices of a feeder.  A singular load
    coupling K = I + Req diag(p_coef) + Xeq diag(q_coef) raises
    ``SingularMatrix`` here, from one LAPACK solve whose result is not kept."""
    req, xeq = build_equivalents(model)
    y0 = model.y0_node
    const = model.a0v + model.a2v * np.sqrt(y0) / 2.0
    coef = model.a1v + model.a2v / (2.0 * np.sqrt(y0))
    p_coef, q_coef = model.p0 * coef, model.q0 * coef
    k = np.eye(model.n_nodes) + req @ np.diag(p_coef) + xeq @ np.diag(q_coef)
    numkit.solve(k, y0)
    return SensitivityBlocks(
        req=req, xeq=xeq, k=k, y0=y0,
        p_const=model.p0 * const, q_const=model.q0 * const,
        p_coef=p_coef, q_coef=q_coef)


def _per_node(values, n, name):
    """``values`` as a float array of one finite value per node; anything
    else (a scalar, a wrong length, NaN or inf) raises ``ValidationError``."""
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} is not numeric: {exc}") from exc
    if arr.shape != (n,):
        raise ValidationError(f"{name} has shape {arr.shape}, expected one value per node ({n},)")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} holds a value that is not finite")
    return arr


def lindist_voltages(blocks: SensitivityBlocks, p_g, q_g):
    """Solve K Y = Y0 + Req (P_G - P_load) + Xeq (Q_G - Q_load) for Y (pu^2).

    ``p_g`` and ``q_g`` must hold one finite value per node, else
    ``ValidationError``."""
    n = blocks.y0.size
    rhs = (blocks.y0 + blocks.req @ (_per_node(p_g, n, "p_g") - blocks.p_const)
           + blocks.xeq @ (_per_node(q_g, n, "q_g") - blocks.q_const))
    return numkit.solve(blocks.k, rhs)


def voltage_from_Y(y, y0):
    """First-order magnitude estimate V = Y / (2 sqrt(Y0)) + sqrt(Y0) / 2."""
    y0 = np.asarray(y0, dtype=float)
    return np.asarray(y, dtype=float) / (2.0 * np.sqrt(y0)) + np.sqrt(y0) / 2.0


def net_injections(blocks: SensitivityBlocks, y, p_g, q_g):
    p_net = np.asarray(p_g, float) - blocks.p_const - blocks.p_coef * y
    q_net = np.asarray(q_g, float) - blocks.q_const - blocks.q_coef * y
    return p_net, q_net


def substation_flow(blocks: SensitivityBlocks, y, p_g, q_g):
    """Net feeder injection seen at the substation (sum of nodal net injections)."""
    p_net, q_net = net_injections(blocks, y, p_g, q_g)
    return float(np.sum(p_net)), float(np.sum(q_net))


# ---------------------------------------------------------------------------
# nonlinear backward/forward sweep oracle
# ---------------------------------------------------------------------------

@dataclass
class BfmResult:
    v: np.ndarray           # complex voltage per node
    v_mag: np.ndarray
    s_sub: complex          # total complex power flowing into the feeder, pu
    sweeps: int


def bfm_oracle(model: FeederModel, p_g, q_g, tol: float = 1e-8) -> BfmResult:
    """Fixed-point backward/forward sweep on the nonlinear branch-flow model.

    ZIP loads are evaluated at the actual voltage magnitude each sweep;
    losses are fully represented.  One sweep is two products with the
    arrays ``FeederModel`` builds once: the backward sweep gives each
    node's upstream line current as I = -D i_inj, with D the per-phase
    subtree matrix (``subtree``) and i_inj the nodal injection currents;
    the forward sweep gives v = v_sub - D^T (Z I), with Z the
    block-diagonal line impedance (``z_line``).  It has converged once the
    largest voltage update falls below ``tol``; a NaN update never does.
    ``p_g`` and ``q_g`` (pu) must hold one finite value per node, else
    ``ValidationError``.  Raises :class:`NoConvergence` after
    ``BFM_MAX_SWEEPS`` sweeps.
    """
    n = model.n_nodes
    s_gen = _per_node(p_g, n, "p_g") + 1j * _per_node(q_g, n, "q_g")
    s_load = model.p0 + 1j * model.q0
    d, z, v_sub = model.subtree, model.z_line, model.v_sub
    v = v_sub.copy()
    for sweep in range(1, BFM_MAX_SWEEPS + 1):
        vmag = np.abs(v)
        zip_mult = model.a0v + model.a1v * vmag ** 2 + model.a2v * vmag
        i_inj = np.conj((s_gen - s_load * zip_mult) / v)
        current = -(d @ i_inj)
        v_new = v_sub - d.T @ (z @ current)
        max_dv = float(np.max(np.abs(v_new - v), initial=0.0))
        v = v_new
        if max_dv < tol:
            fed = model.sub_fed
            s_sub = complex(np.sum(v_sub[fed] * np.conj(current[fed])))
            return BfmResult(v, np.abs(v), s_sub, sweep)
    raise NoConvergence(f"backward/forward sweep above {tol} after {BFM_MAX_SWEEPS} sweeps")


# ---------------------------------------------------------------------------
# observable / unobservable partition
# ---------------------------------------------------------------------------

def partition_blocks(blocks: SensitivityBlocks,
                     partition: ObservablePartition) -> SensitivityBlocks:
    """Extract the observable-column partition blocks plus ground-truth K1 and C2.

    The controllable (DER) set must be contained in the observable set.
    C2 is evaluated with the model's unobservable constant net loads
    (there is no generation on unobservable bus-phases).
    """
    if not set(partition.controllable).issubset(set(partition.observable)):
        raise InvalidPartition("controllable DER bus-phases must be observable")
    o = partition.observable
    u = partition.unobservable
    kb = blocks.kb
    pick = lambda mat, rows, cols: mat[np.ix_(rows, cols)]
    koo = pick(kb, o, o)
    kou = pick(kb, u, o)   # observable -> unobservable rows
    kuo = pick(kb, o, u)   # unobservable -> observable rows
    kuu = pick(kb, u, u)
    roo, rou = pick(blocks.req, o, o), pick(blocks.req, u, o)
    ruo, ruu = pick(blocks.req, o, u), pick(blocks.req, u, u)
    xoo, xou = pick(blocks.xeq, o, o), pick(blocks.xeq, u, o)
    xuo, xuu = pick(blocks.xeq, o, u), pick(blocks.xeq, u, u)

    n_u = len(u)
    if n_u:
        k1 = numkit.solve_linear((np.eye(n_u) + kuu).T, kuo.T).T
        p_u = -blocks.p_const[u]
        q_u = -blocks.q_const[u]
        c2 = (blocks.y0[o] - k1 @ blocks.y0[u]
              + (ruo - k1 @ ruu) @ p_u + (xuo - k1 @ xuu) @ q_u)
    else:
        k1 = np.zeros((len(o), 0))
        c2 = blocks.y0[o].copy()

    return replace(blocks, partition=partition, koo=koo, kou=kou,
                   roo=roo, rou=rou, xoo=xoo, xou=xou, k1=k1, c2=c2)


def observable_matrices(blocks: SensitivityBlocks):
    """Affine map Y_o = AR @ P_o + AX @ Q_o + c for the reduced model, from the
    blocks' ``k1`` and ``c2``."""
    if blocks.partition is None:
        raise InvalidPartition("blocks have not been partitioned")
    k1, c2 = blocks.k1, blocks.c2
    n_o = blocks.partition.n_o
    lhs = np.eye(n_o) + blocks.koo - k1 @ blocks.kou
    inv = numkit.solve_linear(lhs, np.eye(n_o))
    ar = inv @ (blocks.roo - k1 @ blocks.rou)
    ax = inv @ (blocks.xoo - k1 @ blocks.xou)
    return ar, ax, inv @ c2


def observable_voltages(blocks: SensitivityBlocks, p_o, q_o):
    """Reduced-model observable squared voltages for net injections (P_o, Q_o)."""
    ar, ax, c = observable_matrices(blocks)
    return ar @ np.asarray(p_o, float) + ax @ np.asarray(q_o, float) + c


def observable_net_injections(blocks: SensitivityBlocks, p_g, q_g):
    """Constant-part net injections restricted to the observable set."""
    if blocks.partition is None:
        raise InvalidPartition("blocks have not been partitioned")
    o = blocks.partition.observable
    p = np.asarray(p_g, float)[o] - blocks.p_const[o]
    q = np.asarray(q_g, float)[o] - blocks.q_const[o]
    return p, q
