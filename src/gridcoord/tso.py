"""Transmission-side engine: Newton AC power flow and reactive dispatch.

The dispatch minimizes weighted squared voltage deviations plus a
reactive-effort term over the interface reactive injections, each boxed
by the envelope its distribution feeder reported.  It runs successive
linearization: a reduced-Jacobian V-Q sensitivity builds a quadratic
model solved by projected gradient, then a full power flow re-anchors
the model.  A bisection backtrack keeps the true objective
non-increasing across outer iterations.

Fixed settings (module constants no caller changes; they define the one
dispatch every caller runs): the objective is C_V * sum((|V_mon| -
V_SETPOINT)^2) + C_Q * sum(q^2), q in pu, with C_V = 1, C_Q = 0.01 and
V_SETPOINT = 1 pu.  The dispatch stops once an outer step moves q by
less than OUTER_TOL = 1e-4 pu, or after MAX_OUTER = 20 steps; a power
flow gives up after PF_MAX_ITER = 20 Newton iterations.
``newton_powerflow`` keeps its ``tol``, which tests tighten to 1e-11
and 1e-12.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import numkit
from .errors import (FIELD_ERRORS, NoConvergence, ParseError, SingularJacobian,
                     SingularMatrix, ValidationError)

SLACK, PV, PQ = "slack", "PV", "PQ"
C_V = 1.0           # weight of the squared voltage deviations
C_Q = 0.01          # weight of the squared interface injections (pu)
V_SETPOINT = 1.0    # voltage target at the monitored buses, pu
OUTER_TOL = 1e-4    # outer-iteration step (pu) below which the dispatch stops
MAX_OUTER = 20      # outer iterations of the dispatch
PF_MAX_ITER = 20    # Newton iterations of one power flow


@dataclass(frozen=True)
class TBus:
    bus_id: str
    btype: str
    p_mw: float = 0.0
    q_mvar: float = 0.0
    v_set: float = 1.0


@dataclass(frozen=True)
class TBranch:
    from_bus: str
    to_bus: str
    r: float
    x: float
    b: float = 0.0


@dataclass(frozen=True)
class TGen:
    bus: str
    p_mw: float
    v_pu: float


@dataclass(frozen=True)
class Interface:
    bus: str
    multiplicity: int = 1


class TransmissionCase:
    """Small meshed AC network with DSO interface buses."""

    def __init__(self, buses, branches, gens, interfaces, s_base_mva=100.0):
        self.buses = list(buses)
        self.branches = list(branches)
        self.gens = list(gens)
        self.interfaces = list(interfaces)
        self.s_base_mva = float(s_base_mva)
        self._derive()

    def _derive(self):
        ids = [b.bus_id for b in self.buses]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate transmission bus ids")
        self.index = {bid: k for k, bid in enumerate(ids)}
        slacks = [b for b in self.buses if b.btype == SLACK]
        if len(slacks) != 1:
            raise ValidationError(f"need exactly one slack bus, found {len(slacks)}")
        self.slack = self.index[slacks[0].bus_id]
        if not (math.isfinite(self.s_base_mva) and self.s_base_mva > 0):
            raise ValidationError(f"s_base_mva is {self.s_base_mva!r}, not finite and positive")
        gen_buses = {g.bus for g in self.gens}
        for b in self.buses:
            if b.btype not in (SLACK, PV, PQ):
                raise ValidationError(f"bus {b.bus_id}: unknown type {b.btype}")
            if b.btype == PV and b.bus_id not in gen_buses:
                raise ValidationError(f"PV bus {b.bus_id} has no generator")
            if not all(map(math.isfinite, (b.p_mw, b.q_mvar, b.v_set))):
                raise ValidationError(f"bus {b.bus_id}: non-finite p_mw, q_mvar or v_set")
        for g in self.gens:
            if g.bus not in self.index:
                raise ValidationError(f"generator at unknown bus {g.bus}")
            if not all(map(math.isfinite, (g.p_mw, g.v_pu))):
                raise ValidationError(f"generator at bus {g.bus}: non-finite p_mw or v_pu")
        for br in self.branches:
            if br.from_bus not in self.index or br.to_bus not in self.index:
                raise ValidationError(f"branch {br.from_bus}-{br.to_bus}: unknown bus")
            if not all(map(math.isfinite, (br.r, br.x, br.b))):
                raise ValidationError(f"branch {br.from_bus}-{br.to_bus}: non-finite r, x or b")
            if br.r == 0 and br.x == 0:   # ybus divides by r + jx
                raise ValidationError(f"branch {br.from_bus}-{br.to_bus}: zero impedance")
        for itf in self.interfaces:
            if itf.bus not in self.index:
                raise ValidationError(f"interface at unknown bus {itf.bus}")
            if self.buses[self.index[itf.bus]].btype != PQ:
                raise ValidationError(f"interface bus {itf.bus} must be PQ")
            if itf.multiplicity < 1:   # feeders behind the interface; callers divide by it
                raise ValidationError(f"interface bus {itf.bus}: multiplicity below 1")
        # connectivity
        seen = {self.slack}
        frontier = [self.slack]
        adj = {k: set() for k in range(len(ids))}
        for br in self.branches:
            f, t = self.index[br.from_bus], self.index[br.to_bus]
            adj[f].add(t)
            adj[t].add(f)
        while frontier:
            cur = frontier.pop()
            for nxt in adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        if len(seen) != len(ids):
            raise ValidationError("transmission graph is not connected")
        self.pv = np.array([k for k, b in enumerate(self.buses)
                            if b.btype == PV], dtype=int)
        self.pq = np.array([k for k, b in enumerate(self.buses)
                            if b.btype == PQ], dtype=int)
        self.pvpq = np.concatenate([self.pv, self.pq])
        self.pvpq.sort()

    def remove_branch(self, from_bus, to_bus) -> "TransmissionCase":
        """Outage case with one branch removed (connectivity re-validated)."""
        keep = []
        found = False
        for br in self.branches:
            match = {br.from_bus, br.to_bus} == {str(from_bus), str(to_bus)}
            if match and not found:
                found = True
                continue
            keep.append(br)
        if not found:
            raise ValidationError(f"no branch {from_bus}-{to_bus} to remove")
        return TransmissionCase(self.buses, keep, self.gens, self.interfaces,
                                self.s_base_mva)

    def ybus(self) -> np.ndarray:
        n = len(self.buses)
        Y = np.zeros((n, n), dtype=complex)
        for br in self.branches:
            f, t = self.index[br.from_bus], self.index[br.to_bus]
            y = 1.0 / complex(br.r, br.x)
            Y[f, f] += y + 0.5j * br.b
            Y[t, t] += y + 0.5j * br.b
            Y[f, t] -= y
            Y[t, f] -= y
        return Y


def _whole(value) -> int:
    """An interface multiplicity as an int; a bool, a fraction or a
    non-number raises ``ParseError`` instead of being truncated."""
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ParseError(f"interface multiplicity must be a whole number, not {value!r}")
    return int(value)


def load_transmission(doc: dict) -> TransmissionCase:
    """Parse a transmission case from its JSON document, already decoded."""
    if not isinstance(doc, dict):
        raise ParseError(f"transmission document must be a dict, not {type(doc).__name__}")
    try:
        buses = [TBus(str(b["id"]), str(b["type"]), float(b.get("p_mw", 0.0)),
                      float(b.get("q_mvar", 0.0)), float(b.get("v_set", 1.0)))
                 for b in doc["buses"]]
        branches = [TBranch(str(b["from"]), str(b["to"]), float(b["r"]),
                            float(b["x"]), float(b.get("b", 0.0)))
                    for b in doc["branches"]]
        gens = [TGen(str(g["bus"]), float(g["p_mw"]), float(g["v_pu"]))
                for g in doc.get("gens", [])]
        interfaces = [Interface(str(i["bus"]), _whole(i.get("multiplicity", 1)))
                      for i in doc.get("interfaces", [])]
        return TransmissionCase(buses, branches, gens, interfaces,
                                float(doc.get("s_base_mva", 100.0)))
    except FIELD_ERRORS as exc:
        raise ParseError(f"transmission document missing or malformed field: {exc}") from exc


# ---------------------------------------------------------------------------
# Newton power flow
# ---------------------------------------------------------------------------

@dataclass
class PowerFlowResult:
    v_mag: np.ndarray
    v_ang: np.ndarray
    iterations: int

    def v_complex(self):
        return self.v_mag * np.exp(1j * self.v_ang)


def _spec_injections(case: TransmissionCase, q_inject=None):
    """Specified complex injections (pu) of every bus.  ``q_inject`` is
    keyed by bus id (``str(bus)``); two keys that name one bus, a key
    that names none, or a value that is not a finite number raise
    ``ValidationError``."""
    n = len(case.buses)
    s = np.zeros(n, dtype=complex)
    for k, b in enumerate(case.buses):
        s[k] -= complex(b.p_mw, b.q_mvar) / case.s_base_mva
    for g in case.gens:
        s[case.index[g.bus]] += g.p_mw / case.s_base_mva
    seen = set()
    for bus, mvar in (q_inject or {}).items():
        key = str(bus)
        if key in seen:
            raise ValidationError(f"two injections name bus {key}: {list(q_inject)}")
        if key not in case.index:
            raise ValidationError(f"injection at unknown bus {key}")
        if not isinstance(mvar, numbers.Real) or not math.isfinite(mvar):
            raise ValidationError(f"injection at bus {key} is {mvar!r}, not a finite MVAr value")
        seen.add(key)
        s[case.index[key]] += 1j * mvar / case.s_base_mva
    return s


def _jacobian(case: TransmissionCase, Y, v, vm):
    """Polar Jacobian of the P (PV and PQ buses) and Q (PQ buses)
    injections with respect to the PV/PQ angles and the PQ magnitudes.

    ``vm`` is the magnitude vector ``v`` was built from; it is passed in
    because ``np.abs(v)`` differs from it in the last bits.
    """
    ibus = Y @ v
    dS_dVa = 1j * np.diag(v) @ np.conj(np.diag(ibus) - Y @ np.diag(v))
    vnorm = v / vm
    dS_dVm = (np.diag(v) @ np.conj(Y @ np.diag(vnorm))
              + np.conj(np.diag(ibus)) @ np.diag(vnorm))
    pq, pvpq = case.pq, case.pvpq
    return np.block([
        [np.real(dS_dVa)[np.ix_(pvpq, pvpq)], np.real(dS_dVm)[np.ix_(pvpq, pq)]],
        [np.imag(dS_dVa)[np.ix_(pq, pvpq)], np.imag(dS_dVm)[np.ix_(pq, pq)]],
    ])


def newton_powerflow(case: TransmissionCase, q_inject: dict | None = None,
                     tol: float = 1e-8) -> PowerFlowResult:
    """Full Newton-Raphson in polar form.

    ``q_inject`` adds reactive injections (MVAr), keyed by bus id
    (``str(bus)``), on top of the case loads; two keys that name one
    bus, a key that names none, or a value that is not a finite number
    raise ``ValidationError``.  Converged when the largest P/Q mismatch
    falls below ``tol`` (pu) within ``PF_MAX_ITER`` iterations.
    """
    Y = case.ybus()
    n = len(case.buses)
    vm = np.ones(n)
    va = np.zeros(n)
    for k, b in enumerate(case.buses):
        if b.btype == SLACK:
            vm[k] = b.v_set
    for g in case.gens:
        vm[case.index[g.bus]] = g.v_pu
    s_spec = _spec_injections(case, q_inject)
    pq, pvpq = case.pq, case.pvpq

    for it in range(1, PF_MAX_ITER + 1):
        v = vm * np.exp(1j * va)
        s_calc = v * np.conj(Y @ v)
        dp = np.real(s_calc - s_spec)[pvpq]
        dq = np.imag(s_calc - s_spec)[pq]
        mism = np.concatenate([dp, dq])
        worst = float(np.max(np.abs(mism))) if mism.size else 0.0
        if worst < tol:
            return PowerFlowResult(vm.copy(), va.copy(), it - 1)
        try:
            dx = numkit.solve(_jacobian(case, Y, v, vm), -mism)
        except SingularMatrix as exc:
            raise SingularJacobian(f"Jacobian singular at iteration {it}") from exc
        va[pvpq] += dx[:len(pvpq)]
        vm[pq] += dx[len(pvpq):]
    raise NoConvergence(f"Newton power flow above {tol} after {PF_MAX_ITER} iterations")


def monitored_buses(case: TransmissionCase) -> list[int]:
    """Load and generator buses (the objective's monitored set)."""
    gen_idx = {case.index[g.bus] for g in case.gens}
    out = []
    for k, b in enumerate(case.buses):
        if k in gen_idx or b.btype == SLACK or abs(b.p_mw) > 0 or abs(b.q_mvar) > 0:
            out.append(k)
    return out


def vq_sensitivity(case: TransmissionCase, pf: PowerFlowResult) -> np.ndarray:
    """Reduced-Jacobian d|V|/dQ at monitored buses w.r.t. interface injections.

    PV and slack voltages are held by their controls, so their rows are
    zero; sensitivities are per-unit volts per per-unit injected Q.
    ``TransmissionCase`` has checked that every interface bus is PQ.
    """
    itf = [case.index[i.bus] for i in case.interfaces]
    pq, pvpq = case.pq, case.pvpq
    J = _jacobian(case, case.ybus(), pf.v_complex(), pf.v_mag)
    rhs = np.zeros((J.shape[0], len(itf)))
    pq_pos = {bus: i for i, bus in enumerate(pq)}
    for col, bus in enumerate(itf):
        rhs[len(pvpq) + pq_pos[bus], col] = 1.0
    try:
        dx = numkit.solve(J, rhs)
    except SingularMatrix as exc:
        raise SingularJacobian("reduced Jacobian singular") from exc
    dvm = np.zeros((len(case.buses), len(itf)))
    for i, bus in enumerate(pq):
        dvm[bus, :] = dx[len(pvpq) + i, :]
    return dvm[monitored_buses(case), :]


# ---------------------------------------------------------------------------
# TSO real-time dispatch
# ---------------------------------------------------------------------------

@dataclass
class TsoDispatch:
    q_req_mvar: dict            # interface bus id -> MVAr
    v_mag: np.ndarray
    objective: float
    outer_iterations: int
    pf_iterations: int
    trace: list = field(default_factory=list)


def _q_dict(case, itf_ids, q_pu):
    return {bus: float(qi * case.s_base_mva) for bus, qi in zip(itf_ids, q_pu)}


def tso_dispatch(case: TransmissionCase, envelopes: dict) -> TsoDispatch:
    """Box-constrained reactive dispatch by successive linearization.

    ``envelopes`` maps interface bus id (``str(bus)``, as in
    ``newton_powerflow``) to (q_lo, q_hi) in MVAr; an interface without
    one is pinned at 0.  Each outer iteration linearizes |V|(Q) with the
    reduced Jacobian, solves the quadratic model by projected gradient,
    then re-runs the power flow; a bisection backtrack enforces a
    non-increasing true objective.
    """
    itf_ids = [i.bus for i in case.interfaces]
    by_bus = {str(bus): box for bus, box in envelopes.items()}
    if len(by_bus) < len(envelopes):
        raise ValidationError(f"two envelopes name one interface bus: {list(envelopes)}")
    for bus in by_bus:
        if bus not in itf_ids:
            raise ValidationError(f"envelope for unknown interface {bus}")
    lo = np.array([by_bus.get(b, (0.0, 0.0))[0] for b in itf_ids]) / case.s_base_mva
    hi = np.array([by_bus.get(b, (0.0, 0.0))[1] for b in itf_ids]) / case.s_base_mva
    if np.any(lo > hi):
        raise ValidationError("envelope lower bound above upper bound")
    mon = monitored_buses(case)
    pf_iters = 0

    def evaluate(q):
        """Power flow at interface injections ``q`` (pu) and its objective."""
        nonlocal pf_iters
        pf = newton_powerflow(case, _q_dict(case, itf_ids, q))
        pf_iters += pf.iterations
        dev = pf.v_mag[mon] - V_SETPOINT
        return pf, float(C_V * np.sum(dev ** 2) + C_Q * np.sum(q ** 2))

    q = np.clip(np.zeros(len(itf_ids)), lo, hi)
    pf, obj = evaluate(q)
    trace = [obj]

    outer = 0
    for outer in range(1, MAX_OUTER + 1):
        sens = vq_sensitivity(case, pf)
        v0 = pf.v_mag[mon]
        q_prev, obj_prev, pf_prev = q.copy(), obj, pf

        x = q.copy()
        lip = 2.0 * (C_V * np.linalg.norm(sens, 2) ** 2 + C_Q)
        step = 1.0 / max(lip, 1e-12)
        for _ in range(10_000):
            v_model = v0 + sens @ (x - q_prev)
            grad = 2.0 * C_V * (sens.T @ (v_model - V_SETPOINT)) + 2.0 * C_Q * x
            x_new = np.clip(x - step * grad, lo, hi)
            if np.max(np.abs(x_new - x)) < 1e-8:
                x = x_new
                break
            x = x_new
        if np.array_equal(x, q_prev):   # the model step stays put: q_prev is the answer
            trace.append(obj)
            break

        q = x
        pf, obj = evaluate(q)
        backtracks = 0
        while obj > obj_prev + 1e-12 and backtracks < 12:
            q = 0.5 * (q + q_prev)
            pf, obj = evaluate(q)
            backtracks += 1
        if obj > obj_prev + 1e-12:   # no backtrack helped: stay at q_prev
            q, obj, pf = q_prev, obj_prev, pf_prev
            trace.append(obj)
            break
        trace.append(obj)
        if np.max(np.abs(q - q_prev)) < OUTER_TOL:
            break

    return TsoDispatch(_q_dict(case, itf_ids, q), pf.v_mag, obj, outer, pf_iters, trace)
