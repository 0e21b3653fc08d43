"""Inverter capability region and droop-mode control curves.

Power quantities inside this module are in device per-unit (fractions
of the inverter apparent-power rating); voltages are grid per-unit.
Each droop curve is a continuous piecewise-linear law whose segment
offsets and domain breakpoints are affine in a single setting variable,
so the MILP encodings stay linear when the setting is a decision.

Curve shapes follow IEEE-1547 category-B style defaults: volt-var and
watt-var use five segments (saturation / ramp / deadband / ramp /
saturation), volt-watt uses three (full output / ramp / floor).  Slopes
are fixed; only the offsets move with the setting.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import milp
from .errors import InvalidProfile, ValidationError

VOLT_VAR = "volt_var"
VOLT_WATT = "volt_watt"
WATT_VAR = "watt_var"
MODES = (VOLT_VAR, VOLT_WATT, WATT_VAR)

DEFAULT_PROFILE = {
    "vv": {"v1": 0.92, "v2": 0.98, "v3": 1.02, "v4": 1.08, "q_frac": 0.44,
           "v_ref": 1.0, "set_min": 0.01, "set_max": 0.05},
    "vw": {"v1": 1.06, "v2": 1.10, "p_floor_frac": 0.2,
           "set_min": 1.02, "set_max": 1.08},
    "wv": {"p2_frac": 0.5, "p3_frac": 1.0, "q_frac": -0.44,
           "set_min": 0.2, "set_max": 0.8},
}


@dataclass(frozen=True)
class InverterSpec:
    """Ratings and capability-slope parameters of one smart inverter."""

    inverter_id: str
    s_rated: float            # kVA
    p_max: float              # kW
    q_max: float              # kvar
    p_min: float = 0.0        # kW
    q_min: float | None = None  # kvar, defaults to -q_max
    m_pq: float = 2.2         # dimensionless active-power priority slope
    b_pq: float = 0.0         # kvar offset of the slope rows

    def __post_init__(self):
        if self.q_min is None:
            object.__setattr__(self, "q_min", -self.q_max)
        if self.s_rated <= 0:
            raise ValidationError(f"{self.inverter_id}: s_rated must be positive")
        if not self.p_min <= self.p_max <= self.s_rated:
            raise ValidationError(f"{self.inverter_id}: need p_min <= p_max <= s_rated")
        if abs(self.q_min) > self.s_rated or abs(self.q_max) > self.s_rated:
            raise ValidationError(f"{self.inverter_id}: |q| limits exceed s_rated")

    @property
    def p_max_pu(self):
        return self.p_max / self.s_rated

    @property
    def p_min_pu(self):
        return self.p_min / self.s_rated

    @property
    def q_max_pu(self):
        return self.q_max / self.s_rated

    @property
    def q_min_pu(self):
        return self.q_min / self.s_rated

    @property
    def b_pq_pu(self):
        return self.b_pq / self.s_rated


@dataclass(frozen=True)
class Affine:
    """Scalar affine form const + per_setting * setting."""

    const: float
    per_setting: float = 0.0

    def at(self, setting: float) -> float:
        return self.const + self.per_setting * setting


@dataclass(frozen=True)
class Segment:
    lo: Affine
    hi: Affine
    slope: float
    offset: Affine


@dataclass(frozen=True)
class DroopCurve:
    """Piecewise-linear control law with a single tunable setting."""

    mode: str
    segments: tuple[Segment, ...]
    setting: float
    setting_min: float
    setting_max: float

    def with_setting(self, value: float) -> "DroopCurve":
        if not self.setting_min - 1e-9 <= value <= self.setting_max + 1e-9:
            raise ValueError(f"setting {value} outside "
                             f"[{self.setting_min}, {self.setting_max}]")
        return replace(self, setting=float(value))

    def segment_values(self):
        """Materialize (domain_lo, domain_hi, slope, offset) at the current setting."""
        s = self.setting
        return [(seg.lo.at(s), seg.hi.at(s), seg.slope, seg.offset.at(s))
                for seg in self.segments]


def _check_monotone(points, what):
    arr = np.asarray(points, dtype=float)
    if np.any(np.diff(arr) <= 0):
        raise InvalidProfile(f"{what} breakpoints must be strictly increasing: {points}")


def make_default_curve(mode: str, spec: InverterSpec, profile: dict | None = None) -> DroopCurve:
    """Build the mode's curve from a standard profile.

    The profile supplies numeric breakpoints and extremes; they are
    configuration defaults, not normative values.  Offsets and domain
    breakpoints are stored as affine functions of the setting variable
    (deadband half-width for volt-var, curtailment knee for volt-watt,
    deadband edge for watt-var).
    """
    prof = profile or DEFAULT_PROFILE
    if mode == VOLT_VAR:
        p = {**DEFAULT_PROFILE["vv"], **prof.get("vv", {})}
        _check_monotone([p["v1"], p["v2"], p["v3"], p["v4"]], "volt-var")
        v_ref = p["v_ref"]
        q_ext = p["q_frac"]
        w_lo = p["v2"] - p["v1"]
        w_hi = p["v4"] - p["v3"]
        m_lo = -q_ext / w_lo
        m_hi = -q_ext / w_hi
        dom_lo, dom_hi = 0.0, 2.0
        segs = (
            Segment(Affine(dom_lo), Affine(v_ref - w_lo, -1.0), 0.0, Affine(q_ext)),
            Segment(Affine(v_ref - w_lo, -1.0), Affine(v_ref, -1.0),
                    m_lo, Affine(-m_lo * v_ref, m_lo)),
            Segment(Affine(v_ref, -1.0), Affine(v_ref, 1.0), 0.0, Affine(0.0)),
            Segment(Affine(v_ref, 1.0), Affine(v_ref + w_hi, 1.0),
                    m_hi, Affine(-m_hi * v_ref, -m_hi)),
            Segment(Affine(v_ref + w_hi, 1.0), Affine(dom_hi), 0.0, Affine(-q_ext)),
        )
        return DroopCurve(mode, segs, p["v3"] - v_ref, p["set_min"], p["set_max"])

    if mode == VOLT_WATT:
        p = {**DEFAULT_PROFILE["vw"], **prof.get("vw", {})}
        _check_monotone([p["v1"], p["v2"]], "volt-watt")
        width = p["v2"] - p["v1"]
        p_top = spec.p_max_pu
        p_floor = p["p_floor_frac"] * spec.p_max_pu
        m = -(p_top - p_floor) / width
        segs = (
            Segment(Affine(0.0), Affine(0.0, 1.0), 0.0, Affine(p_top)),
            Segment(Affine(0.0, 1.0), Affine(width, 1.0), m, Affine(p_top, -m)),
            Segment(Affine(width, 1.0), Affine(2.0), 0.0, Affine(p_floor)),
        )
        return DroopCurve(mode, segs, p["v1"], p["set_min"], p["set_max"])

    if mode == WATT_VAR:
        p = {**DEFAULT_PROFILE["wv"], **prof.get("wv", {})}
        _check_monotone([p["p2_frac"], p["p3_frac"]], "watt-var")
        r = spec.p_max_pu
        gap = (p["p3_frac"] - p["p2_frac"]) * r
        q3 = p["q_frac"]
        m = q3 / gap
        dom = 1.5
        segs = (
            Segment(Affine(-dom), Affine(-gap, -r), 0.0, Affine(-q3)),
            Segment(Affine(-gap, -r), Affine(0.0, -r), m, Affine(0.0, m * r)),
            Segment(Affine(0.0, -r), Affine(0.0, r), 0.0, Affine(0.0)),
            Segment(Affine(0.0, r), Affine(gap, r), m, Affine(0.0, -m * r)),
            Segment(Affine(gap, r), Affine(dom), 0.0, Affine(q3)),
        )
        return DroopCurve(mode, segs, p["p2_frac"], p["set_min"], p["set_max"])

    raise ValueError(f"unknown mode {mode!r}")


def make_curve_set(spec: InverterSpec, profile: dict | None = None) -> dict:
    return {mode: make_default_curve(mode, spec, profile) for mode in MODES}


def active_segment(curve: DroopCurve, value: float) -> int:
    """Index of the segment containing ``value`` (ties go to the left segment)."""
    segs = curve.segment_values()
    x = min(max(value, segs[0][0]), segs[-1][1])
    for k, (lo, hi, _, _) in enumerate(segs):
        if x <= hi + 1e-12:
            return k
    return len(segs) - 1


def evaluate_droop(curve: DroopCurve, value: float) -> float:
    """Local-controller response: output on the segment containing ``value``.

    Inputs outside the curve domain are clamped onto the end segments.
    """
    segs = curve.segment_values()
    x = min(max(value, segs[0][0]), segs[-1][1])
    lo, hi, m, b = segs[active_segment(curve, value)]
    return m * x + b


# ---------------------------------------------------------------------------
# capability region (device per-unit)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CapabilityRow:
    name: str
    coef_p: float
    coef_q: float
    sense: str
    rhs: float

    def holds(self, p, q, tol=1e-6):
        v = self.coef_p * p + self.coef_q * q
        return v <= self.rhs + tol if self.sense == milp.LE else v >= self.rhs - tol


def capability_constraints(spec: InverterSpec) -> list[CapabilityRow]:
    """Linearized capability rows over (P, Q) in device per-unit.

    Two active-power-priority slope rows, four box rows, and the
    8-tangent polygon replacing the apparent-power circle (each tangent
    contributes both senses).  The tangent angles fan across
    +/- asin(q_max / s_rated).
    """
    rows = [
        CapabilityRow("slope_hi", -spec.m_pq, 1.0, milp.LE, spec.b_pq_pu),
        CapabilityRow("slope_lo", spec.m_pq, 1.0, milp.GE, -spec.b_pq_pu),
        CapabilityRow("box_p_hi", 1.0, 0.0, milp.LE, spec.p_max_pu),
        CapabilityRow("box_p_lo", 1.0, 0.0, milp.GE, spec.p_min_pu),
        CapabilityRow("box_q_hi", 0.0, 1.0, milp.LE, spec.q_max_pu),
        CapabilityRow("box_q_lo", 0.0, 1.0, milp.GE, spec.q_min_pu),
    ]
    half_angle = np.arcsin(min(1.0, abs(spec.q_max) / spec.s_rated))
    for l in range(8):
        gamma = (2.0 * l / 7.0 - 1.0) * half_angle
        cg, sg = np.cos(gamma), np.sin(gamma)
        rows.append(CapabilityRow(f"poly{l}_hi", cg, sg, milp.LE, 1.0))
        rows.append(CapabilityRow(f"poly{l}_lo", cg, sg, milp.GE, -1.0))
    return rows


def satisfies_capability(spec: InverterSpec, p_pu: float, q_pu: float, tol=1e-6) -> bool:
    return all(row.holds(p_pu, q_pu, tol) for row in capability_constraints(spec))


# ---------------------------------------------------------------------------
# MILP encodings
# ---------------------------------------------------------------------------

@dataclass
class DroopEncoding:
    mode: str
    input_id: int
    output_id: int
    setting_id: int
    indicator_ids: list[int]
    constraint_ids: list[int]
    mode_var: int | None = None
    sos_ids: list[int] | None = None
    uses_sos: bool = False


def _interval_max(terms):
    """Max of sum(coef * x) over per-term [lo, hi] boxes."""
    total = 0.0
    for coef, lo, hi in terms:
        total += coef * (hi if coef > 0 else lo)
    return total


def _interval_min(terms):
    return -_interval_max([(-c, lo, hi) for c, lo, hi in terms])


def _bounds(model, vid):
    v = model.variables[vid]
    if not (np.isfinite(v.lo) and np.isfinite(v.hi)):
        raise ValueError(f"variable {v.name} needs finite bounds for Big-M rows")
    return v.lo, v.hi


def _segment_rows(model, curve, input_id, output_id, setting_id, indicator_ids):
    """Domain and value rows for every segment, with per-row tight M."""
    in_lo, in_hi = _bounds(model, input_id)
    out_lo, out_hi = _bounds(model, output_id)
    s_lo, s_hi = _bounds(model, setting_id)
    cids = []
    for seg, z in zip(curve.segments, indicator_ids):
        # input >= lo(s) when z = 1
        m_dom_lo = max(0.0, seg.lo.const +
                       _interval_max([(seg.lo.per_setting, s_lo, s_hi)]) - in_lo)
        cids.append(model.add_constraint(
            {input_id: 1.0, setting_id: -seg.lo.per_setting, z: -m_dom_lo},
            milp.GE, seg.lo.const - m_dom_lo))
        # input <= hi(s) when z = 1
        m_dom_hi = max(0.0, in_hi - (seg.hi.const +
                                     _interval_min([(seg.hi.per_setting, s_lo, s_hi)])))
        cids.append(model.add_constraint(
            {input_id: 1.0, setting_id: -seg.hi.per_setting, z: m_dom_hi},
            milp.LE, seg.hi.const + m_dom_hi))
        # output >= m*input + b(s) when z = 1
        m_val_lo = max(0.0, _interval_max([
            (seg.slope, in_lo, in_hi), (seg.offset.per_setting, s_lo, s_hi),
            (-1.0, out_lo, out_hi)]) + seg.offset.const)
        cids.append(model.add_constraint(
            {output_id: 1.0, input_id: -seg.slope,
             setting_id: -seg.offset.per_setting, z: -m_val_lo},
            milp.GE, seg.offset.const - m_val_lo))
        # output <= m*input + b(s) when z = 1
        m_val_hi = max(0.0, _interval_max([
            (-seg.slope, in_lo, in_hi), (-seg.offset.per_setting, s_lo, s_hi),
            (1.0, out_lo, out_hi)]) - seg.offset.const)
        cids.append(model.add_constraint(
            {output_id: 1.0, input_id: -seg.slope,
             setting_id: -seg.offset.per_setting, z: m_val_hi},
            milp.LE, seg.offset.const + m_val_hi))
    return cids


def _make_setting_var(model, curve, name):
    return model.add_variable(curve.setting_min, curve.setting_max, name=name)


def encode_bigM(curve: DroopCurve, spec: InverterSpec, model: milp.MilpModel,
                input_id: int, output_id: int, setting_id: int | None = None,
                add_exclusivity: bool = True, tag: str = "") -> DroopEncoding:
    """Big-M encoding with binary segment indicators.

    Each segment contributes a two-sided domain row pair and a two-sided
    value row pair; M is the maximum violation of each row over the
    variable boxes (per-row tight M).  With ``add_exclusivity`` a
    sum-to-one row over this curve's indicators is appended; leave it
    off when composing several modes under a joint exclusivity row.
    """
    if setting_id is None:
        setting_id = _make_setting_var(model, curve, f"{tag}{curve.mode}_set")
    zs = [model.add_variable(kind=milp.BINARY, name=f"{tag}{curve.mode}_z{l}")
          for l in range(len(curve.segments))]
    cids = _segment_rows(model, curve, input_id, output_id, setting_id, zs)
    if add_exclusivity:
        cids.append(model.add_constraint({z: 1.0 for z in zs}, milp.EQ, 1.0))
    return DroopEncoding(curve.mode, input_id, output_id, setting_id, zs, cids)


def encode_sos1(curve: DroopCurve, spec: InverterSpec, model: milp.MilpModel,
                input_id: int, output_id: int, setting_id: int | None = None,
                mode_var: int | None = None, add_exclusivity: bool = True,
                tag: str = "") -> DroopEncoding:
    """SOS1 encoding: continuous indicators in an SOS1 set.

    The continuous feasible set matches :func:`encode_bigM`; exclusivity
    comes from the SOS1 set plus either a sum-to-one row (standalone) or
    a linking row onto ``mode_var`` (hierarchical mode selection).
    """
    if setting_id is None:
        setting_id = _make_setting_var(model, curve, f"{tag}{curve.mode}_set")
    zs = [model.add_variable(0.0, 1.0, name=f"{tag}{curve.mode}_z{l}")
          for l in range(len(curve.segments))]
    cids = _segment_rows(model, curve, input_id, output_id, setting_id, zs)
    sos = [model.add_sos1(zs)]
    if mode_var is not None:
        link = dict.fromkeys(zs, 1.0)
        link[mode_var] = -1.0
        cids.append(model.add_constraint(link, milp.EQ, 0.0))
    elif add_exclusivity:
        cids.append(model.add_constraint({z: 1.0 for z in zs}, milp.EQ, 1.0))
    return DroopEncoding(curve.mode, input_id, output_id, setting_id, zs, cids,
                         mode_var=mode_var, sos_ids=sos, uses_sos=True)


def mode_exclusivity(model: milp.MilpModel, encodings: list[DroopEncoding]):
    """One-of-all-modes constraint across a DER's encodings.

    Binary variant: a single sum-to-one row over every segment indicator.
    SOS variant: sum-to-one over the mode variables plus an SOS1 set on
    them (segment indicators are already linked to their mode variable).
    """
    if all(e.uses_sos for e in encodings):
        mode_vars = [e.mode_var for e in encodings]
        if any(v is None for v in mode_vars):
            raise ValueError("SOS encodings need mode_var for hierarchical exclusivity")
        cid = model.add_constraint(dict.fromkeys(mode_vars, 1.0), milp.EQ, 1.0)
        sid = model.add_sos1(mode_vars)
        return cid, sid
    zs = [z for e in encodings for z in e.indicator_ids]
    cid = model.add_constraint(dict.fromkeys(zs, 1.0), milp.EQ, 1.0)
    return cid, None
