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
# each mode's (input, output): "v" terminal voltage, "p"/"q" active/reactive power
MODE_IO = {VOLT_VAR: ("v", "q"), VOLT_WATT: ("v", "p"), WATT_VAR: ("p", "q")}
ENCODINGS = ("sos1", "bigm")   # the droop-mode encodings encode_modes builds
SEGMENT_TOL = 1e-9   # how far segment_through lets a point miss a segment's law and domain

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
        values = (self.s_rated, self.p_max, self.q_max, self.p_min, self.q_min,
                  self.m_pq, self.b_pq)
        if not np.all(np.isfinite(values)):
            raise ValidationError(f"{self.inverter_id}: ratings and slope must be finite")
        if self.s_rated <= 0:
            raise ValidationError(f"{self.inverter_id}: s_rated must be positive")
        if not self.p_min <= self.p_max <= self.s_rated:
            raise ValidationError(f"{self.inverter_id}: need p_min <= p_max <= s_rated")
        # the curves divide by p_max, and the stage models bound q by [q_min, q_max]
        if self.p_max <= 0:
            raise ValidationError(f"{self.inverter_id}: p_max must be positive")
        if self.q_min > self.q_max:
            raise ValidationError(f"{self.inverter_id}: need q_min <= q_max")
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


def segment_through(curve: DroopCurve, x_in: float, x_out: float):
    """The first segment whose law passes through (x_in, x_out) at some
    setting in range, as (segment index, setting); None when there is none.

    Each condition of a segment is linear in the setting s: its domain
    lo(s) <= x_in <= hi(s) and its value |slope * x_in + offset(s) - x_out|,
    each to ``SEGMENT_TOL``, and the range.  Together they leave an
    interval of s, and the setting returned is its midpoint: the setting
    the value pins when the offset moves with s, else one clear of the
    domain's ends."""
    for k, seg in enumerate(curve.segments):
        resid = x_out - seg.slope * x_in - seg.offset.const   # = offset.per_setting * s
        s_lo, s_hi = curve.setting_min, curve.setting_max
        # each (a, b) stands for a * s <= b
        for a, b in ((seg.lo.per_setting, x_in + SEGMENT_TOL - seg.lo.const),
                     (-seg.hi.per_setting, seg.hi.const - x_in + SEGMENT_TOL),
                     (seg.offset.per_setting, resid + SEGMENT_TOL),
                     (-seg.offset.per_setting, SEGMENT_TOL - resid)):
            if a > 0.0:
                s_hi = min(s_hi, b / a)
            elif a < 0.0:
                s_lo = max(s_lo, b / a)
            elif b < 0.0:
                s_lo = np.inf
        if s_lo <= s_hi:
            return k, 0.5 * (s_lo + s_hi)
    return None


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


def add_capability_rows(model: milp.MilpModel, spec: InverterSpec, p_id: int, q_id: int,
                        sfx: str):
    """Capability rows of one DER over its (P, Q) variables.

    The boxes live on the variable bounds.  Every other row is emitted;
    the solver keeps out of its LP those that the variable boxes already
    satisfy.
    """
    for row in capability_constraints(spec):
        if row.name.startswith("box"):
            continue
        model.add_constraint({p_id: row.coef_p, q_id: row.coef_q},
                             row.sense, row.rhs, name=f"cap_{row.name}_{sfx}")


# ---------------------------------------------------------------------------
# MILP encodings
# ---------------------------------------------------------------------------

@dataclass
class DroopEncoding:
    mode: str
    setting_id: int
    indicator_ids: list[int]
    mode_var: int | None = None   # sos1: the mode's variable, which its indicators sum to


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
    """Domain and value rows for every segment, with per-row tight M.

    A row whose tight M is 0 holds over the variable boxes whatever its
    indicator is; it is emitted all the same, and the solver keeps it
    out of its LP, as it does every row the boxes already satisfy."""
    in_lo, in_hi = _bounds(model, input_id)
    out_lo, out_hi = _bounds(model, output_id)
    s_lo, s_hi = _bounds(model, setting_id)
    for seg, z in zip(curve.segments, indicator_ids):
        # input >= lo(s) when z = 1
        m_dom_lo = max(0.0, seg.lo.const +
                       _interval_max([(seg.lo.per_setting, s_lo, s_hi)]) - in_lo)
        model.add_constraint(
            {input_id: 1.0, setting_id: -seg.lo.per_setting, z: -m_dom_lo},
            milp.GE, seg.lo.const - m_dom_lo)
        # input <= hi(s) when z = 1
        m_dom_hi = max(0.0, in_hi - (seg.hi.const +
                                     _interval_min([(seg.hi.per_setting, s_lo, s_hi)])))
        model.add_constraint(
            {input_id: 1.0, setting_id: -seg.hi.per_setting, z: m_dom_hi},
            milp.LE, seg.hi.const + m_dom_hi)
        # output >= m*input + b(s) when z = 1
        m_val_lo = max(0.0, _interval_max([
            (seg.slope, in_lo, in_hi), (seg.offset.per_setting, s_lo, s_hi),
            (-1.0, out_lo, out_hi)]) + seg.offset.const)
        model.add_constraint(
            {output_id: 1.0, input_id: -seg.slope,
             setting_id: -seg.offset.per_setting, z: -m_val_lo},
            milp.GE, seg.offset.const - m_val_lo)
        # output <= m*input + b(s) when z = 1
        m_val_hi = max(0.0, _interval_max([
            (-seg.slope, in_lo, in_hi), (-seg.offset.per_setting, s_lo, s_hi),
            (1.0, out_lo, out_hi)]) - seg.offset.const)
        model.add_constraint(
            {output_id: 1.0, input_id: -seg.slope,
             setting_id: -seg.offset.per_setting, z: m_val_hi},
            milp.LE, seg.offset.const + m_val_hi)


def encode_bigM(curve: DroopCurve, model: milp.MilpModel, input_id: int, output_id: int,
                setting_id: int, tag: str = "") -> DroopEncoding:
    """Big-M encoding with binary segment indicators.

    Each segment contributes a two-sided domain row pair and a two-sided
    value row pair; M is the maximum violation of each row over the
    variable boxes (per-row tight M).  Exclusivity comes from
    :func:`mode_exclusivity` over every mode of the DER.
    """
    zs = [model.add_variable(kind=milp.BINARY, name=f"{tag}{curve.mode}_z{l}")
          for l in range(len(curve.segments))]
    _segment_rows(model, curve, input_id, output_id, setting_id, zs)
    return DroopEncoding(curve.mode, setting_id, zs)


def encode_sos1(curve: DroopCurve, model: milp.MilpModel, input_id: int, output_id: int,
                setting_id: int, mode_var: int, tag: str = "") -> DroopEncoding:
    """SOS1 encoding: continuous indicators in an SOS1 set.

    The continuous feasible set matches :func:`encode_bigM`; exclusivity
    comes from the SOS1 set plus a linking row that makes the indicators
    sum to ``mode_var`` (hierarchical mode selection).
    """
    zs = [model.add_variable(0.0, 1.0, name=f"{tag}{curve.mode}_z{l}")
          for l in range(len(curve.segments))]
    _segment_rows(model, curve, input_id, output_id, setting_id, zs)
    model.add_sos1(zs)
    link = dict.fromkeys(zs, 1.0)
    link[mode_var] = -1.0
    model.add_constraint(link, milp.EQ, 0.0)
    return DroopEncoding(curve.mode, setting_id, zs, mode_var)


def mode_exclusivity(model: milp.MilpModel, encodings: list[DroopEncoding]) -> int:
    """One sum-to-one row over every segment indicator of a DER's encodings."""
    zs = [z for e in encodings for z in e.indicator_ids]
    return model.add_constraint(dict.fromkeys(zs, 1.0), milp.EQ, 1.0)


def encode_modes(model: milp.MilpModel, curves: dict, ids: dict, encoding: str,
                 sfx: str) -> dict:
    """Every droop mode of one DER, one of them active; returns mode -> DroopEncoding.

    ``ids`` maps ``"v"``, ``"p"`` and ``"q"`` to the DER's variable ids,
    which :data:`MODE_IO` wires to each mode's input and output.  sos1:
    one continuous variable per mode, summing to one in an SOS1 set that
    is registered before the per-mode segment sets so branching resolves
    the hierarchy top-down.  bigm: one sum-to-one row over all of the
    DER's binaries.  Any other encoding raises ``ValueError``.
    """
    if encoding not in ENCODINGS:
        raise ValueError(f"unknown encoding {encoding!r}; have {ENCODINGS}")
    sos = encoding == "sos1"
    if sos:
        mode_vars = {mode: model.add_variable(0.0, 1.0, name=f"s_{mode}_{sfx}")
                     for mode in MODES}
        model.add_constraint(dict.fromkeys(mode_vars.values(), 1.0), milp.EQ, 1.0,
                             name=f"mode_excl_{sfx}")
        model.add_sos1(list(mode_vars.values()))
    encodings = {}
    for mode in MODES:
        curve = curves[mode]
        iid, oid = (ids[k] for k in MODE_IO[mode])
        set_id = model.add_variable(curve.setting_min, curve.setting_max,
                                    name=f"set_{mode}_{sfx}")
        if sos:
            encodings[mode] = encode_sos1(curve, model, iid, oid, set_id,
                                          mode_vars[mode], tag=f"{sfx}_")
        else:
            encodings[mode] = encode_bigM(curve, model, iid, oid, set_id, tag=f"{sfx}_")
    if not sos:
        mode_exclusivity(model, list(encodings.values()))
    return encodings
