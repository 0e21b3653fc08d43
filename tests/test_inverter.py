import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridcoord import inverter, milp
from gridcoord.errors import InvalidProfile, ValidationError


SPEC = inverter.InverterSpec("inv1", s_rated=330.0, p_max=300.0, q_max=145.2)


def single_curve(curve, encoding="bigm", out_lo=-1.0, out_hi=1.0):
    """One curve on fresh input, output and setting variables, its
    indicators summing to one; returns (model, vin, vout, encoding)."""
    m = milp.MilpModel()
    vin = m.add_variable(0.85, 1.15, name="vin")
    vout = m.add_variable(out_lo, out_hi, name="vout")
    set_id = m.add_variable(curve.setting_min, curve.setting_max, name="set")
    if encoding == "sos1":
        mode_var = m.add_variable(0.0, 1.0, name="mode")
        enc = inverter.encode_sos1(curve, m, vin, vout, set_id, mode_var)
    else:
        enc = inverter.encode_bigM(curve, m, vin, vout, set_id)
    inverter.mode_exclusivity(m, [enc])
    return m, vin, vout, enc


def three_modes(encoding):
    """One DER's three modes as the stages build them; returns (model,
    variable ids by "v"/"p"/"q", mode -> DroopEncoding)."""
    m = milp.MilpModel()
    ids = {"v": m.add_variable(0.85, 1.15, name="v"),
           "p": m.add_variable(0.0, SPEC.p_max_pu, name="p"),
           "q": m.add_variable(SPEC.q_min_pu, SPEC.q_max_pu, name="q")}
    encs = inverter.encode_modes(m, inverter.make_curve_set(SPEC), ids, encoding, "d0")
    return m, ids, encs


@pytest.mark.parametrize("encoding", ["SOS1", "big-m", ""])
def test_encode_modes_rejects_unknown_encoding(encoding):
    with pytest.raises(ValueError, match="unknown encoding"):
        three_modes(encoding)


def test_dispatch_shares_the_encoding_names():
    from gridcoord import dso_dispatch
    assert dso_dispatch.ENCODINGS is inverter.ENCODINGS == ("sos1", "bigm")


def var_id(model, name):
    return next(i for i, v in enumerate(model.variables) if v.name == name)


class TestInverterSpec:
    def test_pu_properties(self):
        assert SPEC.p_max_pu == pytest.approx(300.0 / 330.0)
        assert SPEC.q_min == pytest.approx(-145.2)
        assert SPEC.q_max_pu == pytest.approx(0.44)

    def test_invalid_ratings(self):
        with pytest.raises(ValidationError):
            inverter.InverterSpec("bad", s_rated=100.0, p_max=150.0, q_max=40.0)
        with pytest.raises(ValidationError):
            inverter.InverterSpec("bad", s_rated=-1.0, p_max=0.0, q_max=0.0)

    @pytest.mark.parametrize("fields, match", [
        ({"p_max": 0.0}, "p_max must be positive"),
        ({"p_max": -5.0, "p_min": -10.0}, "p_max must be positive"),
        ({"q_min": 20.0, "q_max": 10.0}, "q_min <= q_max"),
        ({"q_max": -40.0}, "q_min <= q_max"),   # the default q_min = -q_max
    ], ids=["p_max-zero", "p_max-negative", "q_min-above-q_max", "q_max-negative"])
    def test_unusable_ratings_rejected(self, fields, match):
        """Ratings the curves (which divide by p_max) and the stage
        models (q in [q_min, q_max]) cannot use."""
        args = {"s_rated": 100.0, "p_max": 50.0, "q_max": 40.0, **fields}
        with pytest.raises(ValidationError, match=match):
            inverter.InverterSpec("x", **args)

    @pytest.mark.parametrize("fields", [
        {"q_max": np.nan}, {"q_min": np.nan}, {"s_rated": np.inf},
        {"m_pq": np.nan}, {"b_pq": np.inf}, {"p_min": -np.inf},
    ], ids=["q_max-nan", "q_min-nan", "s_rated-inf", "m_pq-nan", "b_pq-inf", "p_min-inf"])
    def test_non_finite_fields_rejected(self, fields):
        args = {"s_rated": 100.0, "p_max": 50.0, "q_max": 40.0, **fields}
        with pytest.raises(ValidationError, match="finite"):
            inverter.InverterSpec("x", **args)


class TestCapability:
    def test_origin_satisfies_all_rows(self):
        assert inverter.satisfies_capability(SPEC, 0.0, 0.0)

    def test_slope_row_violation(self):
        # default m_pq = 2.2, b_pq = 0: Q = 0.25 S at P = 0.1 S exceeds 2.2 * P
        assert not inverter.satisfies_capability(SPEC, 0.1, 0.25)
        assert inverter.satisfies_capability(SPEC, 0.1, 0.20)

    def test_polygon_touches_circle_at_tangent_points(self):
        half = np.arcsin(SPEC.q_max / SPEC.s_rated)
        poly = [r for r in inverter.capability_constraints(SPEC) if r.name.startswith("poly")]
        for l in range(8):
            g = (2 * l / 7 - 1) * half
            p, q = np.cos(g), np.sin(g)
            # circle point is on the polygon boundary: feasible for every
            # tangent row, tight for its own, infeasible when pushed outward
            assert all(row.holds(p, q, tol=1e-9) for row in poly)
            own = next(r for r in poly if r.name == f"poly{l}_hi")
            assert own.coef_p * p + own.coef_q * q == pytest.approx(1.0, abs=1e-12)
            assert not all(row.holds(1.001 * p, 1.001 * q, tol=1e-9) for row in poly)

    def test_random_points_match_geometric_oracle(self):
        # independent re-derivation of the linearized region from the ratings
        rng = np.random.default_rng(42)
        half = np.arcsin(SPEC.q_max / SPEC.s_rated)
        angles = [(2 * l / 7 - 1) * half for l in range(8)]

        def oracle(p, q):
            if not (SPEC.p_min_pu <= p <= SPEC.p_max_pu):
                return False
            if not (SPEC.q_min_pu <= q <= SPEC.q_max_pu):
                return False
            if not (-SPEC.m_pq * p - SPEC.b_pq_pu <= q <= SPEC.m_pq * p + SPEC.b_pq_pu):
                return False
            return all(abs(np.cos(g) * p + np.sin(g) * q) <= 1.0 for g in angles)

        pts = rng.uniform([-0.2, -0.6], [1.2, 0.6], size=(10_000, 2))
        for p, q in pts:
            assert inverter.satisfies_capability(SPEC, p, q, tol=0.0) == oracle(p, q)


class TestCurves:
    def test_volt_var_shape(self):
        c = inverter.make_default_curve(inverter.VOLT_VAR, SPEC)
        assert inverter.evaluate_droop(c, 1.0) == pytest.approx(0.0)
        assert inverter.evaluate_droop(c, 0.90) == pytest.approx(0.44)
        assert inverter.evaluate_droop(c, 1.10) == pytest.approx(-0.44)

    def test_volt_watt_shape(self):
        c = inverter.make_default_curve(inverter.VOLT_WATT, SPEC)
        top = SPEC.p_max_pu
        assert inverter.evaluate_droop(c, 1.0) == pytest.approx(top)
        assert inverter.evaluate_droop(c, 1.06) == pytest.approx(top)
        mid = inverter.evaluate_droop(c, 1.08)
        assert 0.2 * top < mid < top
        assert inverter.evaluate_droop(c, 1.12) == pytest.approx(0.2 * top)

    def test_watt_var_shape(self):
        c = inverter.make_default_curve(inverter.WATT_VAR, SPEC)
        r = SPEC.p_max_pu
        assert inverter.evaluate_droop(c, 0.0) == pytest.approx(0.0)
        assert inverter.evaluate_droop(c, 0.4 * r) == pytest.approx(0.0)
        assert inverter.evaluate_droop(c, r) == pytest.approx(-0.44)
        assert inverter.evaluate_droop(c, -r) == pytest.approx(0.44)

    @pytest.mark.parametrize("mode", inverter.MODES)
    def test_breakpoint_continuity(self, mode):
        curve = inverter.make_default_curve(mode, SPEC)
        for s in np.linspace(curve.setting_min, curve.setting_max, 5):
            segs = curve.with_setting(s).segment_values()
            for (lo1, hi1, m1, b1), (lo2, hi2, m2, b2) in zip(segs, segs[1:]):
                assert hi1 == pytest.approx(lo2, abs=1e-12)
                assert m1 * hi1 + b1 == pytest.approx(m2 * lo2 + b2, abs=1e-9)

    @pytest.mark.parametrize("mode", inverter.MODES)
    def test_offsets_affine_in_setting(self, mode):
        curve = inverter.make_default_curve(mode, SPEC)
        s0, s1 = curve.setting_min, curve.setting_max
        mid = 0.5 * (s0 + s1)
        b_lo = [seg[3] for seg in curve.with_setting(s0).segment_values()]
        b_hi = [seg[3] for seg in curve.with_setting(s1).segment_values()]
        b_mid = [seg[3] for seg in curve.with_setting(mid).segment_values()]
        np.testing.assert_allclose(b_mid, 0.5 * (np.array(b_lo) + np.array(b_hi)), atol=1e-12)

    def test_non_monotone_profile_rejected(self):
        with pytest.raises(InvalidProfile):
            inverter.make_default_curve(
                inverter.VOLT_VAR, SPEC,
                {"vv": {"v1": 0.99, "v2": 0.98, "v3": 1.02, "v4": 1.08}})

    @pytest.mark.parametrize("profile", [
        [],
        [("vv", {})],
        "vv",
        {"vv": [0.92, 0.98]},
        {"vv": None},
        {"va": {}},
        {"vv": {"v0": 0.9}},
        {"wv": {"v1": 0.9}},
        {"vv": {"v1": "x"}},
        {"vv": {"q_frac": float("nan")}},
        {"vw": {"v2": float("inf")}},
        {"wv": {"q_frac": None}},
        {"vw": {"v1": True}},
        {"vv": {"set_min": 0.06}},
        {"wv": {"set_min": 0.8, "set_max": 0.2}},
    ], ids=["list", "pairs", "string", "entry-list", "entry-null", "unknown-mode",
            "unknown-parameter", "other-modes-parameter", "string-value", "nan-value",
            "inf-value", "null-value", "bool-value", "set-min-above-default-max",
            "set-min-above-set-max"])
    @pytest.mark.parametrize("mode", inverter.MODES)
    def test_unusable_profile_rejected(self, profile, mode):
        """A profile that is not a mapping of known modes to mappings of
        that mode's known parameters, each a finite number, with set_min
        <= set_max, raises ``InvalidProfile`` whichever mode is built.
        Unchecked, a set_min above set_max and a NaN reached the stage
        model as bare ``ValueError``s, a string value failed in float
        conversion and a list profile raised ``AttributeError``."""
        with pytest.raises(InvalidProfile):
            inverter.make_default_curve(mode, SPEC, profile)

    def test_partial_profile_takes_the_defaults(self):
        """A profile entry, or a whole mode, left out takes
        ``DEFAULT_PROFILE``'s values."""
        for mode in inverter.MODES:
            default = inverter.make_default_curve(mode, SPEC)
            assert inverter.make_default_curve(mode, SPEC, {}) == default
            assert inverter.make_default_curve(mode, SPEC, {"vv": {}}) == default
        curve = inverter.make_default_curve(inverter.VOLT_VAR, SPEC, {"vv": {"set_max": 0.04}})
        assert (curve.setting_min, curve.setting_max) == (0.01, 0.04)

    def test_setting_range_enforced(self):
        c = inverter.make_default_curve(inverter.VOLT_VAR, SPEC)
        with pytest.raises(ValueError):
            c.with_setting(0.5)

    def test_tie_resolves_to_left_segment(self):
        c = inverter.make_default_curve(inverter.VOLT_WATT, SPEC)
        v2 = c.segment_values()[1][1]
        assert inverter.active_segment(c, v2) == 1


class TestSegmentThrough:
    @pytest.mark.parametrize("mode", inverter.MODES)
    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_finds_every_point_of_the_law(self, mode, data):
        """Every point (x, evaluate_droop(curve at s, x)) with s in range and
        x in the curve's domain is found, and the segment and setting
        returned reproduce it within 1e-9."""
        curve = inverter.make_default_curve(mode, SPEC)
        s = data.draw(st.floats(curve.setting_min, curve.setting_max))
        segs = curve.with_setting(s).segment_values()
        x = data.draw(st.floats(segs[0][0], segs[-1][1]))
        y = inverter.evaluate_droop(curve.with_setting(s), x)
        hit = inverter.segment_through(curve, x, y)
        assert hit is not None
        k, setting = hit
        assert curve.setting_min <= setting <= curve.setting_max
        lo, hi, slope, offset = curve.with_setting(setting).segment_values()[k]
        assert lo - 1e-9 <= x <= hi + 1e-9
        assert abs(slope * x + offset - y) <= 1e-9

    @pytest.mark.parametrize("mode, x, y", [
        (inverter.VOLT_VAR, 1.04, 0.44),     # full injection above the deadband
        (inverter.VOLT_VAR, 1.0, 0.1),       # inside every deadband
        (inverter.VOLT_WATT, 1.0, 0.5),      # curtailed below every knee
        (inverter.WATT_VAR, 0.1, -0.2)])     # absorbing below every deadband edge
    def test_point_off_every_law_is_none(self, mode, x, y):
        curve = inverter.make_default_curve(mode, SPEC)
        assert inverter.segment_through(curve, x, y) is None
        # the point is off the law at every setting, not only the default
        for s in np.linspace(curve.setting_min, curve.setting_max, 41):
            assert abs(inverter.evaluate_droop(curve.with_setting(s), x) - y) > 1e-3


class TestBigMEncoding:
    def test_active_indicator_pins_output(self):
        curve = inverter.make_default_curve(inverter.VOLT_VAR, SPEC)
        for seg_idx in range(5):
            m, vin, vout, enc = single_curve(curve)
            m.fix_variable(enc.setting_id, curve.setting)
            for l, z in enumerate(enc.indicator_ids):
                m.fix_variable(z, 1.0 if l == seg_idx else 0.0)
            lo, hi, slope, b = curve.segment_values()[seg_idx]
            v_star = 0.5 * (max(lo, 0.85) + min(hi, 1.15))
            m.fix_variable(vin, v_star)
            m.set_objective(milp.MIN, {vout: 1.0})
            smin = milp.solve_lp(m)
            m.set_objective(milp.MAX, {vout: 1.0})
            smax = milp.solve_lp(m)
            assert smin.status == smax.status == milp.OPTIMAL
            assert smin.objective == pytest.approx(slope * v_star + b, abs=1e-7)
            assert smax.objective == pytest.approx(slope * v_star + b, abs=1e-7)

    def test_inactive_indicator_leaves_slack(self):
        curve = inverter.make_default_curve(inverter.VOLT_VAR, SPEC)
        m, vin, vout, enc = single_curve(curve)
        m.fix_variable(enc.setting_id, curve.setting)
        # deadband active, extreme input on segment 1's domain still feasible
        for l, z in enumerate(enc.indicator_ids):
            m.fix_variable(z, 1.0 if l == 2 else 0.0)
        m.fix_variable(vin, 1.0)
        m.set_objective(milp.MIN, {vout: 1.0})
        sol = milp.solve_lp(m)
        assert sol.status == milp.OPTIMAL
        assert sol.objective == pytest.approx(0.0, abs=1e-7)

    def test_enumeration_matches_curve_graph(self):
        curve = inverter.make_default_curve(inverter.VOLT_WATT, SPEC)
        for v in np.linspace(0.9, 1.14, 100):
            m, vin, vout, enc = single_curve(curve, out_lo=0.0, out_hi=1.0)
            m.fix_variable(enc.setting_id, curve.setting)
            m.fix_variable(vin, v)
            m.set_objective(milp.MIN, {vout: 1.0})
            lo_sol = milp.brute_force(m)
            m.set_objective(milp.MAX, {vout: 1.0})
            hi_sol = milp.brute_force(m)
            expect = inverter.evaluate_droop(curve, v)
            assert lo_sol.status == milp.OPTIMAL
            assert lo_sol.objective == pytest.approx(expect, abs=1e-6)
            assert hi_sol.objective == pytest.approx(expect, abs=1e-6)

    def test_evaluator_consistent_with_encoding(self):
        rng = np.random.default_rng(3)
        curve = inverter.make_default_curve(inverter.VOLT_VAR, SPEC)
        for _ in range(200):
            s = float(rng.uniform(curve.setting_min, curve.setting_max))
            v = float(rng.uniform(0.86, 1.14))
            cset = curve.with_setting(s)
            q = inverter.evaluate_droop(cset, v)
            seg = inverter.active_segment(cset, v)
            m, vin, vout, enc = single_curve(curve)
            m.fix_variable(enc.setting_id, s)
            m.fix_variable(vin, v)
            m.fix_variable(vout, q)
            for l, z in enumerate(enc.indicator_ids):
                m.fix_variable(z, 1.0 if l == seg else 0.0)
            m.set_objective(milp.MIN, {vout: 0.0})
            assert milp.solve_lp(m).status == milp.OPTIMAL


class TestSos1Encoding:
    def test_cross_encoding_objective_equality(self):
        curve = inverter.make_default_curve(inverter.VOLT_VAR, SPEC)
        objs = {}
        for encoding in ("bigm", "sos1"):
            m, vin, vout, _ = single_curve(curve, encoding)
            # trade off voltage against var output
            m.set_objective(milp.MAX, {vout: 1.0, vin: 0.1})
            sol = milp.solve_milp(m)
            assert sol.status == milp.OPTIMAL
            objs[encoding] = sol.objective
        assert objs["sos1"] == pytest.approx(objs["bigm"], abs=1e-6)

    def test_three_mode_sos_hierarchy(self):
        m, ids, encs = three_modes("sos1")
        mode_vars = {mode: var_id(m, f"s_{mode}_d0") for mode in inverter.MODES}
        m.set_objective(milp.MAX, {ids["p"]: 1.0})
        sol = milp.solve_milp(m)
        assert sol.status == milp.OPTIMAL
        active_modes = [mode for mode, mv in mode_vars.items() if sol.value(mv) > 1e-6]
        assert len(active_modes) == 1
        # each encoding records its mode's variable; Big-M has none
        assert {mode: e.mode_var for mode, e in encs.items()} == mode_vars
        assert all(e.mode_var is None for e in three_modes("bigm")[2].values())

    def test_forcing_watt_var_zeroes_other_modes(self):
        m, ids, encs = three_modes("sos1")
        m.fix_variable(var_id(m, f"s_{inverter.WATT_VAR}_d0"), 1.0)
        m.set_objective(milp.MAX, {ids["p"]: 1.0})
        sol = milp.solve_milp(m)
        assert sol.status == milp.OPTIMAL
        for enc in encs.values():
            if enc.mode != inverter.WATT_VAR:
                for z in enc.indicator_ids:
                    assert abs(sol.value(z)) <= 1e-8


class TestModeExclusivity:
    """Both encodings: one segment of one mode, as the stages build them."""

    def test_all_zero_indicators_infeasible(self):
        for encoding in ("bigm", "sos1"):
            m, _, encs = three_modes(encoding)
            for enc in encs.values():
                for z in enc.indicator_ids:
                    m.fix_variable(z, 0.0)
            m.set_objective(milp.MIN, {0: 0.0})
            assert milp.solve_lp(m).status == milp.INFEASIBLE, encoding

    def test_single_active_segment_feasible(self):
        for encoding in ("bigm", "sos1"):
            m, _, encs = three_modes(encoding)
            # volt-var deadband active, all other indicators zero
            for enc in encs.values():
                for l, z in enumerate(enc.indicator_ids):
                    value = 1.0 if (enc.mode == inverter.VOLT_VAR and l == 2) else 0.0
                    m.fix_variable(z, value)
            m.set_objective(milp.MIN, {0: 0.0})
            assert milp.solve_lp(m).status == milp.OPTIMAL, encoding

    def test_two_active_segments_across_modes_infeasible(self):
        for encoding in ("bigm", "sos1"):
            m, _, encs = three_modes(encoding)
            m.fix_variable(encs[inverter.VOLT_VAR].indicator_ids[2], 1.0)
            m.fix_variable(encs[inverter.VOLT_WATT].indicator_ids[0], 1.0)
            m.set_objective(milp.MIN, {0: 0.0})
            assert milp.solve_lp(m).status == milp.INFEASIBLE, encoding
