import dataclasses
import math

import numpy as np
import pytest

from gridcoord import data, feeder, numkit
from gridcoord import dso_dispatch as dd
from gridcoord.errors import (InvalidPartition, NoConvergence, ParseError, ValidationError)

from conftest import (three_bus_chain_dict, two_bus_dict,
                      unbalanced_four_bus_dict, z3)


PHASE_ANGLE = {"a": 0.0, "b": -2.0 * math.pi / 3.0, "c": 2.0 * math.pi / 3.0}


def four_bus_observing(ids):
    """The unbalanced four-bus feeder with ``ids`` as its observable list."""
    return feeder.load_feeder({**unbalanced_four_bus_dict(), "observable": list(ids)})


def hand_two_bus_vmag(z, s_load, v1=1.0):
    """Exact |V2| for a constant-power load on one line (quadratic in |V2|^2)."""
    r, x = z.real, z.imag
    p, q = s_load.real, s_load.imag
    # t^2 + (2(rp + xq) - v1^2) t + (r^2 + x^2)(p^2 + q^2) = 0, t = |V2|^2
    b = 2.0 * (r * p + x * q) - v1 ** 2
    c = (r * r + x * x) * (p * p + q * q)
    roots = np.roots([1.0, b, c])
    t = max(root.real for root in roots if abs(root.imag) < 1e-12)
    return np.sqrt(t)


def incidence(model):
    """The tree's reduced incidence matrices (M0, M) over line-phases: lines
    in file order, each with its downstream bus's phases.  M is node x
    line-phase, +1 on the upstream bus-phase and -1 on the downstream one;
    M0 is line-phase x substation-phase, +1 where the line leaves the
    substation."""
    sub = model.substation_bus
    cols = [(ol, p) for ol in model.oriented for p in ol.phases]
    M = np.zeros((model.n_nodes, len(cols)))
    M0 = np.zeros((len(cols), len(model.bus_phases[sub])))
    for col, (ol, p) in enumerate(cols):
        M[model.node_of(ol.down, p), col] = -1.0
        if ol.up == sub:
            M0[col, model.bus_phases[sub].index(p)] = 1.0
        else:
            M[model.node_of(ol.up, p), col] = 1.0
    return M0, M


def incidence_equivalents(model):
    """The reference equivalents Req, Xeq = M^-T ZP M^-1, M^-T ZQ M^-1: M
    from ``incidence``, inverted by ``numkit.solve_linear``, and ZP, ZQ
    built line by line over its line-phases."""
    _, M = incidence(model)
    n = model.n_nodes
    ZP = np.zeros((n, n))
    ZQ = np.zeros((n, n))
    pos = 0
    for ol in model.oriented:
        k = len(ol.phases)
        ang = np.array([PHASE_ANGLE[p] for p in ol.phases])
        g = np.exp(1j * (ang[:, None] - ang[None, :]))
        ZP[pos:pos + k, pos:pos + k] = 2.0 * np.real(g * np.conj(ol.z))
        ZQ[pos:pos + k, pos:pos + k] = -2.0 * np.imag(g * np.conj(ol.z))
        pos += k
    minv = numkit.solve_linear(M, np.eye(n))
    return minv.T @ ZP @ minv, minv.T @ ZQ @ minv


def assert_same_bits(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


class TestLoadFeeder:
    def test_two_bus_valid(self, two_bus_model):
        m = two_bus_model
        assert m.n_nodes == 1
        assert m.node_ids == ["b1.a"]
        assert m.p0[0] == pytest.approx(0.1)
        assert m.q0[0] == pytest.approx(0.05)

    def test_cycle_rejected(self):
        doc = three_bus_chain_dict()
        doc["lines"].append({"from": "e", "to": "s", "z": z3(z_aa=0.01 + 0.01j)})
        with pytest.raises(ValidationError):
            feeder.load_feeder(doc)

    def test_disconnected_rejected(self):
        doc = three_bus_chain_dict()
        doc["buses"].append({"id": "x", "phases": "a"})
        doc["lines"].append({"from": "m", "to": "e", "z": z3(z_aa=0.01j)})
        with pytest.raises(ValidationError):
            feeder.load_feeder(doc)

    def test_zip_sum_violation(self):
        doc = two_bus_dict(zip_coeffs=(0.5, 0.3, 0.1))
        with pytest.raises(ValidationError):
            feeder.load_feeder(doc)

    def test_dangling_der(self):
        doc = two_bus_dict()
        doc["ders"] = [{"bus": "nowhere", "phase": "a", "inverter_id": "i"}]
        with pytest.raises(ValidationError):
            feeder.load_feeder(doc)

    def test_unknown_observable_id(self):
        doc = two_bus_dict()
        doc["observable"] = ["b1.b"]   # make_partition relies on this check
        with pytest.raises(ValidationError, match="observable id b1.b"):
            feeder.load_feeder(doc)

    def test_missing_phase_fed_from_upstream(self):
        doc = two_bus_dict()
        doc["buses"][0]["phases"] = "b"  # substation no longer carries phase a
        doc["substation"]["y0"] = [1.0]
        with pytest.raises(ValidationError):
            feeder.load_feeder(doc)

    def test_repeated_phase_rejected(self):
        # unchecked, a substation "aa" took y0 [0.81, 1.21] as 1.21 alone
        doc = two_bus_dict()
        doc["buses"][0]["phases"] = "aa"
        doc["substation"]["y0"] = [0.81, 1.21]
        with pytest.raises(ValidationError, match="bad phase set 'aa'"):
            feeder.load_feeder(doc)

    def test_parse_error_on_garbage(self):
        with pytest.raises(ParseError):
            feeder.load_feeder("{not json")
        with pytest.raises(ParseError):
            feeder.load_feeder({"base": {}})

    @pytest.mark.parametrize("spoil", [
        lambda doc: doc["base"].update(s_kva="big"),
        lambda doc: doc["lines"][0]["z"][0].__setitem__(0, [0.01, 0.02, 0.03]),
    ], ids=["s_kva-string", "z-three-numbers"])
    def test_mistyped_field_is_parse_error(self, spoil):
        doc = two_bus_dict()
        spoil(doc)
        with pytest.raises(ParseError):
            feeder.load_feeder(doc)

    def test_load_scale(self):
        m = feeder.load_feeder(two_bus_dict(), load_scale=0.5)
        assert m.p0[0] == pytest.approx(0.05)

    @pytest.mark.parametrize("field, value, match", [
        ("y0", [1.0, math.nan, 1.0], "y0 of phase b"),
        ("y0", [1.0, 1.0, math.inf], "y0 of phase c"),
        ("y0", [1.0, 1.0, 1.0, 1.0], "y0 has 4 entries"),
        ("p_kw", math.nan, "non-finite"),
        ("p_kw", math.inf, "non-finite"),
        ("q_kvar", math.nan, "non-finite"),
        ("q_kvar", -math.inf, "non-finite"),
        ("a1", math.nan, "non-finite"),
        ("s_kva", 0.0, "s_kva"),
        ("s_kva", math.nan, "s_kva"),
        ("s_kva", -1000.0, "s_kva"),
        ("v_kv", math.nan, "v_kv"),
        ("v_kv", 0.0, "v_kv"),
    ], ids=["y0-nan", "y0-inf", "y0-long", "p_kw-nan", "p_kw-inf", "q_kvar-nan",
            "q_kvar-inf", "zip-nan", "s_kva-zero", "s_kva-nan", "s_kva-negative",
            "v_kv-nan", "v_kv-zero"])
    def test_unusable_value_rejected(self, field, value, match):
        """Unchecked, a non-finite y0 or load gives a non-finite K, a NaN
        ZIP fraction passes the sum check, s_kva = 0 raises a bare
        ZeroDivisionError and extra y0 entries are dropped."""
        doc = unbalanced_four_bus_dict()
        part = {"y0": doc["substation"], "s_kva": doc["base"],
                "v_kv": doc["base"]}.get(field, doc["loads"][0])
        part[field] = value
        with pytest.raises(ValidationError, match=match):
            feeder.load_feeder(doc)


class TestConnectivity:
    """The subtree matrix D against the tree's incidence matrix M:
    M^-1 = -D, so the equivalents need no solve."""

    def test_two_bus(self, two_bus_model):
        M0, M = incidence(two_bus_model)
        np.testing.assert_array_equal(M, [[-1.0]])
        np.testing.assert_array_equal(M0, [[1.0]])
        np.testing.assert_array_equal(two_bus_model.subtree, [[1.0]])

    def test_three_bus_chain_invertible(self):
        m = feeder.load_feeder(three_bus_chain_dict())
        _, M = incidence(m)
        # chain: strictly one -1 per column on the downstream node
        assert np.all(np.diag(M) == -1.0)
        np.testing.assert_array_equal(M @ -m.subtree, np.eye(m.n_nodes))

    def test_inverse_round_trip(self, four_bus_model):
        m = four_bus_model
        _, M = incidence(m)
        np.testing.assert_array_equal(M @ -m.subtree, np.eye(m.n_nodes))
        np.testing.assert_array_equal(-m.subtree @ M, np.eye(m.n_nodes))

    @pytest.mark.parametrize("scenario", data.list_scenarios())
    def test_inverse_is_minus_subtree(self, scenario):
        """On every bundled feeder, the loop LU's inverse of M is -D to the
        bit, signed zeros included."""
        m = data.load_scenario(scenario).feeder
        _, M = incidence(m)
        assert_same_bits(numkit.solve_linear(M, np.eye(m.n_nodes)), -m.subtree)

    def test_radial_substation_identity(self, four_bus_model):
        # -M^-T M0 Y0 = D^T M0 Y0 equals the per-node substation reference
        m = four_bus_model
        M0, _ = incidence(m)
        y0_sub = np.array([m.y0_sub[p] for p in m.bus_phases[m.substation_bus]])
        np.testing.assert_array_equal(m.subtree.T @ (M0 @ y0_sub), m.y0_node)


class TestEquivalents:
    def test_single_line_single_phase(self):
        m = feeder.load_feeder(two_bus_dict(z=0.013 + 0.027j))
        req, xeq = feeder.build_equivalents(m)
        np.testing.assert_allclose(req, [[2 * 0.013]], atol=1e-15)
        np.testing.assert_allclose(xeq, [[2 * 0.027]], atol=1e-15)

    def test_zero_impedance_line(self):
        m = feeder.load_feeder(two_bus_dict(z=0.0))
        req, xeq = feeder.build_equivalents(m)
        np.testing.assert_allclose(req, 0.0)
        np.testing.assert_allclose(xeq, 0.0)

    def test_nonnegative_diagonals(self, four_bus_model):
        req, xeq = feeder.build_equivalents(four_bus_model)
        assert np.all(np.diag(req) >= 0)
        assert np.all(np.diag(xeq) >= 0)

    def test_symmetric_for_decoupled_phases(self):
        # diagonal impedance blocks: the equivalents are symmetric PSD
        doc = unbalanced_four_bus_dict()
        for ln in doc["lines"]:
            z = np.array([[complex(*e) for e in row] for row in ln["z"]])
            ln["z"] = z3(full=np.diag(np.diag(z)))
        m = feeder.load_feeder(doc)
        req, xeq = feeder.build_equivalents(m)
        np.testing.assert_allclose(req, req.T, atol=1e-12)
        np.testing.assert_allclose(xeq, xeq.T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(req) >= -1e-12)
        assert np.all(np.linalg.eigvalsh(xeq) >= -1e-12)

    @pytest.mark.parametrize("scenario", data.list_scenarios())
    def test_incidence_form_bit_for_bit(self, scenario):
        """Every bundled feeder lists its lines in bus order, so the
        line-phase and node orders agree and D^T ZP D sums what
        M^-T ZP M^-1 summed, in the same order."""
        m = data.load_scenario(scenario).feeder
        for got, ref in zip(feeder.build_equivalents(m), incidence_equivalents(m)):
            assert_same_bits(got, ref)

    def test_incidence_form_lines_out_of_bus_order(self):
        """Lines listed out of bus order, one of them from its downstream
        end: the same matrices up to summation order."""
        doc = unbalanced_four_bus_dict()
        doc["lines"] = doc["lines"][::-1]
        ln = doc["lines"][0]
        ln["from"], ln["to"] = ln["to"], ln["from"]
        m = feeder.load_feeder(doc)
        assert [ol.down for ol in m.oriented] == ["lat", "t2", "t1"]
        for got, ref in zip(feeder.build_equivalents(m), incidence_equivalents(m)):
            np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)
            assert np.max(np.abs(ref)) > 0.01

    def test_leaf_injection_raises_leaf_voltage_by_diagonal(self):
        doc = unbalanced_four_bus_dict()
        doc["loads"] = [dict(l, a0=1.0, a1=0.0, a2=0.0) for l in doc["loads"]]
        m = feeder.load_feeder(doc)
        blocks = feeder.build_blocks(m)
        leaf = m.node_of("t2", "a")
        p_g = np.zeros(m.n_nodes)
        y_base = feeder.lindist_voltages(blocks, p_g, np.zeros(m.n_nodes))
        p_g[leaf] = 1.0
        y_up = feeder.lindist_voltages(blocks, p_g, np.zeros(m.n_nodes))
        assert y_up[leaf] - y_base[leaf] == pytest.approx(blocks.req[leaf, leaf],
                                                          abs=1e-12)


class TestBuildK:
    def test_constant_power_gives_identity(self):
        m = feeder.load_feeder(two_bus_dict(zip_coeffs=(1.0, 0.0, 0.0)))
        blocks = feeder.build_blocks(m)
        np.testing.assert_allclose(blocks.k, np.eye(1))

    def test_constant_impedance_hand_value(self):
        m = feeder.load_feeder(two_bus_dict(z=0.01 + 0.02j,
                                            zip_coeffs=(0.0, 1.0, 0.0)))
        blocks = feeder.build_blocks(m)
        expected = 1.0 + 2 * 0.01 * 0.1 + 2 * 0.02 * 0.05
        assert blocks.k[0, 0] == pytest.approx(expected)

    def test_mixed_zip_close_to_identity(self, four_bus_model):
        blocks = feeder.build_blocks(four_bus_model)
        dev = np.linalg.norm(blocks.k - np.eye(four_bus_model.n_nodes))
        assert 0.0 < dev < 0.1


class TestLindistVoltages:
    def test_no_flow_network(self):
        doc = two_bus_dict(p_kw=0.0, q_kvar=0.0)
        m = feeder.load_feeder(doc)
        blocks = feeder.build_blocks(m)
        y = feeder.lindist_voltages(blocks, np.zeros(1), np.zeros(1))
        np.testing.assert_allclose(y, m.y0_node)

    def test_two_bus_constant_power_hand_solution(self):
        m = feeder.load_feeder(two_bus_dict(z=0.01 + 0.02j))
        blocks = feeder.build_blocks(m)
        y = feeder.lindist_voltages(blocks, np.zeros(1), np.zeros(1))
        # K = I: Y = Y0 - 2r p0 - 2x q0
        assert y[0] == pytest.approx(1.0 - 2 * 0.01 * 0.1 - 2 * 0.02 * 0.05)

    def test_voltage_from_Y(self):
        assert feeder.voltage_from_Y(1.0, 1.0) == pytest.approx(1.0)
        assert feeder.voltage_from_Y(1.02, 1.0) == pytest.approx(1.01)
        assert feeder.voltage_from_Y(0.98, 1.0) == pytest.approx(0.99)

    def test_voltage_from_Y_second_order_bound(self):
        rng = np.random.default_rng(8)
        y0 = 1.0
        for y in rng.uniform(0.81, 1.21, size=200):
            approx = feeder.voltage_from_Y(y, y0)
            exact = np.sqrt(y)
            bound = (exact - np.sqrt(y0)) ** 2 / (2 * np.sqrt(y0))
            assert abs(approx - exact) <= bound + 1e-15


class TestLineFlows:
    """Lossless line flows through the subtree matrix: -D @ (net
    injections) on each node's upstream line, which solves M P = net."""

    def test_zero_case(self):
        m = feeder.load_feeder(two_bus_dict(p_kw=0.0, q_kvar=0.0))
        blocks = feeder.build_blocks(m)
        y = feeder.lindist_voltages(blocks, np.zeros(1), np.zeros(1))
        p_net, q_net = feeder.net_injections(blocks, y, np.zeros(1), np.zeros(1))
        np.testing.assert_allclose(-(m.subtree @ p_net), 0.0)
        np.testing.assert_allclose(-(m.subtree @ q_net), 0.0)

    def test_substation_conservation_sign(self):
        m = feeder.load_feeder(two_bus_dict(p_kw=1000.0, q_kvar=500.0))
        blocks = feeder.build_blocks(m)
        y = feeder.lindist_voltages(blocks, np.zeros(1), np.zeros(1))
        p_sub, q_sub = feeder.substation_flow(blocks, y, np.zeros(1), np.zeros(1))
        assert p_sub == pytest.approx(-1.0)
        assert q_sub == pytest.approx(-0.5)

    def test_lossless_consistency(self, four_bus_model):
        rng = np.random.default_rng(4)
        m = four_bus_model
        blocks = feeder.build_blocks(m)
        _, M = incidence(m)
        for _ in range(10):
            p_g = rng.uniform(-0.2, 0.2, m.n_nodes)
            q_g = rng.uniform(-0.1, 0.1, m.n_nodes)
            y = feeder.lindist_voltages(blocks, p_g, q_g)
            p_net, q_net = feeder.net_injections(blocks, y, p_g, q_g)
            p_tl, q_tl = -(m.subtree @ p_net), -(m.subtree @ q_net)
            np.testing.assert_allclose(M @ p_tl, p_net, atol=1e-12)
            np.testing.assert_allclose(M @ q_tl, q_net, atol=1e-12)
            # the lines leaving the substation carry the feeder's net draw
            assert np.sum(p_tl[m.sub_fed]) == pytest.approx(-np.sum(p_net), abs=1e-9)
            assert np.sum(q_tl[m.sub_fed]) == pytest.approx(-np.sum(q_net), abs=1e-9)


class TestBfmOracle:
    def test_no_load_flat_voltage(self):
        m = feeder.load_feeder(two_bus_dict(p_kw=0.0, q_kvar=0.0))
        res = feeder.bfm_oracle(m, np.zeros(1), np.zeros(1))
        np.testing.assert_allclose(res.v_mag, 1.0, atol=1e-12)
        assert abs(res.s_sub) < 1e-12

    def test_two_bus_matches_scalar_newton(self):
        z = 0.01 + 0.02j
        m = feeder.load_feeder(two_bus_dict(z=z, p_kw=100.0, q_kvar=50.0))
        res = feeder.bfm_oracle(m, np.zeros(1), np.zeros(1), tol=1e-12)
        expect = hand_two_bus_vmag(z, 0.1 + 0.05j)
        assert res.v_mag[0] == pytest.approx(expect, abs=1e-9)

    def test_losses_positive(self, four_bus_model):
        m = four_bus_model
        res = feeder.bfm_oracle(m, np.zeros(m.n_nodes), np.zeros(m.n_nodes))
        total_load_pu = np.sum(m.p0)  # ZIP evaluated near 1 pu stays close
        assert res.s_sub.real > 0.95 * total_load_pu * 0.9

    def test_linearization_close_on_small_feeder(self, four_bus_model):
        m = four_bus_model
        blocks = feeder.build_blocks(m)
        rng = np.random.default_rng(11)
        for _ in range(5):
            p_g = rng.uniform(0.0, 0.25, m.n_nodes)
            q_g = rng.uniform(-0.1, 0.1, m.n_nodes)
            res = feeder.bfm_oracle(m, p_g, q_g)
            y = feeder.lindist_voltages(blocks, p_g, q_g)
            assert np.max(np.abs(np.sqrt(y) - res.v_mag)) < 0.01

    def test_zip_voltage_dependence(self):
        # constant-impedance load draws less power at depressed voltage
        m_cp = feeder.load_feeder(two_bus_dict(z=0.05 + 0.1j, p_kw=300.0,
                                               q_kvar=100.0, zip_coeffs=(1, 0, 0)))
        m_cz = feeder.load_feeder(two_bus_dict(z=0.05 + 0.1j, p_kw=300.0,
                                               q_kvar=100.0, zip_coeffs=(0, 1, 0)))
        r_cp = feeder.bfm_oracle(m_cp, np.zeros(1), np.zeros(1))
        r_cz = feeder.bfm_oracle(m_cz, np.zeros(1), np.zeros(1))
        assert r_cz.s_sub.real < r_cp.s_sub.real
        assert r_cz.v_mag[0] > r_cp.v_mag[0]


def loop_bfm(model, p_g, q_g, tol=1e-8):
    """The backward/forward sweep written bus by bus, as ``bfm_oracle``
    ran it before its matrix form: (v, s_sub, sweeps)."""
    sub = model.substation_bus
    vs = {p: math.sqrt(model.y0_sub[p]) * np.exp(1j * PHASE_ANGLE[p])
          for p in model.bus_phases[sub]}
    v = np.array([vs[p] for _, p in model.nodes], dtype=complex)
    s0 = model.p0 + 1j * model.q0
    children = {b.bus_id: [] for b in model.buses}
    parent_line = {}
    for ol in model.oriented:
        children[ol.up].append(ol)
        parent_line[ol.down] = ol
    node_slice = {b.bus_id: np.array([model.node_of(b.bus_id, p)
                                      for p in model.bus_phases[b.bus_id]], dtype=int)
                  for b in model.buses if b.bus_id != sub}
    line_current = {}
    for sweep in range(1, feeder.BFM_MAX_SWEEPS + 1):
        vmag = np.abs(v)
        zip_mult = model.a0v + model.a1v * vmag ** 2 + model.a2v * vmag
        i_inj = np.conj(((p_g + 1j * q_g) - s0 * zip_mult) / v)
        for bus in reversed(model.bus_order):
            if bus == sub:
                continue
            cur = -i_inj[node_slice[bus]].copy()
            ph = model.bus_phases[bus]
            for child in children[bus]:
                for k, p in enumerate(child.phases):
                    cur[ph.index(p)] += line_current[child.index][k]
            line_current[parent_line[bus].index] = cur
        max_dv = 0.0
        for ol in model.oriented:
            if ol.up == sub:
                v_up = np.array([vs[p] for p in ol.phases])
            else:
                up_ph = model.bus_phases[ol.up]
                v_up = np.array([v[node_slice[ol.up][up_ph.index(p)]] for p in ol.phases])
            v_new = v_up - ol.z @ line_current[ol.index]
            nodes = node_slice[ol.down]
            max_dv = max(max_dv, float(np.max(np.abs(v_new - v[nodes]))))
            v[nodes] = v_new
        if max_dv < tol:
            s_sub = sum(vs[p] * np.conj(line_current[ol.index][k])
                        for ol in model.oriented if ol.up == sub
                        for k, p in enumerate(ol.phases))
            return v, complex(s_sub), sweep
    raise AssertionError("loop sweep did not converge")


def stage2b_injections(scenario):
    """Per-node (p_g, q_g), pu, of the stage-2b dispatch at the envelope
    midpoint of ``scenario`` (Big-M)."""
    ctx = dd.make_context(data.load_scenario(scenario), encoding="bigm")
    p_star, _ = dd.stage1_max_power(ctx)
    (q_lo, q_hi), _, _ = dd.stage2a_aggregate(ctx, p_star)
    r2b = dd.stage2b_disaggregate(ctx, p_star, 0.5 * (q_lo + q_hi))
    p_g = np.zeros(ctx.model.n_nodes)
    q_g = np.zeros(ctx.model.n_nodes)
    for d, node in zip(r2b.per_der, ctx.model.der_nodes):
        p_g[node] += d.p_kw / ctx.s_base
        q_g[node] += d.q_kvar / ctx.s_base
    return ctx.model, p_g, q_g


class TestBfmMatrixForm:
    """The matrix-form sweep against the bus-by-bus loop it replaced."""

    @staticmethod
    def assert_same(model, p_g, q_g):
        res = feeder.bfm_oracle(model, p_g, q_g)
        v, s_sub, sweeps = loop_bfm(model, p_g, q_g)
        assert res.sweeps == sweeps
        assert np.max(np.abs(res.v - v)) <= 1e-12
        np.testing.assert_array_equal(res.v_mag, np.abs(res.v))
        assert abs(res.s_sub - s_sub) <= 1e-12

    @pytest.mark.parametrize("scenario", data.list_scenarios())
    def test_zero_injection(self, scenario):
        model = data.load_scenario(scenario).feeder
        zeros = np.zeros(model.n_nodes)
        self.assert_same(model, zeros, zeros)

    @pytest.mark.parametrize("scenario", ["tiny-2bus", "feeder13-highpv", "feeder13-bench",
                                          "feeder40-highpv"])
    def test_stage2b_dispatch(self, scenario):
        """Every bundled feeder file, under the dispatch its scenario's
        stage 2b makes at the envelope midpoint."""
        self.assert_same(*stage2b_injections(scenario))

    def test_subtree_matrix(self, four_bus_model):
        """subtree[a, b] = 1 exactly when b lies at or below a on a's phase."""
        m = four_bus_model
        below = {b.bus_id: {b.bus_id} for b in m.buses}
        for bus in reversed(m.bus_order):
            for ol in m.oriented:
                if ol.up == bus:
                    below[bus] |= below[ol.down]
        for a, (bus_a, ph_a) in enumerate(m.nodes):
            for b, (bus_b, ph_b) in enumerate(m.nodes):
                assert m.subtree[a, b] == float(ph_a == ph_b and bus_b in below[bus_a])

    def test_no_convergence_past_max_sweeps(self, monkeypatch):
        m = feeder.load_feeder(two_bus_dict(z=0.05 + 0.1j, p_kw=300.0, q_kvar=100.0))
        sweeps = feeder.bfm_oracle(m, np.zeros(1), np.zeros(1), tol=1e-12).sweeps
        assert sweeps > 2
        monkeypatch.setattr(feeder, "BFM_MAX_SWEEPS", sweeps)
        assert feeder.bfm_oracle(m, np.zeros(1), np.zeros(1), tol=1e-12).sweeps == sweeps
        monkeypatch.setattr(feeder, "BFM_MAX_SWEEPS", sweeps - 1)
        with pytest.raises(NoConvergence):
            feeder.bfm_oracle(m, np.zeros(1), np.zeros(1), tol=1e-12)


class TestInjectionsChecked:
    """``bfm_oracle`` and ``lindist_voltages`` take one finite value per
    node.  Unchecked, a NaN or inf injection "converged" in one sweep with
    every voltage NaN, a scalar was broadcast to every node, and a wrong
    length raised a bare numpy ``ValueError``."""

    @pytest.fixture(scope="class")
    def highpv(self):
        model = data.load_scenario("feeder13-highpv").feeder
        return model, feeder.build_blocks(model)

    @pytest.mark.parametrize("bad", ["nan", "inf", "scalar", "short", "long", "matrix",
                                     "text"])
    @pytest.mark.parametrize("which", ["p_g", "q_g"])
    @pytest.mark.parametrize("call", ["bfm_oracle", "lindist_voltages"])
    def test_rejected(self, highpv, bad, which, call):
        model, blocks = highpv
        n = model.n_nodes
        value = {"nan": np.where(np.arange(n) == 3, np.nan, 0.0),
                 "inf": np.where(np.arange(n) == 3, -np.inf, 0.0),
                 "scalar": 0.1, "short": np.zeros(n - 1), "long": np.zeros(n + 1),
                 "matrix": np.zeros((n, 1)), "text": ["x"] * n}[bad]
        args = {"p_g": np.zeros(n), "q_g": np.zeros(n), which: value}
        target = model if call == "bfm_oracle" else blocks
        with pytest.raises(ValidationError, match=which):
            getattr(feeder, call)(target, args["p_g"], args["q_g"])


class TestPartition:
    def test_full_observability_degenerate(self, four_bus_model):
        m = four_bus_observing(four_bus_model.node_ids)
        blocks = feeder.build_blocks(m)
        part = feeder.make_partition(m)
        pb = feeder.partition_blocks(blocks, part)
        assert pb.k1.shape == (m.n_nodes, 0)
        np.testing.assert_allclose(pb.koo, blocks.kb)
        np.testing.assert_allclose(pb.c2, m.y0_node)

    def test_block_shapes(self, four_bus_model):
        m = four_bus_model
        blocks = feeder.build_blocks(m)
        part = feeder.make_partition(m)
        pb = feeder.partition_blocks(blocks, part)
        n_o, n_u = part.n_o, part.n_u
        assert n_o + n_u == m.n_nodes
        assert pb.koo.shape == (n_o, n_o)
        assert pb.kou.shape == (n_u, n_o)
        assert pb.k1.shape == (n_o, n_u)
        assert pb.c2.shape == (n_o,)

    def test_permutation_round_trip(self, four_bus_model):
        m = four_bus_model
        blocks = feeder.build_blocks(m)
        part = feeder.make_partition(m)
        pb = feeder.partition_blocks(blocks, part)
        o, u = part.observable, part.unobservable
        assert sorted([*o, *u]) == list(range(m.n_nodes))
        kb = blocks.kb
        np.testing.assert_array_equal(pb.koo, kb[np.ix_(o, o)])
        np.testing.assert_array_equal(pb.kou, kb[np.ix_(u, o)])

    def test_controllable_must_be_observable(self):
        m = four_bus_observing(["t1.a", "t1.b"])  # excludes DER nodes
        blocks = feeder.build_blocks(m)
        part = feeder.make_partition(m)
        with pytest.raises(InvalidPartition):
            feeder.partition_blocks(blocks, part)


class TestObservableVoltages:
    def test_full_observability_matches_lindist(self, four_bus_model):
        m = four_bus_observing(four_bus_model.node_ids)
        blocks = feeder.build_blocks(m)
        pb = feeder.partition_blocks(blocks, feeder.make_partition(m))
        rng = np.random.default_rng(3)
        p_g = rng.uniform(-0.2, 0.3, m.n_nodes)
        q_g = rng.uniform(-0.2, 0.2, m.n_nodes)
        p_o, q_o = feeder.observable_net_injections(pb, p_g, q_g)
        y_o = feeder.observable_voltages(pb, p_o, q_o)
        y = feeder.lindist_voltages(blocks, p_g, q_g)
        np.testing.assert_allclose(y_o, y, atol=1e-9)

    def test_ground_truth_k1_c2_identity(self, four_bus_model):
        m = four_bus_model
        blocks = feeder.build_blocks(m)
        pb = feeder.partition_blocks(blocks, feeder.make_partition(m))
        rng = np.random.default_rng(9)
        for _ in range(5):
            p_g = np.zeros(m.n_nodes)
            q_g = np.zeros(m.n_nodes)
            for node in m.der_nodes:
                p_g[node] = rng.uniform(0.0, 0.3)
                q_g[node] = rng.uniform(-0.15, 0.15)
            p_o, q_o = feeder.observable_net_injections(pb, p_g, q_g)
            y_o = feeder.observable_voltages(pb, p_o, q_o)
            y_full = feeder.lindist_voltages(blocks, p_g, q_g)
            np.testing.assert_allclose(y_o, y_full[pb.partition.observable],
                                       atol=1e-9)

    def test_k1_zero_reduces_to_isolated_form(self, four_bus_model):
        m = four_bus_model
        blocks = feeder.build_blocks(m)
        pb = feeder.partition_blocks(blocks, feeder.make_partition(m))
        n_o = pb.partition.n_o
        c2 = m.y0_node[pb.partition.observable]
        isolated = dataclasses.replace(pb, k1=np.zeros_like(pb.k1), c2=c2)
        p_o = np.zeros(n_o)
        q_o = np.zeros(n_o)
        y_o = feeder.observable_voltages(isolated, p_o, q_o)
        expect = numkit.solve_linear(np.eye(n_o) + pb.koo, c2)
        np.testing.assert_allclose(y_o, expect, atol=1e-12)
