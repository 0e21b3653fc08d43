"""Transmission side on the bundled tx9 case and its 9-4 outage.

The power flow is checked against the mismatch recomputed from the bus
admittance matrix, the V-Q sensitivity against a central finite
difference of the power flow, and the dispatch against its trace, its
envelopes, the iteration counts it takes today and the box KKT
conditions of its true objective.
"""

import numpy as np
import pytest

from gridcoord import data, tso
from gridcoord.errors import ParseError, SingularJacobian, ValidationError

# (outer iterations, power-flow iterations) per case and envelope
DISPATCH_ITERS = {
    ("tx9", "zero"): (1, 4), ("tx9", "round"): (1, 4), ("tx9", "sym"): (3, 16),
    ("tx9-outage", "zero"): (1, 4), ("tx9-outage", "round"): (1, 4),
    ("tx9-outage", "sym"): (4, 20),
}


@pytest.fixture(scope="module")
def cases():
    scenario = data.load_scenario("tx9-outage")
    base = scenario.transmission
    return {"tx9": base, "tx9-outage": base.remove_branch(*scenario.outage)}


def envelopes(case, name):
    """Per-interface (q_lo, q_hi) in MVAr: pinned at zero, the benchmark
    round's feeder13-highpv envelope times multiplicity, or symmetric."""
    if name == "zero":
        return {itf.bus: (0.0, 0.0) for itf in case.interfaces}
    if name == "round":
        return {itf.bus: (-1.5912102287508615 * itf.multiplicity,
                          -0.2601327271779127 * itf.multiplicity)
                for itf in case.interfaces}
    return {itf.bus: (-50.0, 50.0) for itf in case.interfaces}


def mismatch(case, pf, q_inject):
    """Largest P (PV and PQ buses) and Q (PQ buses) mismatch, pu."""
    s_spec = np.zeros(len(case.buses), dtype=complex)
    for k, bus in enumerate(case.buses):
        s_spec[k] -= complex(bus.p_mw, bus.q_mvar) / case.s_base_mva
    for gen in case.gens:
        s_spec[case.index[gen.bus]] += gen.p_mw / case.s_base_mva
    for bus, mvar in q_inject.items():
        s_spec[case.index[bus]] += 1j * mvar / case.s_base_mva
    v = pf.v_complex()
    ds = v * np.conj(case.ybus() @ v) - s_spec
    return max(np.max(np.abs(ds.real[case.pvpq])), np.max(np.abs(ds.imag[case.pq])))


@pytest.mark.parametrize("name", ["tx9", "tx9-outage"])
@pytest.mark.parametrize("q_inject", [{}, {"5": 20.0, "9": -35.0}])
def test_newton_mismatch_within_tol(cases, name, q_inject):
    case = cases[name]
    for tol in (1e-8, 1e-11):
        pf = tso.newton_powerflow(case, q_inject, tol=tol)
        assert mismatch(case, pf, q_inject) <= tol
        assert pf.v_mag[case.slack] == case.buses[case.slack].v_set


@pytest.mark.parametrize("name", ["tx9", "tx9-outage"])
def test_vq_sensitivity_matches_central_difference(cases, name):
    case = cases[name]
    itf = [i.bus for i in case.interfaces]
    mon = tso.monitored_buses(case)
    sens = tso.vq_sensitivity(case, tso.newton_powerflow(case))
    h_mvar = 0.5
    fd = np.empty_like(sens)
    for col, bus in enumerate(itf):
        up = tso.newton_powerflow(case, {bus: h_mvar}, tol=1e-12).v_mag[mon]
        down = tso.newton_powerflow(case, {bus: -h_mvar}, tol=1e-12).v_mag[mon]
        fd[:, col] = (up - down) / (2.0 * h_mvar / case.s_base_mva)
    assert np.max(np.abs(sens)) > 1e-2
    np.testing.assert_allclose(sens, fd, rtol=0.0, atol=1e-6)


@pytest.mark.parametrize("name,envelope", sorted(DISPATCH_ITERS))
def test_dispatch_trace_envelope_and_iterations(cases, name, envelope):
    case = cases[name]
    env = envelopes(case, envelope)
    result = tso.tso_dispatch(case, env)
    trace = result.trace
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
    assert result.objective == trace[-1]
    for bus, q in result.q_req_mvar.items():
        q_lo, q_hi = env[bus]
        assert q_lo - 1e-9 <= q <= q_hi + 1e-9
    assert (result.outer_iterations, result.pf_iterations) == DISPATCH_ITERS[name, envelope]


@pytest.mark.parametrize("name", ["tx9", "tx9-outage"])
@pytest.mark.parametrize("envelope", ["sym", "round"])
def test_dispatch_is_box_kkt(cases, name, envelope):
    """The dispatch is a box-constrained optimum of the true objective:
    its gradient (per pu of q, by central differences of power flows at
    1e-3 MVAr), projected onto the box, vanishes.  An interior component
    must be zero, one at q_lo must not be negative and one at q_hi must
    not be positive."""
    case = cases[name]
    env = envelopes(case, envelope)
    ids = [itf.bus for itf in case.interfaces]
    mon = tso.monitored_buses(case)
    result = tso.tso_dispatch(case, env)
    q = np.array([result.q_req_mvar[bus] for bus in ids])
    q_lo, q_hi = np.array([env[bus] for bus in ids]).T

    def objective(q_mvar):
        pf = tso.newton_powerflow(case, dict(zip(ids, q_mvar)), tol=1e-12)
        dev = pf.v_mag[mon] - tso.V_SETPOINT
        return tso.C_V * np.sum(dev ** 2) + tso.C_Q * np.sum((q_mvar / case.s_base_mva) ** 2)

    h_mvar = 1e-3
    step = h_mvar * np.eye(len(ids))
    grad = np.array([objective(q + d) - objective(q - d) for d in step]) / (
        2.0 * h_mvar / case.s_base_mva)
    at_lo = np.isclose(q, q_lo, rtol=0.0, atol=1e-9)
    at_hi = np.isclose(q, q_hi, rtol=0.0, atol=1e-9)
    projected = np.where(at_lo, np.minimum(grad, 0.0), np.where(at_hi, np.maximum(grad, 0.0),
                                                                 grad))
    assert np.max(np.abs(projected)) <= 1e-6, (grad, q, q_lo, q_hi)


def test_dispatch_reads_envelopes_by_bus_id(cases):
    """An envelope keyed by an integer bus id counts as the string id, as
    in ``newton_powerflow``: with every interface at (-30, 10) MVAr on
    tx9 the dispatch is the same for both keys (it used to pin every
    interface at 0 for integer keys).  Two keys that name one bus raise."""
    case = cases["tx9"]
    by_str = tso.tso_dispatch(case, {itf.bus: (-30.0, 10.0) for itf in case.interfaces})
    by_int = tso.tso_dispatch(case, {int(itf.bus): (-30.0, 10.0) for itf in case.interfaces})
    assert by_int.q_req_mvar == by_str.q_req_mvar
    assert by_int.objective == by_str.objective
    assert max(by_str.q_req_mvar.values()) > 9.0
    with pytest.raises(ValidationError, match="one interface bus"):
        tso.tso_dispatch(case, {5: (-30.0, 10.0), "5": (-30.0, 10.0)})


@pytest.mark.parametrize("q_inject, message", [
    ({5: 10.0, "5": 10.0}, "two injections name bus 5"),
    ({"99": 10.0}, "unknown bus 99"),
    ({"5": float("nan")}, "bus 5 is nan"),
    ({"5": float("inf")}, "bus 5 is inf"),
    ({"5": "10"}, "bus 5 is '10'"),
], ids=["one-bus-twice", "unknown-bus", "nan", "inf", "text"])
def test_powerflow_rejects_malformed_injections(cases, q_inject, message):
    """A power flow's injections name each bus once, name only buses of
    the case, and are finite numbers.  Unchecked, ``{5: 10.0, "5": 10.0}``
    injected 20 MVAr at bus 5, an unknown bus raised a bare ``KeyError``,
    NaN ended in ``NoConvergence`` after every Newton iteration, and text
    raised a bare ``TypeError``."""
    with pytest.raises(ValidationError, match=message):
        tso.newton_powerflow(cases["tx9"], q_inject)


@pytest.mark.parametrize("call", ["newton_powerflow", "vq_sensitivity"])
def test_singular_jacobian_raises(cases, monkeypatch, call):
    """A rank-deficient Jacobian (two equal rows) ends the power flow and
    the V-Q sensitivity in ``SingularJacobian``, through the LAPACK solve's
    pivot test, never in a bare LAPACK result of inf or NaN."""
    case = cases["tx9"]
    pf = tso.newton_powerflow(case)
    true_jacobian = tso._jacobian

    def rank_deficient(*args):
        jac = true_jacobian(*args)
        jac[1] = jac[0]
        return jac

    monkeypatch.setattr(tso, "_jacobian", rank_deficient)
    with pytest.raises(SingularJacobian):
        if call == "newton_powerflow":
            tso.newton_powerflow(case)
        else:
            tso.vq_sensitivity(case, pf)


def test_remove_branch_drops_exactly_one(cases):
    base = cases["tx9"]
    assert len(base.branches) == 9
    out = base.remove_branch("4", "9")   # the file lists it as 9-4
    assert out.branches == [b for b in base.branches if {b.from_bus, b.to_bus} != {"9", "4"}]
    assert len(out.branches) == 8
    with pytest.raises(ValidationError):
        base.remove_branch("5", "9")
    with pytest.raises(ValidationError):
        base.remove_branch("1", "4")   # bus 1 hangs on this branch alone


@pytest.mark.parametrize("document", [None, ["buses"], 42, "{not json"])
def test_load_transmission_rejects_non_dict(document):
    with pytest.raises(ParseError):
        tso.load_transmission(document)


def test_load_transmission_mistyped_field_is_parse_error():
    doc = data._read_json(data.data_root(), "transmission/tx9.json")
    doc["branches"][0]["r"] = "abc"
    with pytest.raises(ParseError, match="malformed"):
        tso.load_transmission(doc)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("table, row, values, message", [
    ("branches", 0, {"x": NAN}, "non-finite r, x or b"),
    ("branches", 0, {"r": INF}, "non-finite r, x or b"),
    ("branches", 3, {"b": "nan"}, "non-finite r, x or b"),
    ("branches", 0, {"r": 0.0, "x": 0.0}, "zero impedance"),
    ("buses", 4, {"p_mw": INF}, "non-finite p_mw, q_mvar or v_set"),
    ("buses", 4, {"q_mvar": -INF}, "non-finite p_mw, q_mvar or v_set"),
    ("buses", 0, {"v_set": NAN}, "non-finite p_mw, q_mvar or v_set"),
    ("gens", 0, {"p_mw": NAN}, "non-finite p_mw or v_pu"),
    ("gens", 1, {"v_pu": "inf"}, "non-finite p_mw or v_pu"),
    (None, None, {"s_base_mva": 0.0}, "not finite and positive"),
    (None, None, {"s_base_mva": -100.0}, "not finite and positive"),
    (None, None, {"s_base_mva": NAN}, "not finite and positive"),
    (None, None, {"s_base_mva": INF}, "not finite and positive"),
])
def test_load_transmission_unusable_value_is_validation_error(table, row, values, message):
    """A value the power flow cannot use is refused at load, not met as
    a NaN Newton run, a division by zero or an inverted envelope."""
    doc = data._read_json(data.data_root(), "transmission/tx9.json")
    (doc if table is None else doc[table][row]).update(values)
    with pytest.raises(ValidationError, match=message):
        tso.load_transmission(doc)


def test_transmission_case_rejects_generator_at_unknown_bus(cases):
    """The power flow would meet it as a bare ``KeyError``."""
    base = cases["tx9"]
    gens = [*base.gens, tso.TGen("99", 10.0, 1.0)]
    with pytest.raises(ValidationError, match="generator at unknown bus 99"):
        tso.TransmissionCase(base.buses, base.branches, gens, base.interfaces)
