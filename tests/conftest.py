"""Shared tiny-feeder builders used across the test suite.

These generators mirror the bundled pedagogical cases; parametrized
variants exist so unit tests can probe degenerate shapes (cycles, bad
ZIP sums) that cannot ship as valid bundled files.
"""

import os

# One BLAS thread, set before numpy is first imported: the solver's small
# rank-1 updates and LU solves lose to thread hand-off on a few cores.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402


def z3(z_aa=None, full=None):
    """3x3 impedance entry lists for the feeder JSON schema."""
    z = np.zeros((3, 3), dtype=complex)
    if z_aa is not None:
        z[0, 0] = z_aa
    if full is not None:
        z = np.asarray(full, dtype=complex)
    return [[[z[i, j].real, z[i, j].imag] for j in range(3)] for i in range(3)]


def two_bus_dict(z=0.01 + 0.02j, p_kw=100.0, q_kvar=50.0,
                 zip_coeffs=(1.0, 0.0, 0.0), with_der=False, y0=1.0):
    doc = {
        "base": {"s_kva": 1000.0, "v_kv": 2.4018},
        "substation": {"bus": "sub", "y0": [y0]},
        "buses": [{"id": "sub", "phases": "a"}, {"id": "b1", "phases": "a"}],
        "lines": [{"from": "sub", "to": "b1", "z": z3(z_aa=z)}],
        "loads": [{"bus": "b1", "phase": "a", "p_kw": p_kw, "q_kvar": q_kvar,
                   "a0": zip_coeffs[0], "a1": zip_coeffs[1], "a2": zip_coeffs[2]}],
        "ders": [],
        "observable": ["b1.a"],
    }
    if with_der:
        doc["ders"] = [{"bus": "b1", "phase": "a", "inverter_id": "inv1"}]
    return doc


def three_bus_chain_dict():
    return {
        "base": {"s_kva": 1000.0, "v_kv": 2.4018},
        "substation": {"bus": "s", "y0": [1.0]},
        "buses": [{"id": "s", "phases": "a"}, {"id": "m", "phases": "a"},
                  {"id": "e", "phases": "a"}],
        "lines": [
            {"from": "s", "to": "m", "z": z3(z_aa=0.01 + 0.02j)},
            {"from": "m", "to": "e", "z": z3(z_aa=0.02 + 0.03j)},
        ],
        "loads": [{"bus": "e", "phase": "a", "p_kw": 50.0, "q_kvar": 20.0,
                   "a0": 0.4, "a1": 0.3, "a2": 0.3}],
        "ders": [{"bus": "e", "phase": "a", "inverter_id": "inv1"}],
        "observable": ["m.a", "e.a"],
    }


def unbalanced_four_bus_dict():
    """Three-phase trunk with one two-phase lateral; mixed ZIP loads."""
    z_trunk = [[0.006 + 0.012j, 0.002 + 0.005j, 0.002 + 0.004j],
               [0.002 + 0.005j, 0.006 + 0.013j, 0.002 + 0.004j],
               [0.002 + 0.004j, 0.002 + 0.004j, 0.006 + 0.012j]]
    z_lat = np.zeros((3, 3), dtype=complex)
    z_lat[1, 1] = 0.02 + 0.025j
    z_lat[2, 2] = 0.021 + 0.026j
    z_lat[1, 2] = z_lat[2, 1] = 0.004 + 0.008j
    return {
        "base": {"s_kva": 1000.0, "v_kv": 2.4018},
        "substation": {"bus": "s", "y0": [1.0, 1.0, 1.0]},
        "buses": [{"id": "s", "phases": "abc"}, {"id": "t1", "phases": "abc"},
                  {"id": "t2", "phases": "abc"}, {"id": "lat", "phases": "bc"}],
        "lines": [
            {"from": "s", "to": "t1", "z": z3(full=z_trunk)},
            {"from": "t1", "to": "t2", "z": z3(full=z_trunk)},
            {"from": "t1", "to": "lat", "z": z3(full=z_lat)},
        ],
        "loads": [
            {"bus": "t1", "phase": "a", "p_kw": 80.0, "q_kvar": 40.0,
             "a0": 0.5, "a1": 0.3, "a2": 0.2},
            {"bus": "t2", "phase": "b", "p_kw": 60.0, "q_kvar": 25.0,
             "a0": 1.0, "a1": 0.0, "a2": 0.0},
            {"bus": "t2", "phase": "c", "p_kw": 90.0, "q_kvar": 35.0,
             "a0": 0.2, "a1": 0.5, "a2": 0.3},
            {"bus": "lat", "phase": "b", "p_kw": 70.0, "q_kvar": 30.0,
             "a0": 0.6, "a1": 0.2, "a2": 0.2},
        ],
        "ders": [{"bus": "t2", "phase": "a", "inverter_id": "inv1"},
                 {"bus": "t2", "phase": "b", "inverter_id": "inv1"}],
        "observable": ["t1.a", "t1.b", "t1.c", "t2.a", "t2.b", "t2.c"],
    }


@pytest.fixture
def two_bus_model():
    from gridcoord.feeder import load_feeder
    return load_feeder(two_bus_dict())


@pytest.fixture
def four_bus_model():
    from gridcoord.feeder import load_feeder
    return load_feeder(unbalanced_four_bus_dict())
