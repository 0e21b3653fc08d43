"""The ``gridcoord run`` command: its JSON report and its exit codes."""

import json

import pytest

from gridcoord import cli
from gridcoord.errors import (DegenerateSensitivity, InfeasibleStage, NoConvergence,
                              ParseError)


@pytest.mark.parametrize("enc", ["sos1", "bigm"])
def test_run_tiny_2bus(capsys, enc):
    assert cli.main(["run", "tiny-2bus", "--encoding", enc]) == 0
    report = json.loads(capsys.readouterr().out)
    stages = report["stages"]
    assert [s["stage"] for s in stages] == ["stage1", "stage2a_min", "stage2a_max", "stage2b"]
    assert stages[0]["p_star_kw"] == pytest.approx(300.0, abs=1e-6)
    # no transmission case: one request, at the envelope midpoint
    q_lo, q_hi = report["envelope_kvar"]
    assert report["q_req_kvar"] == [pytest.approx(0.5 * (q_lo + q_hi))]
    assert stages[3]["q_sub_kvar"] == pytest.approx(report["q_req_kvar"][0], abs=1e-6)
    assert all(s["stats"]["status"] == "Optimal" for s in stages)
    # the LP's rows, the nodes one row settled without an LP, and the
    # binaries root propagation fixed (the sos1 models have none)
    for s in stages:
        assert 0 < s["stats"]["lp_rows"]
        assert 0 <= s["stats"]["settled_nodes"] <= s["stats"]["nodes"]
        assert (s["stats"]["root_fixed"] > 0) == (enc == "bigm")
    lp_rows = [s["stats"]["lp_rows"] for s in stages]
    assert lp_rows[1] == lp_rows[2] == lp_rows[0] + 1   # stage 2a adds the pstar row
    assert lp_rows[3] > lp_rows[1]


def test_run_unknown_scenario_exits_2(capsys):
    assert cli.main(["run", "nope"]) == 2
    assert "unknown scenario 'nope'" in capsys.readouterr().err


@pytest.mark.parametrize("error, code", [(ParseError, 2), (InfeasibleStage, 3),
                                         (NoConvergence, 4), (DegenerateSensitivity, 1)])
def test_exit_code_follows_error_family(monkeypatch, error, code):
    def failing(name, encoding):
        raise error("boom")

    monkeypatch.setattr(cli, "run", failing)
    assert cli.main(["run", "tiny-2bus"]) == code


def test_requests_come_from_the_tso_dispatch():
    """A scenario with a transmission case gets one request per distinct
    interface request, each inside the feeder envelope."""
    scenario = cli.data.load_scenario("tx9-outage")
    requests = cli.feeder_requests(scenario, -300.0, 100.0)
    assert requests and requests == sorted(set(requests))
    assert all(-300.0 - 1e-6 <= q <= 100.0 + 1e-6 for q in requests)
