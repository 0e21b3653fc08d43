"""The ``gridcoord run`` command: its JSON report and its exit codes."""

import hashlib
import json
import shutil

import pytest

from gridcoord import cli, data
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
    # the droop root point closes every stage at its root
    assert all(s["stats"]["root_point"] and s["stats"]["nodes"] == 1 for s in stages)
    # the LP's rows and the binaries root propagation fixed (the sos1
    # models have none)
    for s in stages:
        assert 0 < s["stats"]["lp_rows"]
        assert (s["stats"]["root_fixed"] > 0) == (enc == "bigm")
    lp_rows = [s["stats"]["lp_rows"] for s in stages]
    assert lp_rows[1] == lp_rows[2] == lp_rows[0] + 1   # stage 2a adds the pstar row
    assert lp_rows[3] > lp_rows[1]


def test_run_unknown_scenario_exits_2(capsys):
    assert cli.main(["run", "nope"]) == 2
    assert "unknown scenario 'nope'" in capsys.readouterr().err


def test_run_tampered_bundle_exits_2(monkeypatch, tmp_path, capsys):
    """A bundle whose feeder file no longer matches its recorded digest
    stops the run with ChecksumMismatch, an input error."""
    root = tmp_path / "data"
    shutil.copytree(data.data_root(), root, ignore=shutil.ignore_patterns("*.py", "__pycache__"))
    path = root / "feeders" / "tiny2.json"
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 1
    path.write_bytes(bytes(blob))
    monkeypatch.setattr(data, "_ROOT", root)
    assert cli.main(["run", "tiny-2bus"]) == 2
    captured = capsys.readouterr()
    assert "ChecksumMismatch" in captured.err and "feeders/tiny2.json" in captured.err
    assert captured.out == ""


def use_edited_bundle(monkeypatch, tmp_path, rel, edit):
    """Point ``data`` at a copy of the bundle whose JSON file ``rel`` is
    changed by ``edit(doc)`` in place and checksummed anew."""
    root = tmp_path / "data"
    shutil.copytree(data.data_root(), root, ignore=shutil.ignore_patterns("*.py", "__pycache__"))
    doc = json.loads((root / rel).read_text())
    edit(doc)
    blob = json.dumps(doc).encode()
    (root / rel).write_bytes(blob)
    sums = (root / "CHECKSUMS").read_text().splitlines()
    sums = [f"{hashlib.sha256(blob).hexdigest()}  {rel}" if line.endswith(f"  {rel}") else line
            for line in sums]
    (root / "CHECKSUMS").write_text("\n".join(sums) + "\n")
    monkeypatch.setattr(data, "_ROOT", root)


def test_run_negative_q_rating_exits_2(monkeypatch, tmp_path, capsys):
    """An inverter file, checksummed anew, whose q_max is negative (so the
    default q_min = -q_max lies above it) stops the run with
    ValidationError, an input error, before any stage model is built."""
    use_edited_bundle(monkeypatch, tmp_path, "inverters/default.json",
                      lambda doc: doc["inverters"][0].update(q_max_kvar=-145.2))
    assert cli.main(["run", "tiny-2bus"]) == 2
    captured = capsys.readouterr()
    assert "ValidationError" in captured.err and "q_min <= q_max" in captured.err
    assert captured.out == ""


def test_run_unusable_profile_exits_2(monkeypatch, tmp_path, capsys):
    """An inverter file, checksummed anew, whose volt-var profile has
    set_min above set_max stops the run with InvalidProfile, an input
    error, before any stage model is built."""
    use_edited_bundle(monkeypatch, tmp_path, "inverters/default.json",
                      lambda doc: doc["profile"]["vv"].update(set_min=0.06))
    assert cli.main(["run", "tiny-2bus"]) == 2
    captured = capsys.readouterr()
    assert "InvalidProfile" in captured.err and "set_min 0.06 above set_max 0.05" in captured.err
    assert captured.out == ""


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
    assert all(-300.0 <= q <= 100.0 for q in requests)


@pytest.mark.parametrize("enc", ["bigm", "sos1"])
def test_run_requests_lie_in_the_envelope(enc):
    """The TSO pins feeder13-highpv's request at the envelope's end, which
    does not round to 6 decimals from inside: every request stays in the
    envelope with no tolerance, and stage 2b meets it."""
    report = cli.run("feeder13-highpv", enc)
    q_lo, q_hi = report["envelope_kvar"]
    assert report["q_req_kvar"]
    assert all(q_lo <= q <= q_hi for q in report["q_req_kvar"]), (report["q_req_kvar"],
                                                                   q_lo, q_hi)
    r2b = [s for s in report["stages"] if s["stage"] == "stage2b"]
    for s, q_req in zip(r2b, report["q_req_kvar"], strict=True):
        assert s["q_sub_kvar"] == pytest.approx(q_req, abs=1e-6)
