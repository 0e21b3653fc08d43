import hashlib
import json
import shutil

import numpy as np
import pytest

from gridcoord import data as bundle
from gridcoord import feeder
from gridcoord.errors import ChecksumMismatch, ParseError, ValidationError


def rewrite_checked(root, rel, blob):
    """Write ``blob`` to ``root/rel`` and record its digest in CHECKSUMS."""
    (root / rel).write_bytes(blob)
    sums = root / "CHECKSUMS"
    lines = [f"{hashlib.sha256(blob).hexdigest()}  {rel}" if line.endswith(f"  {rel}")
             else line for line in sums.read_text().splitlines()]
    sums.write_text("\n".join(lines) + "\n")


class TestBundle:
    def test_list_scenarios(self):
        names = bundle.list_scenarios()
        for expected in ("tiny-2bus", "feeder13-highpv", "feeder13-lowpv",
                         "feeder13-extreme", "feeder40-highpv"):
            assert expected in names

    def test_tiny_2bus(self):
        sc = bundle.load_scenario("tiny-2bus")
        assert sc.feeder.n_nodes == 1
        assert len(sc.feeder.der_nodes) == 1
        assert sc.p_available_kw[0] == pytest.approx(300.0)

    def test_feeder13_highpv_der_layout(self):
        sc = bundle.load_scenario("feeder13-highpv")
        assert len(sc.feeder.der_nodes) == 9
        der_buses = sorted({d.bus for d in sc.feeder.ders})
        assert der_buses == ["634", "675", "680"]
        np.testing.assert_allclose(sc.p_available_kw, 300.0)
        assert sc.transmission is not None

    def test_feeder13_highpv_overvoltage_exists(self):
        # the defining property of the scenario: uncontrolled full output
        # pushes some bus-phase above the 1.05 pu planning limit
        sc = bundle.load_scenario("feeder13-highpv")
        m = sc.feeder
        p_g = np.zeros(m.n_nodes)
        for k, node in enumerate(m.der_nodes):
            p_g[node] = sc.p_available_kw[k] / m.s_base_kva
        res = feeder.bfm_oracle(m, p_g, np.zeros(m.n_nodes))
        assert res.v_mag.max() > 1.05

    def test_feeder40_size(self):
        sc = bundle.load_scenario("feeder40-highpv")
        assert 36 <= sc.feeder.n_nodes <= 45
        assert len(sc.feeder.der_nodes) == 12

    def test_bench_candidates(self):
        sc = bundle.load_scenario("feeder13-bench")
        assert len(sc.feeder.der_nodes) >= 21

    def test_unknown_scenario(self):
        with pytest.raises(ParseError):
            bundle.load_scenario("does-not-exist")

    def test_tampered_file_rejected(self, tmp_path):
        root = tmp_path / "data"
        shutil.copytree(bundle.data_root(), root)
        victim = root / "feeders" / "tiny2.json"
        victim.write_text(victim.read_text().replace("100.0", "101.0"))
        with pytest.raises(ChecksumMismatch):
            bundle.load_scenario("tiny-2bus", root=root)

    def test_unlisted_file_rejected(self, tmp_path):
        root = tmp_path / "data"
        shutil.copytree(bundle.data_root(), root)
        (root / "scenarios" / "rogue.json").write_text("{}")
        with pytest.raises(ChecksumMismatch):
            bundle.load_scenario("rogue", root=root)

    @pytest.mark.parametrize("rel,drop", [
        ("inverters/default.json", lambda doc: doc["inverters"][0].pop("s_kva")),
        ("scenarios/tiny-2bus.json", lambda doc: doc.pop("feeder")),
        ("scenarios/tiny-2bus.json", lambda doc: doc.update(feeder=[doc["feeder"]])),
        ("scenarios/tiny-2bus.json", lambda doc: doc.update(feeder=None)),
    ], ids=["inverter-s_kva", "scenario-feeder", "scenario-feeder-list",
            "scenario-feeder-null"])
    def test_missing_field_is_parse_error(self, tmp_path, rel, drop):
        # the checksum is rewritten, so only the schema is wrong
        root = tmp_path / "data"
        shutil.copytree(bundle.data_root(), root)
        doc = json.loads((root / rel).read_text())
        drop(doc)
        rewrite_checked(root, rel, json.dumps(doc).encode())
        with pytest.raises(ParseError, match=rel):
            bundle.load_scenario("tiny-2bus", root=root)

    @pytest.mark.parametrize("outage", [["9"], "94", ["9", "4", "5"], [9, 4]],
                             ids=["one-bus", "string", "three-buses", "numbers"])
    def test_malformed_outage_is_parse_error(self, tmp_path, outage):
        root = tmp_path / "data"
        shutil.copytree(bundle.data_root(), root)
        rel = "scenarios/tx9-outage.json"
        doc = json.loads((root / rel).read_text())
        doc["outage"] = outage
        rewrite_checked(root, rel, json.dumps(doc).encode())
        with pytest.raises(ParseError, match=rel):
            bundle.load_scenario("tx9-outage", root=root)

    @pytest.mark.parametrize("multiplicity", [0, -2])
    def test_multiplicity_below_one_rejected(self, tmp_path, multiplicity):
        root = tmp_path / "data"
        shutil.copytree(bundle.data_root(), root)
        rel = "transmission/tx9.json"
        doc = json.loads((root / rel).read_text())
        doc["interfaces"][0]["multiplicity"] = multiplicity
        rewrite_checked(root, rel, json.dumps(doc).encode())
        with pytest.raises(ValidationError, match="multiplicity"):
            bundle.load_scenario("tx9-outage", root=root)

    @pytest.mark.parametrize("multiplicity", [1.9, True, "2", None],
                             ids=["fraction", "bool", "string", "null"])
    def test_multiplicity_not_whole_is_parse_error(self, tmp_path, multiplicity):
        root = tmp_path / "data"
        shutil.copytree(bundle.data_root(), root)
        rel = "transmission/tx9.json"
        doc = json.loads((root / rel).read_text())
        doc["interfaces"][0]["multiplicity"] = multiplicity
        rewrite_checked(root, rel, json.dumps(doc).encode())
        with pytest.raises(ParseError, match=rel):
            bundle.load_scenario("tx9-outage", root=root)

    @pytest.mark.parametrize("value", [float("nan"), "nan", float("inf")],
                             ids=["json-nan", "string-nan", "json-inf"])
    def test_non_finite_inverter_rejected(self, tmp_path, value):
        root = tmp_path / "data"
        shutil.copytree(bundle.data_root(), root)
        rel = "inverters/default.json"
        doc = json.loads((root / rel).read_text())
        doc["inverters"][0]["q_max_kvar"] = value
        rewrite_checked(root, rel, json.dumps(doc).encode())
        with pytest.raises(ValidationError, match="finite"):
            bundle.load_scenario("tiny-2bus", root=root)

    def test_non_utf8_file_is_parse_error(self, tmp_path):
        root = tmp_path / "data"
        shutil.copytree(bundle.data_root(), root)
        rel = "feeders/tiny2.json"
        rewrite_checked(root, rel, (root / rel).read_text().encode("utf-16"))
        with pytest.raises(ParseError, match=rel):
            bundle.load_scenario("tiny-2bus", root=root)

    @pytest.mark.parametrize("line,match", [
        (b"0123abcd\n", "CHECKSUMS line"),
        (b"\xff\xfe  feeders/tiny2.json\n", "not UTF-8"),
    ], ids=["one-field", "non-utf8"])
    def test_malformed_checksums_rejected(self, tmp_path, line, match):
        root = tmp_path / "data"
        shutil.copytree(bundle.data_root(), root)
        with (root / "CHECKSUMS").open("ab") as fh:
            fh.write(line)
        with pytest.raises(ChecksumMismatch, match=match):
            bundle.load_scenario("tiny-2bus", root=root)

    def test_all_bundled_scenarios_load(self):
        for name in bundle.list_scenarios():
            sc = bundle.load_scenario(name)
            assert sc.feeder.n_nodes > 0
            blocks = feeder.build_blocks(sc.feeder)
            assert blocks.k.shape == (sc.feeder.n_nodes, sc.feeder.n_nodes)
