"""Bundled, checksummed test cases and scenario definitions.

Layout: ``data/{feeders,transmission,inverters,scenarios}/*.json`` plus
a ``CHECKSUMS`` file with one ``sha256  relpath`` line per asset.  Every
file is verified against its recorded digest when read, so tampered or
truncated bundles fail loudly with :class:`ChecksumMismatch`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import FIELD_ERRORS, ChecksumMismatch, ParseError
from ..feeder import FeederModel, load_feeder
from ..inverter import InverterSpec
from ..tso import TransmissionCase, load_transmission

_ROOT = Path(__file__).resolve().parent


def data_root() -> Path:
    return _ROOT


def _checksums(root: Path) -> dict[str, str]:
    path = root / "CHECKSUMS"
    if not path.exists():
        raise ChecksumMismatch(f"missing CHECKSUMS file under {root}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ChecksumMismatch(f"CHECKSUMS under {root} is not UTF-8 text ({exc})") from exc
    table = {}
    for k, line in enumerate(text.splitlines(), 1):
        fields = line.split(None, 1)
        if not fields:
            continue
        if len(fields) != 2:
            raise ChecksumMismatch(f"CHECKSUMS line {k} is not 'digest  path': {line!r}")
        digest, rel = fields
        table[rel.strip()] = digest
    return table


def _read_verified(root: Path, rel: str) -> bytes:
    table = _checksums(root)
    if rel not in table:
        raise ChecksumMismatch(f"{rel} is not listed in CHECKSUMS")
    blob = (root / rel).read_bytes()
    digest = hashlib.sha256(blob).hexdigest()
    if digest != table[rel]:
        raise ChecksumMismatch(f"{rel}: digest {digest[:12]}... does not match record")
    return blob


def _read_json(root: Path, rel: str):
    blob = _read_verified(root, rel)
    try:
        return json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{rel}: {exc}") from exc


@dataclass
class Scenario:
    name: str
    description: str
    feeder: FeederModel
    inverters: dict            # id -> InverterSpec
    profile: dict
    p_available_kw: np.ndarray  # per DER placement, file order
    load_scale: float
    irradiance: float
    transmission: TransmissionCase | None = None
    outage: tuple | None = None


def list_scenarios(root: Path | None = None) -> list[str]:
    root = root or _ROOT
    return sorted(p.stem for p in (root / "scenarios").glob("*.json"))


def load_scenario(name: str, root: Path | None = None) -> Scenario:
    """Load, verify, and assemble one named scenario bundle from ``root``
    (a copy of the bundle; the packaged one by default)."""
    root = Path(root) if root is not None else _ROOT
    rel = f"scenarios/{name}.json"
    if not (root / rel).exists():
        raise ParseError(f"unknown scenario {name!r}; have {list_scenarios(root)}")
    doc = _read_json(root, rel)
    try:
        load_scale = float(doc.get("load_scale", 1.0))
        irradiance = float(doc.get("irradiance", 1.0))
        feeder_rel, inv_rel = doc["feeder"], doc["inverters"]
        tx_rel = doc.get("transmission")
        outage = doc.get("outage")
    except FIELD_ERRORS as exc:
        raise ParseError(f"{rel}: missing or malformed field ({exc!r})") from exc
    refs = {"feeder": feeder_rel, "inverters": inv_rel}
    if tx_rel is not None:
        refs["transmission"] = tx_rel
    bad = [key for key, ref in refs.items() if not isinstance(ref, str)]
    if bad:
        raise ParseError(f"{rel}: {', '.join(bad)} must be a file path string")
    if outage is not None and not (isinstance(outage, list) and len(outage) == 2
                                   and all(isinstance(bus, str) for bus in outage)):
        raise ParseError(f"{rel}: outage must be a list of two bus ids, not {outage!r}")

    feeder_doc = _read_json(root, feeder_rel)
    model = load_feeder(feeder_doc, load_scale=load_scale)

    inv_doc = _read_json(root, inv_rel)
    inverters = {}
    try:
        for rec in inv_doc["inverters"]:
            spec = InverterSpec(str(rec["id"]), float(rec["s_kva"]),
                                float(rec["p_max_kw"]), float(rec["q_max_kvar"]),
                                p_min=float(rec.get("p_min_kw", 0.0)),
                                m_pq=float(rec.get("m_pq", 2.2)),
                                b_pq=float(rec.get("b_pq", 0.0)))
            inverters[spec.inverter_id] = spec
        profile = inv_doc.get("profile", {})
    except FIELD_ERRORS as exc:
        raise ParseError(f"{inv_rel}: missing or malformed field ({exc!r})") from exc

    for inv_id in model.der_inverter_ids:
        if inv_id not in inverters:
            raise ParseError(f"feeder references unknown inverter {inv_id!r}")
    p_avail = np.array([irradiance * inverters[i].p_max
                        for i in model.der_inverter_ids])

    transmission = None
    if tx_rel:
        tx_doc = _read_json(root, tx_rel)
        try:
            transmission = load_transmission(tx_doc)
        except ParseError as exc:
            raise ParseError(f"{tx_rel}: {exc}") from exc

    return Scenario(name=str(doc.get("name", name)),
                    description=str(doc.get("description", "")),
                    feeder=model, inverters=inverters, profile=profile,
                    p_available_kw=p_avail, load_scale=load_scale,
                    irradiance=irradiance, transmission=transmission,
                    outage=tuple(outage) if outage else None)
