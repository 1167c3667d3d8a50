"""Checkpoint serialization: parameter vectors and the participation ledger.

Binary vectors are length-prefixed little-endian float64 (u64 count, then
values). The ledger checkpoint is a JSON document next to a binary gradient
cache; the JSON records a sha256 digest per cached gradient so corruption is
detected on load.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from .aggregation import ParticipationLedger
from .errors import FormatError, TruncatedFileError

LEDGER_SCHEMA_VERSION = 1


def write_vector(path, values: np.ndarray) -> None:
    Path(path).write_bytes(_pack_vector(values))


def read_vector(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < 8:
        raise TruncatedFileError(f"{path}: missing length prefix")
    (count,) = struct.unpack_from("<Q", raw)
    if len(raw) < 8 + count * 8:
        raise TruncatedFileError(f"{path}: expected {count} values, file too short")
    if len(raw) > 8 + count * 8:
        raise FormatError(f"{path}: trailing bytes after {count} values")
    return np.frombuffer(raw, dtype="<f8", offset=8).astype(np.float64)


def _pack_vector(values: np.ndarray) -> bytes:
    values = np.asarray(values, dtype="<f8")
    return struct.pack("<Q", len(values)) + values.tobytes()


def save_ledger(ledger: ParticipationLedger, json_path, gradients_path) -> None:
    entries = []
    blob = bytearray()
    for cid in sorted(ledger.last_gradient):
        packed = _pack_vector(ledger.last_gradient[cid])
        entries.append({
            "client": cid,
            "length": len(ledger.last_gradient[cid]),
            "sha256": hashlib.sha256(packed).hexdigest(),
        })
        blob.extend(packed)
    document = {
        "schema_version": LEDGER_SCHEMA_VERSION,
        "history": {str(r): sorted(members) for r, members in sorted(ledger.history.items())},
        "last_participation": {str(c): r for c, r in sorted(ledger.last_participation.items())},
        "last_similarity": {str(c): s for c, s in sorted(ledger.last_similarity.items())},
        "gradient_cache": entries,
    }
    Path(gradients_path).write_bytes(bytes(blob))
    Path(json_path).write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")


def load_ledger(json_path, gradients_path) -> ParticipationLedger:
    document = json.loads(Path(json_path).read_text(encoding="utf-8"))
    if document.get("schema_version") != LEDGER_SCHEMA_VERSION:
        raise FormatError(f"{json_path}: unsupported ledger schema {document.get('schema_version')!r}")
    ledger = ParticipationLedger()
    for r, members in sorted(document["history"].items(), key=lambda kv: int(kv[0])):
        ledger.record_round(int(r), members)
    expected_last = {int(c): r for c, r in document["last_participation"].items()}
    if expected_last != ledger.last_participation:
        raise FormatError(f"{json_path}: last_participation disagrees with history")
    for c, s in document["last_similarity"].items():
        ledger.cache_similarity(int(c), s)
    with open(gradients_path, "rb") as fh:
        for entry in document["gradient_cache"]:
            packed = fh.read(8 + entry["length"] * 8)
            if len(packed) != 8 + entry["length"] * 8:
                raise TruncatedFileError(f"{gradients_path}: gradient cache shorter than manifest")
            if hashlib.sha256(packed).hexdigest() != entry["sha256"]:
                raise FormatError(f"{gradients_path}: digest mismatch for client {entry['client']}")
            (count,) = struct.unpack("<Q", packed[:8])
            if count != entry["length"]:
                raise FormatError(f"{gradients_path}: length prefix disagrees with manifest")
            ledger.cache_gradient(int(entry["client"]),
                                  np.frombuffer(packed[8:], dtype="<f8").astype(np.float64))
        if fh.read(1):
            raise FormatError(f"{gradients_path}: trailing bytes after gradient cache")
    return ledger
