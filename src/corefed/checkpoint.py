"""Checkpoint serialization: parameter vectors and the participation ledger.

Binary vectors are length-prefixed little-endian float64 (u64 count, then
values). The ledger checkpoint is a JSON document next to a binary gradient
cache; the JSON records a sha256 digest per cached gradient so corruption is
detected on load.

Every file is written through ``atomic_write``: a crash leaves either the old
file or the complete new one, never a torn one.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from .aggregation import ParticipationLedger
from .errors import FormatError, TruncatedFileError

LEDGER_SCHEMA_VERSION = 1


def atomic_write(path, chunks: Iterable) -> None:
    """Write the bytes-like ``chunks`` to ``<path>.tmp``, then rename it to ``path``.

    If anything fails before the rename, the temp file is unlinked and the
    error propagates. There is no fsync: the rename orders the file's
    replacement, not its durability across a power loss.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _vector_chunks(values: np.ndarray) -> tuple[bytes, np.ndarray]:
    """The ``<Q`` length prefix and the little-endian float64 values, uncopied when possible."""
    values = np.ascontiguousarray(values, dtype="<f8")
    return struct.pack("<Q", len(values)), values


def write_vector(path, values: np.ndarray) -> None:
    atomic_write(path, _vector_chunks(values))


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


def save_ledger(ledger: ParticipationLedger, json_path, gradients_path) -> None:
    """Write the ledger's JSON manifest and its gradient cache.

    Only gradients cached since the previous save are hashed; the rest reuse
    their digest from ``ledger.gradient_digests``.
    """
    entries = []
    chunks = []
    for cid in sorted(ledger.last_gradient):
        prefix, values = _vector_chunks(ledger.last_gradient[cid])
        digest = ledger.gradient_digests.get(cid)
        if digest is None:
            sha = hashlib.sha256(prefix)
            sha.update(values)
            digest = ledger.gradient_digests[cid] = sha.hexdigest()
        entries.append({"client": cid, "length": len(values), "sha256": digest})
        chunks += (prefix, values)
    document = {
        "schema_version": LEDGER_SCHEMA_VERSION,
        "history": {str(r): sorted(members) for r, members in sorted(ledger.history.items())},
        "last_participation": {str(c): r for c, r in sorted(ledger.last_participation.items())},
        "last_similarity": {str(c): s for c, s in sorted(ledger.last_similarity.items())},
        "gradient_cache": entries,
    }
    atomic_write(gradients_path, chunks)
    atomic_write(json_path, [(json.dumps(document, indent=2) + "\n").encode("utf-8")])


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
            cid = int(entry["client"])
            ledger.cache_gradient(cid, np.frombuffer(packed, dtype="<f8", offset=8))
            ledger.gradient_digests[cid] = entry["sha256"]
        if fh.read(1):
            raise FormatError(f"{gradients_path}: trailing bytes after gradient cache")
    return ledger
