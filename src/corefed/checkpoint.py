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
from .errors import FormatError, InvariantError, TruncatedFileError

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


def _ledger_files(ledger: ParticipationLedger) -> tuple[bytes, list]:
    """The ``ledger.json`` bytes and the ``gradients.bin`` chunks that describe ``ledger``.

    The manifest's ``history`` (round -> members) and ``last_participation``
    are derived from ``ledger.client_rounds``. Only gradients cached since
    their digest was last filled are hashed; the rest reuse their digest from
    ``ledger.gradient_digests``.
    """
    clients = sorted(ledger.client_rounds.items())
    history: dict[int, list[int]] = {}
    for cid, rounds in clients:
        for r in rounds:
            history.setdefault(r, []).append(cid)
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
        "history": {str(r): history[r] for r in sorted(history)},
        "last_participation": {str(c): rounds[-1] for c, rounds in clients},
        "last_similarity": {str(c): s for c, s in sorted(ledger.last_similarity.items())},
        "gradient_cache": entries,
    }
    return (json.dumps(document, indent=2) + "\n").encode("utf-8"), chunks


def save_ledger(ledger: ParticipationLedger, json_path, gradients_path) -> None:
    """Write the ledger's JSON manifest and its gradient cache."""
    manifest, chunks = _ledger_files(ledger)
    atomic_write(gradients_path, chunks)
    atomic_write(json_path, [manifest])


def load_ledger(json_path, gradients_path) -> ParticipationLedger:
    """Read back a ledger that ``save_ledger`` wrote.

    The ledger is rebuilt through its mutators, and ``ledger.json`` must hold
    exactly the bytes ``save_ledger`` writes for the rebuilt ledger; any other
    manifest raises FormatError naming the file. ``gradients.bin`` must hold
    the records the manifest lists, each with its digest, and nothing more.
    """
    manifest = Path(json_path).read_bytes()
    try:
        document = json.loads(manifest)
    except ValueError as exc:
        raise FormatError(f"{json_path}: not a JSON document: {exc}") from exc
    if not isinstance(document, dict):
        raise FormatError(f"{json_path}: not a JSON object")
    if document.get("schema_version") != LEDGER_SCHEMA_VERSION:
        raise FormatError(f"{json_path}: unsupported ledger schema {document.get('schema_version')!r}")
    ledger = ParticipationLedger()
    try:
        for r, members in document["history"].items():
            ledger.record_round(int(r), members)
        similarities = {int(c): float(s) for c, s in document["last_similarity"].items()}
        cache = [(int(e["client"]), int(e["length"]), e["sha256"]) for e in document["gradient_cache"]]
    except (KeyError, AttributeError, TypeError, ValueError, OverflowError,
            InvariantError) as exc:
        raise FormatError(f"{json_path}: no run writes this ledger: {exc!r}") from exc
    with open(gradients_path, "rb") as fh:
        for cid, length, digest in cache:
            packed = fh.read(8 + length * 8)
            if len(packed) != 8 + length * 8:
                raise TruncatedFileError(f"{gradients_path}: gradient cache shorter than manifest")
            if hashlib.sha256(packed).hexdigest() != digest:
                raise FormatError(f"{gradients_path}: digest mismatch for client {cid}")
            if struct.unpack_from("<Q", packed)[0] != length:
                raise FormatError(f"{gradients_path}: length prefix disagrees with manifest")
            if cid in ledger.client_rounds and cid in similarities:
                ledger.cache(cid, np.frombuffer(packed, dtype="<f8", offset=8), similarities[cid])
                ledger.gradient_digests[cid] = digest
        if fh.read(1):
            raise FormatError(f"{gradients_path}: trailing bytes after gradient cache")
    if _ledger_files(ledger)[0] != manifest:
        raise FormatError(f"{json_path}: not the bytes save_ledger writes for the ledger it describes")
    return ledger
