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

    The manifest's ``history`` (round -> members) and ``last_participation``
    are derived from ``ledger.client_rounds``. Only gradients cached since
    the previous save are hashed; the rest reuse their digest from
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
    atomic_write(gradients_path, chunks)
    atomic_write(json_path, [(json.dumps(document, indent=2) + "\n").encode("utf-8")])


def _int_key(json_path, key: str, name: str) -> int:
    """The int that ``save_ledger`` wrote as the JSON key ``key``; no other spelling loads."""
    try:
        if str(int(key)) == key:
            return int(key)
    except ValueError:
        pass
    raise FormatError(f"{json_path}: {name} key {key!r} is not an integer as a ledger writes it")


def load_ledger(json_path, gradients_path) -> ParticipationLedger:
    """Read back a ledger that ``save_ledger`` wrote.

    A ledger that no run can write raises FormatError naming the file: a run
    records ascending rounds of distinct client ids, each round before it
    caches, and caches a client's gradient and similarity together, once.
    """
    document = json.loads(Path(json_path).read_text(encoding="utf-8"))
    if document.get("schema_version") != LEDGER_SCHEMA_VERSION:
        raise FormatError(f"{json_path}: unsupported ledger schema {document.get('schema_version')!r}")
    ledger = ParticipationLedger()
    history = {_int_key(json_path, r, "history"): members
               for r, members in document["history"].items()}
    for r in sorted(history):
        members = history[r]
        if r < 1:
            raise FormatError(f"{json_path}: history records round {r}, before round 1")
        if (not members or len(set(members)) != len(members)
                or not all(type(c) is int and c >= 1 for c in members)):
            raise FormatError(f"{json_path}: round {r} must list distinct client ids "
                              f"(integers from 1), at least one")
        ledger.record_round(r, members)
    expected_last = {_int_key(json_path, c, "last_participation"): r
                     for c, r in document["last_participation"].items()}
    if expected_last != {c: rounds[-1] for c, rounds in ledger.client_rounds.items()}:
        raise FormatError(f"{json_path}: last_participation disagrees with history")
    similarities = {_int_key(json_path, c, "last_similarity"): s
                    for c, s in document["last_similarity"].items()}
    cached = [entry["client"] for entry in document["gradient_cache"]]
    if len(set(cached)) != len(cached):
        raise FormatError(f"{json_path}: gradient_cache lists a client twice")
    if set(cached) != similarities.keys():
        raise FormatError(f"{json_path}: last_similarity and gradient_cache cover different clients")
    if not similarities.keys() <= ledger.client_rounds.keys():
        raise FormatError(f"{json_path}: a cached client is absent from history")
    for cid, similarity in similarities.items():
        ledger.cache_similarity(cid, similarity)
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
