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
import math
import os
import struct
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from .aggregation import ParticipationLedger
from .errors import FormatError, InvariantError, TruncatedFileError

LEDGER_SCHEMA_VERSION = 1
_IOV_MAX = os.sysconf("SC_IOV_MAX")


def atomic_write(path, chunks: Iterable) -> None:
    """Write the bytes-like ``chunks`` to ``<path>.tmp``, then rename it to ``path``.

    The chunks go to the kernel uncopied, ``SC_IOV_MAX`` buffers per
    ``os.writev`` call, and a short write resumes where it stopped. If
    anything fails before the rename, the temp file is unlinked and the error
    propagates. There is no fsync: the rename orders the file's replacement,
    not its durability across a power loss.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            views = [memoryview(chunk).cast("B") for chunk in chunks]
            done = 0
            while done < len(views):
                written = os.writev(fd, views[done:done + _IOV_MAX])
                while done < len(views) and written >= len(views[done]):
                    written -= len(views[done])
                    done += 1
                if written:
                    views[done] = views[done][written:]
        finally:
            os.close(fd)
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


def _json_container(brackets: str, members: list[str], depth: int) -> str:
    """The rendered ``members`` in ``brackets``, laid out as ``json.dumps(indent=2)`` at ``depth``."""
    if not members:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    return brackets[0] + pad + ("," + pad).join(members) + "\n" + "  " * depth + brackets[1]


def _json_float(x: float) -> str:
    """``x`` as the json module writes a float."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _ledger_files(ledger: ParticipationLedger) -> tuple[bytes, list]:
    """The ``ledger.json`` bytes and the ``gradients.bin`` chunks that describe ``ledger``.

    The manifest's ``history`` (round -> members) and ``last_participation``
    are derived from ``ledger.client_rounds``. Only gradients cached since
    their digest was last filled are hashed; the rest reuse their digest from
    ``ledger.gradient_digests``. The text is built directly, byte for byte
    what ``json.dumps(document, indent=2) + "\n"`` gives for the document.
    """
    clients = sorted(ledger.client_rounds.items())
    history: dict[int, list[str]] = {}
    for cid, rounds in clients:
        for r in rounds:
            history.setdefault(r, []).append(str(cid))
    entries = []
    chunks = []
    for cid in sorted(ledger.last_gradient):
        prefix, values = _vector_chunks(ledger.last_gradient[cid])
        digest = ledger.gradient_digests.get(cid)
        if digest is None:
            sha = hashlib.sha256(prefix)
            sha.update(values)
            digest = ledger.gradient_digests[cid] = sha.hexdigest()
        entries.append(_json_container("{}", [f'"client": {cid}', f'"length": {len(values)}',
                                              f'"sha256": "{digest}"'], 2))
        chunks += (prefix, values)
    sections = [
        f'"schema_version": {LEDGER_SCHEMA_VERSION}',
        '"history": ' + _json_container(
            "{}", [f'"{r}": ' + _json_container("[]", history[r], 2) for r in sorted(history)], 1),
        '"last_participation": ' + _json_container(
            "{}", [f'"{c}": {rounds[-1]}' for c, rounds in clients], 1),
        '"last_similarity": ' + _json_container(
            "{}", [f'"{c}": {_json_float(s)}' for c, s in sorted(ledger.last_similarity.items())],
            1),
        '"gradient_cache": ' + _json_container("[]", entries, 1),
    ]
    return (_json_container("{}", sections, 0) + "\n").encode("utf-8"), chunks


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
