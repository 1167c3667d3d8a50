"""Checkpoint serialization: parameter vectors and the participation ledger.

Binary vectors are length-prefixed little-endian float64 (u64 count, then
values). The ledger checkpoint is a JSON document next to a binary gradient
cache; the JSON records a sha256 digest per cached gradient so corruption is
detected on load.

Every file is written through ``atomic_write``: a crash leaves either the old
file or the complete new one, never a torn one. A cached gradient that the
ledger no longer holds in memory is copied, record for record, from the
``gradients.bin`` that the previous save wrote.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .aggregation import ParticipationLedger
from .data import read_exact
from .errors import FormatError, InvariantError

LEDGER_SCHEMA_VERSION = 1
_IOV_MAX = os.sysconf("SC_IOV_MAX")
_COPY_BLOCK = 1 << 16  # below malloc's mmap threshold, so each block reuses heap memory


@dataclass(frozen=True)
class FileRange:
    """A chunk for ``atomic_write``: ``length`` bytes of the file at ``path`` from ``offset``."""

    path: Path
    offset: int
    length: int


def _write_views(fd: int, views: list[memoryview]) -> None:
    """Write ``views`` in order, ``SC_IOV_MAX`` per ``os.writev``; a short write resumes."""
    done = 0
    while done < len(views):
        written = os.writev(fd, views[done:done + _IOV_MAX])
        while done < len(views) and written >= len(views[done]):
            written -= len(views[done])
            done += 1
        if written:
            views[done] = views[done][written:]


def _copy_range(fd: int, chunk: FileRange) -> None:
    """Append ``chunk``'s bytes at ``fd``'s position, read by ``read_exact`` at most
    ``_COPY_BLOCK`` bytes at a time through a buffered file, which resumes a short read.

    A source that ends before the range does raises FormatError naming
    it; a missing one raises FileNotFoundError naming it.
    """
    end = chunk.offset + chunk.length
    with open(chunk.path, "rb") as source:
        source.seek(chunk.offset)
        for start in range(chunk.offset, end, _COPY_BLOCK):
            block = read_exact(source, min(end - start, _COPY_BLOCK), chunk.path,
                               f"the cached gradient records at bytes {chunk.offset}-{end}")
            _write_views(fd, [memoryview(block)])


def atomic_write(path, chunks: Iterable) -> None:
    """Write ``chunks`` to ``<path>.tmp``, then rename it to ``path``.

    A chunk is bytes-like or a ``FileRange``. Bytes-like chunks go to the
    kernel uncopied, ``SC_IOV_MAX`` buffers per ``os.writev`` call, and a
    short write resumes where it stopped. A ``FileRange`` is copied from its
    file by ``_copy_range``. If anything fails before the rename, the temp
    file is unlinked and the error propagates. There is no fsync: the rename
    orders the file's replacement, not its durability across a power loss.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            views = []
            for chunk in chunks:
                if isinstance(chunk, FileRange):
                    _write_views(fd, views)
                    views = []
                    _copy_range(fd, chunk)
                else:
                    views.append(memoryview(chunk).cast("B"))
            _write_views(fd, views)
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
    """The values ``write_vector`` wrote to ``path``; bytes after them raise FormatError."""
    with open(path, "rb") as fh:
        (count,) = struct.unpack("<Q", read_exact(fh, 8, path, "length prefix"))
        values = read_exact(fh, 8 * count, path, f"{count} values")
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after {count} values")
    return np.frombuffer(values, dtype="<f8").astype(np.float64)


def _json_container(brackets: str, members: list[str], depth: int) -> str:
    """The rendered ``members`` in ``brackets``, laid out as ``json.dumps(indent=2)`` at ``depth``."""
    if not members:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    return brackets[0] + pad + ("," + pad).join(members) + "\n" + "  " * depth + brackets[1]


def _ledger_files(ledger: ParticipationLedger) -> tuple[bytes, list, dict]:
    """The ``ledger.json`` bytes and the ``gradients.bin`` chunks that describe ``ledger``,
    and where in ``gradients.bin`` each client's record lands.

    The manifest's ``history`` (round -> members) and ``last_participation``
    are derived from ``ledger.client_rounds``. Only gradients cached since
    the last save are hashed; the rest reuse their digest from
    ``ledger.gradient_records``. A gradient released from memory becomes a
    ``FileRange`` of its record in ``ledger.gradient_file``, one range per
    run of adjacent records. The text is built directly, byte for byte what
    ``json.dumps(document, indent=2) + "\n"`` gives for the document.
    """
    clients = sorted(ledger.client_rounds.items())
    history: dict[int, list[str]] = {}
    for cid, rounds in clients:
        for r in rounds:
            history.setdefault(r, []).append(str(cid))
    entries = []
    chunks = []
    records = {}
    offset = 0
    for cid in sorted(ledger.last_gradient.keys() | ledger.gradient_records.keys()):
        saved = ledger.gradient_records.get(cid)
        if cid in ledger.last_gradient:
            prefix, values = _vector_chunks(ledger.last_gradient[cid])
            length = len(values)
            if saved is None:
                sha = hashlib.sha256(prefix)
                sha.update(values)
                digest = sha.hexdigest()
            else:
                digest = saved[0]
            chunks += (prefix, values)
        else:
            digest, start, length = saved
            last = chunks[-1] if chunks else None
            if isinstance(last, FileRange) and last.offset + last.length == start:
                chunks[-1] = FileRange(last.path, last.offset, last.length + 8 + 8 * length)
            else:
                chunks.append(FileRange(ledger.gradient_file, start, 8 + 8 * length))
        entries.append(_json_container("{}", [f'"client": {cid}', f'"length": {length}',
                                              f'"sha256": "{digest}"'], 2))
        records[cid] = (digest, offset, length)
        offset += 8 + 8 * length
    sections = [
        f'"schema_version": {LEDGER_SCHEMA_VERSION}',
        '"history": ' + _json_container(
            "{}", [f'"{r}": ' + _json_container("[]", history[r], 2) for r in sorted(history)], 1),
        '"last_participation": ' + _json_container(
            "{}", [f'"{c}": {rounds[-1]}' for c, rounds in clients], 1),
        '"last_similarity": ' + _json_container(
            "{}", [f'"{c}": {s!r}' for c, s in sorted(ledger.last_similarity.items())], 1),
        '"gradient_cache": ' + _json_container("[]", entries, 1),
    ]
    return (_json_container("{}", sections, 0) + "\n").encode("utf-8"), chunks, records


def save_ledger(ledger: ParticipationLedger, json_path, gradients_path) -> None:
    """Write the ledger's JSON manifest and its gradient cache.

    Once ``gradients.bin`` is in place, the ledger's record locations move
    to it, so a gradient released from memory after this save is copied
    from this file by the next.
    """
    manifest, chunks, records = _ledger_files(ledger)
    atomic_write(gradients_path, chunks)
    ledger.gradient_file, ledger.gradient_records = Path(gradients_path), records
    atomic_write(json_path, [manifest])


def load_ledger(json_path, gradients_path) -> ParticipationLedger:
    """Read back a ledger that ``save_ledger`` wrote.

    The ledger is rebuilt through its mutators, and ``ledger.json`` must hold
    exactly the bytes ``save_ledger`` writes for the rebuilt ledger; any other
    manifest, or a similarity outside [-1, 1], raises FormatError naming the
    file. ``gradients.bin`` must hold the records the manifest lists, each
    with its digest, and nothing more; a record longer than the rest of the
    file raises FormatError unread.
    The ledger's ``gradient_file`` and ``gradient_records`` point into
    ``gradients_path``, as they do after the save that wrote it.
    """
    manifest = Path(json_path).read_bytes()
    ledger = ParticipationLedger()
    try:
        document = json.loads(manifest)
        for r, members in document["history"].items():
            ledger.record_round(int(r), members)
        similarities = {int(c): float(s) for c, s in document["last_similarity"].items()}
        cache = [(int(e["client"]), int(e["length"]), e["sha256"]) for e in document["gradient_cache"]]
    except (KeyError, AttributeError, TypeError, ValueError, OverflowError, RecursionError,
            InvariantError) as exc:
        raise FormatError(f"{json_path}: no run writes this ledger: {exc!r}") from exc
    if document.get("schema_version") != LEDGER_SCHEMA_VERSION:
        raise FormatError(f"{json_path}: unsupported ledger schema {document.get('schema_version')!r}")
    # Every similarity a run records is a cosine clipped to [-1, 1]; NaN fails both bounds.
    if not all(-1.0 <= s <= 1.0 for s in similarities.values()):
        raise FormatError(f"{json_path}: a similarity outside [-1, 1], which no run records")
    with open(gradients_path, "rb") as fh:
        for cid, length, digest in cache:
            packed = read_exact(fh, 8 + 8 * length, gradients_path, f"client {cid}'s gradient")
            if hashlib.sha256(packed).hexdigest() != digest:
                raise FormatError(f"{gradients_path}: digest mismatch for client {cid}")
            if cid in ledger.client_rounds and cid in similarities:
                ledger.cache(cid, np.frombuffer(packed, dtype="<f8", offset=8), similarities[cid])
        if fh.read(1):
            raise FormatError(f"{gradients_path}: trailing bytes after gradient cache")
    # Re-rendering hashes each record again from its values, so a length
    # prefix that disagrees with the manifest's ``length`` fails here too.
    rendered, _, ledger.gradient_records = _ledger_files(ledger)
    if rendered != manifest:
        raise FormatError(f"{json_path}: not the bytes save_ledger writes for the ledger it describes")
    ledger.gradient_file = Path(gradients_path)
    return ledger
