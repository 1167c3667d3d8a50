import errno
import hashlib
import io
import json
import math
import os
import re
import struct
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corefed import checkpoint, simulation
from corefed.aggregation import ParticipationLedger, window_bound
from corefed.checkpoint import (
    FileRange,
    atomic_write,
    load_ledger,
    read_vector,
    save_ledger,
    write_vector,
)
from corefed.cli import main
from corefed.config import ExperimentConfig, SyntheticSource, dumps_config
from corefed.data import read_exact
from corefed.errors import FormatError
from corefed.simulation import run_simulation


def sample_ledger():
    ledger = ParticipationLedger()
    ledger.record_round(1, {1, 2, 3})
    ledger.record_round(2, {2})
    ledger.cache(1, np.array([0.5, -1.5, 2.25]), 0.25)
    ledger.cache(2, np.array([1.0]), -0.75)
    ledger.cache(3, np.array([-0.125, 0.0]), 0.0)
    return ledger


class TestVectorFile:
    def test_round_trip(self, tmp_path):
        values = np.array([1.5, -2.25, 0.0, 1e300])
        path = tmp_path / "vec.bin"
        write_vector(path, values)
        np.testing.assert_array_equal(read_vector(path), values)

    def test_layout_is_length_prefixed_little_endian(self, tmp_path):
        path = tmp_path / "vec.bin"
        write_vector(path, np.array([1.0]))
        raw = path.read_bytes()
        assert raw[:8] == (1).to_bytes(8, "little")
        assert raw[8:] == np.float64(1.0).tobytes()

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "vec.bin"
        write_vector(path, np.array([1.0, 2.0]))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError, match="truncated while reading 2 values"):
            read_vector(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "vec.bin"
        write_vector(path, np.array([1.0, 2.0]))
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(FormatError, match="trailing bytes"):
            read_vector(path)

    def test_count_past_the_file_is_rejected_unread(self, tmp_path):
        path = tmp_path / "vec.bin"
        path.write_bytes(struct.pack("<Q", 2**62) + bytes(16))
        message = re.escape(f"{path}: truncated while reading {2**62} values")
        with pytest.raises(FormatError, match=message):
            read_vector(path)


def dumps_manifest(document):
    """``document`` as the json module encodes ledger.json: two-space indents and a final newline."""
    return json.dumps(document, indent=2) + "\n"


def ledger_json_oracle(ledger):
    """The ledger.json bytes for ``ledger``, built as a document and encoded by the json module.

    Each digest is the sha256 of the gradient's record, hashed here rather
    than read from the ledger's memo.
    """
    history = {}
    for cid, rounds in sorted(ledger.client_rounds.items()):
        for t in rounds:
            history.setdefault(t, []).append(cid)
    entries = []
    for cid, grad in sorted(ledger.last_gradient.items()):
        record = struct.pack("<Q", len(grad)) + np.asarray(grad, dtype="<f8").tobytes()
        entries.append({"client": cid, "length": len(grad),
                        "sha256": hashlib.sha256(record).hexdigest()})
    document = {
        "schema_version": checkpoint.LEDGER_SCHEMA_VERSION,
        "history": {str(t): history[t] for t in sorted(history)},
        "last_participation": {str(cid): rounds[-1]
                               for cid, rounds in sorted(ledger.client_rounds.items())},
        "last_similarity": {str(cid): s for cid, s in sorted(ledger.last_similarity.items())},
        "gradient_cache": entries,
    }
    return dumps_manifest(document).encode("utf-8")


def edited(edit):
    """``edit`` applied to the parsed ledger.json, written back as save_ledger formats it."""
    def apply(text):
        document = json.loads(text)
        edit(document)
        return dumps_manifest(document)
    return apply


class TestLedgerCheckpoint:
    def test_round_trip_restores_everything(self, tmp_path):
        ledger = sample_ledger()
        save_ledger(ledger, tmp_path / "ledger.json", tmp_path / "gradients.bin")
        restored = load_ledger(tmp_path / "ledger.json", tmp_path / "gradients.bin")
        assert restored.client_rounds == ledger.client_rounds
        assert restored.last_similarity == ledger.last_similarity
        assert set(restored.last_gradient) == set(ledger.last_gradient)
        for cid, grad in ledger.last_gradient.items():
            np.testing.assert_array_equal(restored.last_gradient[cid], grad)

    def test_corrupted_gradient_detected_by_digest(self, tmp_path):
        save_ledger(sample_ledger(), tmp_path / "ledger.json", tmp_path / "gradients.bin")
        blob = bytearray((tmp_path / "gradients.bin").read_bytes())
        blob[10] ^= 0xFF
        (tmp_path / "gradients.bin").write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_ledger(tmp_path / "ledger.json", tmp_path / "gradients.bin")

    def test_truncated_gradient_cache_rejected(self, tmp_path):
        save_ledger(sample_ledger(), tmp_path / "ledger.json", tmp_path / "gradients.bin")
        blob = (tmp_path / "gradients.bin").read_bytes()
        (tmp_path / "gradients.bin").write_bytes(blob[:-3])
        with pytest.raises(FormatError, match="truncated while reading client 3's gradient"):
            load_ledger(tmp_path / "ledger.json", tmp_path / "gradients.bin")

    def test_manifest_length_past_the_cache_is_rejected_unread(self, tmp_path):
        # asking read() for the 8 + 8 * 2**62 bytes this length declares
        # raised OverflowError
        save_ledger(sample_ledger(), tmp_path / "ledger.json", tmp_path / "gradients.bin")
        text = (tmp_path / "ledger.json").read_text(encoding="utf-8")
        text = edited(lambda d: d["gradient_cache"][0].update({"length": 2**62}))(text)
        (tmp_path / "ledger.json").write_text(text, encoding="utf-8")
        message = re.escape(f"{tmp_path / 'gradients.bin'}: truncated while reading client 1's")
        with pytest.raises(FormatError, match=message):
            load_ledger(tmp_path / "ledger.json", tmp_path / "gradients.bin")

    def test_length_prefix_that_disagrees_with_the_manifest_is_rejected(self, tmp_path):
        # client 3's record is the last, 2 values at byte 48; its prefix says 3
        # and the manifest carries that record's own digest, so only the
        # manifest's length of 2 disagrees with the record
        save_ledger(sample_ledger(), tmp_path / "ledger.json", tmp_path / "gradients.bin")
        blob = (tmp_path / "gradients.bin").read_bytes()
        record = struct.pack("<Q", 3) + blob[56:]
        (tmp_path / "gradients.bin").write_bytes(blob[:48] + record)
        text = (tmp_path / "ledger.json").read_text(encoding="utf-8")
        digest = hashlib.sha256(record).hexdigest()
        text = edited(lambda d: d["gradient_cache"][2].update({"sha256": digest}))(text)
        (tmp_path / "ledger.json").write_text(text, encoding="utf-8")
        message = re.escape(f"{tmp_path / 'ledger.json'}: not the bytes save_ledger writes")
        with pytest.raises(FormatError, match=message):
            load_ledger(tmp_path / "ledger.json", tmp_path / "gradients.bin")

    @pytest.mark.parametrize("edit, damaged", [
        (edited(lambda d: d["history"].update({"x": [1]})), "ledger.json"),
        (edited(lambda d: d["history"].update({"01": [3]})), "ledger.json"),
        (edited(lambda d: d["history"].update({"0": [3]})), "ledger.json"),
        (edited(lambda d: d["history"].update({"-2": [3]})), "ledger.json"),
        (edited(lambda d: d["history"].update({"2": [2, 2]})), "ledger.json"),
        (edited(lambda d: d["history"].update({"3": []})), "ledger.json"),
        (edited(lambda d: d["history"].update({"2": ["2"]})), "ledger.json"),
        (edited(lambda d: d["history"].update({"2": [2.0]})), "ledger.json"),
        (edited(lambda d: (d["history"].update({"3": [0]}),
                           d.update(last_participation={"0": 3, **d["last_participation"]}))),
         "ledger.json"),
        (edited(lambda d: d["last_participation"].update({"2": 1})), "ledger.json"),
        (edited(lambda d: d["last_similarity"].pop("3")), "ledger.json"),
        (edited(lambda d: d["gradient_cache"].pop()), "gradients.bin"),
        (edited(lambda d: d["last_similarity"].update({"4": 0.5})), "ledger.json"),
        (edited(lambda d: (d["last_similarity"].update({"4": d["last_similarity"].pop("3")}),
                           d["gradient_cache"][-1].update({"client": 4}))), "ledger.json"),
        (edited(lambda d: d["gradient_cache"][0].update({"client": 2})), "ledger.json"),
        (lambda text: text.replace('    "2": [\n      2\n    ]\n',
                                   '    "2": [\n      2\n    ],\n    "2": [\n      2\n    ]\n'),
         "ledger.json"),
        (lambda text: text.replace('    "1": 0.25,\n', '    "1": 0.25,\n    "1": 0.25,\n'),
         "ledger.json"),
        (edited(lambda d: d.update(history=d.pop("history"))), "ledger.json"),
        (edited(lambda d: d["gradient_cache"][0].update({"length": -2})), "gradients.bin"),
        (edited(lambda d: d["last_similarity"].update({"1": 1.5})), "ledger.json"),
        (edited(lambda d: d["last_similarity"].update({"1": math.nan})), "ledger.json"),
        (edited(lambda d: d["last_similarity"].update({"2": -math.inf})), "ledger.json"),
    ], ids=["round-not-integer", "round-named-twice", "round-zero", "round-negative",
            "member-twice", "round-without-members", "member-not-integer", "member-float",
            "member-below-one", "last-participation", "similarity-missing", "gradient-missing",
            "similarity-only", "cached-client-never-recorded", "client-cached-twice",
            "history-key-repeated", "similarity-key-repeated", "top-level-keys-reordered",
            "length-negative", "similarity-above-one", "similarity-nan",
            "similarity-minus-infinity"])
    def test_ledger_no_run_writes_is_rejected(self, tmp_path, edit, damaged):
        # Every edit keeps save_ledger's formatting, so only the edit itself
        # differs from a file a run writes.
        save_ledger(sample_ledger(), tmp_path / "ledger.json", tmp_path / "gradients.bin")
        text = (tmp_path / "ledger.json").read_text(encoding="utf-8")
        assert edit(text) != text
        (tmp_path / "ledger.json").write_text(edit(text), encoding="utf-8")
        with pytest.raises(FormatError, match=re.escape(str(tmp_path / damaged))):
            load_ledger(tmp_path / "ledger.json", tmp_path / "gradients.bin")

    @pytest.mark.parametrize("edit", [
        lambda text: text[:-4],
        lambda text: "[1]\n",
        edited(lambda d: d.pop("history")),
        edited(lambda d: d.pop("last_similarity")),
        edited(lambda d: d.pop("gradient_cache")),
        edited(lambda d: d.update(history=list(d["history"].values()))),
    ], ids=["not-json", "not-an-object", "history-missing", "similarity-section-missing",
            "gradient-cache-missing", "history-a-list"])
    def test_malformed_manifest_is_a_format_error(self, tmp_path, edit):
        save_ledger(sample_ledger(), tmp_path / "ledger.json", tmp_path / "gradients.bin")
        text = (tmp_path / "ledger.json").read_text(encoding="utf-8")
        (tmp_path / "ledger.json").write_text(edit(text), encoding="utf-8")
        with pytest.raises(FormatError, match=re.escape(str(tmp_path / "ledger.json"))):
            load_ledger(tmp_path / "ledger.json", tmp_path / "gradients.bin")


def saved_manifest_oracle(rounds):
    """``history`` and ``last_participation`` as a walk over the recorded rounds gives them."""
    history = {str(t): sorted(members) for t, members in rounds if members}
    last = {}
    for t, members in rounds:
        for cid in members:
            last[cid] = t
    return history, {str(cid): last[cid] for cid in sorted(last)}


ascending_rounds = st.lists(st.tuples(st.integers(1, 3), st.sets(st.integers(1, 8), max_size=5)),
                            min_size=1, max_size=15)


class TestSavedHistory:
    @given(ascending_rounds)
    @settings(max_examples=60, deadline=None)
    def test_history_and_last_participation_match_a_walk_over_the_rounds(self, steps):
        ledger = ParticipationLedger()
        rounds, t = [], 0
        for gap, members in steps:
            t += gap
            ledger.record_round(t, members)
            rounds.append((t, members))
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            save_ledger(ledger, root / "ledger.json", root / "gradients.bin")
            manifest = (root / "ledger.json").read_text(encoding="utf-8")
        document = json.loads(manifest)
        history, last = saved_manifest_oracle(rounds)
        assert list(document["history"].items()) == list(history.items())
        assert list(document["last_participation"].items()) == list(last.items())


def memo_free_copy(ledger):
    """A ledger with the same contents, rebuilt through the public mutators."""
    copy = ParticipationLedger()
    history = {}
    for cid, rounds in ledger.client_rounds.items():
        for t in rounds:
            history.setdefault(t, set()).add(cid)
    for t in sorted(history):
        copy.record_round(t, history[t])
    for cid, grad in ledger.last_gradient.items():
        copy.cache(cid, grad, ledger.last_similarity[cid])
    return copy


def ledger_ops_with(similarities):
    """Ops that build only ledgers a run can write: every round has a member, and a
    cache op stores a gradient and a similarity together for a client already recorded."""
    return st.lists(st.one_of(
        st.tuples(st.just("record"), st.sets(st.integers(1, 4), min_size=1, max_size=4)),
        st.tuples(st.just("cache"), st.integers(1, 4), st.lists(st.floats(), max_size=3),
                  similarities),
        st.tuples(st.just("save"), st.booleans()),
    ), max_size=25)


ledger_ops = ledger_ops_with(st.floats(-1, 1))


def apply_op(ledger, op, args):
    """Apply one record or cache op of ``ledger_ops`` to ``ledger``; a save op does nothing."""
    if op == "record":
        ledger.record_round(ledger.last_round + 1, args[0])
    elif op == "cache" and args[0] in ledger.client_rounds:
        ledger.cache(args[0], np.array(args[1], dtype=np.float64), args[2])


class TestDigestMemo:
    """save_ledger hashes a gradient once per cache; the kept digest must never go stale."""

    @given(ledger_ops)
    @settings(max_examples=80, deadline=None)
    def test_every_save_matches_a_save_without_memo(self, ops):
        ledger = ParticipationLedger()
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for op, *args in ops + [("save", False)]:
                if op != "save":
                    apply_op(ledger, op, args)
                else:
                    save_ledger(ledger, root / "ledger.json", root / "gradients.bin")
                    save_ledger(memo_free_copy(ledger), root / "fresh.json", root / "fresh.bin")
                    manifest = (root / "ledger.json").read_bytes()
                    blob = (root / "gradients.bin").read_bytes()
                    assert manifest == (root / "fresh.json").read_bytes()
                    assert blob == (root / "fresh.bin").read_bytes()
                    offset = 0
                    for entry in json.loads(manifest)["gradient_cache"]:
                        end = offset + 8 + 8 * entry["length"]
                        assert hashlib.sha256(blob[offset:end]).hexdigest() == entry["sha256"]
                        offset = end
                    assert offset == len(blob)
                    if args[0]:  # carry on from the checkpoint, with the digests load verified
                        ledger = load_ledger(root / "ledger.json", root / "gradients.bin")


class TestLoadRoundTrip:
    @given(ledger_ops)
    @settings(max_examples=80, deadline=None)
    def test_save_load_save_gives_the_same_bytes(self, ops):
        ledger = ParticipationLedger()
        for op, *args in ops:
            apply_op(ledger, op, args)
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            save_ledger(ledger, root / "ledger.json", root / "gradients.bin")
            restored = load_ledger(root / "ledger.json", root / "gradients.bin")
            assert restored.gradient_file == ledger.gradient_file
            assert restored.gradient_records == ledger.gradient_records
            save_ledger(restored, root / "again.json", root / "again.bin")
            for first, second in (("ledger.json", "again.json"), ("gradients.bin", "again.bin")):
                assert (root / first).read_bytes() == (root / second).read_bytes()


class TestManifestWriter:
    """ledger.json is written directly; its bytes must be what the json module gives.

    A run records only finite similarities, so only those are drawn; the
    loader's rejection of NaN and the infinities is tested with the other
    ledgers no run writes."""

    @given(ledger_ops_with(st.floats(allow_nan=False, allow_infinity=False)))
    @example([])
    @example([("record", {1, 2, 3}), ("cache", 1, [], 1e-300), ("cache", 2, [0.5], -1.0),
              ("save", False), ("cache", 3, [-0.0, 2.0], 1e300), ("cache", 1, [1.0], -0.0)])
    @settings(max_examples=120, deadline=None)
    def test_manifest_matches_the_json_module(self, ops):
        ledger = ParticipationLedger()
        for op, *args in ops + [("save", False)]:
            if op != "save":
                apply_op(ledger, op, args)
            else:
                assert checkpoint._ledger_files(ledger)[0] == ledger_json_oracle(ledger)


WRITEV = os.writev


class DiskFull:
    """``os.writev`` on a disk that fills up: on the files ``full`` picks, the first
    call lands part of its bytes and every later call raises ENOSPC."""

    def __init__(self, full):
        self.full = full
        self.calls = 0

    def __call__(self, fd, buffers):
        if not self.full(fd):
            return WRITEV(fd, buffers)
        self.calls += 1
        if self.calls > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return WRITEV(fd, [memoryview(buffers[0]).cast("B")[:4]])


def is_file(fd, path):
    """Whether descriptor ``fd`` is open on the file at ``path``."""
    try:
        return os.path.samestat(os.fstat(fd), os.stat(path))
    except FileNotFoundError:
        return False


class TestAtomicWrites:
    CONFIG = ExperimentConfig(rounds=3, clients=5, online_per_round=0.4, seed=7, batch_size=16,
                              checkpoint_interval=1,
                              dataset=SyntheticSource(num_classes=3, input_dim=6, n=240))

    def test_failed_checkpoint_write_leaves_no_torn_or_stray_file(self, tmp_path, monkeypatch):
        clean, torn = tmp_path / "clean", tmp_path / "torn"
        run_simulation(self.CONFIG, checkpoint_dir=clean)

        disk = DiskFull(lambda fd: is_file(fd, torn / "round_2" / "gradients.bin.tmp"))
        monkeypatch.setattr(os, "writev", disk)
        with pytest.raises(OSError, match="No space left"):
            run_simulation(self.CONFIG, checkpoint_dir=torn)
        assert disk.calls == 2

        written = sorted(p.relative_to(torn).as_posix() for p in torn.rglob("*") if p.is_file())
        assert written == ["round_1/global.bin", "round_1/gradients.bin", "round_1/ledger.json",
                           "round_2/global.bin"]
        for name in written:
            assert (torn / name).read_bytes() == (clean / name).read_bytes(), name

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "vec.bin"
        write_vector(path, np.array([1.0, 2.0]))
        disk = DiskFull(lambda fd: True)
        monkeypatch.setattr(os, "writev", disk)
        with pytest.raises(OSError):
            write_vector(path, np.array([3.0]))
        assert disk.calls == 2
        np.testing.assert_array_equal(read_vector(path), [1.0, 2.0])
        assert [p.name for p in tmp_path.iterdir()] == ["vec.bin"]

    def test_short_writes_resume_where_they_stopped(self, tmp_path, monkeypatch):
        iov_max = os.sysconf("SC_IOV_MAX")
        calls = []

        def short_writev(fd, buffers):
            assert len(buffers) <= iov_max
            calls.append(len(buffers))
            budget, accepted = 4093, []
            for buffer in buffers:
                view = memoryview(buffer).cast("B")[:budget]
                accepted.append(view)
                budget -= len(view)
                if not budget:
                    break
            return WRITEV(fd, accepted)

        chunks = []
        for i in range(iov_max // 2 + 50):
            values = np.arange(i % 7, dtype=np.float64) * (i + 0.5)
            values.flags.writeable = False
            chunks += (struct.pack("<Q", len(values)), values)
        assert len(chunks) > iov_max
        monkeypatch.setattr(os, "writev", short_writev)
        atomic_write(tmp_path / "chunks.bin", chunks)
        assert (tmp_path / "chunks.bin").read_bytes() == b"".join(chunks)
        assert len(calls) > 1


class TestSynchronousSaves:
    """perfbench's tracer sizes the checkpoint files the moment each writer returns."""

    def test_every_file_is_complete_when_its_writer_returns(self, tmp_path, monkeypatch):
        at_return = []

        def sizes(*paths):
            return {Path(p): Path(p).stat().st_size if Path(p).exists() else None for p in paths}

        def watched(write, paths):
            def call(*args):
                write(*args)
                at_return.append(sizes(*paths(args)))
            return call

        monkeypatch.setattr(simulation, "write_vector",
                            watched(write_vector, lambda args: [args[0]]))
        monkeypatch.setattr(simulation, "save_ledger", watched(
            save_ledger, lambda args: [args[1], args[2], Path(args[1]).parent / "global.bin"]))
        run_simulation(TestAtomicWrites.CONFIG, checkpoint_dir=tmp_path)

        assert len(at_return) == 2 * TestAtomicWrites.CONFIG.rounds
        for seen in at_return:
            assert None not in seen.values()
            assert seen == sizes(*seen)


# sha256 of the checkpoints of a 120-client, 2-online corefed run: by round 60
# it has seen 74 clients, so tau reaches 37 and each save carries a window's
# worth of reused gradients. Recorded before the ledger kept only per-client
# rounds; every byte stayed the same.
WIDE_WINDOW_CONFIG = ExperimentConfig(
    algorithm="corefed", rounds=60, clients=120, online_per_round=2, batch_size=20, seed=7,
    checkpoint_interval=20, dataset=SyntheticSource(num_classes=10, input_dim=32, n=2400))
WIDE_WINDOW_SHA256 = {
    "round_20/ledger.json": "08e8befe9e8dfd754fbd7b8d999076b6de635f0daf9b07d14866bf7713e35198",
    "round_20/gradients.bin": "1e457ade0bc5d096c77e77da9184fae6119be6b525db5df418f027e05f709c0f",
    "round_40/ledger.json": "d4855dfef9d25a0cdffa36a5c9b177502dfda0c50df5352b0cf0412cc9524a9f",
    "round_40/gradients.bin": "4220038e6abf3c7ca6bbf098f348b602e1f2cd752bf62a437d43bd0b8bda1cf3",
    "round_60/ledger.json": "96cd29c4d346cc5a78a10127c3b9edeb45f65a3c1bd93a06eb837e32cb15b075",
    "round_60/gradients.bin": "83295a5743c4ea0cc77a6c573c7b1dd9d0d07b07cc75d3907c92971756fe8273",
}


class TestWideWindowBytes:
    def test_checkpoints_at_a_wide_window_are_pinned(self, tmp_path, byte_scope):
        run_simulation(WIDE_WINDOW_CONFIG, checkpoint_dir=tmp_path)
        for name, digest in WIDE_WINDOW_SHA256.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, \
                f"{name}: {byte_scope}"
        history = json.loads((tmp_path / "round_60" / "ledger.json").read_text())["history"]
        assert len(set().union(*history.values())) == 74
        for t in (20, 40, 60):
            ledger = load_ledger(tmp_path / f"round_{t}" / "ledger.json",
                                 tmp_path / f"round_{t}" / "gradients.bin")
            assert ledger.last_round == t


# sha256 of every checkpoint of a 12-client, 2-online corefed run. A gradient
# whose client last trained window_bound = 6 or more rounds ago leaves memory
# after the save that holds it, and every later save copies its record from
# the save before. Recorded while every save still wrote every gradient from
# memory.
RELEASE_CONFIG = ExperimentConfig(
    algorithm="corefed", rounds=40, clients=12, online_per_round=2, batch_size=20, seed=5,
    checkpoint_interval=4, dataset=SyntheticSource(num_classes=4, input_dim=16, n=960))
RELEASE_SHA256 = {
    "round_4/global.bin": "c1c1991f1588aac63bed80de1396de94aa1416334559e6632afb7a3e71644685",
    "round_4/gradients.bin": "b5e20ac2d0ce3f622752f2655dc3780fb8afb7c3158fd44d15434fe64dc372e2",
    "round_4/ledger.json": "9ca859315dac3280e475d10bf73fadb4468c5d79e734c1d26b3f47ecd1927694",
    "round_8/global.bin": "5c9f83d9d8f8f65405693c0ae7c3589faeef1699306d805911bc93584562e565",
    "round_8/gradients.bin": "f5cf48750daea6d9c42f3c5e895cfd7f93de2c265153ee3df64460cd7ee2fa0d",
    "round_8/ledger.json": "ed4f07afe1d79daa8eff7fa63d559f5cd4012b3530a4ae2f2762072a38291a9e",
    "round_12/global.bin": "5dc40347231e285ab3b8d73adbb592406dcee6bb7688766c1e73a07ea229c799",
    "round_12/gradients.bin": "5f08e15222b09857533c0e56d725f9b37973f1fa146a7c4e75f1296370f95a8f",
    "round_12/ledger.json": "460217ff2579c2252fe393be450b5d58cb995466ab24bc3f872783ea38f43567",
    "round_16/global.bin": "f81f88deea47dc01a6c3c56cb491b5fa49d48c9b3217206446377db0d9ed204d",
    "round_16/gradients.bin": "85f6d0a7bfb5105fe2530c64287bf67d61a32c112d8f841433de55dca490289d",
    "round_16/ledger.json": "a5afb9eb34a7a65498fc8b83854ae0dae2665ebdb95352b6cfdadb4b1de33acc",
    "round_20/global.bin": "f5ff6dee65e8f9c87d311be4ef56865497ee21a45e49f88fefbff23336c23d9a",
    "round_20/gradients.bin": "f56e224f42356da7fc1bc78a70af1ded87776541b448daf5725b181e1e920dcf",
    "round_20/ledger.json": "b9c963167ef3b0dad7c17605002b23f959775579f2e7802a416dc720f3b765ce",
    "round_24/global.bin": "f06198d24bb47a5c4ec3a9eaa930a445dcd201fe7ef1b0c1cff20b8b41eb68d8",
    "round_24/gradients.bin": "7f4e9efd19f515d4e0c2e2d06bf2d9b86403cdd3dea255d658c3377f0b684ea1",
    "round_24/ledger.json": "0f0b78c8643c96dc5a837a5fb2930a942e9c202fa72c67b92487dc7841dcc7fd",
    "round_28/global.bin": "b13b5bec22f0cc8719c72f9f7eeb2e8791c121b126149866aafa3ff845ecf9a4",
    "round_28/gradients.bin": "f2861928e110bc1ee48b5fadd413e271e1a93d84151135a1a878bd180aaf969f",
    "round_28/ledger.json": "97d0695a49fa0def57a71ad63d49eb6f053a1914637129da7e43449d08887774",
    "round_32/global.bin": "a245a93268d323fac413dd3fc7f414b8795786e08f06d273c6c5ad7bd70d468a",
    "round_32/gradients.bin": "f7e4be19967d9bc9cafea05baffa658ecb31b43777ef605421358d3b8558e7dc",
    "round_32/ledger.json": "5adbd1e6516e20821f535fedab2e68c4aad839a0c138bc9c9e7df5210b60fdd1",
    "round_36/global.bin": "025c4e937a7860345efed395a932f05697b33465eb8ef4e39d6803a92761d87b",
    "round_36/gradients.bin": "98092ee8df4751703c33a10ba9e9d1d51d2015f7722843e738bbf4e490079b93",
    "round_36/ledger.json": "637de14d0c3214f80c5d4a5794f05ffbee7ddcf18d8dec2cfb2c8031bc80d9bd",
    "round_40/global.bin": "d8826b5e2b7b15987937e13698fbf4877b8cbd8e002ea7aa00b60062002642c7",
    "round_40/gradients.bin": "bd10769cbb5d5b6c874d0128a2ea57ada8b4c431e573bdc4c09143ac4ec55cea",
    "round_40/ledger.json": "57aea2e281dfbeac1eb3b72b0340152ff5727fba13cda659b7e4fb668bdee4ed",
}


def released(ledger):
    """The clients whose cached gradient the ledger holds only as a record on disk."""
    return ledger.gradient_records.keys() - ledger.last_gradient.keys()


def watch_saves(monkeypatch, before=lambda ledger: None):
    """Call ``before(ledger)`` ahead of each checkpoint's ``save_ledger``; returns the
    number of released records each save found."""
    found = []

    def save(ledger, json_path, gradients_path):
        found.append(len(released(ledger)))
        before(ledger)
        save_ledger(ledger, json_path, gradients_path)

    monkeypatch.setattr(simulation, "save_ledger", save)
    return found


def run_files(root):
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())


def count_copied_blocks(monkeypatch):
    """The size of each block ``_copy_range`` reads, in order, as a list that grows."""
    reads = []

    def counted_read_exact(fh, nbytes, path, what):
        reads.append(nbytes)
        return read_exact(fh, nbytes, path, what)
    monkeypatch.setattr(checkpoint, "read_exact", counted_read_exact)
    return reads


class TestReleasedGradientBytes:
    def assert_pinned(self, root, byte_scope):
        assert run_files(root) == sorted(RELEASE_SHA256)
        for name, digest in RELEASE_SHA256.items():
            assert hashlib.sha256((root / name).read_bytes()).hexdigest() == digest, \
                f"{name}: {byte_scope}"

    def test_checkpoints_that_copy_released_records_are_pinned(self, tmp_path, monkeypatch,
                                                              byte_scope):
        found = watch_saves(monkeypatch)
        run_simulation(RELEASE_CONFIG, checkpoint_dir=tmp_path)
        assert len(found) == 10 and found[0] == 0 and sum(found) > 0, found
        self.assert_pinned(tmp_path, byte_scope)
        for t in range(4, 41, 4):
            round_dir = tmp_path / f"round_{t}"
            ledger = load_ledger(round_dir / "ledger.json", round_dir / "gradients.bin")
            assert ledger.last_round == t
            save_ledger(ledger, tmp_path / "ledger.json", tmp_path / "gradients.bin")
            for name in ("ledger.json", "gradients.bin"):
                assert (tmp_path / name).read_bytes() == (round_dir / name).read_bytes(), t

    def test_blocks_smaller_than_a_record_give_the_same_bytes(self, tmp_path, monkeypatch,
                                                              byte_scope):
        reads = count_copied_blocks(monkeypatch)
        monkeypatch.setattr(checkpoint, "_COPY_BLOCK", 4096)  # below one 44 KB record
        run_simulation(RELEASE_CONFIG, checkpoint_dir=tmp_path)
        assert reads and max(reads) == 4096
        self.assert_pinned(tmp_path, byte_scope)

    @pytest.mark.parametrize("interval", [2, 6])
    def test_releasing_changes_no_checkpoint_byte(self, tmp_path, monkeypatch, interval):
        # window_bound is 3. At interval 6 some gradients leave the window
        # before any save holds them, and stay in memory until one does.
        config = replace(RELEASE_CONFIG, clients=12, online_per_round=4, rounds=24,
                         checkpoint_interval=interval)
        unsaved_dead = []

        def note_unsaved_dead(ledger):
            unsaved = ledger.last_gradient.keys() - ledger.gradient_records.keys()
            unsaved_dead.extend(cid for cid in unsaved
                                if ledger.last_round - ledger.client_rounds[cid][-1] > 3)
        found = watch_saves(monkeypatch, note_unsaved_dead)
        run_simulation(config, checkpoint_dir=tmp_path / "released")
        assert sum(found) > 0 and bool(unsaved_dead) == (interval > 3)
        monkeypatch.setattr(ParticipationLedger, "release", lambda *args, **kwargs: None)
        run_simulation(config, checkpoint_dir=tmp_path / "kept")
        names = run_files(tmp_path / "released")
        assert names == run_files(tmp_path / "kept") and len(names) == 3 * (24 // interval)
        for name in names:
            assert (tmp_path / "released" / name).read_bytes() == \
                (tmp_path / "kept" / name).read_bytes(), name


class TestReleaseBound:
    """No round reuses a gradient older than window_bound, so no run keeps one in memory."""

    @pytest.mark.parametrize("checkpoints", [True, False])
    def test_memory_holds_only_gradients_inside_the_widest_window(self, tmp_path, monkeypatch,
                                                                 checkpoints):
        ledgers = []
        monkeypatch.setattr(simulation, "ParticipationLedger",
                            lambda: ledgers.append(ParticipationLedger()) or ledgers[-1])
        run_simulation(RELEASE_CONFIG, checkpoint_dir=tmp_path if checkpoints else None)
        (ledger,) = ledgers
        reach = window_bound(RELEASE_CONFIG.clients, RELEASE_CONFIG.resolved_online())
        ages = {cid: ledger.last_round - rounds[-1] for cid, rounds in ledger.client_rounds.items()}
        assert max(ages.values()) > reach
        assert sorted(ledger.last_gradient) == sorted(c for c, age in ages.items() if age < reach)
        if checkpoints:
            assert ledger.gradient_records.keys() == ledger.client_rounds.keys()
        else:
            assert ledger.gradient_file is None and ledger.gradient_records == {}


def copied_record_start(ledger):
    """The offset of the first released record in the ledger's ``gradients.bin``."""
    return min(ledger.gradient_records[cid][1] for cid in released(ledger))


def delete_source(ledger):
    ledger.gradient_file.unlink()


def truncate_source(ledger):
    os.truncate(ledger.gradient_file, copied_record_start(ledger) + 8)


def damage_first_copy_source(monkeypatch, damage):
    """Apply ``damage`` to the file that the first save copying released records
    copies them from; returns a list that then holds that file's path."""
    damaged = []

    def damage_once(ledger):
        if released(ledger) and not damaged:
            damaged.append(ledger.gradient_file)
            damage(ledger)

    watch_saves(monkeypatch, damage_once)
    return damaged


class TestCopyFailures:
    def test_disk_full_during_a_copy_leaves_no_torn_or_stray_file(self, tmp_path, monkeypatch):
        clean, torn = tmp_path / "clean", tmp_path / "torn"
        run_simulation(RELEASE_CONFIG, checkpoint_dir=clean)

        reads = count_copied_blocks(monkeypatch)
        disk = DiskFull(lambda fd: bool(reads))  # full from the first copied block on
        monkeypatch.setattr(os, "writev", disk)
        with pytest.raises(OSError, match="No space left"):
            run_simulation(RELEASE_CONFIG, checkpoint_dir=torn)
        assert disk.calls == 2 and len(reads) == 1

        (failed,) = [d.name for d in torn.iterdir() if not (d / "gradients.bin").exists()]
        t = int(failed.removeprefix("round_"))
        assert t > RELEASE_CONFIG.checkpoint_interval
        written = run_files(torn)
        earlier = [name for name in run_files(clean)
                   if int(name.split("/")[0].removeprefix("round_")) < t]
        assert written == sorted(earlier + [f"{failed}/global.bin"])
        for name in written:
            assert (torn / name).read_bytes() == (clean / name).read_bytes(), name

    @pytest.mark.parametrize("damage, error, message", [
        (delete_source, FileNotFoundError, None),
        (truncate_source, FormatError, "truncated while reading the cached gradient records"),
    ], ids=["deleted", "truncated"])
    def test_a_damaged_earlier_checkpoint_is_named(self, tmp_path, monkeypatch, damage, error,
                                                   message):
        damaged = damage_first_copy_source(monkeypatch, damage)
        with pytest.raises(error, match=message) as raised:
            run_simulation(RELEASE_CONFIG, checkpoint_dir=tmp_path)
        assert str(damaged[0]) in str(raised.value)
        assert not list(tmp_path.rglob("*.tmp"))

    def test_run_exits_1_and_leaves_no_run_directory(self, tmp_path, monkeypatch, capsys):
        config = tmp_path / "config.json"
        config.write_text(dumps_config(RELEASE_CONFIG), encoding="utf-8")
        damaged = damage_first_copy_source(monkeypatch, truncate_source)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out), "--run-id", "r"]) == 1
        assert damaged and damaged[0].name == "gradients.bin"
        assert str(damaged[0]) in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestFileRanges:
    @pytest.mark.parametrize("block", [7, checkpoint._COPY_BLOCK])
    def test_ranges_and_buffers_land_in_order(self, tmp_path, monkeypatch, block):
        source, other = tmp_path / "source.bin", tmp_path / "other.bin"
        source.write_bytes(bytes(range(256)) * 4)
        other.write_bytes(b"0123456789")
        monkeypatch.setattr(checkpoint, "_COPY_BLOCK", block)
        atomic_write(tmp_path / "out.bin", [b"ab", FileRange(source, 3, 10), b"cd",
                                            FileRange(other, 2, 5), FileRange(source, 1000, 24),
                                            np.array([1.5])])
        data = source.read_bytes()
        assert (tmp_path / "out.bin").read_bytes() == (
            b"ab" + data[3:13] + b"cd" + b"23456" + data[1000:] + np.float64(1.5).tobytes())

    def test_a_short_read_is_resumed_not_taken_for_the_end(self, tmp_path, monkeypatch):
        # The system may return fewer bytes than asked from anywhere in a file.
        class ShortReads(io.FileIO):
            def readinto(self, buffer):
                return super().readinto(memoryview(buffer)[:5])

            def read(self, size=-1):
                return super().read(5 if size < 0 else min(size, 5))

        def short_reads_open(path, mode="r", buffering=-1):
            raw = ShortReads(path, mode)
            return raw if buffering == 0 else io.BufferedReader(raw)
        source = tmp_path / "source.bin"
        source.write_bytes(bytes(range(256)))
        monkeypatch.setattr(checkpoint, "open", short_reads_open, raising=False)
        atomic_write(tmp_path / "out.bin", [FileRange(source, 3, 200)])
        assert (tmp_path / "out.bin").read_bytes() == bytes(range(3, 203))

    def test_blocks_cost_no_size_check(self, tmp_path, monkeypatch):
        # A block read that comes back short is the end of the file, so asking
        # the system for the file's size once a block only repeats that check.
        source = tmp_path / "source.bin"
        source.write_bytes(bytes(range(256)))
        sizes = []
        monkeypatch.setattr(os, "fstat", lambda fd, real=os.fstat: sizes.append(fd) or real(fd))
        monkeypatch.setattr(checkpoint, "_COPY_BLOCK", 7)
        atomic_write(tmp_path / "out.bin", [FileRange(source, 3, 200), FileRange(source, 0, 10)])
        assert (tmp_path / "out.bin").read_bytes() == bytes(range(3, 203)) + bytes(range(10))
        assert sizes == []
        message = re.escape(f"{source}: truncated while reading the cached gradient records at "
                            f"bytes 250-260 (wanted 7 bytes, 6 left)")
        with pytest.raises(FormatError, match=message):
            atomic_write(tmp_path / "out.bin", [FileRange(source, 250, 10)])

    def test_a_range_past_the_end_fails_and_keeps_the_old_file(self, tmp_path):
        source = tmp_path / "source.bin"
        source.write_bytes(bytes(20))
        (tmp_path / "out.bin").write_bytes(b"old")
        with pytest.raises(FormatError, match=re.escape(f"{source}: truncated while reading")):
            atomic_write(tmp_path / "out.bin", [b"new", FileRange(source, 8, 16)])
        assert (tmp_path / "out.bin").read_bytes() == b"old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin", "source.bin"]
