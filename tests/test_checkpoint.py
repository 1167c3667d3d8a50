import errno
import hashlib
import json
import math
import os
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corefed import checkpoint, simulation
from corefed.aggregation import ParticipationLedger
from corefed.checkpoint import atomic_write, load_ledger, read_vector, save_ledger, write_vector
from corefed.config import ExperimentConfig, SyntheticSource
from corefed.errors import FormatError, TruncatedFileError
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
        with pytest.raises(TruncatedFileError):
            read_vector(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "vec.bin"
        write_vector(path, np.array([1.0, 2.0]))
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(FormatError, match="trailing bytes"):
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
        with pytest.raises(TruncatedFileError):
            load_ledger(tmp_path / "ledger.json", tmp_path / "gradients.bin")

    def test_manifest_length_past_the_cache_is_rejected_unread(self, tmp_path):
        # asking read() for the 8 + 8 * 2**62 bytes this length declares
        # raised OverflowError
        save_ledger(sample_ledger(), tmp_path / "ledger.json", tmp_path / "gradients.bin")
        text = (tmp_path / "ledger.json").read_text(encoding="utf-8")
        text = edited(lambda d: d["gradient_cache"][0].update({"length": 2**62}))(text)
        (tmp_path / "ledger.json").write_text(text, encoding="utf-8")
        with pytest.raises(TruncatedFileError, match="gradient cache shorter than manifest"):
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
    ], ids=["round-not-integer", "round-named-twice", "round-zero", "round-negative",
            "member-twice", "round-without-members", "member-not-integer", "member-float",
            "member-below-one", "last-participation", "similarity-missing", "gradient-missing",
            "similarity-only", "cached-client-never-recorded", "client-cached-twice",
            "history-key-repeated", "similarity-key-repeated", "top-level-keys-reordered"])
    def test_ledger_no_run_writes_is_rejected(self, tmp_path, edit, damaged):
        # Every edit keeps save_ledger's formatting, so only the edit itself
        # differs from a file a run writes.
        save_ledger(sample_ledger(), tmp_path / "ledger.json", tmp_path / "gradients.bin")
        text = (tmp_path / "ledger.json").read_text(encoding="utf-8")
        assert edit(text) != text
        (tmp_path / "ledger.json").write_text(edit(text), encoding="utf-8")
        with pytest.raises((FormatError, TruncatedFileError), match=re.escape(str(tmp_path / damaged))):
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
            save_ledger(restored, root / "again.json", root / "again.bin")
            for first, second in (("ledger.json", "again.json"), ("gradients.bin", "again.bin")):
                assert (root / first).read_bytes() == (root / second).read_bytes()


class TestManifestWriter:
    """ledger.json is written directly; its bytes must be what the json module gives."""

    @given(ledger_ops_with(st.floats()))
    @example([])
    @example([("record", {1, 2, 3}), ("cache", 1, [], math.nan), ("cache", 2, [0.5], math.inf),
              ("save", False), ("cache", 3, [-0.0, 2.0], -math.inf), ("cache", 1, [1.0], -0.0)])
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
