import numpy as np
import pytest

from corefed.aggregation import ParticipationLedger
from corefed.checkpoint import load_ledger, read_vector, save_ledger, write_vector
from corefed.errors import FormatError, TruncatedFileError


def sample_ledger():
    ledger = ParticipationLedger()
    ledger.record_round(1, {1, 2, 3})
    ledger.record_round(2, {2})
    ledger.cache_gradient(1, np.array([0.5, -1.5, 2.25]))
    ledger.cache_gradient(2, np.array([1.0]))
    ledger.cache_gradient(3, np.array([-0.125, 0.0]))
    ledger.cache_similarity(1, 0.25)
    ledger.cache_similarity(2, -0.75)
    ledger.cache_similarity(3, 0.0)
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


class TestLedgerCheckpoint:
    def test_round_trip_restores_everything(self, tmp_path):
        ledger = sample_ledger()
        save_ledger(ledger, tmp_path / "ledger.json", tmp_path / "gradients.bin")
        restored = load_ledger(tmp_path / "ledger.json", tmp_path / "gradients.bin")
        assert restored.history == ledger.history
        assert restored.last_participation == ledger.last_participation
        assert restored.last_similarity == ledger.last_similarity
        assert restored.distinct_count == ledger.distinct_count
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
