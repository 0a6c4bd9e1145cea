"""CheckpointStore tests: atomicity, exactness, fingerprint discipline."""

import gc
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.resilience.checkpoint import CheckpointStore

FP = {"command": "test", "seed": 0, "grid": [1, 2, 3]}


class TestLifecycle:
    def test_empty_store(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        assert len(store) == 0 and store.completed_keys() == set()

    def test_record_restore_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.begin(FP, resume=False)
        payload = {"sigma": 0.1 + 0.2, "eps": 1e-4, "n": 226413}
        store.record("cell:a", payload)
        reloaded = CheckpointStore(tmp_path / "ckpt")
        restored, arrays = reloaded.restore("cell:a")
        assert restored == payload and arrays == {}
        # Floats round-trip exactly (repr-based JSON formatting).
        assert restored["sigma"] == 0.1 + 0.2

    def test_arrays_round_trip_bit_identical(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.begin(FP, resume=False)
        rng = np.random.default_rng(0)
        us = rng.integers(0, 1000, 500, dtype=np.int64)
        ps = rng.random(500)
        store.record("cell:b", {"n": 1000}, arrays={"us": us, "ps": ps})
        _, arrays = CheckpointStore(tmp_path / "ckpt").restore("cell:b")
        assert arrays["us"].dtype == np.int64
        assert np.array_equal(arrays["us"], us)
        assert arrays["ps"].tobytes() == ps.tobytes()  # bit-identical

    def test_resume_keeps_records(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.begin(FP, resume=False)
        store.record("cell:a", {"x": 1})
        again = CheckpointStore(tmp_path / "ckpt")
        again.begin(FP, resume=True)
        assert "cell:a" in again

    def test_fresh_begin_discards_records_and_blobs(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.begin(FP, resume=False)
        store.record("cell:a", {"x": 1}, arrays={"v": np.arange(3)})
        assert list(store.arrays_dir.glob("*.npz"))
        fresh = CheckpointStore(tmp_path / "ckpt")
        fresh.begin(FP, resume=False)
        assert len(fresh) == 0
        assert not list(fresh.arrays_dir.glob("*.npz"))

    def test_fingerprint_mismatch_refused(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.begin(FP, resume=False)
        other = CheckpointStore(tmp_path / "ckpt")
        with pytest.raises(ValueError, match="refusing --resume"):
            other.begin({**FP, "seed": 1}, resume=True)


class TestCrashModel:
    def test_torn_trailing_line_is_skipped(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.begin(FP, resume=False)
        store.record("cell:a", {"x": 1})
        with open(store.ledger, "a") as fh:
            fh.write('{"kind": "cell", "key": "cell:b", "payl')  # torn
        reloaded = CheckpointStore(tmp_path / "ckpt")
        assert "cell:a" in reloaded and "cell:b" not in reloaded

    def test_missing_blob_means_incomplete_cell(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.begin(FP, resume=False)
        store.record("cell:a", {"x": 1}, arrays={"v": np.arange(4)})
        for blob in store.arrays_dir.glob("*.npz"):
            blob.unlink()
        reloaded = CheckpointStore(tmp_path / "ckpt")
        assert reloaded.restore("cell:a") is None

    def test_torn_blob_means_incomplete_cell(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.begin(FP, resume=False)
        store.record("cell:a", {"x": 1}, arrays={"v": np.arange(64)})
        for blob in store.arrays_dir.glob("*.npz"):
            blob.write_bytes(blob.read_bytes()[:10])
        assert CheckpointStore(tmp_path / "ckpt").restore("cell:a") is None

    def test_torn_blob_leaves_no_file_open(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.begin(FP, resume=False)
        store.record("cell:a", {"x": 1}, arrays={"v": np.arange(64)})
        for blob in store.arrays_dir.glob("*.npz"):
            blob.write_bytes(blob.read_bytes()[:10])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert CheckpointStore(tmp_path / "ckpt").restore("cell:a") is None
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaks, [str(w.message) for w in leaks]

    def test_ledger_is_valid_jsonl_after_every_record(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.begin(FP, resume=False)
        for i in range(5):
            store.record(f"cell:{i}", {"i": i})
            for line in store.ledger.read_text().splitlines():
                json.loads(line)  # never torn mid-run


class TestMalformedLedger:
    """Only a torn last line is forgiven; any other bad line is named."""

    @staticmethod
    def _ledger(tmp_path, *lines):
        store = CheckpointStore(tmp_path / "ckpt")
        store.begin(FP, resume=False)
        store.record("cell:a", {"x": 1}, arrays={"v": np.arange(3)})
        store.record("cell:b", {"x": 2})
        good = store.ledger.read_text().splitlines()
        store.ledger.write_text("\n".join([*good, *lines]) + "\n")
        return tmp_path / "ckpt"

    @pytest.mark.parametrize(
        "line",
        [
            "42",
            "[1, 2]",
            '"cell"',
            "null",
            '{"kind": "cell", "payload": {"x": 3}}',
            '{"kind": "cell", "key": "cell:c", "payload": [1, 2]}',
            '{"kind": "cell", "key": 7, "payload": {}}',
            '{"kind": "cell", "key": "cell:a", "payload": {"x": 9}}',
            '{"kind": "cell", "key": "cell:c", "payload": {"__arrays__": 5}}',
            '{"kind": "fingerprint", "config": 3}',
            '{"kind": "fingerprint", "confif": {}}',
            '{"kind": "other"}',
        ],
    )
    def test_malformed_record_raises(self, tmp_path, line):
        directory = self._ledger(tmp_path, line)
        with pytest.raises(ValueError, match="line 4"):
            CheckpointStore(directory)

    def test_unreadable_line_before_the_last_raises(self, tmp_path):
        directory = self._ledger(tmp_path, '{"kind": "cell", "key"', "{}")
        with pytest.raises(ValueError, match="line 4"):
            CheckpointStore(directory)

    def test_unreadable_fingerprint_is_not_skipped(self, tmp_path):
        """A torn fingerprint mid-ledger would let --resume skip the
        configuration check."""
        directory = self._ledger(tmp_path)
        ledger = directory / "cells.jsonl"
        lines = ledger.read_text().splitlines()
        ledger.write_text("\n".join([lines[0][:12], *lines[1:]]) + "\n")
        with pytest.raises(ValueError, match="line 1"):
            CheckpointStore(directory)

    @staticmethod
    def _ledger_bytes() -> bytes:
        with tempfile.TemporaryDirectory() as tmp:
            store = CheckpointStore(Path(tmp))
            store.begin(FP, resume=False)
            store.record("cell:a", {"sigma": 0.1 + 0.2, "n": 45}, arrays={"v": np.arange(4)})
            store.record("cell:b", {"rows": [1.5, 2.5], "ok": True})
            store.record("cell:c", {"x": None}, arrays={"w": np.ones(2)})
            return store.ledger.read_bytes()

    @staticmethod
    def _load_or_reject(data: bytes) -> None:
        """Load, restore every cell and resume, or raise ValueError."""
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "cells.jsonl").write_bytes(data)
            try:
                store = CheckpointStore(tmp)
            except ValueError:
                return
            for key in store.completed_keys():
                restored = store.restore(key)
                assert restored is None or isinstance(restored[0], dict)
            try:
                store.begin(FP, resume=True)
            except ValueError as exc:
                assert "refusing --resume" in str(exc)

    @settings(max_examples=80, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_truncation(self, data):
        raw = self._ledger_bytes()
        self._load_or_reject(raw[: data.draw(st.integers(0, len(raw)))])

    @settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_flipped_byte(self, data):
        raw = bytearray(self._ledger_bytes())
        raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
        self._load_or_reject(bytes(raw))
