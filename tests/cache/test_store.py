"""Unit tests of the disk-backed bounded result store.

Covers the durability contract: atomic writes, corruption-tolerant
(self-repairing) reads, format versioning at both the directory and the
entry level, LRU eviction under entry/byte caps, and adoption of an
existing directory across process restarts (modelled as fresh store
instances over one tmp directory).
"""

import gc
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.cache import (
    CACHE_FORMAT_VERSION,
    DiskCacheStore,
    decode_result,
    encode_result,
    request_key,
)
from repro.cache.store import FORMAT_MARKER
from repro.core.exceptions import CacheError, InvalidParameterError
from repro.facade.policy import ExecutionPolicy
from repro.session import Session

#: Pin the serial backend: these tests are about the cache, not the tuner.
SERIAL = ExecutionPolicy(backend="serial")


@pytest.fixture(scope="module")
def solved():
    """One solved lcs result reused by every store test (solves are slow)."""
    with Session(system="i7-2600K") as session:
        results = {
            dim: session.solve("lcs", dim, policy=SERIAL) for dim in (16, 20, 24, 28)
        }
    return results


def on_disk(store, digest):
    """True when ``digest``'s entry file is in the store's directory."""
    return (store.directory / f"{digest}.npz").exists()


def _key(dim):
    return request_key("lcs", dim, overrides={"backend": "serial"})


class TestRoundTrip:
    def test_put_get_is_bit_exact(self, tmp_path, solved):
        store = DiskCacheStore(tmp_path)
        key = _key(16)
        store.put(key.digest, solved[16], request=key.payload)
        loaded = store.get(key.digest)
        assert loaded.grid.values.tobytes() == solved[16].grid.values.tobytes()
        assert loaded.witness is None and solved[16].witness is None
        assert store.hits == 1 and store.stores == 1
        assert on_disk(store, key.digest) and store.info()["entries"] == 1
        assert store.info()["bytes"] > 0

    def test_missing_entry_is_a_counted_miss(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        assert store.get("0" * 64) is None
        assert store.misses == 1 and store.corrupt_dropped == 0

    def test_entry_embeds_the_request_payload(self, tmp_path, solved):
        store = DiskCacheStore(tmp_path)
        key = _key(16)
        store.put(key.digest, solved[16], request=key.payload)
        with np.load(tmp_path / f"{key.digest}.npz", allow_pickle=False) as archive:
            header = json.loads(bytes(archive["header"]).decode("utf-8"))
        assert header["request"] == key.payload
        assert header["format_version"] == CACHE_FORMAT_VERSION


class TestCorruption:
    # The file of a corrupt entry is closed by the store, not by the
    # collector: an unclosed handle fails the test at gc.collect().
    @pytest.mark.filterwarnings("error::ResourceWarning")
    @pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
    def test_truncated_entry_self_repairs(self, tmp_path, solved):
        store = DiskCacheStore(tmp_path)
        key = _key(16)
        store.put(key.digest, solved[16], request=key.payload)
        path = tmp_path / f"{key.digest}.npz"
        path.write_bytes(path.read_bytes()[: 40])  # torn tail
        assert store.get(key.digest) is None
        gc.collect()
        assert store.corrupt_dropped == 1 and store.misses == 1
        assert not path.exists(), "corrupt entry must be deleted (repaired)"
        # The caller re-solves and re-stores; the entry is healthy again.
        store.put(key.digest, solved[16], request=key.payload)
        assert store.get(key.digest) is not None

    def test_garbage_entry_is_dropped_not_raised(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        digest = "a" * 64
        (tmp_path / f"{digest}.npz").write_bytes(b"this is not an npz archive")
        store2 = DiskCacheStore(tmp_path)  # adopts the garbage entry
        assert store2.get(digest) is None
        assert store2.corrupt_dropped == 1
        assert store.get(digest) is None  # already unlinked -> plain miss

    def test_stale_entry_version_raises_cache_error(self, tmp_path, solved):
        store = DiskCacheStore(tmp_path)
        key = _key(16)
        arrays = encode_result(solved[16], request=key.payload)
        header = json.loads(bytes(arrays["header"].tobytes()).decode("utf-8"))
        header["format_version"] = CACHE_FORMAT_VERSION + 1
        arrays["header"] = np.frombuffer(
            json.dumps(header).encode("utf-8"), dtype=np.uint8
        )
        with open(tmp_path / f"{key.digest}.npz", "wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(CacheError):
            store.get(key.digest)


class TestVersionOne:
    """A format-1 cache (its headers priced functional runs) is refused, typed."""

    def test_a_version_one_directory_raises_at_open(self, tmp_path):
        (tmp_path / FORMAT_MARKER).write_text(json.dumps({"format_version": 1}))
        with pytest.raises(CacheError, match="format version 1"):
            DiskCacheStore(tmp_path)

    def test_a_version_one_entry_in_a_version_two_directory_raises(self, tmp_path, solved):
        store = DiskCacheStore(tmp_path)
        key = _key(16)
        arrays = encode_result(solved[16], request=key.payload)
        header = json.loads(bytes(arrays["header"].tobytes()).decode("utf-8"))
        assert "rtime" not in header and "breakdown" not in header
        header.update(format_version=1, rtime=1e-3, breakdown={"pre_s": 1e-3})
        arrays["header"] = np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)
        with open(tmp_path / f"{key.digest}.npz", "wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(CacheError, match="format version 1"):
            store.get(key.digest)
        assert CACHE_FORMAT_VERSION == 2


class TestFormatMarker:
    def test_marker_is_written_on_first_open(self, tmp_path):
        DiskCacheStore(tmp_path)
        recorded = json.loads((tmp_path / FORMAT_MARKER).read_text())
        assert recorded == {"format_version": CACHE_FORMAT_VERSION}

    def test_stale_directory_version_raises_at_open(self, tmp_path):
        (tmp_path / FORMAT_MARKER).write_text(
            json.dumps({"format_version": CACHE_FORMAT_VERSION + 1})
        )
        with pytest.raises(CacheError):
            DiskCacheStore(tmp_path)

    def test_unreadable_marker_raises_at_open(self, tmp_path):
        (tmp_path / FORMAT_MARKER).write_text("{not json")
        with pytest.raises(CacheError):
            DiskCacheStore(tmp_path)

    def test_bad_bounds_are_usage_errors(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            DiskCacheStore(tmp_path, max_entries=0)
        with pytest.raises(InvalidParameterError):
            DiskCacheStore(tmp_path, max_bytes=0)


class TestBoundsAndEviction:
    def test_entry_cap_evicts_lru_first(self, tmp_path, solved):
        store = DiskCacheStore(tmp_path, max_entries=2)
        dims = [16, 20, 24]
        for dim in dims:
            store.put(_key(dim).digest, solved[dim], request=None)
        assert store.info()["entries"] == 2 and store.evictions == 1
        assert store.get(_key(16).digest) is None  # oldest evicted
        assert store.get(_key(24).digest) is not None

    def test_get_refreshes_lru_order(self, tmp_path, solved):
        store = DiskCacheStore(tmp_path, max_entries=2)
        store.put(_key(16).digest, solved[16], request=None)
        store.put(_key(20).digest, solved[20], request=None)
        store.get(_key(16).digest)  # 16 becomes most recent
        store.put(_key(24).digest, solved[24], request=None)
        assert store.get(_key(20).digest) is None
        assert store.get(_key(16).digest) is not None

    def test_byte_cap_bounds_total_size(self, tmp_path, solved):
        probe = DiskCacheStore(tmp_path / "probe")
        probe.put(_key(16).digest, solved[16], request=None)
        entry_bytes = probe.info()["bytes"]
        store = DiskCacheStore(tmp_path / "bounded", max_bytes=int(entry_bytes * 2.5))
        for dim in (16, 20, 24, 28):
            store.put(_key(dim).digest, solved[dim], request=None)
        assert store.evictions >= 1
        assert store.info()["bytes"] <= int(entry_bytes * 2.5)
        # The byte count follows puts, evictions and a corrupt drop.
        (store.directory / f"{_key(28).digest}.npz").write_bytes(b"garbage")
        assert store.get(_key(28).digest) is None and store.corrupt_dropped == 1
        for dim in (16, 20):
            store.put(_key(dim).digest, solved[dim], request=None)
        on_disk_bytes = sum(p.stat().st_size for p in store.directory.glob("*.npz"))
        assert store.info()["entries"] == 2
        assert store.info()["bytes"] == on_disk_bytes > 0

    def test_eviction_removes_the_file(self, tmp_path, solved):
        store = DiskCacheStore(tmp_path, max_entries=1)
        store.put(_key(16).digest, solved[16], request=None)
        store.put(_key(20).digest, solved[20], request=None)
        assert not (tmp_path / f"{_key(16).digest}.npz").exists()

    def test_entry_evicted_while_being_read_is_not_re_adopted(
        self, tmp_path, solved, monkeypatch
    ):
        from repro.cache import store as store_module

        store = DiskCacheStore(tmp_path, max_entries=1)
        store.put(_key(16).digest, solved[16], request=None)
        decode = store_module.decode_result

        def decode_then_evict(archive):
            # Another thread's put lands between the read and the index update.
            monkeypatch.setattr(store_module, "decode_result", decode)
            store.put(_key(20).digest, solved[20], request=None)
            return decode(archive)

        monkeypatch.setattr(store_module, "decode_result", decode_then_evict)
        loaded = store.get(_key(16).digest)
        assert np.array_equal(loaded.grid.values, solved[16].grid.values)
        assert store.info()["entries"] == 1 and store.evictions == 1
        assert not on_disk(store, _key(16).digest) and on_disk(store, _key(20).digest)


class TestReopen:
    def test_existing_entries_are_adopted(self, tmp_path, solved):
        first = DiskCacheStore(tmp_path)
        for dim in (16, 20):
            key = _key(dim)
            first.put(key.digest, solved[dim], request=key.payload)
        second = DiskCacheStore(tmp_path)
        assert second.info()["entries"] == 2
        loaded = second.get(_key(20).digest)
        assert np.array_equal(loaded.grid.values, solved[20].grid.values)

    def test_tmp_files_are_swept_at_open(self, tmp_path):
        DiskCacheStore(tmp_path)
        leftover = tmp_path / ("b" * 64 + ".tmp")
        leftover.write_bytes(b"half-written")
        DiskCacheStore(tmp_path)
        assert not leftover.exists()

    def test_only_a_dead_writers_tmp_file_is_swept(self, tmp_path):
        gone = subprocess.Popen([sys.executable, "-c", "pass"])
        gone.wait()
        running = subprocess.Popen(
            [sys.executable, "-c", "import sys; sys.stdin.read()"], stdin=subprocess.PIPE
        )
        try:
            dead = tmp_path / f"{'b' * 64}.{gone.pid}.0.tmp"
            live = tmp_path / f"{'c' * 64}.{running.pid}.0.tmp"
            for path in (dead, live):
                path.write_bytes(b"half-written")
            DiskCacheStore(tmp_path)
            assert not dead.exists() and live.exists()
        finally:
            running.communicate()

    def test_an_unowned_tmp_file_under_this_pid_is_swept(self, tmp_path):
        # A predecessor killed under the same (reused) pid left it behind.
        leftover = tmp_path / f"{'d' * 64}.{os.getpid()}.0.tmp"
        leftover.write_bytes(b"half-written")
        DiskCacheStore(tmp_path)
        assert not leftover.exists()

    def test_a_failed_put_removes_its_tmp_file(self, tmp_path, solved, monkeypatch):
        from repro.cache import store as store_module

        def fail(fd):
            raise OSError("disk full")

        store = DiskCacheStore(tmp_path)
        monkeypatch.setattr(store_module.os, "fsync", fail)
        with pytest.raises(OSError, match="disk full"):
            store.put(_key(16).digest, solved[16], request=None)
        assert list(tmp_path.glob("*.tmp")) == [] and store.info()["entries"] == 0


    def test_info_is_json_safe(self, tmp_path, solved):
        store = DiskCacheStore(tmp_path)
        key = _key(16)
        store.put(key.digest, solved[16], request=key.payload)
        store.get(key.digest)
        info = store.info()
        assert json.loads(json.dumps(info)) == info
        assert info["entries"] == 1 and info["hits"] == 1 and info["stores"] == 1


class TestConcurrentWriters:
    """A second writer or an opening store runs just before a put's ``os.replace``."""

    @staticmethod
    def before_first_replace(monkeypatch, action):
        """Run ``action`` once, just before the next ``os.replace`` of the store."""
        from repro.cache import store as store_module

        real_replace = os.replace
        pending = [action]

        def replace(src, dst):
            if pending:
                pending.pop()()
            real_replace(src, dst)

        monkeypatch.setattr(store_module.os, "replace", replace)

    def test_two_writers_of_one_digest_both_land(self, tmp_path, solved, monkeypatch):
        first, second = DiskCacheStore(tmp_path), DiskCacheStore(tmp_path)
        digest = _key(20).digest
        self.before_first_replace(
            monkeypatch, lambda: second.put(digest, solved[20], request=None)
        )
        first.put(digest, solved[20], request=None)
        assert first.stores == second.stores == 1
        loaded = DiskCacheStore(tmp_path).get(digest)
        assert loaded.grid.values.tobytes() == solved[20].grid.values.tobytes()
        assert loaded.checksum == solved[20].checksum
        assert list(tmp_path.glob("*.tmp")) == []

    def test_an_opening_store_keeps_a_live_writers_tmp_file(
        self, tmp_path, solved, monkeypatch
    ):
        writer = DiskCacheStore(tmp_path)
        digest = _key(24).digest
        opened = []
        self.before_first_replace(monkeypatch, lambda: opened.append(DiskCacheStore(tmp_path)))
        writer.put(digest, solved[24], request=None)
        assert opened and writer.stores == 1
        loaded = opened[0].get(digest)
        assert np.array_equal(loaded.grid.values, solved[24].grid.values)

class TestCodecHelpers:
    def test_decode_rejects_version_drift(self, solved):
        arrays = encode_result(solved[16], request=None)
        header = json.loads(bytes(arrays["header"].tobytes()).decode("utf-8"))
        header["format_version"] = 999
        arrays["header"] = np.frombuffer(
            json.dumps(header).encode("utf-8"), dtype=np.uint8
        )
        with pytest.raises(CacheError):
            decode_result(arrays)

    def test_encode_simulate_result_has_no_grid(self):
        with Session(system="i7-2600K") as session:
            result = session.solve("lcs", 16, policy=SERIAL, mode="simulate")
        arrays = encode_result(result, request=None)
        assert "values" not in arrays and "meta" not in arrays
        header = json.loads(bytes(arrays["header"].tobytes()).decode("utf-8"))
        assert header["grid"] is None


class TestWitnessCodec:
    @pytest.fixture(scope="class")
    def witnessed(self):
        """One witness-bearing solved result shared by the codec tests."""
        with Session(system="i7-2600K") as session:
            return session.solve("viterbi", 16, policy=SERIAL)

    def test_codec_round_trips_the_witness_bit_exactly(self, witnessed):
        assert witnessed.witness is not None
        loaded = decode_result(encode_result(witnessed, request=None))
        assert loaded.witness.dtype == witnessed.witness.dtype
        assert np.array_equal(loaded.witness, witnessed.witness)
        assert loaded.matches(witnessed)

    def test_store_round_trips_the_witness_bit_exactly(self, tmp_path, witnessed):
        store = DiskCacheStore(tmp_path)
        key = request_key("viterbi", 16, overrides={"backend": "serial"})
        store.put(key.digest, witnessed, request=key.payload)
        loaded = store.get(key.digest)
        assert np.array_equal(loaded.witness, witnessed.witness)
        assert np.array_equal(loaded.grid.values, witnessed.grid.values)

    def test_witness_free_results_omit_the_npz_member(self, solved):
        arrays = encode_result(solved[16], request=None)
        assert "witness" not in arrays
        header = json.loads(bytes(arrays["header"].tobytes()).decode("utf-8"))
        assert header["witness"] is None
        assert decode_result(arrays).witness is None


class TestValuesOnlyEntries:
    """An entry holds the header, the grid's values and the witness: nothing else."""

    @pytest.mark.parametrize("app", ["nash-equilibrium", "viterbi", "lcs"])
    def test_new_entry_is_about_the_size_of_its_values(self, tmp_path, app):
        with Session(system="i7-2600K") as session:
            result = session.solve(app, 64, policy=SERIAL)
        key = request_key(app, 64, overrides={"backend": "serial"})
        store = DiskCacheStore(tmp_path)
        store.put(key.digest, result, request=key.payload)
        with np.load(tmp_path / f"{key.digest}.npz", allow_pickle=False) as archive:
            assert sorted(archive.files) == sorted(
                ["header", "values"] + (["witness"] if result.witness is not None else [])
            )
        witness_bytes = 0 if result.witness is None else result.witness.nbytes
        assert store.info()["bytes"] <= result.grid.values.nbytes + witness_bytes + 2048
