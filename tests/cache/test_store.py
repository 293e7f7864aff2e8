"""Unit tests of the disk-backed bounded result store.

Covers the durability contract: atomic writes, corruption-tolerant
(self-repairing) reads, format versioning at both the directory and the
entry level, LRU eviction under entry/byte caps, and adoption of an
existing directory across process restarts (modelled as fresh store
instances over one tmp directory).
"""

import json
import shutil
from pathlib import Path

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

#: Entries written by the commit before the grid became values-only (they
#: carry ``meta`` and, for nash, ``payload`` members): dim 12, serial backend.
PARENT_LAYOUT = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def solved():
    """One solved lcs result reused by every store test (solves are slow)."""
    with Session(system="i7-2600K") as session:
        results = {
            dim: session.solve("lcs", dim, policy=SERIAL) for dim in (16, 20, 24, 28)
        }
    return results


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
        assert key.digest in store and len(store) == 1
        assert store.total_bytes > 0

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
    def test_truncated_entry_self_repairs(self, tmp_path, solved):
        store = DiskCacheStore(tmp_path)
        key = _key(16)
        store.put(key.digest, solved[16], request=key.payload)
        path = tmp_path / f"{key.digest}.npz"
        path.write_bytes(path.read_bytes()[: 40])  # torn tail
        assert store.get(key.digest) is None
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
        assert len(store) == 2 and store.evictions == 1
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
        entry_bytes = probe.total_bytes
        store = DiskCacheStore(tmp_path / "bounded", max_bytes=int(entry_bytes * 2.5))
        for dim in (16, 20, 24, 28):
            store.put(_key(dim).digest, solved[dim], request=None)
        assert store.evictions >= 1
        assert store.total_bytes <= int(entry_bytes * 2.5)

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
        assert len(store) == 1 and store.evictions == 1
        assert _key(16).digest not in store and _key(20).digest in store


class TestReopen:
    def test_existing_entries_are_adopted(self, tmp_path, solved):
        first = DiskCacheStore(tmp_path)
        for dim in (16, 20):
            key = _key(dim)
            first.put(key.digest, solved[dim], request=key.payload)
        second = DiskCacheStore(tmp_path)
        assert len(second) == 2
        loaded = second.get(_key(20).digest)
        assert np.array_equal(loaded.grid.values, solved[20].grid.values)

    def test_tmp_files_are_swept_at_open(self, tmp_path):
        DiskCacheStore(tmp_path)
        leftover = tmp_path / ("b" * 64 + ".tmp")
        leftover.write_bytes(b"half-written")
        DiskCacheStore(tmp_path)
        assert not leftover.exists()

    def test_info_is_json_safe(self, tmp_path, solved):
        store = DiskCacheStore(tmp_path)
        key = _key(16)
        store.put(key.digest, solved[16], request=key.payload)
        store.get(key.digest)
        info = store.info()
        assert json.loads(json.dumps(info)) == info
        assert info["entries"] == 1 and info["hits"] == 1 and info["stores"] == 1


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

    def test_legacy_entries_without_a_witness_key_decode_to_none(self, solved):
        """Pre-witness archives have no ``witness`` header key at all."""
        arrays = encode_result(solved[16], request=None)
        header = json.loads(bytes(arrays["header"].tobytes()).decode("utf-8"))
        del header["witness"]
        arrays["header"] = np.frombuffer(
            json.dumps(header, sort_keys=True).encode("utf-8"), dtype=np.uint8
        )
        assert decode_result(arrays).witness is None


class TestValuesOnlyEntries:
    """The grid planes left the entry; entries that still have them decode."""

    @pytest.mark.parametrize("app", ["nash-equilibrium", "viterbi"])
    def test_parent_layout_entry_decodes_to_the_same_result(self, tmp_path, app):
        key = request_key(app, 12, overrides={"backend": "serial"})
        fixture = PARENT_LAYOUT / f"parent_layout_{app}.npz"
        with np.load(fixture, allow_pickle=False) as archive:
            assert "meta" in archive.files  # really the old layout
            assert ("payload" in archive.files) == (app == "nash-equilibrium")
        shutil.copy(fixture, tmp_path / f"{key.digest}.npz")
        store = DiskCacheStore(tmp_path)
        loaded = store.get(key.digest)
        assert loaded is not None and store.corrupt_dropped == 0
        with Session(system="i7-2600K") as session:
            fresh = session.solve(app, 12, policy=SERIAL)
        assert loaded.grid.values.tobytes() == fresh.grid.values.tobytes()
        assert loaded.grid.dsize == fresh.grid.dsize
        if fresh.witness is None:
            assert loaded.witness is None
        else:
            assert loaded.witness.tobytes() == fresh.witness.tobytes()
        assert loaded.matches(fresh)

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
        assert store.total_bytes <= result.grid.values.nbytes + witness_bytes + 2048
