"""Property-based tests (hypothesis) of the cache key codec and disk store.

The cache is only sound if the key codec is *canonical* — every
representation of the same request must hash identically, and different
requests must hash differently — and if the disk tier returns bit-exact
grids.  Both are checked as properties here, plus a store→load round-trip
over every registered application.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.registry import available_applications
from repro.cache import (
    KEY_CODEC_VERSION,
    CacheKey,
    DiskCacheStore,
    canonicalize,
    request_key,
)
from repro.core.exceptions import CacheError
from repro.core.params import TunableParams
from repro.facade.policy import ExecutionPolicy
from repro.session import Session

#: Pin the serial backend: these tests are about the cache, not the tuner.
SERIAL = ExecutionPolicy(backend="serial")

#: JSON-representable scalar leaves of override mappings.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=12),
)

#: Override mappings the way callers pass them (string keys, scalar-ish values).
override_maps = st.dictionaries(
    keys=st.text(min_size=1, max_size=10),
    values=st.one_of(scalars, st.lists(scalars, max_size=4)),
    max_size=6,
)


class TestKeyCodecProperties:
    @given(overrides=override_maps)
    @settings(max_examples=80, deadline=None)
    def test_dict_ordering_never_changes_the_key(self, overrides):
        """Insertion order of override mappings must not leak into the digest."""
        reordered = dict(sorted(overrides.items(), reverse=True))
        key_a = request_key("lcs", 64, overrides=overrides)
        key_b = request_key("lcs", 64, overrides=reordered)
        assert key_a.digest == key_b.digest
        assert key_a.payload == key_b.payload

    @given(value=st.integers(min_value=-(2**31), max_value=2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_numpy_integers_equal_python_integers(self, value):
        for np_type in (np.int32, np.int64):
            assert canonicalize(np_type(value)) == canonicalize(value)
            assert (
                request_key("lcs", 32, overrides={"x": np_type(value)}).digest
                == request_key("lcs", 32, overrides={"x": value}).digest
            )

    @given(value=st.floats(allow_nan=False, allow_infinity=False, width=32))
    @settings(max_examples=60, deadline=None)
    def test_numpy_floats_equal_python_floats(self, value):
        as_np = np.float64(float(value))
        assert canonicalize(as_np) == canonicalize(float(value))

    @given(flag=st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_numpy_bools_equal_python_bools(self, flag):
        assert canonicalize(np.bool_(flag)) == canonicalize(flag)
        # And bools never collapse into the integers they resemble (compare
        # the JSON encodings: Python's True == 1 would hide the difference).
        assert json.dumps(canonicalize(flag)) != json.dumps(canonicalize(int(flag)))

    @given(items=st.lists(scalars, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_tuple_and_list_flavours_are_identical(self, items):
        assert canonicalize(tuple(items)) == canonicalize(list(items))

    @given(
        dim_a=st.integers(min_value=2, max_value=4096),
        dim_b=st.integers(min_value=2, max_value=4096),
    )
    @settings(max_examples=80, deadline=None)
    def test_distinct_instances_get_distinct_keys(self, dim_a, dim_b):
        key_a = request_key("lcs", dim_a)
        key_b = request_key("lcs", dim_b)
        assert (key_a.digest == key_b.digest) == (dim_a == dim_b)

    @given(dim=st.integers(min_value=2, max_value=1024))
    @settings(max_examples=40, deadline=None)
    def test_distinct_apps_get_distinct_keys(self, dim):
        digests = {request_key(app, dim).digest for app in available_applications()}
        assert len(digests) == len(available_applications())

    @given(overrides=override_maps, dim=st.integers(min_value=2, max_value=512))
    @settings(max_examples=60, deadline=None)
    def test_payload_is_canonical_json(self, overrides, dim):
        """The payload round-trips through JSON to itself (no lossy leaves)."""
        key = request_key("lcs", dim, overrides=overrides)
        assert isinstance(key, CacheKey)
        assert json.loads(json.dumps(key.payload, sort_keys=True)) == key.payload
        assert key.payload["codec"] == KEY_CODEC_VERSION
        assert len(key.digest) == 64 and set(key.digest) <= set("0123456789abcdef")

    @given(dim=st.integers(min_value=2, max_value=256))
    @settings(max_examples=30, deadline=None)
    def test_mode_and_overrides_enter_the_key(self, dim):
        base = request_key("lcs", dim)
        assert request_key("lcs", dim, mode="simulate").digest != base.digest
        assert (
            request_key("lcs", dim, overrides={"backend": "serial"}).digest
            != base.digest
        )
        assert (
            request_key("lcs", dim, overrides={"tunables": TunableParams(cpu_tile=4)}).digest
            != base.digest
        )

    def test_unsupported_values_raise_cache_error(self):
        with pytest.raises(CacheError):
            canonicalize(object())
        with pytest.raises(CacheError):
            request_key("lcs", 32, overrides={"x": object()})
        with pytest.raises(CacheError):
            canonicalize(float("nan"))
        with pytest.raises(CacheError):
            canonicalize({1: "non-string key"})


class TestStoreRoundTripProperties:
    @pytest.mark.parametrize("app", available_applications())
    def test_roundtrip_is_bit_exact_for_every_registered_app(self, app, tmp_path):
        """store→load returns the identical grid for every application."""
        with Session(system="i7-2600K") as session:
            result = session.solve(app, 20, policy=SERIAL)
        store = DiskCacheStore(tmp_path / app)
        key = request_key(app, 20, overrides={"backend": "serial"})
        store.put(key.digest, result, request=key.payload)
        loaded = store.get(key.digest)
        assert loaded is not None
        assert loaded.grid.values.dtype == result.grid.values.dtype
        assert loaded.grid.values.tobytes() == result.grid.values.tobytes()
        assert loaded.grid.dsize == result.grid.dsize
        if result.witness is None:
            assert loaded.witness is None
        else:
            assert loaded.witness.dtype == result.witness.dtype
            assert loaded.witness.tobytes() == result.witness.tobytes()
        assert loaded.params == result.params
        assert loaded.tunables.features() == result.tunables.features()
        assert loaded.mode == result.mode
        assert loaded.rtime == pytest.approx(result.rtime)
