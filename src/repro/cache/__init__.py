"""``repro.cache`` — the content-addressed persistent result cache.

Every answer the framework serves is a pure function of its request —
``(app, dim, instance params, plan-relevant overrides)`` — so identical
requests across time, threads and (future) shards should cost one solve,
not N.  This package delivers that as three composable layers:

* :mod:`repro.cache.keys` — the one request identity:
  :func:`request_identity` names a request for every in-memory cache and
  queue, and :func:`request_key` reduces it to a stable JSON payload (dict
  ordering, tuple/list flavour and NumPy scalar types all normalise away)
  and hashes it to a SHA-256 :class:`CacheKey`;
* :mod:`repro.cache.store` — :class:`DiskCacheStore`, the bounded on-disk
  tier: one atomic ``.npz`` per entry (JSON header + raw grid arrays,
  bit-exact), LRU eviction under entry/byte caps, corruption treated as a
  counted, self-repairing miss;
* :mod:`repro.cache.tier` — :class:`ResultCache`, the lookup path the
  session actually calls: memory LRU → disk → solve, with per-key
  stampede protection (concurrent misses elect one leader) and per-tier
  hit counters.

Wired in behind ``Session(cache_dir=...)`` / the ``--cache-dir`` CLI knob;
see ``docs/caching.md`` for the key scheme, on-disk layout, eviction
policy, metrics schema and knobs.
"""

from repro.cache.keys import (
    KEY_CODEC_VERSION,
    CacheKey,
    RequestIdentity,
    canonicalize,
    request_identity,
    request_key,
)
from repro.cache.store import (
    CACHE_FORMAT_VERSION,
    DEFAULT_MAX_BYTES,
    DEFAULT_MAX_ENTRIES,
    DiskCacheStore,
    decode_result,
    encode_result,
)
from repro.cache.tier import DEFAULT_MEMORY_ENTRIES, ResultCache

__all__ = [
    "CacheKey",
    "RequestIdentity",
    "request_identity",
    "request_key",
    "canonicalize",
    "KEY_CODEC_VERSION",
    "DiskCacheStore",
    "encode_result",
    "decode_result",
    "CACHE_FORMAT_VERSION",
    "DEFAULT_MAX_ENTRIES",
    "DEFAULT_MAX_BYTES",
    "DEFAULT_MEMORY_ENTRIES",
    "ResultCache",
]
