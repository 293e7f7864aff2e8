"""Canonical request-key codec of the persistent result cache.

A served answer is a pure function of the request — ``(app, dim, instance
params, plan-relevant overrides, execution mode)`` — so the cache addresses
results by *content*: the request is reduced to a canonical, stable JSON
payload and hashed with SHA-256.  Two requests share a digest **iff** they
describe the same computation, independent of

* dictionary ordering (``{"a": 1, "b": 2}`` vs ``{"b": 2, "a": 1}``),
* container flavour (tuples vs lists of override pairs),
* numeric flavour (``numpy.int64(48)`` vs ``48``, ``numpy.float64`` vs
  ``float`` — the codec normalises NumPy scalars to their Python values).

Unsupported value types raise :class:`repro.core.exceptions.CacheError`
instead of silently falling back to ``repr`` — an unstable key is worse
than no key, because it would turn deterministic replay hit-rates into
machine-dependent noise.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from repro.core.exceptions import CacheError
from repro.core.params import InputParams, TunableParams

#: Version of the canonicalisation scheme; folded into every digest so a
#: codec change can never alias entries written under the previous scheme.
KEY_CODEC_VERSION = 1


def canonicalize(value: Any) -> Any:
    """Reduce ``value`` to a canonical JSON-safe form.

    Mappings become sorted-key dictionaries, sequences become lists, NumPy
    scalars become Python scalars, and the parameter dataclasses
    (:class:`InputParams` / :class:`TunableParams`) become their feature
    dictionaries.  Raises :class:`CacheError` for anything else — the codec
    must never guess.
    """
    if value is None or isinstance(value, (bool, np.bool_)):
        return bool(value) if value is not None else None
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        out = float(value)
        if not math.isfinite(out):
            # NaN is not equal to itself and infinities are not valid JSON;
            # neither can be a stable content address.
            raise CacheError(f"non-finite float {out!r} cannot participate in a cache key")
        return out
    if isinstance(value, str):
        return value
    if isinstance(value, InputParams):
        return {"dim": value.dim, "tsize": float(value.tsize), "dsize": value.dsize}
    if isinstance(value, TunableParams):
        return {k: int(v) for k, v in value.features().items()}
    if isinstance(value, Mapping):
        out = {}
        for key in sorted(value, key=str):
            if not isinstance(key, str):
                raise CacheError(
                    f"cache keys require string mapping keys, got {key!r}"
                )
            out[key] = canonicalize(value[key])
        return out
    if isinstance(value, (list, tuple)):
        return [canonicalize(item) for item in value]
    if isinstance(value, numbers.Number):
        return float(value)
    raise CacheError(
        f"value of type {type(value).__name__!r} cannot participate in a "
        f"cache key: {value!r}"
    )


@dataclass(frozen=True)
class CacheKey:
    """One content address: the canonical payload and its SHA-256 digest.

    ``digest`` is the on-disk/LRU lookup key; ``payload`` is kept for
    introspection and is written into every disk entry so a cache directory
    is self-describing (``repro``'s answer to "what is this file?").
    """

    digest: str
    payload: dict


def request_key(
    app: str,
    dim: int | None,
    *,
    params: InputParams | None = None,
    app_kwargs: Any = (),
    overrides: Mapping[str, Any] | None = None,
    mode: str = "functional",
) -> CacheKey:
    """The content address of one solve request.

    ``app``/``dim`` identify the registered application instance, ``params``
    its resolved :class:`InputParams` (when the caller already planned),
    ``app_kwargs`` the constructor overrides and ``overrides`` the
    plan-relevant keyword overrides (backend, engine, workers, tunables —
    anything that pins the execution away from the tuner's default).
    ``mode`` is folded in so a simulate answer can never shadow a
    functional one.
    """
    payload = {
        "codec": KEY_CODEC_VERSION,
        "app": str(app),
        "dim": canonicalize(dim),
        "params": canonicalize(params) if params is not None else None,
        "app_kwargs": canonicalize(dict(app_kwargs)),
        "overrides": canonicalize(dict(overrides or {})),
        "mode": str(mode),
    }
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(encoded.encode("utf-8")).hexdigest()
    return CacheKey(digest=digest, payload=payload)
