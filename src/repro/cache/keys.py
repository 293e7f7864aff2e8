"""Request identity: the one answer to "is this the same request?".

A served answer is a pure function of the request — ``(app, dim, instance
params, plan-relevant overrides, execution mode)`` — so everything that
reuses work across requests decides sameness here.
:func:`request_identity` is the in-memory identity: the session's plan
cache key, the ``/metrics`` and adaptive labels; :func:`instance_key`, the session's problem cache key,
names the instance a plan builds.  :func:`request_key` is the persistent
result cache's content address: the same canonical payload, hashed with
SHA-256.  Two requests are the same **iff** their canonical payloads are
byte-equal, independent of

* dictionary ordering (``{"a": 1, "b": 2}`` vs ``{"b": 2, "a": 1}``),
* container flavour (tuples vs lists of override pairs),
* numeric flavour (``numpy.int64(48)`` vs ``48``, ``numpy.float64`` vs
  ``float`` — the codec normalises NumPy scalars to their Python values).

Unsupported value types raise :class:`repro.core.exceptions.CacheError`
from :func:`canonicalize` (and a typed
:class:`~repro.core.exceptions.InvalidParameterError`, a 400 over HTTP,
from :func:`request_identity`) instead of silently falling back to ``repr``
— an unstable key is worse than no key, because it would turn
deterministic replay hit-rates into machine-dependent noise.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

from repro.core.exceptions import CacheError, InvalidParameterError
from repro.core.params import InputParams, TunableParams, require_int

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


def _encode(canonical: Any) -> str:
    """The compact, key-sorted JSON text of a canonical value."""
    return json.dumps(canonical, sort_keys=True, separators=(",", ":"))


def _freeze(value: Any) -> Any:
    """A canonical value with every list made a tuple.

    Maps stay maps, so :func:`canonicalize` reads the result back to the
    very payload it came from.
    """
    if isinstance(value, dict):
        return {name: _freeze(item) for name, item in value.items()}
    if isinstance(value, list):
        return tuple(_freeze(item) for item in value)
    return value


class RequestIdentity(NamedTuple):
    """What makes two requests the same request.

    ``app_kwargs`` (the application constructor overrides) and
    ``overrides`` (the policy's set fields) are held as the compact JSON
    text of their :func:`canonicalize`'d form, the same bytes
    :func:`request_key` hashes.  Equality is therefore exactly the result
    cache's: dict order and NumPy vs Python scalars do not matter, while
    ``1``, ``1.0`` and ``true`` stay three different values.  ``mode`` is
    ``None`` in the session's plan cache (planning does not
    depend on it) and the execution mode in the server's request labels.
    """

    app: str
    dim: int | None
    app_kwargs: str
    overrides: str
    mode: str | None = None

    def kwargs_pairs(self) -> tuple[tuple[str, Any], ...]:
        """The constructor overrides as sorted ``(name, value)`` pairs.

        Values are canonical with lists frozen to tuples, so a
        :class:`~repro.facade.plan.ResolvedPlan` carrying them compares
        equal across a JSON round trip and :func:`request_key` reads them
        back to this identity's payload.
        """
        return tuple(
            (name, _freeze(value))
            for name, value in json.loads(self.app_kwargs).items()
        )

    @property
    def label(self) -> str:
        """Compact human/JSON-friendly rendering (``lcs[dim=48] mode=functional``)."""
        label = f"{self.app}[dim={self.dim}]"
        if self.mode is not None:
            label += f" mode={self.mode}"
        pairs = {**json.loads(self.app_kwargs), **json.loads(self.overrides)}
        if pairs:
            label += " " + ",".join(f"{k}={_encode(v)}" for k, v in pairs.items())
        return label


def request_identity(
    app: str,
    dim: int | None,
    app_kwargs: Mapping[str, Any] | None = None,
    policy: Any = None,
    mode: str | None = None,
) -> RequestIdentity:
    """The identity of one request; the only place sameness is decided.

    ``app_kwargs`` are the application constructor overrides, ``policy``
    an :class:`~repro.facade.policy.ExecutionPolicy` (``None`` and an
    all-unset policy are the same request) and ``mode`` the execution mode
    when the caller's identity depends on it.  A value the codec cannot
    canonicalise — a non-finite float, an object, nesting deeper than the
    interpreter can walk — is a typed
    :class:`~repro.core.exceptions.InvalidParameterError`: a request that
    cannot be named cannot be served; so is a ``dim`` that is not an
    integer (:func:`~repro.core.params.require_int`).
    """
    if dim is not None:
        require_int("dim", dim)
    try:
        overrides = policy.overrides() if policy is not None else None
        return RequestIdentity(
            str(app),
            canonicalize(dim),
            _encode(canonicalize(app_kwargs)) if app_kwargs else "{}",
            _encode(canonicalize(overrides)) if overrides else "{}",
            mode,
        )
    except (CacheError, RecursionError) as error:
        raise InvalidParameterError(
            f"request for {app!r} has an argument that cannot be identified: {error}"
        ) from None


def instance_key(app: str, dim: int, kwargs_pairs: tuple) -> tuple:
    """The problem-cache key of one registry instance: what builds the grid.

    Built from what a :class:`~repro.facade.plan.ResolvedPlan` carries
    (``app``, ``dim``, ``app_kwargs``), so running a plan names its problem
    without re-canonicalising.  The pairs are canonical
    (:meth:`RequestIdentity.kwargs_pairs`), so their ``repr`` is exact where
    ``==`` is not: it keeps ``1``, ``1.0`` and ``True`` apart, like the
    identity's JSON text, and is hashable whatever the values hold.
    """
    return (app, dim, repr(kwargs_pairs))


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
    digest = hashlib.sha256(_encode(payload).encode("utf-8")).hexdigest()
    return CacheKey(digest=digest, payload=payload)
