"""Exception hierarchy for the repro package.

All package-specific errors derive from :class:`ReproError` so callers can
catch everything the library raises deliberately with one ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class InvalidParameterError(ReproError, ValueError):
    """An input or tunable parameter is outside its legal range.

    Raised by :class:`repro.core.params.InputParams` /
    :class:`repro.core.params.TunableParams` validation and by the parameter
    space when an inconsistent combination is requested (e.g. a halo value
    with a single GPU).
    """


class PlanError(ReproError):
    """A three-phase plan could not be constructed or is inconsistent."""


class PartitionError(ReproError):
    """A diagonal could not be partitioned across the requested devices."""


class KernelError(ReproError):
    """A wavefront kernel produced invalid output or was misconfigured."""


class ExecutionError(ReproError):
    """A runtime executor failed to complete an execution."""


class WorkerCrashError(ExecutionError):
    """A worker process of a multicore pool died mid-execution.

    Raised by :class:`repro.runtime.mp_parallel.MPWavefrontPool` when the
    underlying :class:`concurrent.futures.ProcessPoolExecutor` reports a
    broken pool (a worker was killed or segfaulted).  The pool marks itself
    broken; :class:`repro.runtime.lifecycle.EngineHost` rebuilds it on the
    next request, so one crashed worker costs one failed execution, never a
    poisoned session.  The shard supervisor treats this as a shard crash
    and re-dispatches the in-flight request to a healthy shard.
    """


class ModelNotFittedError(ReproError):
    """A machine-learning model was used before being fitted."""


class SearchError(ReproError):
    """The exhaustive / random search could not produce a result."""


class RegistryError(ReproError, KeyError):
    """A name was not found in one of the package registries.

    Subclasses :class:`KeyError` so existing ``except KeyError`` callers keep
    working; new code should catch :class:`ReproError` (or a specific
    subclass below) instead.
    """

    def __init__(self, message: str) -> None:
        super().__init__(message)

    def __str__(self) -> str:
        # KeyError.__str__ repr()s its argument; registry errors are
        # human-readable sentences, so use the plain message.
        return self.args[0] if self.args else ""


class UnknownApplicationError(RegistryError):
    """An application name is not in :data:`repro.apps.registry.APPLICATIONS`."""


class UnknownExecutorError(RegistryError):
    """An executor name is not in :data:`repro.runtime.registry.ENGINE_SPECS`."""


class UnknownSystemError(RegistryError):
    """A system name is neither a Table 4 platform nor ``"local"``."""


class ArtifactError(ReproError):
    """A persisted artifact (profile, model, plan) is missing or unusable.

    Raised by the session facade when a requested tuner cannot be built from
    its on-disk artifacts, e.g. ``tuner="measured"`` before ``repro profile``
    has produced a profile.
    """


class CacheError(ArtifactError):
    """A persistent result-cache or trace artifact is unusable or stale.

    Raised by :mod:`repro.cache` when an on-disk cache directory (or one of
    its entries) carries an incompatible ``format_version``, and by the
    trace record/replay layer (:mod:`repro.server.trace`) for stale or
    malformed trace files.  Subclasses :class:`ArtifactError`, so the CLI
    maps it to exit code 3 — a stale artifact is a missing artifact, not a
    bug.  Note that *corrupt* cache entries (truncated or garbage files) do
    **not** raise: the store treats them as misses, counts them and deletes
    them, because a result cache must stay best-effort under disk faults.
    """


class ServerError(ReproError):
    """The serving layer was used outside its lifecycle contract.

    Examples: submitting to a :class:`repro.server.ReproServer` that was
    closed, or waiting on a request whose server was torn down before the
    request completed.
    """


class BackpressureError(ServerError):
    """A request was rejected by admission control (the queue is full).

    The serving layer's explicit backpressure signal: the bounded request
    queue of :class:`repro.server.ReproServer` is at capacity, so the
    request was refused instead of queued.  The HTTP endpoint maps this to
    status 429; clients should retry with backoff or reduce their offered
    load.
    """


class DeadlineError(ServerError):
    """A request's deadline expired before its result was delivered.

    The serving layer's typed timeout: a per-request ``deadline_s``
    (defaulting to :attr:`repro.server.ServerConfig.default_deadline_s`)
    propagates client → HTTP → queue → scheduler → shard, and a request
    that cannot be answered in time fails with this error instead of
    hanging — the HTTP endpoint maps it to status 504.  The failed ticket
    is counted in the ``deadline_expired`` metrics counter.
    """


class ShardCrashError(ServerError):
    """A worker shard died (or was declared dead) mid-request.

    Raised inside a shard by the chaos-injection layer (a ``kill`` fault)
    and synthesised by the supervisor's monitor when a shard misses its
    heartbeats or hangs past a request deadline.  The supervisor restarts
    the shard under jittered exponential backoff and re-dispatches the
    in-flight request; only a request that exhausts its re-dispatch budget
    surfaces this error to the client.
    """


class ShardUnavailableError(BackpressureError):
    """No healthy shard can accept work (restart budget exhausted).

    The supervisor's circuit breaker: every shard is dead or still backing
    off, so the server sheds the request early instead of queueing it into
    a black hole.  Subclasses :class:`BackpressureError`, so the HTTP
    endpoint answers 429 with a ``Retry-After`` header and load generators
    retry with backoff; with the degraded-fallback flag the server solves
    the request directly in-process instead of raising this.
    """


class UsageError(ReproError):
    """The caller asked for something inconsistent (bad argument combination).

    The CLI maps this (and every other :class:`ReproError` subclass) to an
    exit code in exactly one place, :func:`repro.cli.main`.
    """
