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

    Raised by :class:`repro.runtime.mp_parallel.WorkerTeam` when a worker's
    pipe breaks or its reply does not unpickle (the worker was killed or
    segfaulted).  The team marks itself broken;
    :meth:`repro.runtime.lifecycle.EngineHost.pool_for` closes it and forks
    a fresh one on the next borrow, so one crashed worker costs one failed
    execution, never a poisoned session.  :class:`repro.server.ReproServer`
    re-runs the request once, at once, on the fresh team; a crash that
    outlives that re-run answers HTTP 503.
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
    """A persistent result-cache directory or entry is unusable or stale.

    Raised by :mod:`repro.cache` when an on-disk cache directory (or one of
    its entries) carries an incompatible ``format_version``.  (A stale or
    malformed request trace is ``scripts/loadgen.py``'s own error, exit
    code 3.)  Subclasses :class:`ArtifactError`, so the CLI
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
    propagates client → HTTP → admission → the wait for the session's run
    lock → the sweep, which checks it once per row, diagonal or released
    region; a request that cannot be answered in time fails with this
    error instead of hanging — the HTTP endpoint maps it to status 504.  The failed ticket
    is counted in the ``deadline_expired`` metrics counter.
    """


class UsageError(ReproError):
    """The caller asked for something inconsistent (bad argument combination).

    The CLI maps this (and every other :class:`ReproError` subclass) to an
    exit code in exactly one place, :func:`repro.cli.main`.
    """
