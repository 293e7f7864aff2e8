"""Chaos injection for the serving stack (``--chaos <spec>``).

The PPoPP testing stance applied to serving: fault schedules must be
explored *deterministically*, not discovered in production.  A
:class:`FaultPlan` is a committed, replayable schedule of faults keyed by
the global request ordinal — replaying the same trace through the same plan
reproduces the same fault points, which is what lets the chaos-smoke CI
gate (``scripts/gates.py chaos``) assert exact survival properties.

Spec grammar (one comma-separated string)::

    slow@18:0.2,drop@47

Each entry is ``kind@k[:seconds]`` — fire fault ``kind`` at the ``k``-th
solve attempt (1-based, re-runs included).  With a plan armed,
:class:`~repro.server.ReproServer` answers no memory hit at admission, so
``k`` counts requests, not only the result cache's misses:

* ``slow`` — the attempt sleeps ``seconds`` (default 0.25) before executing;
  the request still completes bit-exactly, exercising deadline headroom.
* ``drop`` — the request is executed and its answer discarded; the
  solving thread fails it at its deadline with a typed
  :class:`~repro.core.exceptions.DeadlineError` (HTTP 504), proving no
  request ever hangs past its deadline.

:class:`FaultInjector` is the runtime consumer: one per server, counting
solve attempts under a lock and handing each the faults scheduled for its
ordinal.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.core.exceptions import UsageError

#: Fault kinds understood by the spec parser and the server.
FAULT_KINDS = ("slow", "drop")

#: Default sleep of a ``slow`` fault (seconds).
DEFAULT_SLOW_S = 0.25


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: ``kind`` fired at global request ordinal ``at``.

    ``seconds`` parameterises ``slow`` (its sleep); it is ignored by
    ``drop``.
    """

    kind: str
    at: int
    seconds: float | None = None

    def __post_init__(self) -> None:
        """Validate the spec once, at parse time."""
        if self.kind not in FAULT_KINDS:
            raise UsageError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if self.at < 1:
            raise UsageError(f"fault ordinal must be >= 1, got {self.at}")
        if self.seconds is not None and self.seconds < 0:
            raise UsageError(f"fault seconds must be >= 0, got {self.seconds}")

    @property
    def sleep_s(self) -> float:
        """The effective sleep of a slow fault."""
        return DEFAULT_SLOW_S if self.seconds is None else self.seconds

    def describe(self) -> str:
        """The spec entry's canonical ``kind@k[:seconds]`` form."""
        suffix = f":{self.seconds:g}" if self.seconds is not None else ""
        return f"{self.kind}@{self.at}{suffix}"


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, replayable schedule of faults for one serving run.

    Parse one from a ``--chaos`` spec with :meth:`parse`; an empty plan
    (no spec) injects nothing and costs nothing.  The plan is immutable —
    runtime state (which faults already fired) lives in the
    :class:`FaultInjector` consuming it.
    """

    specs: tuple[FaultSpec, ...] = ()

    @classmethod
    def parse(cls, spec: str | None) -> "FaultPlan":
        """Parse a ``kind@k[:seconds],...`` chaos spec string.

        Raises :class:`~repro.core.exceptions.UsageError` on malformed
        entries; ``None`` or an empty/whitespace spec yields the empty plan.
        """
        if spec is None or not spec.strip():
            return cls()
        parsed: list[FaultSpec] = []
        for entry in spec.split(","):
            entry = entry.strip()
            if not entry:
                continue
            kind, sep, rest = entry.partition("@")
            if not sep or not kind or not rest:
                raise UsageError(
                    f"bad chaos entry {entry!r}: expected kind@k[:seconds] "
                    f"(e.g. drop@7 or slow@18:0.2)"
                )
            at_text, _, seconds_text = rest.partition(":")
            try:
                at = int(at_text)
            except ValueError:
                raise UsageError(
                    f"bad chaos ordinal {at_text!r} in {entry!r}"
                ) from None
            seconds = None
            if seconds_text:
                try:
                    seconds = float(seconds_text)
                except ValueError:
                    raise UsageError(
                        f"bad chaos seconds {seconds_text!r} in {entry!r}"
                    ) from None
            parsed.append(FaultSpec(kind=kind.strip(), at=at, seconds=seconds))
        return cls(specs=tuple(sorted(parsed, key=lambda s: s.at)))

    def __len__(self) -> int:
        """Number of scheduled faults."""
        return len(self.specs)

    def describe(self) -> str:
        """The plan's canonical spec string (round-trips through parse)."""
        return ",".join(spec.describe() for spec in self.specs)


@dataclass
class FaultInjector:
    """Runtime consumer of one :class:`FaultPlan`.

    The server calls :meth:`take` once per solve attempt; the injector
    advances the global ordinal under its lock and returns the faults
    scheduled at it (each fault fires exactly once).  Counters are
    JSON-safe and surface on ``/metrics`` as the ``supervisor.faults``
    section — the chaos gate's evidence that the injected faults actually
    happened.
    """

    plan: FaultPlan = field(default_factory=FaultPlan)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _ordinal: int = 0

    def take(self) -> list[FaultSpec]:
        """Claim the next attempt ordinal; return the faults due at it."""
        if not self.plan.specs:
            return []
        with self._lock:
            self._ordinal += 1
            return [spec for spec in self.plan.specs if spec.at == self._ordinal]

    def info(self) -> dict:
        """JSON-safe injection counters (fired vs scheduled, by kind)."""
        with self._lock:
            # Ordinals only grow, so a fault has fired once the ordinal reached it.
            fired = [spec for spec in self.plan.specs if spec.at <= self._ordinal]
            by_kind: dict[str, int] = {}
            for spec in fired:
                by_kind[spec.kind] = by_kind.get(spec.kind, 0) + 1
            return {
                "scheduled": len(self.plan),
                "injected": len(fired),
                "by_kind": by_kind,
                "requests_seen": self._ordinal,
                "plan": self.plan.describe(),
            }
