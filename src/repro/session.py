"""``repro.session`` — the one high-level entry point of the framework.

The paper's promise is "write the kernel once, the autotuner picks the
plan".  :class:`Session` delivers that promise as a single object instead of
hand-wired app constructors, tuner classes and backend registries:

>>> from repro import Session
>>> with Session(system="i7-2600K", tuner="learned") as session:
...     plan = session.plan("lcs", 256)        # inspectable, serialisable
...     result = session.run(plan)             # executes the plan
...     result = session.solve("lcs", 256)     # plan + run in one call

Design points:

* **Plan/execute separation** — :meth:`Session.plan` returns a
  :class:`repro.facade.plan.ResolvedPlan` that can be inspected, saved as
  JSON (:func:`repro.facade.plan.save_plan`) and replayed later by
  :meth:`Session.run`; nothing executes until asked.
* **One tuner protocol** — any :class:`repro.autotuner.protocol.Tuner`
  (``"learned"``, ``"measured"``, ``"exhaustive"`` or a custom instance)
  plugs in unchanged; the session never looks past
  :meth:`~repro.autotuner.protocol.Tuner.resolve`.  On the default
  ``system="local"``, ``"learned"`` is the rule
  (:class:`~repro.autotuner.protocol.LocalRuleTuner`): nothing is trained
  and no training code is imported.
* **Batched serving** — :meth:`Session.solve_many` answers streams of
  requests out of the tuned-plan cache, the problem cache and the
  resident worker team of :class:`repro.runtime.lifecycle.EngineHost`,
  instead of re-tuning and re-spawning per request.
* **Bounded state** — every cache is an LRU with a size configured by
  ``cache_size``, so a session serving millions of requests holds a
  bounded number of plans, problems and worker processes.  Instance data
  has one owner, the problem cache: plans of registry names carry no
  problem, and ``cache_info()["problems"]["bytes"]`` says what it holds.
* **Persistent results** — with ``cache_dir`` set, functional
  :meth:`Session.solve`/:meth:`Session.solve_many` answers are served from
  a content-addressed :class:`repro.cache.ResultCache` (memory LRU → disk
  → solve): identical requests across time, threads and processes cost one
  grid sweep, and concurrent misses on one key are stampede-protected;
  :meth:`Session.serve_from_memory` answers from its memory tier alone.
  An answered request releases its instance data: the answer replaces its
  inputs.

The CLI's workflow verbs (``run``, ``tune``, ``bench``, ``profile``,
``report``, ``serve``) are thin adapters over this class (the serving
verb through :class:`repro.server.ReproServer`, which shares one
thread-safe session across the threads that admit its requests).
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Iterable, Mapping
from dataclasses import replace
from functools import cached_property
from typing import TYPE_CHECKING, Any

from repro.apps.base import WavefrontApplication
from repro.apps.registry import default_dim, get_application
from repro.autotuner.protocol import PlanDecision, Tuner
from repro.cache import RequestIdentity, ResultCache, request_identity, request_key
from repro.cache.keys import instance_key
from repro.core.exceptions import DeadlineError, ReproError, UsageError
from repro.core.params import TunableParams, require_int
from repro.core.parameter_space import ParameterSpace
from repro.core.pattern import WavefrontProblem
from repro.facade.plan import ResolvedPlan
from repro.facade.policy import ExecutionPolicy
from repro.facade.tuners import make_tuner
from repro.hardware.platforms import resolve_system
from repro.hardware.system import SystemSpec
from repro.runtime.executor_base import Deadline, ExecutionMode
from repro.runtime.lifecycle import EngineHost
from repro.runtime.mp_parallel import default_tile
from repro.runtime.registry import engines_with, executor_class, fill_engine
from repro.runtime.result import ExecutionResult
from repro.utils.lru import LRUCache

if TYPE_CHECKING:  # pragma: no cover - the cost model loads on the first simulate run
    from repro.hardware.costmodel import CostModel

#: Default bound of the session's plan and problem caches.
DEFAULT_CACHE_SIZE = 128
#: The policy of a request that pins nothing: the tuner decides everything.
_TUNER_DECIDES = ExecutionPolicy()


class Session:
    """One facade for planning, executing and serving wavefront workloads.

    ``system`` is a Table 4 platform name, ``"local"`` (the introspected
    host) or a ready :class:`~repro.hardware.system.SystemSpec`; ``tuner``
    is a strategy name understood by :func:`repro.facade.tuners.make_tuner`
    or any :class:`~repro.autotuner.protocol.Tuner` instance.  The tuner is
    built lazily on first use, so sessions serving only explicit plans
    (e.g. the benchmark driver) never pay for training.

    ``cache_size`` (an integer >= 1) bounds the tuned-plan and problem
    caches.  ``cache_dir`` — when set — roots a
    persistent content-addressed result cache consulted by :meth:`solve` /
    :meth:`solve_many` for functional registry-name requests (pass a ready
    :class:`repro.cache.ResultCache` as ``result_cache`` to control its
    bounds); a directory written under an incompatible cache format raises
    :class:`repro.core.exceptions.CacheError` here, at construction.  Close
    the session (or use it as a context manager) to shut down its worker
    team deterministically.

    **Thread safety.**  One session may be shared by many threads (the
    serving layer, :class:`repro.server.ReproServer`, does exactly that):
    planning runs under a plan lock — so the tuner is built once and N
    concurrent requests for one signature cost one resolution — and
    execution runs under a run lock, so the stateful runtime resources
    (the worker team and its shared-memory arena) are never entered
    concurrently.  Executions therefore serialise per session, one sweep
    at a time; :attr:`run_waiters` counts the threads waiting for the run
    lock.
    """

    def __init__(
        self,
        system: str | SystemSpec = "local",
        tuner: str | Tuner = "learned",
        *,
        space: ParameterSpace | None = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
        model_path=None,
        profile_path=None,
        cache_dir=None,
        result_cache: ResultCache | None = None,
    ) -> None:
        self.system = (
            system if isinstance(system, SystemSpec) else resolve_system(system)
        )
        self.space = space
        self.cache_size = require_int("cache_size", cache_size, minimum=1)
        self.model_path = model_path
        self.profile_path = profile_path
        self._tuner_spec: str | Tuner = tuner
        self._tuner: Tuner | None = tuner if isinstance(tuner, Tuner) else None
        self.host = EngineHost(self.system)
        #: Content-addressed persistent result tier (None = disabled).
        self.result_cache: ResultCache | None = result_cache
        if self.result_cache is None and cache_dir is not None:
            self.result_cache = ResultCache(cache_dir)
        self._plans: LRUCache = LRUCache(self.cache_size)
        #: The one owner of instance data (plans of registry names hold none).
        self._problems: LRUCache = LRUCache(self.cache_size, weigh=lambda problem: problem.nbytes)
        # Reentrant so plan() may build the tuner (and close() may drain
        # both) under one acquisition; plan lock and run lock are only ever
        # taken in that order, never nested the other way round.
        self._plan_lock = threading.RLock()
        self._run_lock = threading.RLock()
        # stats["requests_served"] and the waiter gauge: never held across a run.
        self._served_lock = threading.Lock()
        #: Threads waiting for the run lock now.
        self.run_waiters = 0
        self._closed = False
        #: Run observer (``observer(plan, mode, wall_s)``) — see
        #: :meth:`attach_observer`; ``None`` = no observation.
        self._observer: Callable[[ResolvedPlan, ExecutionMode, float], None] | None = None
        #: Request counters surfaced by :meth:`cache_info`.
        self.stats: dict[str, int] = {
            "plans_resolved": 0,
            "runs": 0,
            "requests_served": 0,
        }

    # ------------------------------------------------------------------
    # Tuner lifecycle
    # ------------------------------------------------------------------
    @property
    def tuner(self) -> Tuner:
        """The session's tuning strategy, built (and trained) on first use.

        Construction happens under the plan lock, so concurrent first
        touches train exactly one tuner.
        """
        if self._tuner is None:
            with self._plan_lock:
                if self._tuner is None:
                    self._tuner = make_tuner(
                        self._tuner_spec,
                        self.system,
                        space=self.space,
                        model_path=self.model_path,
                        profile_path=self.profile_path,
                    )
        return self._tuner

    @cached_property
    def _cost_model(self) -> "CostModel":
        """Simulate mode's pricing model, built on the first simulate run."""
        from repro.hardware.costmodel import CostModel

        return CostModel(self.system)

    def attach_observer(
        self,
        observer: Callable[[ResolvedPlan, ExecutionMode, float], None] | None,
    ) -> "Session":
        """Register a run observer called after every :meth:`run`.

        ``observer(plan, mode, wall_s)`` receives the executed plan, the
        effective execution mode and the pure solve wall (executor time
        only — no queueing, no serving overhead).  It is a public per-run
        hook for callers that want their own record of each solve; the
        server does not use it.  Pass ``None`` to detach.  The observer is
        invoked outside error paths — a run that raises is not observed —
        and must be cheap and exception-free.
        """
        self._observer = observer
        return self

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(
        self,
        app: str | WavefrontProblem,
        dim: int | None = None,
        *,
        policy: ExecutionPolicy | None = None,
        identity: RequestIdentity | None = None,
        **app_kwargs,
    ) -> ResolvedPlan:
        """Resolve one application instance to an executable plan.

        ``app`` is a registered application name (``app_kwargs`` forward to
        its constructor) or a bare :class:`~repro.core.pattern.WavefrontProblem`
        (a caller's own application instance is passed as
        ``app.problem(dim)``).  Without a policy
        the session's tuner decides backend, workers and tunables; passing
        a ``policy`` (:class:`~repro.facade.policy.ExecutionPolicy`) whose
        ``backend`` (or ``tunables``) is set pins an explicit configuration
        and bypasses the tuner entirely — the plan's ``tuner`` field then
        reads ``"manual"``.

        Registry-name requests are cached per request identity
        (:func:`repro.cache.request_identity`, default ``dim`` filled, mode
        ``None``), so a repeated request costs one LRU hit and builds
        nothing.  A caller that already named the request passes that
        ``identity`` (the server does, at admission); it is trusted as the
        name of these arguments, not derived again.  Their plans carry no
        problem (the problem cache owns the instance, and :meth:`run` finds
        it there).
        A caller-supplied problem is planned against its *own* object,
        never the registry default of the same name, and the resulting plan
        carries it, so :meth:`run` executes exactly what was handed in.
        """
        self._check_open()
        if policy is None:
            policy = _TUNER_DECIDES
        with self._plan_lock:
            if isinstance(app, WavefrontProblem):
                if app_kwargs:
                    raise UsageError(
                        "constructor arguments cannot be applied to an "
                        "already-built problem"
                    )
                return self._resolve(app, app.name, (), policy, carry=True)
            if isinstance(app, WavefrontApplication):
                raise UsageError(
                    f"pass the application instance {app.name!r} as its problem: "
                    "session.plan(app.problem(dim))"
                )
            if identity is None:
                identity = self._identity(app, dim, policy, app_kwargs)
            cached = self._plans.get(identity)
            if cached is not None:
                return cached
            pairs = identity.kwargs_pairs()
            problem = self._problem(identity.app, identity.dim, pairs)
            plan = self._resolve(problem, app, pairs, policy, carry=False)
            return self._plans.put(identity, plan)

    @staticmethod
    def _identity(app, dim, policy, app_kwargs) -> RequestIdentity:
        """The plan-cache identity of a registry-name request (default dim filled)."""
        return request_identity(
            app, dim if dim is not None else default_dim(app), app_kwargs, policy
        )

    def _problem(self, app: str, dim: int, kwargs_pairs: tuple) -> WavefrontProblem:
        """The cached problem of one registry instance, built on a miss only."""
        return self._problems.get_or_create(
            instance_key(app, dim, kwargs_pairs),
            lambda: get_application(app, dim=dim, **dict(kwargs_pairs)).problem(dim),
        )

    def _resolve(
        self, problem, name, kwargs_key, policy: ExecutionPolicy, *, carry: bool
    ) -> ResolvedPlan:
        """Combine the tuner's decision with the policy's overrides.

        ``carry`` keeps ``problem`` on the plan: only for a caller-supplied
        problem, which the problem cache cannot rebuild from a name.
        """
        params = problem.input_params()
        if policy.backend is not None or policy.tunables is not None:
            decision = PlanDecision(
                backend=policy.backend if policy.backend is not None else "hybrid",
                tunables=policy.tunables if policy.tunables is not None else TunableParams(),
                workers=policy.workers if policy.workers is not None else 1,
                engine=policy.engine,
            )
            source = "manual"
        else:
            decision = self.tuner.resolve(name, params)
            self.stats["plans_resolved"] += 1
            source = self.tuner.kind
            if policy.engine is not None:
                # Swap only the engine that fills the grid: the hybrid
                # executor's, or a whole-grid decision's backend itself.
                target = "engine" if decision.backend == "hybrid" else "backend"
                decision = replace(decision, **{target: policy.engine})
        # Typed error here, at plan time, for a name the registry does not know.
        fill = fill_engine(decision.backend, decision.engine)
        tunables = decision.tunables
        if (
            policy.tunables is None
            and fill in (policy.backend, policy.engine)
            and fill in engines_with("multicore")
        ):
            # A tiled engine the caller named without a tile: a coarse
            # tile, never the scalar phases' cache tile (one-cell tiles
            # through worker pipes by default).
            tunables = replace(tunables, cpu_tile=default_tile(params.dim))
        workers = policy.workers if policy.workers is not None else decision.workers
        return ResolvedPlan(
            app=name,
            dim=problem.dim,
            params=params,
            tunables=tunables.clipped(problem.dim),
            backend=decision.backend,
            engine=decision.engine,
            workers=max(1, int(workers)),
            system=self.system.name,
            tuner=source,
            expected_s=decision.expected_s,
            app_kwargs=kwargs_key,
            problem=problem if carry else None,
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        plan: ResolvedPlan,
        mode: ExecutionMode | str | None = None,
        deadline: Deadline | None = None,
    ) -> ExecutionResult:
        """Execute a resolved plan (this session's or a replayed one).

        Functionally, a plan carrying a problem (one resolved from a
        caller-supplied problem) executes it directly; every other plan —
        a registry name's or a replayed one — takes its problem from the
        problem cache under ``(plan.app, plan.dim, plan.app_kwargs)``, built
        through the application registry on a miss.  In simulate mode the
        plan is priced from ``plan.params`` alone (:meth:`_price`): no
        problem and no executor is built.  ``mode`` defaults to
        ``"functional"``.

        The whole execution holds the session's run lock: borrowed worker
        pools and the shared-memory arena are single-request resources, so
        concurrent callers queue here and run one after another.  With a
        ``deadline`` (:class:`~repro.runtime.executor_base.Deadline`) the
        wait for the lock ends at it, and so does the sweep, checked once per
        row, diagonal or released region: either way a
        :class:`~repro.core.exceptions.DeadlineError`, with the lock free.
        """
        self._check_open()
        mode = ExecutionMode.coerce(mode) if mode is not None else ExecutionMode.FUNCTIONAL
        problem = plan.problem
        if problem is None and mode is ExecutionMode.FUNCTIONAL:
            problem = self._problem(plan.app, plan.dim, plan.app_kwargs)
        if not self._run_lock.acquire(blocking=False):
            self._wait_for_run_lock(deadline)
        try:
            self._check_open()
            executor = None
            if mode is ExecutionMode.FUNCTIONAL:
                executor = self.host.executor_for(plan.backend, plan.engine, plan.workers)
            self.stats["runs"] += 1
            started = time.perf_counter()
            if executor is None:
                result = self._price(plan)
            else:
                result = executor.execute(problem, plan.tunables, deadline)
            if self._observer is not None:
                self._observer(plan, mode, time.perf_counter() - started)
            return result
        finally:
            self._run_lock.release()

    def _wait_for_run_lock(self, deadline: Deadline | None) -> None:
        """Block for the run lock another run holds, no later than ``deadline``.

        Counted in :attr:`run_waiters` while it waits; the wait adds to the
        deadline's ``waited_s``.
        """
        with self._served_lock:
            self.run_waiters += 1
        began = time.perf_counter()
        try:
            if deadline is None:
                acquired = self._run_lock.acquire()
            else:
                acquired = self._run_lock.acquire(timeout=deadline.remaining())
                deadline.waited_s += time.perf_counter() - began
        finally:
            with self._served_lock:
                self.run_waiters -= 1
        if not acquired:
            raise DeadlineError("the deadline passed while the request waited for its run")

    def _price(self, plan: ResolvedPlan) -> ExecutionResult:
        """The simulate answer of ``plan``: its cost-model price, nothing computed.

        The engine names are checked and the tunables normalised by the
        backend's executor class, exactly as a functional run would, so the
        result records the configuration that run would execute.
        """
        fill_engine(plan.backend, plan.engine)
        tunables = executor_class(plan.backend)._validate(self.system, plan.dim, plan.tunables)
        breakdown = self._cost_model.price(plan.backend, plan.params, tunables, plan.workers)
        return ExecutionResult(
            params=plan.params,
            tunables=tunables,
            system=self.system.name,
            mode=ExecutionMode.SIMULATE.value,
            rtime=breakdown.total_s,
            breakdown=breakdown,
            stats={"strategy": plan.backend},
        )

    def solve(
        self,
        app: str | WavefrontProblem,
        dim: int | None = None,
        mode: ExecutionMode | str | None = None,
        *,
        policy: ExecutionPolicy | None = None,
        identity: RequestIdentity | None = None,
        **app_kwargs,
    ) -> ExecutionResult:
        """Plan and execute in one call (the "just solve it" entry point).

        ``policy``, ``identity`` and ``app_kwargs`` are those of :meth:`plan`.

        With a persistent result cache configured (``cache_dir=`` /
        ``result_cache=``), functional registry-name requests are answered
        content-addressed: the resolved plan's request key is looked up
        memory → disk before any grid is swept, and concurrent misses on
        one key run exactly one solve.  Once the cache has answered, hit or
        miss, the instance leaves the problem cache: nothing reads it again.
        Simulate-mode requests and problem requests bypass the cache,
        execute directly and keep their problem cached.
        """
        return self._solve(
            app, dim, mode, policy=policy, identity=identity, **app_kwargs
        )[1]

    def _solve(
        self, app, dim=None, mode=None, *, policy=None, identity=None, deadline=None,
        **app_kwargs,
    ) -> tuple[ResolvedPlan, ExecutionResult]:
        """:meth:`solve`, returning the plan it ran beside the answer.

        ``deadline`` bounds the run (:meth:`run`) and a wait for a
        concurrent solve of the same key; a stopped run caches nothing.
        """
        plan = self.plan(app, dim, policy=policy, identity=identity, **app_kwargs)
        key = self._request_key_for(app, plan, mode, policy)
        if key is None:
            return plan, self.run(plan, mode, deadline)
        try:
            return plan, self.result_cache.get_or_solve(
                key, lambda: self.run(plan, mode, deadline), deadline
            )
        finally:
            self._problems.pop(instance_key(plan.app, plan.dim, plan.app_kwargs))

    def _request_key_for(self, app, plan: ResolvedPlan, mode, policy: ExecutionPolicy | None):
        """The cache key of one solve request, or ``None`` when uncacheable.

        Only functional registry-name requests are cached: problem requests
        carry caller-owned state the codec cannot see, and
        simulate-mode answers have no bit-exact payload worth addressing.
        The policy's set fields enter the key under their field names, so a
        request decoded from an HTTP body and the same policy built in
        process address the same entry.  Every value was canonicalised when
        the plan was named, so building the key cannot fail.
        """
        if self.result_cache is None or not isinstance(app, str):
            return None
        if mode is not None and ExecutionMode.coerce(mode) is not ExecutionMode.FUNCTIONAL:
            return None
        return request_key(
            plan.app,
            plan.dim,
            params=plan.params,
            app_kwargs=plan.app_kwargs,
            overrides=policy.overrides() if policy is not None else {},
            mode=ExecutionMode.FUNCTIONAL.value,
        )

    def solve_many(
        self,
        requests: Iterable[Any],
        mode: ExecutionMode | str | None = None,
        deadline: Deadline | None = None,
    ) -> list[ExecutionResult]:
        """Serve a batch of requests, reusing plans, engines and pools.

        Each request is a registered application name, an
        ``(app, dim)`` pair, a mapping of :meth:`solve` keyword arguments,
        or a ready :class:`~repro.facade.plan.ResolvedPlan`.  Repeated
        requests hit the tuned-plan cache (one tuner resolution for the
        whole stream) and the multicore backends keep their worker team
        warm across the batch — the serving behaviour the per-call helpers
        could not offer.

        ``deadline`` (a :class:`~repro.runtime.executor_base.Deadline`)
        makes the batch deadline-aware: a request whose turn comes after the
        deadline raises :class:`~repro.core.exceptions.DeadlineError`
        instead of starting work nobody is waiting for, and a sweep under
        way stops at it (:meth:`run`).
        """
        return [self.solve_one(request, mode, deadline)[1] for request in requests]

    def solve_one(
        self,
        request: Any,
        mode: ExecutionMode | str | None = None,
        deadline: Deadline | None = None,
    ) -> tuple[ResolvedPlan, ExecutionResult]:
        """Serve one :meth:`solve_many` request; return the plan it ran and the answer.

        The server's call: a mapping request that carries its ``identity``
        is planned by it, and the plan comes back so the caller can read
        what ran (its ``expected_s``) without planning again.  ``deadline``
        is :meth:`solve_many`'s.
        """
        if deadline is not None and deadline.passed():
            raise DeadlineError(
                "deadline expired before the request started; not starting it"
            )
        if isinstance(request, ResolvedPlan):
            planned = request, self.run(request, mode, deadline)
        elif isinstance(request, Mapping):
            planned = self._solve(mode=mode, deadline=deadline, **request)
        elif isinstance(request, (tuple, list)):
            app, dim = request
            planned = self._solve(app, dim, mode, deadline=deadline)
        else:
            planned = self._solve(request, mode=mode, deadline=deadline)
        with self._served_lock:
            self.stats["requests_served"] += 1
        return planned

    def serve_from_memory(
        self,
        app: str,
        dim: int | None = None,
        mode: ExecutionMode | str | None = None,
        *,
        policy: ExecutionPolicy | None = None,
        identity: RequestIdentity | None = None,
        **app_kwargs,
    ) -> ExecutionResult | None:
        """Answer one :meth:`solve` request from the result cache's memory tier.

        Looks only at an already resolved plan and the memory LRU — never
        builds the tuner, resolves a plan, reads disk or sweeps — so the
        server's admission path can ask before queueing.  ``identity`` is
        :meth:`plan`'s.  A hit counts as a served request; a miss or error
        is ``None`` and counts nothing.
        """
        if self.result_cache is None or self._closed:
            return None
        try:
            if identity is None:
                identity = self._identity(app, dim, policy, app_kwargs)
            plan = self._plans.get(identity) if identity in self._plans else None
            key = None if plan is None else self._request_key_for(app, plan, mode, policy)
        except ReproError:  # the queued path reports it, typed
            return None
        result = self.result_cache.peek(key) if key is not None else None
        if result is not None:
            with self._served_lock:
                self.stats["requests_served"] += 1
        return result

    # ------------------------------------------------------------------
    # Profiling / sweeping (the CLI's remaining verbs)
    # ------------------------------------------------------------------
    def profile(self, config=None, progress: Callable[[str], None] | None = None):
        """Measure the live CPU backends on this session's system.

        Thin wrapper over :func:`repro.autotuner.measured.profile_host`
        returning the :class:`~repro.autotuner.measured.MeasuredProfile`;
        ``MeasuredTuner(profile)`` deploys it.
        """
        from repro.autotuner.measured import profile_host

        return profile_host(self.system, config, progress=progress)

    def sweep(self, space: ParameterSpace | None = None):
        """Exhaustive cost-model sweep of the synthetic application.

        Returns :class:`repro.autotuner.exhaustive.SearchResults` for the
        report/analysis helpers; ``space`` defaults to the session's space
        (or the paper's space).
        """
        from repro.autotuner.exhaustive import ExhaustiveSearch

        return ExhaustiveSearch(self.system, space if space is not None else self.space).sweep()

    def save_model(self, path) -> None:
        """Persist the tuner's learned model (for later ``model_path=`` use)."""
        from repro.autotuner.persistence import save_tuner

        model = getattr(self.tuner, "model", None)
        if model is None:
            raise UsageError(
                f"the {self.tuner.kind!r} tuner has no trainable model to save"
            )
        save_tuner(model, path)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def cache_info(self) -> dict:
        """Counters of every bounded cache plus the request statistics."""
        info = {
            "plans": self._plans.info(),
            "problems": self._problems.info(),
            "requests": dict(self.stats),
            **self.host.cache_info(),
        }
        if self.result_cache is not None:
            info["results"] = self.result_cache.info()
        return info

    def close(self) -> None:
        """Release the worker team, engines and caches; the session stays closed.

        Takes both locks (plan first, then run — the only nesting order used
        anywhere), so an in-flight execution finishes before its workers are
        torn down, and waits for the result cache's pending disk writes.
        """
        with self._plan_lock, self._run_lock:
            if self._closed:
                return
            if self.result_cache is not None:
                self.result_cache.flush()
            self.host.close()
            self._plans.clear()
            self._problems.clear()
            self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise UsageError("Session used after close()")

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Session(system={self.system.name}, tuner={self._tuner_spec!r}, "
            f"cache_size={self.cache_size})"
        )
