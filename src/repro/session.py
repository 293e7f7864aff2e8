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
  :meth:`~repro.autotuner.protocol.Tuner.resolve`.
* **Batched serving** — :meth:`Session.solve_many` answers streams of
  requests out of the tuned-plan cache, the problem cache and the
  resident worker team of :class:`repro.runtime.lifecycle.EngineHost`,
  instead of re-tuning and re-spawning per request.
* **Bounded state** — every cache is an LRU with a size configured by
  ``cache_size``, so a session serving millions of requests holds a
  constant amount of memory and worker processes.
* **Persistent results** — with ``cache_dir`` set, functional
  :meth:`Session.solve`/:meth:`Session.solve_many` answers are served from
  a content-addressed :class:`repro.cache.ResultCache` (memory LRU → disk
  → solve): identical requests across time, threads and processes cost one
  grid sweep, and concurrent misses on one key are stampede-protected.

The CLI's workflow verbs (``run``, ``tune``, ``bench``, ``profile``,
``report``, ``serve``, ``loadgen``) are thin adapters over this class (the
serving verbs through :class:`repro.server.ReproServer`, which shares one
thread-safe session across its workers).
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from typing import Any, Callable, Iterable, Mapping

from repro.apps.base import WavefrontApplication
from repro.apps.registry import resolve_application
from repro.autotuner.protocol import PlanDecision, Tuner
from repro.autotuner.search_space import SearchSpace
from repro.cache import ResultCache, request_key
from repro.core.exceptions import CacheError, DeadlineError, UsageError
from repro.core.params import TunableParams
from repro.core.parameter_space import ParameterSpace
from repro.core.pattern import WavefrontProblem
from repro.facade.plan import ResolvedPlan
from repro.facade.policy import ExecutionPolicy
from repro.facade.tuners import make_tuner
from repro.hardware.costmodel import CostConstants
from repro.hardware.platforms import resolve_system
from repro.hardware.system import SystemSpec
from repro.runtime.executor_base import ExecutionMode
from repro.runtime.lifecycle import EngineHost
from repro.runtime.registry import engines_with, fill_engine
from repro.runtime.result import ExecutionResult
from repro.utils.lru import LRUCache

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

    ``mode`` is the default execution mode (``"functional"`` really
    computes, ``"simulate"`` evaluates the cost model only);
    ``cache_size`` bounds the tuned-plan and problem caches;
    ``workers`` — when set — overrides every plan's worker count (useful to
    force or forbid multiprocessing).  ``cache_dir`` — when set — roots a
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
    concurrently.  Executions therefore serialise per session; concurrent
    throughput comes from batching (:meth:`solve_many` and the server's
    coalescing scheduler), not from overlapping grid sweeps.
    """

    def __init__(
        self,
        system: str | SystemSpec = "local",
        tuner: str | Tuner = "learned",
        *,
        space: ParameterSpace | None = None,
        constants: CostConstants | None = None,
        mode: ExecutionMode | str = ExecutionMode.FUNCTIONAL,
        cache_size: int = DEFAULT_CACHE_SIZE,
        workers: int | None = None,
        model_path=None,
        profile_path=None,
        cache_dir=None,
        result_cache: ResultCache | None = None,
    ) -> None:
        self.system = (
            system if isinstance(system, SystemSpec) else resolve_system(system)
        )
        self.mode = ExecutionMode.coerce(mode)
        self.space = space
        if constants is None and isinstance(tuner, Tuner):
            # A ready tuner may carry calibrated cost constants; executing
            # with the same constants keeps plan estimates and simulate-mode
            # results consistent with the strategy that produced them.
            constants = getattr(tuner, "constants", None)
        self.constants = constants
        self.workers = workers
        self.cache_size = int(cache_size)
        self.model_path = model_path
        self.profile_path = profile_path
        self._tuner_spec: str | Tuner = tuner
        self._tuner: Tuner | None = tuner if isinstance(tuner, Tuner) else None
        self.host = EngineHost(self.system, constants)
        #: Content-addressed persistent result tier (None = disabled).
        self.result_cache: ResultCache | None = result_cache
        if self.result_cache is None and cache_dir is not None:
            self.result_cache = ResultCache(cache_dir)
        self._plans: LRUCache = LRUCache(self.cache_size)
        self._problems: LRUCache = LRUCache(self.cache_size)
        # Reentrant so plan() may build the tuner (and close() may drain
        # both) under one acquisition; plan lock and run lock are only ever
        # taken in that order, never nested the other way round.
        self._plan_lock = threading.RLock()
        self._run_lock = threading.RLock()
        self._closed = False
        #: Run observer (``observer(plan, mode, wall_s)``) — see
        #: :meth:`attach_observer`; ``None`` = no observation.
        self._observer: Callable[[ResolvedPlan, ExecutionMode, float], None] | None = None
        #: Request counters surfaced by :meth:`cache_info`.
        self.stats: dict[str, int] = {
            "plans_resolved": 0,
            "runs": 0,
            "requests_served": 0,
            "plans_adopted": 0,
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
                        constants=self.constants,
                        model_path=self.model_path,
                        profile_path=self.profile_path,
                        plan_cache_size=self.cache_size,
                    )
        return self._tuner

    @property
    def tuner_ready(self) -> bool:
        """True once the tuner has been built (no side effects)."""
        return self._tuner is not None

    def adopt_tuner(self, tuner: Tuner) -> "Session":
        """Swap in a ready tuner (e.g. freshly trained on a new profile).

        Cached plans from the previous strategy are dropped; problems,
        engines and the worker team are kept (they are tuner-independent).
        """
        with self._plan_lock:
            self._tuner = tuner
            self._plans.clear()
        return self

    def adopt_plan(self, plan: ResolvedPlan) -> ResolvedPlan:
        """Atomically install ``plan`` as the cached answer for its query.

        The plan replaces whatever the tuned-plan LRU holds for the same
        tuner-resolved query — ``(plan.app, plan.dim, plan.app_kwargs)``
        under the default policy — so every subsequent :meth:`plan`/
        :meth:`solve` call for that signature executes the adopted plan.
        This is the adaptive controller's promotion primitive
        (:class:`repro.adaptive.AdaptiveController`): the LRU ``put`` runs
        under the plan lock, so concurrent planners observe either the old
        plan or the new one, never a mixture.  Queries under a non-default
        policy are unaffected.
        """
        with self._plan_lock:
            self._check_open()
            query = (plan.app, plan.dim, plan.app_kwargs, _TUNER_DECIDES)
            self.stats["plans_adopted"] += 1
            return self._plans.put(query, plan)

    def attach_observer(
        self,
        observer: Callable[[ResolvedPlan, ExecutionMode, float], None] | None,
    ) -> "Session":
        """Register a run observer called after every :meth:`run`.

        ``observer(plan, mode, wall_s)`` receives the executed plan, the
        effective execution mode and the pure solve wall (executor time
        only — no queueing, no serving overhead).  The adaptive layer uses
        this as its session-side observation feed; pass ``None`` to
        detach.  The observer is invoked outside error paths — a run that
        raises is not observed — and must be cheap and exception-free.
        """
        self._observer = observer
        return self

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(
        self,
        app: str | WavefrontApplication | WavefrontProblem,
        dim: int | None = None,
        *,
        policy: ExecutionPolicy | None = None,
        **app_kwargs,
    ) -> ResolvedPlan:
        """Resolve one application instance to an executable plan.

        ``app`` is a registered application name (``app_kwargs`` forward to
        its constructor), an application instance, or a bare
        :class:`~repro.core.pattern.WavefrontProblem`.  Without a policy
        the session's tuner decides backend, workers and tunables; passing
        a ``policy`` (:class:`~repro.facade.policy.ExecutionPolicy`) whose
        ``backend`` (or ``tunables``) is set pins an explicit configuration
        and bypasses the tuner entirely — the plan's ``tuner`` field then
        reads ``"manual"``.

        Registry-name requests are cached per (instance, policy) query,
        so repeated requests cost one LRU hit.  Caller-supplied application
        instances and problems are planned against their *own* objects
        (identity-keyed, never conflated with the registry defaults of the
        same name) and the resulting plan carries the concrete problem, so
        :meth:`run` executes exactly what was handed in.
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
                return self._resolve(app, app.name, (), policy)
            if isinstance(app, WavefrontApplication):
                if app_kwargs:
                    raise UsageError(
                        f"cannot apply constructor arguments {sorted(app_kwargs)} to "
                        f"an already-built application instance {app.name!r}"
                    )
                dim = dim if dim is not None else app.default_dim
                problem = self._instance_problem(app, dim)
                return self._resolve(problem, app.name, (), policy)
            app_obj = resolve_application(app, **self._ctor_kwargs(dim, app_kwargs))
            dim = dim if dim is not None else app_obj.default_dim
            kwargs_key = tuple(sorted(app_kwargs.items()))
            query = (app, dim, kwargs_key, policy)
            cached = self._plans.get(query)
            if cached is not None:
                return cached
            problem = self._problems.get_or_create(
                (app, dim, kwargs_key), lambda: app_obj.problem(dim)
            )
            plan = self._resolve(problem, app, kwargs_key, policy)
            return self._plans.put(query, plan)

    @staticmethod
    def _ctor_kwargs(dim, app_kwargs: dict) -> dict:
        """Constructor arguments for registry resolution."""
        kwargs = dict(app_kwargs)
        if dim is not None:
            kwargs["dim"] = dim
        return kwargs

    def _instance_problem(self, app: WavefrontApplication, dim: int) -> WavefrontProblem:
        """The cached problem of one caller-supplied application instance.

        Keyed by the instance's identity (the cache entry keeps the
        instance alive, so a recycled ``id()`` can never alias) — two
        differently-configured instances sharing a registry name get two
        problems, and neither touches the registry-default cache slots.
        """
        key = ("__instance__", id(app), dim)
        entry = self._problems.get(key)
        if entry is None or entry[0] is not app:
            entry = self._problems.put(key, (app, app.problem(dim)))
        return entry[1]

    def _resolve(self, problem, name, kwargs_key, policy: ExecutionPolicy) -> ResolvedPlan:
        """Combine the tuner's decision with the policy's overrides."""
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
                decision = replace(decision, engine=policy.engine)
        # Typed error here, at plan time, for a name the registry does not know.
        fill = fill_engine(decision.backend, decision.engine)
        tunables = decision.tunables
        if (
            policy.tunables is None
            and fill in (policy.backend, policy.engine)
            and fill in engines_with("multicore")
        ):
            # A tiled engine the caller named without a tile: the coarsest
            # tile the tuners search, never the scalar phases' cache tile
            # (one-cell tiles through worker pipes by default).
            tunables = replace(
                tunables, cpu_tile=SearchSpace.mp_tile_candidates(params)[-1]
            )
        resolved_workers = (
            policy.workers if policy.workers is not None else decision.workers
        )
        if self.workers is not None:
            resolved_workers = self.workers
        return ResolvedPlan(
            app=name,
            dim=problem.dim,
            params=params,
            tunables=tunables.clipped(problem.dim),
            backend=decision.backend,
            engine=decision.engine,
            workers=max(1, int(resolved_workers)),
            system=self.system.name,
            tuner=source,
            expected_s=decision.expected_s,
            app_kwargs=kwargs_key,
            problem=problem,
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self, plan: ResolvedPlan, mode: ExecutionMode | str | None = None
    ) -> ExecutionResult:
        """Execute a resolved plan (this session's or a replayed one).

        Plans this session resolved carry their concrete problem and
        execute it directly; replayed plans (loaded from JSON) rebuild the
        problem through the application registry, cached per (app, dim,
        overrides).  ``mode`` defaults to the session's mode.

        The whole execution holds the session's run lock: borrowed worker
        pools and the shared-memory arena are single-request resources, so
        concurrent callers queue here and run one after another.
        """
        self._check_open()
        mode = ExecutionMode.coerce(mode) if mode is not None else self.mode
        problem = plan.problem
        if problem is None:
            problem = self._problems.get_or_create(
                (plan.app, plan.dim, plan.app_kwargs),
                lambda: resolve_application(
                    plan.app, dim=plan.dim, **plan.app_options
                ).problem(plan.dim),
            )
        with self._run_lock:
            self._check_open()
            executor = self.host.executor_for(plan.backend, plan.engine, plan.workers)
            self.stats["runs"] += 1
            started = time.perf_counter()
            result = executor.execute(problem, plan.tunables, mode=mode)
            if self._observer is not None:
                self._observer(plan, mode, time.perf_counter() - started)
            return result

    def solve(
        self,
        app: str | WavefrontApplication | WavefrontProblem,
        dim: int | None = None,
        mode: ExecutionMode | str | None = None,
        *,
        policy: ExecutionPolicy | None = None,
        **app_kwargs,
    ) -> ExecutionResult:
        """Plan and execute in one call (the "just solve it" entry point).

        ``policy`` and ``app_kwargs`` are those of :meth:`plan`.

        With a persistent result cache configured (``cache_dir=`` /
        ``result_cache=``), functional registry-name requests are answered
        content-addressed: the resolved plan's request key is looked up
        memory → disk before any grid is swept, and concurrent misses on
        one key run exactly one solve.  Simulate-mode requests, instance /
        problem requests and requests whose arguments the key codec cannot
        canonicalise bypass the cache and execute directly.
        """
        plan = self.plan(app, dim, policy=policy, **app_kwargs)
        key = self._request_key_for(app, plan, mode, policy)
        if key is None:
            return self.run(plan, mode=mode)
        return self.result_cache.get_or_solve(key, lambda: self.run(plan, mode=mode))

    def _request_key_for(self, app, plan: ResolvedPlan, mode, policy: ExecutionPolicy | None):
        """The cache key of one solve request, or ``None`` when uncacheable.

        Only functional registry-name requests are cached: instance and
        problem requests carry caller-owned state the codec cannot see, and
        simulate-mode answers have no bit-exact payload worth addressing.
        The policy's set fields enter the key under their field names, so a
        request decoded from an HTTP body and the same policy built in
        process address the same entry.  Un-canonicalisable values make the
        request silently uncacheable rather than unsolvable.
        """
        if self.result_cache is None or not isinstance(app, str):
            return None
        resolved_mode = ExecutionMode.coerce(mode) if mode is not None else self.mode
        if resolved_mode is not ExecutionMode.FUNCTIONAL:
            return None
        overrides = policy.overrides() if policy is not None else {}
        if self.workers is not None:
            # The session-wide override changes the executed plan, so it
            # must change the key too.
            overrides["workers"] = self.workers
        try:
            return request_key(
                plan.app,
                plan.dim,
                params=plan.params,
                app_kwargs=plan.app_kwargs,
                overrides=overrides,
                mode=resolved_mode.value,
            )
        except CacheError:
            return None

    def solve_many(
        self,
        requests: Iterable[Any],
        mode: ExecutionMode | str | None = None,
        deadline_at: float | None = None,
    ) -> list[ExecutionResult]:
        """Serve a batch of requests, reusing plans, engines and pools.

        Each request is a registered application name, an
        ``(app, dim)`` pair, a mapping of :meth:`solve` keyword arguments,
        or a ready :class:`~repro.facade.plan.ResolvedPlan`.  Repeated
        requests hit the tuned-plan cache (one tuner resolution for the
        whole stream) and the multicore backends keep their worker team
        warm across the batch — the serving behaviour the per-call helpers
        could not offer.

        ``deadline_at`` (an absolute ``time.perf_counter()`` instant) makes
        the batch deadline-aware: a request whose turn comes after the
        deadline raises :class:`~repro.core.exceptions.DeadlineError`
        instead of starting work nobody is waiting for.  A solve already
        underway runs to completion — compute is not aborted part-way.
        """
        results = []
        for request in requests:
            if deadline_at is not None and time.perf_counter() > deadline_at:
                raise DeadlineError(
                    f"batch deadline expired with {len(results)} of its "
                    f"requests served; not starting the next one"
                )
            if isinstance(request, ResolvedPlan):
                results.append(self.run(request, mode=mode))
            elif isinstance(request, Mapping):
                results.append(self.solve(mode=mode, **request))
            elif isinstance(request, (tuple, list)):
                app, dim = request
                results.append(self.solve(app, dim, mode=mode))
            else:
                results.append(self.solve(request, mode=mode))
            with self._run_lock:
                self.stats["requests_served"] += 1
        return results

    # ------------------------------------------------------------------
    # Profiling / sweeping (the CLI's remaining verbs)
    # ------------------------------------------------------------------
    def profile(self, config=None, progress: Callable[[str], None] | None = None):
        """Measure the live CPU backends on this session's system.

        Thin wrapper over :func:`repro.autotuner.measured.profile_host`
        returning the :class:`~repro.autotuner.measured.MeasuredProfile`;
        pair with :meth:`train_measured` to turn the profile into a
        deployable tuner.
        """
        from repro.autotuner.measured import profile_host

        return profile_host(self.system, config, progress=progress)

    def train_measured(self, profile, adopt: bool = False):
        """Train a measured tuner on a profile; optionally adopt it.

        With ``adopt=True`` the session starts answering :meth:`plan`
        queries from the new tuner immediately (dropping cached plans).
        """
        from repro.autotuner.measured import MeasuredTuner

        tuner = MeasuredTuner.train(profile)
        if adopt:
            self.adopt_tuner(tuner)
        return tuner

    def sweep(self, space: ParameterSpace | None = None, instances=None):
        """Exhaustive cost-model sweep of the synthetic application.

        Returns :class:`repro.autotuner.exhaustive.SearchResults` for the
        report/analysis helpers; ``space`` defaults to the session's space
        (or the reduced space).
        """
        from repro.autotuner.exhaustive import ExhaustiveSearch

        search = ExhaustiveSearch(
            self.system, space if space is not None else self.space, self.constants
        )
        return search.sweep(instances)

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
    def describe(self) -> str:
        """Human-readable summary of system, tuner and cache state."""
        tuner_txt = (
            self.tuner.describe() if self.tuner_ready else f"{self._tuner_spec!r} (lazy)"
        )
        return (
            f"Session(system={self.system.name}, tuner={tuner_txt}, "
            f"mode={self.mode.value}, cache_size={self.cache_size})"
        )

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
        torn down.
        """
        with self._plan_lock, self._run_lock:
            if self._closed:
                return
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
        return self.describe()
