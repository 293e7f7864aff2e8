"""The traced run: per-layer numbers taken from outside the program.

After the timed phase, a fixed sample of the workload's own requests is
timed at successively deeper *public* entry points on the warm stack —

    client.http ⊃ server.service ⊃ session.solve ⊃ session.run ⊃ runtime.sweep

(direct workloads start at ``session.solve``) — and a set of leaf probes
calls single public functions of each layer.  Every timing is a span
``{id, parent, request, workload, layer, name, t0_ns, t1_ns}``; spans of
one request share its id, a level's parent is the level outside it, and a
level's self time is its span minus what its child covers.  Spans stay in
memory and are written once, at the end.  Nothing inside ``src/`` is
instrumented: spans inside the program are a later change.

A per-layer metric reads 0 on a workload that never enters that layer
(``cache.*`` without a result cache, ``server.*`` on the direct
workloads).  A probe whose public name no longer exists is listed under
``skipped`` and its metrics are left out — it never fails the run.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
import traceback
from pathlib import Path

from repro import ExecutionPolicy, InputParams, Session, TunableParams

from common import median, percentile
from workloads import Request, RunData, Workload, shm_entries, spread

MATRIX_INSTANCES = 3
LEAF_REPS = 10
#: The tuner's own acceptance bound: a pick within 1.25x of the best counts.
ACCEPTANCE_BOUND = 1.25
TILED = ("mp-parallel", "pipelined")
BACKENDS = ("serial", "vectorized", "hybrid") + TILED

LEVELS = ("client.http", "server.service", "session.solve", "session.run", "runtime.sweep")


def _clock(call) -> tuple[int, int, object]:
    """(t0_ns, t1_ns, return value) of one call."""
    t0 = time.perf_counter_ns()
    out = call()
    return t0, time.perf_counter_ns(), out


def _seconds(call) -> float:
    t0, t1, _ = _clock(call)
    return (t1 - t0) / 1e9


def _median_of(call, reps: int = LEAF_REPS) -> float:
    return median([_seconds(call) for _ in range(reps)])


class Tracer:
    """Runs the probes of one workload; collects spans, metrics and skips."""

    def __init__(self, workload: Workload, stack, data: RunData, out_dir: Path,
                 names: list[str]) -> None:
        self.workload = workload
        #: Every per-layer metric ``BENCHMARK.json`` names.
        self.names = names
        self.stack = stack
        self.data = data
        self.out_dir = out_dir
        self.serve = workload.kind == "serve"
        self.spans: list[dict] = []
        self.metrics: dict[str, tuple[float, int]] = {}
        self.skipped: list[str] = []
        self.reps = workload.ladder_reps
        self._closers: list = []
        #: level name -> {(request index, rep): seconds}
        self.level_s: dict[str, dict] = {level: {} for level in LEVELS}
        #: One functional result per sampled request (from the ladder).
        self.results: dict[int, object] = {}

    # ------------------------------------------------------------------
    def put(self, name: str, value: float, samples: int = 1) -> None:
        self.metrics[name] = (float(value), int(samples))

    def zero(self, prefix: str) -> None:
        """The layer is never entered on this workload: its metrics read 0."""
        for name in self.names:
            if name.startswith(prefix) and name not in self.metrics:
                self.put(name, 0.0, 0)

    def span(self, request: int, parent: int | None, name: str, t0: int, t1: int) -> int:
        self.spans.append(
            {
                "id": len(self.spans),
                "parent": parent,
                "request": f"{self.workload.name}:{request}",
                "workload": self.workload.name,
                "layer": name.split(".")[0],
                "name": name,
                "t0_ns": t0,
                "t1_ns": t1,
            }
        )
        return len(self.spans) - 1

    def run(self) -> None:
        """Every probe, each behind its own boundary."""
        probes = [self.open_twin, self.ladder, self.backend_matrix, self.autotuner,
                  self.session_plans, self.apps, self.cache, self.server, self.client]
        try:
            for probe in probes:
                try:
                    probe()
                except Exception:  # noqa: BLE001 - a refactor must not break the run
                    last = traceback.format_exc().strip().splitlines()[-1]
                    self.skipped.append(f"{probe.__name__}: {last}")
        finally:
            for close in reversed(self._closers):
                close()

    # ------------------------------------------------------------------
    # The in-process stack the ladder descends into
    # ------------------------------------------------------------------
    def open_twin(self) -> None:
        """Direct: the session under test.  Serve: an in-process twin of it."""
        if not self.serve:
            self.session = self.stack.session
            self.service = None
            return
        from repro.server import ReproServer, ServerConfig

        kwargs = dict(self.workload.session_kwargs)
        if self.workload.cache:
            tmp = Path(tempfile.mkdtemp(prefix="twin-", dir=self.out_dir))
            self._closers.append(lambda: shutil.rmtree(tmp, ignore_errors=True))
            kwargs["cache_dir"] = tmp
        self.session = Session(**kwargs)
        self._closers.append(self.session.close)
        self.service = ReproServer(self.session, ServerConfig()).start()
        self._closers.append(self.service.close)
        for request in self.workload.sample:  # warm plans, caches and threads
            self.service.solve(request.app, request.dim, **request.solve_kwargs())

    def _call(self, level: str, request: Request):
        kwargs = request.solve_kwargs()
        if level == "client.http":
            return lambda: self.stack.server.solve(request)
        if level == "server.service":
            return lambda: self.service.solve(request.app, request.dim, **kwargs)
        if level == "session.solve":
            return lambda: self.session.solve(request.app, request.dim, **kwargs)
        plan = self.session.plan(request.app, request.dim, **kwargs)
        return lambda: self.session.run(plan)

    # ------------------------------------------------------------------
    def ladder(self) -> None:
        levels = LEVELS[:-1] if self.serve else LEVELS[2:-1]
        bare: list[float] = []
        traced: list[float] = []
        stats_sum = {"tiles_executed": 0, "tile_waves": 0, "band_cells": 0,
                     "redundant_cells": 0, "phase1_cells": 0, "phase3_cells": 0}
        for rep in range(self.reps):
            for index, request in enumerate(self.workload.sample):
                calls = [self._call(level, request) for level in levels]
                # The outermost level once more with no span kept: the pair
                # prices the tracing itself.  Which goes first alternates.
                if rep % 2:
                    bare.append(_seconds(calls[0]))
                parent = None
                for level, call in zip(levels, calls):
                    t0, t1, out = _clock(call)
                    parent = self.span(index, parent, level, t0, t1)
                    self.level_s[level][index, rep] = (t1 - t0) / 1e9
                if not rep % 2:
                    bare.append(_seconds(calls[0]))
                traced.append(self.level_s[levels[0]][index, rep])
                # The executor's own clock is the innermost level.
                sweep_ns = int(out.wall_time * 1e9)
                self.span(index, parent, "runtime.sweep", t1 - sweep_ns, t1)
                self.level_s["runtime.sweep"][index, rep] = out.wall_time
                if rep == 0:
                    self.results[index] = out
                    for key in stats_sum:
                        stats_sum[key] += int(out.stats.get(key, 0))
        pairs = len(traced)
        self.put("trace.overhead_share",
                 median([(t - b) / b for t, b in zip(traced, bare)]), pairs)
        outer, sweep = self.level_s[levels[0]], self.level_s["runtime.sweep"]
        self.put("trace.sweep_share", median([sweep[k] / outer[k] for k in outer]), pairs)
        for name, outer_level, inner_level in (
            ("server.http.overhead_us", "client.http", "server.service"),
            ("server.service.overhead_us", "server.service", "session.solve"),
            ("session.solve_overhead_us", "session.solve", "session.run"),
            ("session.run_overhead_us", "session.run", "runtime.sweep"),
        ):
            outer, inner = self.level_s[outer_level], self.level_s[inner_level]
            if outer:
                self.put(name, 1e6 * median([outer[k] - inner[k] for k in outer]), pairs)
        for key in ("tiles_executed", "tile_waves", "band_cells", "redundant_cells"):
            self.put(f"runtime.{key}", stats_sum[key], len(self.results))
        self.put("runtime.phase_cells",
                 stats_sum["phase1_cells"] + stats_sum["phase3_cells"], len(self.results))

    # ------------------------------------------------------------------
    def _pinned(self, backend: str, request: Request) -> ExecutionPolicy:
        """The workload's instance with ``backend`` pinned by policy."""
        own = request.policy
        if backend == "hybrid":
            # A pinned 3-phase plan (paper-hybrid) is the hybrid under test.
            if own is not None and own.backend is None:
                return own
            return ExecutionPolicy(backend="hybrid")
        if backend in TILED:
            if own is not None and own.backend in TILED:
                tile = own.tunables.cpu_tile
            else:
                tile = max(1, min(512, request.dim // 2))
            return ExecutionPolicy(
                backend=backend,
                workers=min(2, os.cpu_count() or 1),
                tunables=TunableParams(cpu_tile=tile),
            )
        return ExecutionPolicy(backend=backend)

    def backend_matrix(self) -> None:
        """Pinned-backend walls of the workload's own instances, side by side."""
        instances = spread(
            list({r.key: r for r in self.workload.sample}.values()), MATRIX_INSTANCES
        )
        shm_before = shm_entries()
        probe = Session(**{**self.workload.session_kwargs, "tuner": self.session.tuner})
        try:
            walls: dict[str, list[float]] = {b: [] for b in BACKENDS + ("tuned",)}
            expected: list[float] = []
            spawn: list[float] = []
            for request in instances:
                kwargs = dict(request.kwargs)
                for backend in TILED + BACKENDS[:3] + ("tuned",):
                    policy = None if backend == "tuned" else self._pinned(backend, request)
                    extra = {} if policy is None else {"policy": policy}
                    plan = probe.plan(request.app, request.dim, **kwargs, **extra)
                    run = lambda plan=plan: probe.run(plan)  # noqa: E731
                    cold = _seconds(run) if not spawn else None  # spawns the pools
                    wall = _median_of(run, self.reps)
                    walls[backend].append(wall)
                    if cold is not None:
                        spawn.append(cold - wall)
                    if backend == "tuned" and plan.expected_s is not None:
                        expected.append(plan.expected_s / wall)
        finally:
            probe.close()
        n = len(instances)
        cells = [r.dim * r.dim for r in instances]
        for backend in BACKENDS:
            per_cell = [1e9 * w / c for w, c in zip(walls[backend], cells)]
            self.put(f"runtime.ns_per_cell.{backend}", median(per_cell), n)
        best_tiled = [min(m, p) for m, p in zip(walls["mp-parallel"], walls["pipelined"])]
        self.put("runtime.mp_speedup",
                 median([v / t for v, t in zip(walls["vectorized"], best_tiled)]), n)
        self.put("runtime.pipelined_over_barrier",
                 median([p / m for p, m in zip(walls["pipelined"], walls["mp-parallel"])]), n)
        self.put("runtime.hybrid_over_vectorized",
                 median([h / v for h, v in zip(walls["hybrid"], walls["vectorized"])]), n)
        self.put("runtime.pool_spawn_s", spawn[0])
        self.put("runtime.shm_leaked", len(shm_entries() - shm_before))
        best = [min(walls[b][i] for b in ("serial", "vectorized", "hybrid", "pipelined"))
                for i in range(n)]
        ratios = [t / b for t, b in zip(walls["tuned"], best)]
        self.put("autotuner.tuned_over_best", median(ratios), n)
        self.put("autotuner.picked_best_share",
                 sum(r <= ACCEPTANCE_BOUND for r in ratios) / n, n)
        self.put("hardware.expected_over_measured",
                 median(expected) if expected else 0.0, len(expected))

    # ------------------------------------------------------------------
    def autotuner(self) -> None:
        kwargs = self.workload.session_kwargs
        t0 = time.perf_counter()
        fresh = Session(**kwargs)
        fresh.tuner  # noqa: B018 - first touch builds and trains it
        self.put("autotuner.train_s", time.perf_counter() - t0)
        self._closers.append(fresh.close)
        self.fresh = fresh
        plans = [fresh.plan(r.app, r.dim, **dict(r.kwargs)) for r in self.workload.sample]
        unseen = [
            (plan.app, InputParams(dim=plan.dim + k, tsize=plan.params.tsize,
                                   dsize=plan.params.dsize))
            for plan in plans
            for k in (1, 2, 3)
        ]
        resolve = [_seconds(lambda a=a, p=p: fresh.tuner.resolve(a, p)) for a, p in unseen]
        self.put("autotuner.resolve_us", 1e6 * median(resolve), len(resolve))
        simulate = [_median_of(lambda p=p: fresh.run(p, mode="simulate")) for p in plans]
        self.put("hardware.simulate_us", 1e6 * median(simulate), len(simulate))
        # Fig 10's quantity: the exhaustive-best plan's simulated runtime
        # over the tuned plan's.  Cost-model only, so it repeats exactly.
        efficiency = []
        with Session(**{**kwargs, "tuner": "exhaustive"}) as exhaustive:
            for request, plan in zip(self.workload.sample[:MATRIX_INSTANCES], plans):
                best = exhaustive.plan(request.app, request.dim, **dict(request.kwargs))
                efficiency.append(
                    exhaustive.run(best, mode="simulate").rtime
                    / fresh.run(plan, mode="simulate").rtime
                )
        self.put("autotuner.sim_efficiency", median(efficiency), len(efficiency))

    def session_plans(self) -> None:
        """``Session.plan`` on a never-seen and on a cached signature."""
        miss, hit = [], []
        for index, request in enumerate(self.workload.sample):
            kwargs = dict(request.kwargs)
            dim = request.dim
            if "seed" in kwargs:
                kwargs["seed"] = 20_000 + index
            else:
                dim += 1 + index
            call = lambda d=dim, k=kwargs: self.fresh.plan(request.app, d, **k)  # noqa: E731
            miss.append(_seconds(call))
            hit.append(_median_of(call))
        self.put("session.plan_miss_us", 1e6 * median(miss), len(miss))
        self.put("session.plan_hit_us", 1e6 * median(hit), len(hit))
        if self.serve:
            before = self.data.metrics_before["caches"]["plans"]
            after = self.data.metrics_after["caches"]["plans"]
        else:
            before, after = self.data.plans_before, self.data.plans_after
        hits = after["hits"] - before["hits"]
        lookups = hits + after["misses"] - before["misses"]
        self.put("session.plan_lru_hit_rate", hits / lookups if lookups else 0.0, lookups)

    def apps(self) -> None:
        from repro.apps.registry import resolve_application

        build, witness = [], []
        for index, request in enumerate(self.workload.sample):
            make = lambda r=request: resolve_application(  # noqa: E731
                r.app, dim=r.dim, **dict(r.kwargs)
            ).problem(r.dim)
            build.append(_median_of(make, 3))
            kernel, values = make().kernel, self.results[index].grid.values
            witness.append(_median_of(lambda: kernel.reconstruct_witness(values), 3))
        self.put("apps.problem_build_us", 1e6 * median(build), len(build))
        self.put("apps.witness_us", 1e6 * median(witness), len(witness))

    # ------------------------------------------------------------------
    def cache(self) -> None:
        if not self.workload.cache:
            self.zero("cache.")
            return
        from repro.cache import DiskCacheStore, ResultCache, request_key

        before, after = self.data.metrics_before["cache"], self.data.metrics_after["cache"]
        for name in ("lookups", "memory_hits", "disk_hits", "misses", "coalesced"):
            self.put(f"cache.{name}", after[name] - before[name])
        self.put("cache.evictions",
                 after["memory"]["evictions"] - before["memory"]["evictions"])
        tmp = Path(tempfile.mkdtemp(prefix="cache-", dir=self.out_dir))
        try:
            tiers = ResultCache(tmp / "tiers")
            store = DiskCacheStore(tmp / "store")
            key_s, put_s, memory_s, disk_s = [], [], [], []
            for index, request in enumerate(self.workload.sample):
                result = self.results[index]
                plan = self.session.plan(request.app, request.dim, **request.solve_kwargs())
                make_key = lambda p=plan: request_key(  # noqa: E731
                    p.app, p.dim, params=p.params, app_kwargs=p.app_kwargs,
                    overrides={}, mode="functional",
                )
                key_s.append(_median_of(make_key))
                key = make_key()
                put_s.append(_median_of(
                    lambda: store.put(key.digest, result, request=key.payload), 3))
                lookup = lambda: tiers.get_or_solve(key, lambda: result)  # noqa: E731
                lookup()  # miss: fills both tiers
                memory_s.append(_median_of(lookup))
                for _ in range(3):
                    tiers.clear_memory()
                    disk_s.append(_seconds(lookup))
            info = store.info()
            n = len(self.workload.sample)
            self.put("cache.key_us", 1e6 * median(key_s), n)
            self.put("cache.put_ms", 1e3 * median(put_s), n)
            self.put("cache.memory_hit_us", 1e6 * median(memory_s), n)
            self.put("cache.disk_hit_ms", 1e3 * median(disk_s), len(disk_s))
            self.put("cache.entry_bytes", info["bytes"] / info["entries"], info["entries"])
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    # ------------------------------------------------------------------
    def server(self) -> None:
        if not self.serve:
            self.zero("server.")
            self.zero("adaptive.")
            return
        from repro.server import (ReproServer, RequestQueue, ServeRequest, ServerConfig,
                                  result_payload)

        data, sample = self.data, self.workload.sample
        before, after = data.metrics_before, data.metrics_after
        for name in ("rejected", "deadline_expired", "failed"):
            self.put(f"server.requests.{name}",
                     after["requests"][name] - before["requests"][name])
        self.put("server.queue.high_water", after["queue"]["high_water"])
        batches = after["batches"]["count"] - before["batches"]["count"]
        served = (after["batches"]["count"] * after["batches"]["mean_size"]
                  - before["batches"]["count"] * before["batches"]["mean_size"])
        self.put("server.batches.mean_size", served / batches if batches else 0.0, batches)
        self.put("server.overhead_p50_ms", 1e3 * median(data.over_sweep), len(data.over_sweep))

        burst = self.workload.timed[: max(20, len(self.workload.timed) // 8)]
        one = self.stack.drive(burst, 1, timed=False)
        two = self.stack.drive(burst, 2, timed=False)
        self.put("server.scale_2c_over_1c", one / two, len(burst))

        encode = [
            _median_of(lambda r=r, i=i: json.dumps(result_payload(r.app, r.dim, self.results[i])))
            for i, r in enumerate(sample)
        ]
        self.put("server.http.encode_us", 1e6 * median(encode), len(encode))

        idle = RequestQueue(64)
        ticket = lambda: ServeRequest(  # noqa: E731
            app=sample[0].app, dim=sample[0].dim, mode=None, plan_kwargs={},
            enqueued_at=time.perf_counter(),
        )
        handoff = [
            _seconds(lambda t=ticket(): (idle.submit(t), idle.next_batch(8, 0.0)))
            for _ in range(200)
        ]
        self.put("server.queue.handoff_us", 1e6 * median(handoff), len(handoff))

        # The ladder's in-process server ran the default (shadow) loop; the
        # same requests against one with the loop off price the observation.
        shadow = self.level_s["server.service"]
        self.service.close()
        self.session.attach_observer(None)
        off: dict = {}
        with ReproServer(self.session, ServerConfig(adaptive="off")) as plain:
            for rep in range(self.reps):
                for index, r in enumerate(sample):
                    off[index, rep] = _seconds(
                        lambda r=r: plain.solve(r.app, r.dim, **r.solve_kwargs())
                    )
        self.put("adaptive.overhead_us",
                 1e6 * median([shadow[k] - off[k] for k in off]), len(off))

    def client(self) -> None:
        """Tails of the timed phase (nominal-host times) and the host's own level."""
        speed = self.data.speed
        self.put("host.kernel_ms", 1e3 * speed.median_s(), len(speed.starts))
        latencies = self.data.latencies
        self.put("client.samples", len(latencies))
        for share in (0.95, 0.99):
            self.put(f"client.latency_p{round(share * 100)}_ms",
                     1e3 * percentile(latencies, share), len(latencies))


def trace(workload: Workload, stack, data: RunData, out_dir: Path,
          names: list[str]) -> Tracer:
    """Run every probe; write the spans to ``trace_<workload>.jsonl``."""
    tracer = Tracer(workload, stack, data, out_dir, names)
    tracer.run()
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"trace_{workload.name}.jsonl", "w", encoding="utf-8") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span) + "\n")
    return tracer
