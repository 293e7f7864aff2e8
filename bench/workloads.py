"""The five workloads: what each one sends, and the stacks that run them.

Every workload is closed-loop (a caller waits for its answer before it
sends the next request) and sized for a 2-core host: at most two client
threads or two worker processes.  Inputs come from
``numpy.random.default_rng([seed, workload_index])`` and nothing else.
Operation counts are a fixed function of ``--seconds`` (whole passes over a
fixed pool, or a fixed number of requests), never of how fast the program
runs, so counts repeat exactly and both sides of an A/B do the same work.

The program is driven only through its public surface: ``Session``,
``ExecutionPolicy``, ``TunableParams.from_encoding`` and
``python -m repro serve`` with ``POST /solve`` / ``GET /metrics``.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import ExecutionPolicy, Session, TunableParams
from repro.core.parameter_space import ParameterSpace
from repro.server.http import grid_digest, witness_digest

from common import REPO_ROOT, SRC_DIR, HostSpeed, Verifier, median

#: Applications whose instance data is drawn from a ``seed=`` argument.
SEEDED_APPS = (
    "lcs",
    "edit-distance",
    "viterbi",
    "knapsack-ev",
    "matrix-chain",
    "stochastic-path",
)
#: How often a full run sets up (fresh session or server) to report a median.
SETUP_REPEATS = 3
#: Seconds to wait for the serve subprocess to bind, answer or exit.
SERVE_TIMEOUT_S = 60.0
#: Requests the clients send between two host-speed samples (~0.2 s).
SERVE_BLOCK = 50
#: The same for the warm-up's single caller, whose first requests are slow.
WARMUP_BLOCK = 10


@dataclass(frozen=True)
class Request:
    """One operation: an application instance plus an optional pinned plan."""

    app: str
    dim: int
    kwargs: tuple = ()
    policy: ExecutionPolicy | None = None

    @property
    def key(self) -> tuple:
        """What the answer depends on (the plan must never change it)."""
        return (self.app, self.dim, self.kwargs)

    def solve_kwargs(self) -> dict:
        """Keyword arguments of ``Session.solve`` / ``ReproServer.solve``."""
        out = dict(self.kwargs)
        if self.policy is not None:
            out["policy"] = self.policy
        return out

    def body(self) -> bytes:
        """The ``POST /solve`` body (serve workloads pin no plan)."""
        return json.dumps({"app": self.app, "dim": self.dim, **dict(self.kwargs)}).encode()


@dataclass
class Workload:
    """One named workload, fully generated from its seed."""

    name: str
    kind: str  # "direct": Session.solve in this process; "serve": HTTP to a subprocess
    warmup: list[list[Request]]
    timed: list[Request]
    #: Seed-independent (app, dim, plan) selection the traced run's ladder uses.
    sample: list[Request]
    #: The session under test ("direct"), or its in-process twin ("serve").
    session_kwargs: dict = field(default_factory=dict)
    cache: bool = False
    clients: int = 1
    setup_repeats: int = SETUP_REPEATS
    #: How often the traced run repeats each ladder level per sampled request.
    ladder_reps: int = 2
    #: Every timed answer must report ``stats["band_cells"] > 0``.
    needs_band: bool = False
    #: Tile pools use POSIX shared memory; count what ``close()`` leaves.
    checks_shm: bool = False

    def requests(self) -> list[Request]:
        """Every request of the run, warm-up first."""
        return [r for phase in self.warmup for r in phase] + self.timed

    def op_counts(self) -> dict:
        """The exact operation counts a same-settings rerun must reproduce."""
        return {
            "warmup_ops": sum(len(phase) for phase in self.warmup),
            "timed_ops": len(self.timed),
            "distinct_timed": len({(r.key, r.policy) for r in self.timed}),
            "timed_cells": sum(r.dim * r.dim for r in self.timed),
        }


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------
def spread(pool: list, count: int) -> list:
    """``count`` items evenly spaced over ``pool`` (first and last included)."""
    if count >= len(pool):
        return list(pool)
    step = (len(pool) - 1) / (count - 1) if count > 1 else 0.0
    return [pool[int(round(i * step))] for i in range(count)]


def _passes(rng, pool: list, count: int) -> list:
    """``count`` operations as consecutive, independently shuffled passes."""
    out: list = []
    while len(out) < count:
        out.extend(pool[i] for i in rng.permutation(len(pool)))
    return out[:count]


def _seeded(rng, apps, dims, seeds_per_instance: int) -> list[Request]:
    """``apps`` x ``dims`` x freshly drawn data seeds, in a fixed order."""
    return [
        Request(app, dim, (("seed", int(seed)),))
        for app in apps
        for dim in dims
        for seed in rng.choice(10_000, size=seeds_per_instance, replace=False)
    ]


def _direct_sweep(rng, seconds: float, smoke: bool) -> Workload:
    dims = (32, 48) if smoke else (256, 512, 1024)
    pool = _seeded(rng, SEEDED_APPS, dims, 1) + [
        Request("nash-equilibrium", dim, (("inner_iterations", inner),))
        for dim in dims
        for inner in (4, 10)  # fine- and coarse-grain tsize
    ]
    passes = 1 if smoke else max(1, round(seconds * 0.4))
    return Workload(
        name="direct-sweep",
        kind="direct",
        warmup=[list(pool)],
        timed=_passes(rng, pool, passes * len(pool)),
        sample=spread(pool, 3 if smoke else 6),
    )


def _direct_tiled(rng, seconds: float, smoke: bool) -> Workload:
    dims = (96,) if smoke else (1536,)
    tiles = (32,) if smoke else (256, 512)
    workers = min(2, os.cpu_count() or 1)
    instances = _seeded(rng, ("lcs", "viterbi"), dims, 1) + [
        Request("nash-equilibrium", dim) for dim in dims
    ]
    pool = [
        Request(
            r.app,
            r.dim,
            r.kwargs,
            ExecutionPolicy(
                backend=backend, workers=workers, tunables=TunableParams(cpu_tile=tile)
            ),
        )
        for r in instances
        for backend in ("mp-parallel", "pipelined")
        for tile in tiles
    ]
    passes = 1 if smoke else max(1, round(seconds * 0.4))
    return Workload(
        name="direct-tiled",
        kind="direct",
        warmup=[list(pool)],
        timed=_passes(rng, pool, passes * len(pool)),
        sample=spread(pool, 2 if smoke else 6),
        checks_shm=True,
    )


def _paper_hybrid(rng, seconds: float, smoke: bool) -> Workload:
    dims = (96,) if smoke else (256, 384)
    pool = [
        Request(app, dim, (), ExecutionPolicy(tunables=TunableParams.from_encoding(*enc)))
        for app in ("nash-equilibrium", "synthetic")
        for dim in dims
        for enc in (
            (4, dim - 64, -1, 1),  # single GPU
            (4, dim - 64, 2, 1),  # dual GPU + halo
            (8, dim // 2, 4, 4),  # dual GPU + work-group tiling
        )
    ]
    passes = 1 if smoke else max(1, round(seconds * 0.4))
    # The smoke run trains on the tiny space; the README quickstart session
    # (default space) costs 5 s of training, which is the real run's set-up.
    session_kwargs = {"system": "i7-2600K", "tuner": "learned"}
    if smoke:
        session_kwargs["space"] = ParameterSpace.tiny()
    return Workload(
        name="paper-hybrid",
        kind="direct",
        warmup=[list(pool)],
        timed=_passes(rng, pool, passes * len(pool)),
        sample=spread(pool, 2 if smoke else 6),
        session_kwargs=session_kwargs,
        needs_band=True,
    )


#: ``repro serve`` defaults: system local, learned tuner, tiny space.
def _serve_session_kwargs() -> dict:
    return {"system": "local", "tuner": "learned", "space": ParameterSpace.tiny()}


def _serve_tiny(rng, seconds: float, smoke: bool) -> Workload:
    pool = _seeded(rng, SEEDED_APPS, (8, 12, 16), 1 if smoke else 5)
    count = 40 if smoke else max(200, round(seconds * 300))
    return Workload(
        name="serve-tiny",
        kind="serve",
        warmup=[list(pool), list(pool)],
        timed=_passes(rng, pool, count),
        sample=spread(pool, 3 if smoke else 6),
        session_kwargs=_serve_session_kwargs(),
        clients=2,
    )


def _serve_cache_zipf(rng, seconds: float, smoke: bool) -> Workload:
    dims = (24, 32) if smoke else (96, 128, 192)
    n_keys = 40 if smoke else 200  # more than the cache's 64-entry memory tier
    instances = len(SEEDED_APPS) * len(dims)
    per_instance = -(-n_keys // instances) + 1
    drawn = _seeded(rng, SEEDED_APPS, dims, per_instance)
    # The last seed of every (app, dim) only warms the code paths up, so the
    # timed phase starts with none of its keys cached.
    warm = drawn[per_instance - 1 :: per_instance]
    # Popularity rank -> (app, dim, seed) by a fixed rule that walks the apps
    # and rotates the dims: the few keys that carry most of a Zipf trace are
    # the same mix of apps and dims on every seed, so the seed changes the
    # data and the order of the trace, not how much work it is.
    n_apps, n_dims = len(SEEDED_APPS), len(dims)
    keys = []
    for rank in range(n_keys):
        app, turn = rank % n_apps, rank // n_apps
        dim = (turn + app) % n_dims
        keys.append(drawn[(app * n_dims + dim) * per_instance + turn // n_dims])
    weights = 1.0 / np.arange(1, len(keys) + 1) ** 1.1
    count = 60 if smoke else max(200, round(seconds * 300))
    draws = rng.choice(len(keys), size=count, p=weights / weights.sum())
    return Workload(
        name="serve-cache-zipf",
        kind="serve",
        warmup=[list(warm), list(warm)],
        timed=[keys[i] for i in draws],
        sample=spread(keys, 3 if smoke else 6),
        session_kwargs=_serve_session_kwargs(),
        cache=True,
        clients=2,
    )


#: In ``BENCHMARK.json`` order: a workload's position seeds its generator.
_BUILDERS = {
    "direct-sweep": _direct_sweep,
    "direct-tiled": _direct_tiled,
    "paper-hybrid": _paper_hybrid,
    "serve-tiny": _serve_tiny,
    "serve-cache-zipf": _serve_cache_zipf,
}


def build(name: str, seed: int, seconds: float, smoke: bool = False) -> Workload:
    """Generate one workload from the run's seed."""
    index = list(_BUILDERS).index(name)
    workload = _BUILDERS[name](np.random.default_rng([seed, index]), seconds, smoke)
    if smoke:
        workload.setup_repeats = workload.ladder_reps = 1
    return workload


# ----------------------------------------------------------------------
# Reference answers
# ----------------------------------------------------------------------
def reference_digests(requests) -> dict:
    """``(grid_sha256, witness_sha256)`` per distinct instance.

    Computed by an independent, cache-less session pinned to the serial
    backend on the default system, before anything is timed.
    """
    serial = ExecutionPolicy(backend="serial")
    expected: dict = {}
    with Session() as reference:
        for request in requests:
            if request.key not in expected:
                result = reference.solve(
                    request.app, request.dim, policy=serial, **dict(request.kwargs)
                )
                expected[request.key] = (grid_digest(result), witness_digest(result))
    return expected


# ----------------------------------------------------------------------
# What one run collects
# ----------------------------------------------------------------------
@dataclass
class Op:
    """One answered operation on the caller's clock (``perf_counter`` seconds)."""

    signature: tuple
    t0: float
    t1: float
    timed: bool
    #: First occurrence of its signature on this session/server.
    first: bool
    ok: bool
    cells: int
    #: The answer's own sweep wall when it was freshly swept, else ``None``.
    sweep_s: float | None


def _typical(latencies: dict[tuple, list[float]]) -> float:
    """Geometric mean over signatures of each signature's median latency.

    A median over the signatures would sit between two of them and move only
    when those two do; the geometric mean moves by the same share whichever
    signature a change speeds up or slows down, cheap or expensive.
    """
    return statistics.geometric_mean([median(times) for times in latencies.values()])


@dataclass
class RunData:
    """Observations of one workload run.

    The stacks record raw intervals; ``settle`` turns them into times on the
    nominal host (see ``HostSpeed``), which is what every metric reports.
    """

    speed: HostSpeed = field(default_factory=HostSpeed)
    setup_spans: list[tuple[float, float]] = field(default_factory=list)
    ops: list[Op] = field(default_factory=list)
    #: Timed-phase blocks of closed-loop requests (serve workloads): their
    #: walls add up to the timed wall.
    blocks: list[tuple[float, float]] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    shm_leaked: int = 0
    #: ``GET /metrics`` before and after the timed phase (serve workloads).
    metrics_before: dict | None = None
    metrics_after: dict | None = None
    #: ``Session.cache_info()["plans"]`` around the timed phase (direct).
    plans_before: dict | None = None
    plans_after: dict | None = None
    # -- filled by settle(), seconds on the nominal host --------------------
    setups: list[float] = field(default_factory=list)
    #: Timed-phase latencies in issue order.
    latencies: list[float] = field(default_factory=list)
    #: Latency of the first occurrence of a signature on a session/server.
    first_seen: list[float] = field(default_factory=list)
    #: Latency of timed requests whose signature was seen before.
    repeats: list[float] = field(default_factory=list)
    #: Latency minus the answer's own sweep wall, for freshly swept answers.
    over_sweep: list[float] = field(default_factory=list)
    latency_p50: float = 0.0
    hit_p50: float = 0.0
    miss_p50: float = 0.0
    timed_wall: float = 0.0
    verified_cells: int = 0
    verified_ops: int = 0
    #: The host's own clock, for the record.
    raw_latencies: list[float] = field(default_factory=list)

    def settle(self, by_signature: bool) -> None:
        """Convert the recorded intervals; called once the timed phase ended.

        ``by_signature`` (the direct workloads: a few dozen operations whose
        costs differ 30-fold by design) takes every central value over
        signatures, each counted once with its median time (``_typical``): a
        pooled median of so few, so unequal samples sits on the edge between
        two signatures' clusters and jumps with the noise of their extremes,
        and one stalled operation moves a sum.  The timed wall is then that
        of the passes rebuilt from each signature's median.  The serve
        workloads have thousands of similar requests: pooled medians, and
        the clients' own wall.
        """
        normalised = self.speed.normalised
        self.setups = [normalised(t0, t1) for t0, t1 in self.setup_spans]
        timed: dict[tuple, list[float]] = {}
        again: dict[tuple, list[float]] = {}
        # First occurrences inside the timed trace (a cache workload) are the
        # misses; a workload whose trace repeats its warm-up has them there.
        first_timed: dict[tuple, list[float]] = {}
        first_warm: dict[tuple, list[float]] = {}
        for op in self.ops:
            latency = normalised(op.t0, op.t1)
            if op.first:
                bucket = first_timed if op.timed else first_warm
                bucket.setdefault(op.signature, []).append(latency)
            elif op.timed:
                self.repeats.append(latency)
                again.setdefault(op.signature, []).append(latency)
            if not op.timed:
                continue
            self.latencies.append(latency)
            timed.setdefault(op.signature, []).append(latency)
            self.raw_latencies.append(op.t1 - op.t0)
            if op.sweep_s is not None:
                self.over_sweep.append(latency * (1.0 - op.sweep_s / (op.t1 - op.t0)))
            if op.ok:
                self.verified_ops += 1
                self.verified_cells += op.cells
        first = first_timed or first_warm
        self.first_seen = [latency for times in first.values() for latency in times]
        if by_signature:
            self.latency_p50 = _typical(timed)
            self.hit_p50, self.miss_p50 = _typical(again), _typical(first)
            self.timed_wall = sum(len(times) * median(times) for times in timed.values())
        else:
            self.latency_p50 = median(self.latencies)
            self.hit_p50, self.miss_p50 = median(self.repeats), median(self.first_seen)
            self.timed_wall = sum(normalised(t0, t1) for t0, t1 in self.blocks)


def shm_entries() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def peak_rss_mb(pid: int | str) -> float:
    """``VmHWM`` of a live process (0 when ``/proc`` does not say)."""
    try:
        status = Path(f"/proc/{pid}/status").read_text(encoding="utf-8")
    except OSError:
        return 0.0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


class Stack:
    """Sets the program up ``setup_repeats`` times and keeps the last one.

    A context manager: whatever is up when the block ends, or when a set-up
    fails, is closed.
    """

    workload: Workload

    def __enter__(self):
        try:
            for _ in range(self.workload.setup_repeats):
                self.close()
                self._setup()
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# Direct stack: Session.solve in this process
# ----------------------------------------------------------------------
class DirectStack(Stack):
    """Sets a session up (several times), then runs the timed phase on it."""

    def __init__(self, workload: Workload, verifier: Verifier, out_dir: Path) -> None:
        self.workload = workload
        self.verifier = verifier
        self.data = RunData()
        self.session: Session | None = None
        self._shm_before = shm_entries()
        # Restart this process's peak-RSS mark, so that a run of all five
        # workloads in one process reports each workload's own peak.
        try:
            Path("/proc/self/clear_refs").write_text("5", encoding="ascii")
        except OSError:
            pass
        self._child_peak_before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    def _setup(self) -> None:
        """Construct the session and answer (and verify) the warm-up passes."""
        self.data.speed.sample()
        started = time.perf_counter()
        self.session = Session(**self.workload.session_kwargs)
        self._seen: set = set()
        for phase in self.workload.warmup:
            for request in phase:
                self._solve(request, timed=False)
        self.data.setup_spans.append((started, time.perf_counter()))

    def _solve(self, request: Request, timed: bool) -> None:
        """One operation, then one host-speed sample on the same thread."""
        started = time.perf_counter()
        try:
            result = self.session.solve(request.app, request.dim, **request.solve_kwargs())
        except Exception as error:  # noqa: BLE001 - any failure is a failed operation
            self.verifier.error(request.key, type(error).__name__)
            return
        ended = time.perf_counter()
        # The clock has stopped: digesting costs the program nothing.
        if self.workload.needs_band and not result.stats.get("band_cells", 0) > 0:
            self.verifier.error(request.key, "no GPU band")
            ok = False
        else:
            ok = self.verifier.check(
                request.key, grid_digest(result), witness_digest(result)
            )
        signature = (request.key, request.policy)
        self.data.ops.append(
            Op(signature, started, ended, timed, signature not in self._seen, ok,
               request.dim * request.dim, result.wall_time)
        )
        self._seen.add(signature)
        self.data.speed.sample()

    def run_timed(self) -> RunData:
        """One caller thread, one operation at a time."""
        data = self.data
        data.plans_before = self.session.cache_info()["plans"]
        for request in self.workload.timed:
            self._solve(request, timed=True)
        data.plans_after = self.session.cache_info()["plans"]
        data.settle(by_signature=True)
        return data

    def finish(self) -> None:
        """Close the session, then read memory and what it left in /dev/shm."""
        self.close()
        # The largest reaped child counts when this workload produced it.
        child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        if child <= self._child_peak_before:
            child = 0
        self.data.peak_rss_mb = peak_rss_mb("self") + child / 1024.0
        if self.workload.checks_shm:
            self.data.shm_leaked = len(shm_entries() - self._shm_before)


# ----------------------------------------------------------------------
# Serve stack: python -m repro serve as a subprocess, HTTP clients here
# ----------------------------------------------------------------------
class ServeProcess:
    """One ``python -m repro serve`` subprocess in its own process group."""

    def __init__(self, out_dir: Path, cache: bool) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="serve-", dir=out_dir))
        ready = self.tmp / "ready.addr"
        command = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        command += ["--ready-file", str(ready)]
        if cache:
            command += ["--cache-dir", str(self.tmp / "cache")]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self._log = open(self.tmp / "serve.log", "wb")
        self.process = subprocess.Popen(
            command,
            cwd=REPO_ROOT,
            env=env,
            stdout=self._log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            self.host, self.port = self._await_ready(ready)
        except BaseException:
            self.stop()
            raise

    def _await_ready(self, ready: Path) -> tuple[str, int]:
        deadline = time.monotonic() + SERVE_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                break
            if ready.exists():
                text = ready.read_text(encoding="utf-8").strip()
                if text:
                    host, port = text.rsplit(":", 1)
                    return host, int(port)
            time.sleep(0.005)
        log = (self.tmp / "serve.log").read_text(encoding="utf-8", errors="replace")
        raise RuntimeError(f"serve subprocess did not come up:\n{log[-2000:]}")

    def _exchange(self, method: str, path: str, body: bytes | None = None):
        # One request per connection: a closed-loop client of this server
        # pays connection set-up on every operation.
        connection = http.client.HTTPConnection(self.host, self.port, timeout=SERVE_TIMEOUT_S)
        try:
            headers = {"Connection": "close"}
            if body is not None:
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body, headers)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def solve(self, request: Request):
        """``POST /solve``; (status, payload) once the response is fully read."""
        return self._exchange("POST", "/solve", request.body())

    def metrics(self) -> dict:
        """``GET /metrics``."""
        return self._exchange("GET", "/metrics")[1]

    def stop(self) -> None:
        """Graceful shutdown, then the whole process group, then the files."""
        try:
            if self.process.poll() is None:
                try:
                    self._exchange("POST", "/shutdown", b"{}")
                    self.process.wait(timeout=15)
                except (OSError, AttributeError, http.client.HTTPException, ValueError,
                        subprocess.TimeoutExpired):
                    pass
            if self.process.poll() is None:
                try:
                    os.killpg(self.process.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            self.process.wait()
            # Anything the server started and did not reap is still in its group.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                try:
                    os.killpg(self.process.pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    break
                time.sleep(0.01)
        finally:
            self._log.close()
            shutil.rmtree(self.tmp, ignore_errors=True)


class ServeStack(Stack):
    """Spawns the server (several times), then drives it with HTTP clients."""

    def __init__(self, workload: Workload, verifier: Verifier, out_dir: Path) -> None:
        self.workload = workload
        self.verifier = verifier
        self.out_dir = out_dir
        self.data = RunData()
        self.server: ServeProcess | None = None
        self._lock = threading.Lock()

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def _setup(self) -> None:
        """Spawn the server and answer (and verify) the warm-up passes."""
        sample = self.data.speed.sample
        sample()
        started = time.perf_counter()
        self.server = ServeProcess(self.out_dir, self.workload.cache)
        self._seen: set = set()
        for phase in self.workload.warmup:
            for index, request in enumerate(phase):
                if index % WARMUP_BLOCK == 0:
                    sample()
                self._solve(request, timed=False)
        self.data.setup_spans.append((started, time.perf_counter()))
        sample()

    def _solve(self, request: Request, timed: bool) -> None:
        started = time.perf_counter()
        try:
            status, payload = self.server.solve(request)
        except (OSError, http.client.HTTPException, ValueError) as error:
            with self._lock:
                self.verifier.error(request.key, type(error).__name__)
            return
        ended = time.perf_counter()
        with self._lock:
            if status != 200:
                self.verifier.error(request.key, f"HTTP {status}")
                return
            ok = self.verifier.check(
                request.key, payload.get("grid_sha256"), payload.get("witness_sha256")
            )
            first = request.key not in self._seen
            self._seen.add(request.key)
            swept = first or not self.workload.cache
            self.data.ops.append(
                Op(request.key, started, ended, timed, first, ok, request.dim * request.dim,
                   float(payload["wall_time_s"]) if swept else None)
            )

    def drive(self, requests: list[Request], clients: int, timed: bool = True) -> float:
        """Closed loop: ``clients`` threads, each waits for its answer; wall time."""
        pending: queue.SimpleQueue = queue.SimpleQueue()
        for request in requests:
            pending.put(request)

        def client() -> None:
            while True:
                try:
                    request = pending.get_nowait()
                except queue.Empty:
                    return
                self._solve(request, timed)

        threads = [threading.Thread(target=client) for _ in range(clients)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ended = time.perf_counter()
        if timed:
            self.data.blocks.append((started, ended))
        return ended - started

    def run_timed(self) -> RunData:
        """The trace in blocks of ``SERVE_BLOCK`` requests.

        Between two blocks the clients are idle for one host-speed sample,
        so each block's wall and latencies have a kernel wall on either
        side.  The last request of a block leaves one client idle: a fixed
        1-2 % of the wall, the same on both sides of an A/B.
        """
        data, timed = self.data, self.workload.timed
        data.metrics_before = self.server.metrics()
        for start in range(0, len(timed), SERVE_BLOCK):
            data.speed.sample()
            self.drive(timed[start : start + SERVE_BLOCK], self.workload.clients)
        data.speed.sample()
        data.metrics_after = self.server.metrics()
        data.settle(by_signature=False)
        return data

    def finish(self) -> None:
        """Read the server's peak memory, then shut it down."""
        self.data.peak_rss_mb = peak_rss_mb(self.server.process.pid)
        self.close()


def stack_for(workload: Workload, verifier: Verifier, out_dir: Path):
    """The stack that runs ``workload`` (a context manager)."""
    cls = DirectStack if workload.kind == "direct" else ServeStack
    return cls(workload, verifier, out_dir)
