"""Command-line interface to the autotuning framework.

Every verb is a thin adapter over :class:`repro.session.Session` — the CLI
contains no tuner or backend construction of its own, so anything it does
can be reproduced programmatically with a few session calls.  The five
workflow verbs:

* ``repro-tune run --app lcs --dim 256`` — plan one application instance
  through the session's tuner and execute it (``--plan-out`` saves the
  resolved plan as JSON, ``--replay`` executes a previously saved plan);
* ``repro-tune tune --system i7-3820 --app nash-equilibrium --dim 1900`` —
  resolve and print the tuned plan without executing (optionally
  saving/loading the trained model so training happens only once);
  ``--system local`` answers from the *measured* profile ``profile``
  writes;
* ``repro-tune bench --dim 512`` — functionally execute every registered
  executor x application pair through manual session plans, print the
  wall-clock speedup table and write the raw measurements as JSON under
  ``benchmarks/results/``;
* ``repro-tune profile`` — time the whole-grid CPU engines on this
  machine and write the measured profile and the predicted-vs-measured
  report (``--quick`` keeps it within a CI-friendly budget);
* ``repro-tune report`` — render analysis reports: the Figure 5 band/halo
  heatmaps of an exhaustive sweep (``--kind heatmap``) or the Figure 7
  predicted-vs-measured summary of the local profile (``--kind measured``).

One serving verb builds on the ``repro.server`` subsystem:

* ``repro-tune serve --port 8077 --system local`` — warm the session's
  tuner and serve it over a stdlib HTTP/JSON endpoint with bounded
  admission (backpressure), per-request deadlines that stop the sweep and
  a ``GET /metrics`` page; shuts down gracefully on SIGINT/SIGTERM or
  ``POST /shutdown``, draining in-flight requests and releasing worker pools.
  ``python scripts/loadgen.py --url … --trace … --out …`` replays a
  committed request trace against it and writes the artifact that
  ``scripts/gates.py`` gates in CI.

One auxiliary verb: ``systems`` lists the Table 4 platforms plus the
introspected local host.

Error handling is centralised in :func:`main`: every
:class:`repro.core.exceptions.ReproError` subclass maps to one exit code
(usage errors 2, missing artifacts 3, other framework errors 1) in exactly
one place.

The same interface is available as ``python -m repro``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.adaptive import ADAPTIVE_MODES, render_adaptive_report
from repro.apps.registry import available_applications
from repro.core.exceptions import (
    ArtifactError,
    RegistryError,
    ReproError,
    UsageError,
)
from repro.core.parameter_space import ParameterSpace
from repro.core.params import TunableParams
from repro.facade.plan import load_plan, save_plan
from repro.facade.policy import ExecutionPolicy
from repro.facade.tuners import DEFAULT_PROFILE_PATH, DEFAULT_REPORT_PATH, TUNER_KINDS
from repro.hardware import platforms
from repro.server.service import finite_seconds
from repro.session import Session
from repro.utils.logging import configure_logging
from repro.version import __version__

#: Default location of the bench JSON output, relative to the working dir.
DEFAULT_BENCH_DIR = Path("benchmarks") / "results"

#: Exit codes of :func:`main`'s central error mapping.
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_ARTIFACT = 3


def _space(name: str) -> ParameterSpace:
    spaces = {
        "paper": ParameterSpace.paper,
        "reduced": ParameterSpace.reduced,
        "tiny": ParameterSpace.tiny,
    }
    try:
        return spaces[name]()
    except KeyError:
        raise UsageError(
            f"unknown parameter space {name!r}; choose from {sorted(spaces)}"
        ) from None


def _seconds(text: str) -> float:
    """``type=`` of a serving limit: finite seconds > 0, else argparse exits 2."""
    try:
        return finite_seconds("the value", float(text))
    except ValueError as exc:  # InvalidParameterError is one
        raise argparse.ArgumentTypeError(str(exc)) from None


def _seconds_or_off(text: str) -> float:
    """:func:`_seconds`, or ``0`` (the limit is disabled)."""
    return 0.0 if float(text) == 0 else _seconds(text)


def _add_system_arg(parser: argparse.ArgumentParser, default: str, local: bool) -> None:
    choices = sorted(platforms.SYSTEMS_BY_NAME) + (["local"] if local else [])
    parser.add_argument("--system", default=default, choices=choices)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for the tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-tune",
        description="Autotune wavefront applications for CPU + multi-GPU systems "
        "(reproduction of Mohanty & Cole, PMAM 2014).",
        epilog="Run 'repro-tune <command> --help' for per-command usage examples.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument("--verbose", action="store_true", help="enable debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "systems",
        help="list the built-in Table 4 systems and the local host",
        description="List the three Table 4 platforms with their CPU, GPU and "
        "interconnect characteristics, plus the introspected local host.",
        epilog="example:\n  repro-tune systems",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )

    run = sub.add_parser(
        "run",
        help="plan one application instance through the session and execute it",
        description="Build a Session, resolve a tuned (or explicitly pinned) "
        "plan for one application instance, and execute it.  The resolved "
        "plan is inspectable and can be saved with --plan-out and replayed "
        "later with --replay.",
        epilog="examples:\n"
        "  repro-tune run --app lcs --dim 256\n"
        "  repro-tune run --app synthetic --dim 128 --tuner exhaustive --mode simulate\n"
        "  repro-tune run --app lcs --dim 128 --backend mp-parallel --workers 2\n"
        "  repro-tune run --app lcs --dim 256 --plan-out plan.json\n"
        "  repro-tune run --replay plan.json --verify",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _add_system_arg(run, "local", local=True)
    run.add_argument("--app", default=None, choices=available_applications())
    run.add_argument("--dim", type=int, default=None, help="problem size (grid side length)")
    run.add_argument(
        "--tuner",
        default="learned",
        choices=TUNER_KINDS,
        help="tuning strategy resolving the plan (default: learned)",
    )
    run.add_argument("--space", default="reduced", choices=("paper", "reduced", "tiny"))
    run.add_argument(
        "--mode",
        default="functional",
        choices=("functional", "simulate"),
        help="really compute the grid, or evaluate the cost model only",
    )
    run.add_argument("--backend", default=None, help="pin an executor strategy (bypasses the tuner)")
    run.add_argument("--workers", type=int, default=None, help="worker processes for multicore backends")
    run.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="persistent result cache directory (identical requests are "
        "served content-addressed instead of re-solved)",
    )
    run.add_argument("--plan-out", type=Path, default=None, help="save the resolved plan as JSON")
    run.add_argument("--replay", type=Path, default=None, help="execute a previously saved plan")
    run.add_argument(
        "--verify",
        action="store_true",
        help="also run the serial reference and compare grids (functional mode)",
    )

    tune = sub.add_parser(
        "tune",
        help="train (or load) the tuner and plan one application instance",
        description="Resolve the tuned plan for one application instance "
        "through a Session without executing it.  The learned tuner trains "
        "on the synthetic sweep (or loads a previously saved model); with "
        "--system local the measured profile written by 'repro-tune profile' "
        "is loaded instead and answers come from real wall-clocks.",
        epilog="examples:\n"
        "  repro-tune tune --system i7-3820 --app nash-equilibrium --dim 1900\n"
        "  repro-tune tune --system i7-2600K --app synthetic --tsize 750 --dsize 4\n"
        "  repro-tune tune --save-model model.json   # train once, reuse later\n"
        "  repro-tune tune --load-model model.json --app lcs --dim 2700\n"
        "  repro-tune tune --system local --app lcs --dim 512   # measured profile",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _add_system_arg(tune, "i7-2600K", local=True)
    tune.add_argument(
        "--profile-file",
        type=Path,
        default=None,
        help="measured profile JSON for --system local "
        f"(default: {DEFAULT_PROFILE_PATH})",
    )
    tune.add_argument("--space", default="reduced", choices=("paper", "reduced", "tiny"))
    tune.add_argument("--app", default="synthetic", choices=available_applications())
    tune.add_argument("--dim", type=int, default=1900, help="problem size (grid side length)")
    tune.add_argument("--tsize", type=float, default=None, help="override the app's task granularity (synthetic only)")
    tune.add_argument("--dsize", type=int, default=None, help="override the app's data granularity (synthetic only)")
    tune.add_argument("--save-model", type=Path, default=None, help="save the trained models as JSON (not with --system local)")
    tune.add_argument("--load-model", type=Path, default=None, help="load previously trained models instead of training (not with --system local)")

    bench = sub.add_parser(
        "bench",
        help="time every executor x application pair (functional mode)",
        description="Functionally execute every registered executor on every "
        "registered application through explicit session plans, verify each "
        "grid against the serial reference, print the wall-clock speedup "
        "table and write the raw timings as JSON.",
        epilog="examples:\n"
        "  repro-tune bench --dim 512\n"
        "  repro-tune bench --dim 256 --apps synthetic,lcs --executors serial,vectorized\n"
        "  repro-tune bench --dim 512 --repeats 5 --out benchmarks/results/engine_bench.json",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _add_system_arg(bench, "i7-2600K", local=False)
    bench.add_argument("--dim", type=int, default=256, help="grid side length for every pair")
    bench.add_argument(
        "--apps",
        default="all",
        help="comma-separated application names, or 'all' (default)",
    )
    bench.add_argument(
        "--executors",
        default="all",
        help="comma-separated executor names, or 'all' (default)",
    )
    bench.add_argument("--repeats", type=int, default=3, help="timed repetitions per pair (best is kept)")
    bench.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the mp-parallel backend (default: "
        "auto-detect, with a single-core fallback when fewer than two "
        "cores are available)",
    )
    bench.add_argument(
        "--out",
        type=Path,
        default=None,
        help=f"JSON output path (default: {DEFAULT_BENCH_DIR}/bench_<system>_<dim>.json)",
    )

    profile = sub.add_parser(
        "profile",
        help="measure the whole-grid CPU engines on this host",
        description="Introspect this machine, run timed functional sweeps of "
        "the registered whole-grid engines over an instance grid, and write "
        "the profile JSON and the Figure 7-style predicted-vs-measured "
        "report.  The profile is what 'repro-tune tune --system local' "
        "deploys: the fastest measured engine at the nearest instance.",
        epilog="examples:\n"
        "  repro-tune profile --quick      # CI / 1-core budget (< 60 s)\n"
        "  repro-tune profile --repeats 5\n"
        "  repro-tune profile --apps lcs,synthetic --dims 128,512",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    profile.add_argument(
        "--quick",
        action="store_true",
        help="small instance grid + tight time budget (for CI and slow hosts)",
    )
    profile.add_argument(
        "--apps", default=None, help="comma-separated application names to profile"
    )
    profile.add_argument(
        "--dims", default=None, help="comma-separated grid side lengths to profile"
    )
    profile.add_argument(
        "--repeats", type=int, default=None, help="timed repetitions per point (best kept)"
    )
    profile.add_argument(
        "--budget-s", type=float, default=None, help="wall-clock budget for the sweep"
    )
    profile.add_argument(
        "--out",
        type=Path,
        default=DEFAULT_PROFILE_PATH,
        help=f"profile JSON output path (default: {DEFAULT_PROFILE_PATH})",
    )
    profile.add_argument(
        "--report-out",
        type=Path,
        default=DEFAULT_REPORT_PATH,
        help=f"predicted-vs-measured report path (default: {DEFAULT_REPORT_PATH})",
    )

    report = sub.add_parser(
        "report",
        help="render analysis reports (Figure 5 heatmaps, measured summary)",
        description="Render analysis reports through the session: "
        "--kind heatmap sweeps the synthetic application exhaustively and "
        "prints the Figure 5 band/halo heatmaps; --kind measured re-renders "
        "the Figure 7-style predicted-vs-measured report from the profile "
        "'repro-tune profile' wrote.",
        epilog="examples:\n"
        "  repro-tune report --system i7-2600K\n"
        "  repro-tune report --system i7-3820 --space paper --dsize 5\n"
        "  repro-tune report --kind measured",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _add_report_args(report)

    serve = sub.add_parser(
        "serve",
        help="serve tuned wavefront solving over a concurrent HTTP endpoint",
        description="Build a Session, warm its tuner, and serve it through "
        "the repro.server subsystem: bounded admission with explicit "
        "backpressure (HTTP 429 on overflow), each request solved on its "
        "connection thread and stopped at its deadline (HTTP 504), and "
        "a JSON metrics page.  Shuts down gracefully on SIGINT/SIGTERM or "
        "POST /shutdown: in-flight requests drain, worker pools are released, and "
        "the final metrics snapshot is printed (and saved with "
        "--metrics-out).",
        epilog="examples:\n"
        "  repro-tune serve --system i3-540 --space tiny --port 8077\n"
        "  repro-tune serve --system local --tuner measured --queue-size 256\n"
        "  repro-tune serve --port 0 --ready-file /tmp/serve.addr  # CI/tests\n"
        "\nendpoints:  POST /solve  GET /metrics  GET /healthz  POST /shutdown",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _add_system_arg(serve, "local", local=True)
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8077, help="bind port (0 picks a free port)"
    )
    serve.add_argument(
        "--tuner",
        default="learned",
        choices=TUNER_KINDS,
        help="tuning strategy answering the plans (default: learned)",
    )
    serve.add_argument("--space", default="tiny", choices=("paper", "reduced", "tiny"))
    serve.add_argument("--mode", default="functional", choices=("functional", "simulate"))
    serve.add_argument(
        "--queue-size",
        type=int,
        default=64,
        help="admitted, unfinished requests at most; one more answers HTTP 429 "
        "(default: 64)",
    )
    serve.add_argument(
        "--default-deadline",
        type=_seconds_or_off,
        default=30.0,
        help="per-request deadline in seconds when the client sends none; "
        "expired requests answer HTTP 504 (0 disables; default: 30)",
    )
    serve.add_argument(
        "--chaos",
        default=None,
        help="deterministic fault plan 'kind@k[:seconds],...' with kinds "
        "slow/drop, e.g. 'slow@18:0.2,drop@47' (testing)",
    )
    serve.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="persistent result cache directory; repeated functional "
        "requests are answered memory -> disk -> solve and /metrics gains "
        "a cache section",
    )
    serve.add_argument(
        "--adaptive",
        default="on",
        choices=ADAPTIVE_MODES,
        help="online observation: 'on' (default) records per-signature "
        "latencies and detects drift without changing behaviour; 'off' "
        "disables the loop",
    )
    serve.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        help="write the final metrics snapshot JSON here at shutdown",
    )
    serve.add_argument(
        "--ready-file",
        type=Path,
        default=None,
        help="write 'host:port' here once the endpoint is bound (for CI)",
    )

    return parser


def _add_report_args(parser: argparse.ArgumentParser) -> None:
    """Arguments of the ``report`` verb."""
    parser.add_argument(
        "--kind",
        default="heatmap",
        choices=("heatmap", "measured", "adaptive"),
        help="which report to render (default: heatmap)",
    )
    _add_system_arg(parser, "i7-2600K", local=False)
    parser.add_argument("--space", default="reduced", choices=("paper", "reduced", "tiny"))
    parser.add_argument("--dsize", type=int, default=1, help="element payload size slice to report")
    parser.add_argument(
        "--profile-file",
        type=Path,
        default=DEFAULT_PROFILE_PATH,
        help="measured profile JSON for --kind measured",
    )
    parser.add_argument(
        "--metrics-file",
        type=Path,
        default=DEFAULT_BENCH_DIR / "serve_metrics.json",
        help="metrics snapshot (serve --metrics-out) or "
        "scripts/loadgen.py artifact for --kind adaptive",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="also write the measured report to this file",
    )


# ----------------------------------------------------------------------
# Verb implementations (each a thin adapter over the Session facade)
# ----------------------------------------------------------------------
def cmd_systems(args: argparse.Namespace) -> int:
    """The ``systems`` verb: list the Table 4 platforms and the local host."""
    for system in platforms.ALL_SYSTEMS:
        print(system.describe())
        print()
    print(platforms.resolve_system("local").describe())
    print("  (introspected host — target of 'repro-tune profile' / '--system local')")
    return EXIT_OK


def _session_for(args: argparse.Namespace, tuner: str | None = None) -> Session:
    """Build the session behind one CLI invocation."""
    return Session(
        system=args.system,
        tuner=tuner if tuner is not None else getattr(args, "tuner", "learned"),
        space=_space(args.space) if hasattr(args, "space") else None,
        model_path=getattr(args, "load_model", None),
        profile_path=getattr(args, "profile_file", None),
        cache_dir=getattr(args, "cache_dir", None),
    )


def cmd_run(args: argparse.Namespace) -> int:
    """The ``run`` verb: plan through the session, execute, report."""
    if args.replay is None and args.app is None:
        raise UsageError("run needs --app (or --replay with a saved plan)")
    with _session_for(args) as session:
        if args.replay is not None:
            plan = load_plan(args.replay)
            print(f"replaying plan from {args.replay}")
        else:
            policy_kwargs: dict = {}
            if args.backend is not None:
                if args.dim is None:
                    raise UsageError("--backend needs an explicit --dim")
                policy_kwargs["backend"] = args.backend
                if args.backend == "hybrid":
                    # A band to offload; a tiled backend's tile is the
                    # session's to choose.
                    policy_kwargs["tunables"] = _hybrid_tunables(
                        args.dim, session.system.max_usable_gpus
                    )
            if args.workers is not None:
                policy_kwargs["workers"] = args.workers
            plan = session.plan(
                args.app, args.dim, policy=ExecutionPolicy(**policy_kwargs)
            )
        print(f"plan: {plan.describe()}")
        if args.plan_out is not None:
            save_plan(plan, args.plan_out)
            print(f"wrote plan to {args.plan_out}")

        result = session.run(plan, mode=args.mode)
        clock = (
            f"rtime={result.rtime:.6f}s" if result.rtime is not None
            else f"wall={result.wall_time:.6f}s"
        )
        print(f"executed: mode={result.mode}, {clock}")
        if result.grid is not None:
            print(f"answer cell: {result.value:.6g}  (checksum {result.checksum:.6g})")
        if args.verify:
            if result.grid is None:
                raise UsageError("--verify needs --mode functional")
            reference = session.solve(
                plan.app,
                plan.dim,
                policy=ExecutionPolicy(backend="serial"),
                mode="functional",
                **plan.app_options,
            )
            ok = result.matches(reference)
            print(f"serial verification: {'OK' if ok else 'MISMATCH'}")
            if not ok:
                return EXIT_ERROR
    return EXIT_OK


def cmd_tune_local(args: argparse.Namespace) -> int:
    """The measured-profile deployment path (``tune --system local``)."""
    if args.save_model is not None or args.load_model is not None:
        raise UsageError(
            "--save-model / --load-model apply to the learned tuner; "
            "--system local plans from the measured profile alone"
        )
    session = _session_for(args, tuner="measured")
    with session:
        tuner = session.tuner  # raises ArtifactError when the profile is missing
        profile_path = args.profile_file or DEFAULT_PROFILE_PATH
        print(f"loaded measured profile {profile_path} ({len(tuner.profile)} records)")

        overrides = _synthetic_overrides(args)
        plan = session.plan(args.app, args.dim, **overrides)
        params = plan.params
        print(
            f"\napplication: {args.app}  "
            f"(dim={params.dim}, tsize={params.tsize:g}, dsize={params.dsize})"
        )
        print(f"tuned plan: {plan.describe()}")
        anchor = tuner.nearest_instance(params, args.app)
        if anchor != params:
            print(
                f"  (nearest profiled instance: dim={anchor.dim}, "
                f"tsize={anchor.tsize:g}, dsize={anchor.dsize})"
            )
        serial = tuner.profile.serial_time(anchor, app=args.app)
        print(
            f"measured serial reference: {serial * 1e3:.2f} ms "
            f"({serial / plan.expected_s:.1f}x speedup expected)"
        )
    return EXIT_OK


def _synthetic_overrides(args: argparse.Namespace) -> dict:
    """--tsize/--dsize overrides (honoured for the synthetic app only)."""
    overrides: dict = {}
    if args.app == "synthetic":
        if args.tsize is not None:
            overrides["tsize"] = args.tsize
        if args.dsize is not None:
            overrides["dsize"] = args.dsize
    return overrides


def cmd_tune(args: argparse.Namespace) -> int:
    """The ``tune`` verb: resolve and print a tuned plan (no execution)."""
    if args.system == "local":
        return cmd_tune_local(args)
    session = _session_for(args, tuner="learned")
    with session:
        if args.load_model is not None:
            tuner = session.tuner
            print(f"loaded trained models from {args.load_model}")
        else:
            print(f"training the autotuner for {session.system.name} ...")
            tuner = session.tuner
            if tuner.validation is not None:
                print(
                    f"  held-out efficiency: mean {tuner.validation.mean_efficiency:.1%}, "
                    f"min {tuner.validation.min_efficiency:.1%}"
                )
            if args.save_model is not None:
                session.save_model(args.save_model)
                print(f"  saved trained models to {args.save_model}")

        plan = session.plan(args.app, args.dim, **_synthetic_overrides(args))
        params = plan.params
        print(
            f"\napplication: {plan.app}  "
            f"(dim={params.dim}, tsize={params.tsize:g}, dsize={params.dsize})"
        )
        print(
            f"tuned configuration: {plan.tunables.describe()}  [engine: {plan.engine}]"
        )
        serial = tuner.cost_model.baseline_serial(params)
        print(
            f"predicted runtime: {plan.expected_s:.3f}s  "
            f"(serial baseline {serial:.3f}s, {serial / plan.expected_s:.1f}x speedup)"
        )
    return EXIT_OK


def _hybrid_tunables(dim: int, max_gpus: int) -> TunableParams:
    """The three-phase configuration ``--backend hybrid`` / ``bench`` run under."""
    if max_gpus < 1:
        return TunableParams(cpu_tile=8)
    return TunableParams.from_encoding(cpu_tile=8, band=dim // 3, halo=-1, gpu_tile=8)


def cmd_bench(args: argparse.Namespace) -> int:
    """The ``bench`` verb: wall-clock the executor x application grid."""
    # Enumeration only — construction happens inside the session.
    from repro.runtime.registry import available_executors, engines_with

    app_names = (
        available_applications() if args.apps == "all" else args.apps.split(",")
    )
    executor_names = (
        available_executors() if args.executors == "all" else args.executors.split(",")
    )
    if args.repeats < 1:
        raise UsageError("--repeats must be >= 1")
    unknown = set(app_names) - set(available_applications())
    if unknown:
        raise UsageError(f"unknown applications: {sorted(unknown)}")
    unknown = set(executor_names) - set(available_executors())
    if unknown:
        raise UsageError(f"unknown executors: {sorted(unknown)}")
    if "serial" in executor_names:
        # The serial reference must run first so every later executor can be
        # verified against its grid and reported as a speedup over it.
        executor_names = ["serial"] + [n for n in executor_names if n != "serial"]

    session = Session(system=args.system, mode="functional")
    system = session.system
    records = []
    print(
        f"bench: {len(app_names)} applications x {len(executor_names)} executors, "
        f"dim={args.dim}, system={system.name}, repeats={args.repeats}\n"
    )
    header = f"{'application':<20} {'executor':<18} {'best wall [s]':>13} {'vs serial':>10}  ok"
    print(header)
    print("-" * len(header))
    with session:
        for app_name in app_names:
            reference = None
            serial_best = None
            for executor_name in executor_names:
                policy_kwargs: dict = {"backend": executor_name}
                if executor_name == "hybrid":
                    # Filled by the scalar reference engine (the historical
                    # bench configuration), not the session's default engine.
                    policy_kwargs["engine"] = "serial"
                    policy_kwargs["tunables"] = _hybrid_tunables(
                        args.dim, system.max_usable_gpus
                    )
                elif executor_name in engines_with("multicore"):
                    # Coarse tiles amortise the per-tile pool dispatch while
                    # still exposing tile-parallelism across a wave.
                    policy_kwargs["tunables"] = TunableParams(
                        cpu_tile=max(32, args.dim // 8)
                    )
                    if args.workers is not None:
                        policy_kwargs["workers"] = args.workers
                plan = session.plan(
                    app_name, args.dim, policy=ExecutionPolicy(**policy_kwargs)
                )
                walls = []
                result = None
                for _ in range(args.repeats):
                    t0 = time.perf_counter()
                    result = session.run(plan)
                    walls.append(time.perf_counter() - t0)
                best = min(walls)
                if executor_name == "serial":
                    reference = result
                    serial_best = best
                matches = result.matches(reference) if reference is not None else None
                speedup = serial_best / best if serial_best else None
                records.append(
                    {
                        "application": app_name,
                        "executor": executor_name,
                        "dim": args.dim,
                        "wall_s_best": best,
                        "wall_s_all": walls,
                        "cells": plan.params.cells,
                        "speedup_vs_serial": speedup,
                        "matches_serial": matches,
                        "workers": result.stats.get("workers"),
                    }
                )
                speedup_text = f"{speedup:9.2f}x" if speedup else f"{'n/a':>10}"
                ok_text = {True: "yes", False: "NO", None: "-"}[matches]
                print(
                    f"{app_name:<20} {executor_name:<18} {best:13.6f} {speedup_text}  {ok_text}"
                )
    mismatches = [r for r in records if r["matches_serial"] is False]

    out = args.out
    if out is None:
        out = DEFAULT_BENCH_DIR / f"bench_{system.name}_{args.dim}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "meta": {
            "system": system.name,
            "dim": args.dim,
            "repeats": args.repeats,
            "python": sys.version.split()[0],
            "executors": executor_names,
            "applications": app_names,
            "note": "wall-clock functional execution; serial is the reference "
            "implementation every other grid is verified against",
        },
        "results": records,
    }
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {len(records)} measurements to {out}")
    if mismatches:
        print(f"ERROR: {len(mismatches)} executor results did not match the serial reference")
        return EXIT_ERROR
    return EXIT_OK


def cmd_profile(args: argparse.Namespace) -> int:
    """The ``profile`` verb: measure, persist, report."""
    from dataclasses import replace

    from repro.analysis.measured import render_measured_report
    from repro.autotuner.measured import ProfileConfig, save_profile

    config = ProfileConfig.quick() if args.quick else ProfileConfig()
    overrides = {}
    if args.apps is not None:
        overrides["apps"] = tuple(args.apps.split(","))
    if args.dims is not None:
        try:
            overrides["dims"] = tuple(int(d) for d in args.dims.split(","))
        except ValueError:
            raise UsageError(f"--dims must be comma-separated integers, got {args.dims!r}") from None
    if args.repeats is not None:
        overrides["repeats"] = args.repeats
    if args.budget_s is not None:
        overrides["budget_s"] = args.budget_s
    config = replace(config, **overrides)
    config.validate()  # a bad grid is a usage error before anything is measured

    with Session(system="local") as session:
        system = session.system
        print(system.describe())
        print(
            f"\nprofiling {len(config.apps)} applications x {len(config.dims)} dims "
            f"(repeats={config.repeats}, budget={config.budget_s:g}s) ...\n"
        )
        profile = session.profile(config, progress=print)
        save_profile(profile, args.out)
        print(f"\nwrote {len(profile)} measured records to {args.out}")

        report = render_measured_report(profile, system)
        _write_text(args.report_out, report)
        print(f"wrote predicted-vs-measured report to {args.report_out}\n")
        print(report)
    return EXIT_OK


def _write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path``, creating parent directories."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def cmd_report(args: argparse.Namespace) -> int:
    """The ``report`` verb: render the heatmap or measured report."""
    if args.kind == "measured":
        return _report_measured(args)
    if args.kind == "adaptive":
        return _report_adaptive(args)
    # Imported here, not at the top: the serving verbs must not load the
    # figure stack (tests/test_import_boundary.py).
    from repro.analysis.heatmap import build_heatmap
    from repro.analysis.report import render_heatmap

    with Session(system=args.system, tuner="exhaustive") as session:
        results = session.sweep(_space(args.space))
        print(
            f"{len(results)} configuration points over "
            f"{len(results.instances())} instances\n"
        )
        print(render_heatmap(build_heatmap(results, dsize=args.dsize, quantity="band")))
        if session.system.max_usable_gpus >= 2:
            print()
            print(render_heatmap(build_heatmap(results, dsize=args.dsize, quantity="halo")))
    return EXIT_OK


def _report_measured(args: argparse.Namespace) -> int:
    """Re-render the predicted-vs-measured report from a persisted profile."""
    from repro.analysis.measured import render_measured_report
    from repro.facade.tuners import make_tuner

    if args.system != "i7-2600K":  # a non-default --system was requested
        print(
            "note: --kind measured always renders the local host's profile; "
            f"--system {args.system} is ignored",
            file=sys.stderr,
        )
    with Session(system="local") as session:
        tuner = make_tuner("measured", session.system, profile_path=args.profile_file)
        report = render_measured_report(tuner.profile, session.system)
        print(report)
        if args.out is not None:
            _write_text(args.out, report)
            print(f"wrote predicted-vs-measured report to {args.out}")
    return EXIT_OK


def _report_adaptive(args: argparse.Namespace) -> int:
    """Render the adaptive predicted-vs-observed report from a metrics file.

    Accepts either shape: a ``/metrics`` snapshot (``serve --metrics-out``,
    adaptive state under ``"adaptive"``) or a ``scripts/loadgen.py``
    artifact (server snapshot under ``"server_metrics"``, with the run's
    counter delta under the artifact's own ``"adaptive"`` key).
    """
    path = args.metrics_file
    if not path.exists():
        raise ArtifactError(
            f"no metrics file at {path}; run 'repro-tune serve --metrics-out "
            f"{path}' or 'python scripts/loadgen.py --url URL --trace TRACE "
            f"--out {path}' first"
        )
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ArtifactError(f"cannot read metrics file {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise ArtifactError(f"metrics file {path} is not a JSON object")
    if "server_metrics" in payload:  # loadgen artifact
        server_metrics = payload["server_metrics"]
        if server_metrics is not None and not isinstance(server_metrics, dict):
            raise ArtifactError(
                f"metrics file {path}: server_metrics is not an object"
            )
        adaptive = (server_metrics or {}).get("adaptive")
        delta = payload.get("adaptive")
    else:  # plain /metrics snapshot
        adaptive = payload.get("adaptive")
        delta = None
    print(f"adaptive report from {path}")
    print(render_adaptive_report(adaptive, delta=delta))
    return EXIT_OK


def cmd_serve(args: argparse.Namespace) -> int:
    """The ``serve`` verb: expose one session over the HTTP serving layer."""
    import signal
    import threading

    from repro.core.exceptions import ServerError
    from repro.server import FaultPlan, ReproServer, ServerConfig, ServingEndpoint

    fault_plan = FaultPlan.parse(args.chaos)  # UsageError -> exit 2
    session = Session(
        system=args.system,
        tuner=args.tuner,
        space=_space(args.space),
        mode=args.mode,
        cache_dir=args.cache_dir,
    )
    server = None
    try:
        print(f"warming the {args.tuner!r} tuner for {session.system.name} ...")
        session.tuner  # noqa: B018 - train/load before accepting traffic
        # Built after the warm-up so the metrics uptime clock (the
        # denominator of throughput_rps) starts when serving can, not when
        # training did.
        server = ReproServer(
            session,
            ServerConfig(
                queue_capacity=args.queue_size,
                default_deadline_s=(
                    args.default_deadline if args.default_deadline > 0 else None
                ),
                adaptive=args.adaptive,
            ),
            own_session=True,
            fault_plan=fault_plan,
        )
        try:
            endpoint = ServingEndpoint(
                server,
                args.host,
                args.port,
                log=print if args.verbose else None,
            )
        except OSError as exc:
            raise ServerError(
                f"cannot bind {args.host}:{args.port}: {exc}"
            ) from None
        host, port = endpoint.address
        if args.ready_file is not None:
            args.ready_file.parent.mkdir(parents=True, exist_ok=True)
            args.ready_file.write_text(f"{host}:{port}\n", encoding="utf-8")
        if threading.current_thread() is threading.main_thread():
            # SIGINT/SIGTERM begin the same graceful drain as POST /shutdown.
            for signum in (signal.SIGINT, signal.SIGTERM):
                signal.signal(signum, lambda *_: endpoint.begin_shutdown())
        print(
            f"serving {session.system.name} on {endpoint.url}  "
            f"(queue={args.queue_size}, "
            f"deadline={args.default_deadline:g}s, mode={args.mode}, "
            f"adaptive={args.adaptive})"
        )
        if len(fault_plan):
            print(f"chaos plan armed: {fault_plan.describe()}")
        print(
            "endpoints: POST /solve  GET /metrics  GET /healthz  GET /readyz  "
            "POST /shutdown"
        )
        endpoint.serve_forever()
        print("shutdown requested; draining in-flight requests ...")
    finally:
        # Release the session's pools on any exit path — through the server
        # once it exists, directly when warm-up/bind failed before that.
        if server is not None:
            server.close()
        else:
            session.close()
    metrics = server.metrics()
    if args.metrics_out is not None:
        args.metrics_out.parent.mkdir(parents=True, exist_ok=True)
        args.metrics_out.write_text(
            json.dumps(metrics, indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote final metrics to {args.metrics_out}")
    requests = metrics["requests"]
    latency = metrics["latency_ms"]
    print(
        f"served {requests['completed']} requests "
        f"({requests['rejected']} rejected, {requests['failed']} failed, "
        f"{requests['deadline_expired']} deadline-expired) at "
        f"{metrics['throughput_rps']:.1f} req/s; "
        f"p50={latency['p50']:.2f}ms p95={latency['p95']:.2f}ms"
    )
    supervisor = metrics.get("supervisor") or {}
    print(
        f"supervisor: {supervisor.get('crashes', 0)} crashes, "
        f"{supervisor.get('redispatches', 0)} redispatches, "
        f"{supervisor.get('faults_injected', 0)} faults injected"
    )
    adaptive = metrics.get("adaptive")
    if adaptive is not None:
        print(
            f"adaptive ({adaptive.get('mode')}): "
            f"{adaptive.get('observations', 0)} observations, "
            f"{adaptive.get('drift', {}).get('events', 0)} drift events"
        )
    return EXIT_OK


#: Verb dispatch table.
_HANDLERS = {
    "systems": cmd_systems,
    "run": cmd_run,
    "tune": cmd_tune,
    "bench": cmd_bench,
    "profile": cmd_profile,
    "report": cmd_report,
    "serve": cmd_serve,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    This is the single place framework errors become exit codes:
    usage/registry errors exit 2, missing artifacts exit 3, every other
    deliberate :class:`~repro.core.exceptions.ReproError` exits 1.
    """
    args = build_parser().parse_args(argv)
    configure_logging(verbose=args.verbose)
    handler = _HANDLERS.get(args.command)
    if handler is None:  # pragma: no cover - argparse enforces the choices
        raise SystemExit(f"unknown command {args.command!r}")
    try:
        return handler(args)
    except (UsageError, RegistryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARTIFACT
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
