"""Helpers shared by the benchmark's runner, tracer and comparer.

Nothing here imports ``repro``: statistics, the host-speed calibration, the
answer verifier, the host fingerprint and the ``BENCHMARK.json`` loader must
work before (and without) the program under test being importable.
"""

from __future__ import annotations

import bisect
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
#: Where runs write result files, traces and temporary cache directories
#: (inside the checkout, listed in ``.gitignore``).
DEFAULT_OUT = BENCH_DIR / "out"
#: Result-file layout version; ``compare.py`` refuses anything else.
SCHEMA = 1


def load_spec() -> dict:
    """The benchmark's contract file, ``BENCHMARK.json`` at the repo root."""
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def require_program() -> None:
    """Put ``src/`` on ``sys.path``; exit 2 when the program is not there.

    A directory that holds only the benchmark (no ``src/repro``) has
    nothing to measure, so the run ends without printing a result.
    """
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"bench: no program to measure under {SRC_DIR}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))


# ----------------------------------------------------------------------
# Process hygiene
# ----------------------------------------------------------------------
def _children() -> list[int]:
    """Pids whose parent is this process (zombies included), from ``/proc``."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text(encoding="ascii", errors="replace")
        except OSError:
            continue
        # "pid (command) state ppid ...": the command may hold spaces and ")".
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.append(int(entry))
    return found


def reap_children(grace_s: float = 5.0) -> None:
    """Stop every process this one started and wait until each has ended.

    ``multiprocessing``'s resource tracker (spawned by the first shared-memory
    grid of a tiled solve) only exits once its pipe closes, which otherwise
    happens when this process is already gone: it would outlive the run.  It
    is closed and waited for here; whatever else is still a child (nothing,
    when every stack closed cleanly) is terminated, then killed, and reaped.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        try:
            stop()
        except OSError:
            pass
    for sig in (signal.SIGTERM, signal.SIGKILL):
        deadline = time.monotonic() + grace_s
        while (left := _children()) and time.monotonic() < deadline:
            for pid in left:
                try:
                    if os.waitpid(pid, os.WNOHANG) == (0, 0):
                        os.kill(pid, sig)
                except (ChildProcessError, ProcessLookupError):
                    pass
            time.sleep(0.01)
        if not left:
            return


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    """Median of a non-empty sequence."""
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def percentile(values, share: float) -> float:
    """Nearest-rank percentile (``share`` in 0..1) of a non-empty sequence."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(share * len(ordered))) - 1))
    return float(ordered[rank])


# ----------------------------------------------------------------------
# Host-speed calibration
# ----------------------------------------------------------------------
class HostSpeed:
    """A fixed calibration kernel, clocked right beside the measured work.

    The build host is a shared 2-vCPU VM whose speed flips between two
    levels ~30 % apart every 10-20 s (a fixed numpy + pure-Python loop shows
    it; CPU time shows it too, so it is contention, not steal).  Raw wall
    times of a 10 s run therefore differ by 10-20 % between runs of the same
    code, more than any bound worth gating on.  The kernel below does the
    same work every time and depends on nothing in the program under test,
    so the ratio *operation wall / kernel wall* taken within a few hundred
    milliseconds of each other cancels the host's level.  Every end-to-end
    time is reported as ``wall * NOMINAL_S / kernel wall``: the time the
    operation would take on a host that runs the kernel in ``NOMINAL_S``
    (about this host's typical level).  A change to the program moves the
    operation and not the kernel, so it shows in full.
    """

    #: The kernel's wall time on the host the reported times refer to.
    NOMINAL_S = 0.005

    def __init__(self) -> None:
        self._data = np.random.default_rng(0).random(50_000)
        self.starts: list[float] = []
        self.ends: list[float] = []

    def sample(self) -> None:
        """Run the kernel once (~5 ms) on the calling thread and clock it."""
        started = time.perf_counter()
        for _ in range(8):
            np.sort(self._data)
            sum(range(20_000))
        self.starts.append(started)
        self.ends.append(time.perf_counter())

    def _around(self, t0: float, t1: float) -> list[float]:
        """Kernel walls from the last sample before ``t0`` to the first after ``t1``."""
        first = max(bisect.bisect_right(self.ends, t0) - 1, 0)
        last = min(bisect.bisect_left(self.starts, t1), len(self.starts) - 1)
        return [e - s for s, e in zip(self.starts[first : last + 1], self.ends[first : last + 1])]

    def normalised(self, t0: float, t1: float) -> float:
        """Seconds the interval would take on the nominal host.

        Kernel runs inside the interval are the harness's own time and are
        taken out; the rest is scaled by the mean kernel wall around it.
        """
        walls = self._around(t0, t1)
        inside = sum(
            e - s for s, e in zip(self.starts, self.ends) if s >= t0 and e <= t1
        )
        return (t1 - t0 - inside) * self.NOMINAL_S / statistics.fmean(walls)

    def median_s(self) -> float:
        """Median kernel wall of the run: the host's level, for the record."""
        return median(e - s for s, e in zip(self.starts, self.ends))


# ----------------------------------------------------------------------
# Answer verification
# ----------------------------------------------------------------------
class Verifier:
    """Counts operations and compares every answer with its reference.

    ``expected`` maps a request key to the ``(grid_sha256, witness_sha256)``
    pair an independent serial reference produced (witness ``None`` for
    witness-free kernels).  A wrong grid digest, a wrong witness digest, a
    dropped witness and an operation that raised or answered non-200 all
    count as one failed operation.
    """

    def __init__(self, expected: dict) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, key, grid_sha, witness_sha) -> bool:
        """Record one answered operation; True when it matches its reference."""
        self.attempted += 1
        if (grid_sha, witness_sha) == self.expected[key]:
            return True
        self._fail(f"mismatch on {key}")
        return False

    def error(self, key, reason: str) -> None:
        """Record one operation that produced no answer at all."""
        self.attempted += 1
        self._fail(f"{reason} on {key}")

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(module: str) -> str:
    try:
        return str(__import__(module).__version__)
    except ImportError:
        return "absent"


def fingerprint() -> dict:
    """What the numbers depend on besides the code: host and library versions."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "numba": _version("numba"),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, or ``None`` when it is not a git repository."""
    if not (REPO_ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
        capture_output=True,
        text=True,
        check=False,
    )
    return done.stdout.strip() or None
