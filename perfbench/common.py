"""Shared pieces of the benchmark: host facts, timing helpers, layer spans.

Nothing here imports ``repro`` at module level, so ``run.py`` can report a
missing source tree before any workload code loads.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Outcome:
    """What one run reports: operation counts, metrics and the run report."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.report: dict[str, object] = {}

    def check(self, ok: bool, message: str) -> None:
        """Count one operation attempted, and failed when ``ok`` is false."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(message)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


# ------------------------------------------------------------------ statistics
def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentiles(values: list[float]) -> dict[str, float]:
    """The latency percentiles a report records, with the sample count."""
    table = {f"p{q:g}": percentile(values, q) for q in (50, 90, 95, 99)}
    table["samples"] = len(values)
    return table


# ------------------------------------------------------------------------ host
def pin_plan() -> tuple[int | None, int | None]:
    """CPUs for (load generator / sweep, server): disjoint when two exist."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2:
        return cpus[0], cpus[1]
    return None, None


def pin_self(cpu: int | None) -> None:
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})


def host_probe_ms() -> float:
    """Time a fixed pure-Python plus numpy loop, a gauge of host speed."""
    import numpy as np

    started = time.perf_counter()
    total = 0
    for index in range(150_000):
        total += (index * index) % 7
    values = np.arange(100_000, dtype=np.float64)
    for _ in range(30):
        values = np.sqrt(values * values + 1.0)
    if total < 0 or not np.isfinite(values[-1]):  # keep the work observable
        raise RuntimeError("host probe produced an impossible value")
    return (time.perf_counter() - started) * 1000.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_status_kb(pid: int, field: str) -> float:
    """A ``kB`` field (``VmRSS``, ``VmHWM``) of ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return float(line.split()[1])
    raise KeyError(f"{field} not in /proc/{pid}/status")


def proc_cpu_seconds(pid: int) -> float:
    """User plus system CPU time of a process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (field 3 of stat); utime and stime are 14, 15.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def source_digest() -> str:
    """SHA-256 over every Python file under ``src/`` (path and bytes)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str | None:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if completed.returncode != 0:
        return None  # not a git checkout
    return completed.stdout.strip()


def provenance(seed: int, workload: str, params: dict[str, object]) -> dict[str, object]:
    import numpy as np

    return {
        "workload": workload,
        "seed": seed,
        "params": params,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def time_subprocess_setup(argv: list[str]) -> float:
    """Wall time of a fresh interpreter that sets the workload up and exits."""
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )
    elapsed = time.perf_counter() - started
    if completed.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{completed.stderr[-2000:]}")
    return elapsed


# ---------------------------------------------------------------- layer spans
class LayerSpans:
    """In-memory spans around calls into each layer's public functions.

    Each span adds its wall time, minus the time its child spans took, to
    its layer's ``self_time``.  Spans nest by call stack; the benchmark
    drives one thread, so one stack suffices.
    """

    def __init__(self) -> None:
        self.self_time: dict[str, float] = {}
        self._stack: list[list[float]] = []

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        frame = [0.0]
        self._stack.append(frame)
        started = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - started
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += duration
            self.self_time[layer] = self.self_time.get(layer, 0.0) + duration - frame[0]

    def wrap(self, layer: str, function: Callable) -> Callable:
        def wrapped(*args, **kwargs):
            with self.span(layer):
                return function(*args, **kwargs)

        return wrapped

    @contextmanager
    def patched(self, targets: list[tuple[object, str, str]]) -> Iterator["LayerSpans"]:
        """Wrap ``owner.attribute`` for each ``(owner, attribute, layer)``."""
        originals = [(owner, name, getattr(owner, name)) for owner, name, _ in targets]
        try:
            for (owner, name, layer), (_, _, original) in zip(targets, originals):
                setattr(owner, name, self.wrap(layer, original))
            yield self
        finally:
            for owner, name, original in reversed(originals):
                setattr(owner, name, original)


def program_layer_targets() -> list[tuple[object, str, str]]:
    """The public entry points of the session, store and engine layers.

    The executor calls the engine front doors through names bound in
    :mod:`repro.experiments.parallel`, so those bindings are wrapped.
    """
    from repro.experiments import parallel
    from repro.scenarios.session import Session
    from repro.scenarios.store_sqlite import SqliteStore

    targets: list[tuple[object, str, str]] = [(Session, "run_all", "session")]
    for name in ("simulate", "simulate_batch", "simulate_megabatch"):
        targets.append((parallel, name, "engine"))
    for name in ("load", "append", "cached_count", "cached_counts", "run_index"):
        targets.append((SqliteStore, name, "store"))
    return targets


def counter_total(snapshot: dict[str, dict[str, object]], family: str) -> float:
    """Sum of every series of a counter family in a registry snapshot."""
    series = snapshot.get(family, {}).get("series", {})
    return float(sum(value for value in series.values()))  # type: ignore[misc]


def histogram_sum_count(snapshot: dict[str, dict[str, object]], family: str) -> tuple[float, int]:
    series = snapshot.get(family, {}).get("series", {})
    total = sum(child["sum"] for child in series.values())  # type: ignore[index]
    count = sum(child["count"] for child in series.values())  # type: ignore[index]
    return float(total), int(count)
