"""The service workload: ``service-mixed``.

``repro serve`` runs as a subprocess over a SQLite store, pinned to its own
CPU.  One closed-loop :class:`~repro.service.client.ServiceClient` in this
process, pinned to another CPU, sends blocks of 100 requests: 90 cached
resubmissions of a set recorded during set-up, 5 fresh scenarios and 5
*extend* requests (a recorded scenario resubmitted with doubled reps).  Every
request is awaited before the next is sent.
"""

from __future__ import annotations

import gc
import json
import os
import random
import socket
import sqlite3
import subprocess
import sys
import time
import urllib.request
from collections import deque
from contextlib import closing
from pathlib import Path
from statistics import median

from common import (
    SRC,
    Outcome,
    host_probe_ms,
    percentile,
    pin_plan,
    pin_self,
    proc_cpu_seconds,
    proc_status_kb,
    provenance,
    tail_percentiles,
)

#: New scenarios cycle through these (protocol, k) slots.  The k=64 and
#: k=256 runs form two clusters of latencies; the second OFA-256 slot puts
#: the median inside one cluster instead of in the gap between them, where
#: it would jump from run to run.
SLOTS = (
    ("one-fail-adaptive", 64),
    ("log-fails-adaptive", 64),
    ("one-fail-adaptive", 256),
    ("log-fails-adaptive", 256),
    ("one-fail-adaptive", 256),
)
REPS = 3
CACHED_SET = 24
EXTEND_RESERVE = 12
BLOCK = {"cached": 90, "fresh": 5, "extend": 5}
SETUPS = 3
#: Share of cached replies whose full result is fetched and compared.
CACHED_CHECK_SHARE = 0.05
#: Share of fresh and extend results re-run in-process and compared.
RERUN_CHECK_SHARE = 0.25


class Server:
    """``repro serve`` in a subprocess, on a fresh SQLite store."""

    def __init__(self, directory: Path, cpu: int | None, obs: bool) -> None:
        directory.mkdir(parents=True)
        self.store_path = directory / "store.db"
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        self.url = f"http://127.0.0.1:{port}"
        command = [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", str(port),
            "--store", f"sqlite:{self.store_path}", "--quiet",
        ]
        if not obs:
            command.append("--no-obs")
        self._log = open(directory / "server.log", "wb")
        self.process = subprocess.Popen(
            command,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdout=self._log,
            stderr=subprocess.STDOUT,
            preexec_fn=(lambda: os.sched_setaffinity(0, {cpu})) if cpu is not None else None,
        )
        self.pid = self.process.pid

    def wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with {self.process.returncode}: {self.log_tail()}")
            try:
                with urllib.request.urlopen(self.url + "/healthz", timeout=2) as response:
                    if response.status == 200:
                        return
            except OSError:
                time.sleep(0.01)
        raise RuntimeError(f"server not ready after {timeout:.0f}s: {self.log_tail()}")

    def log_tail(self) -> str:
        self._log.flush()
        return Path(self._log.name).read_bytes()[-2000:].decode(errors="replace")

    def get_json(self, path: str) -> dict:
        with urllib.request.urlopen(self.url + path, timeout=30) as response:
            return json.loads(response.read())

    def metrics_text(self) -> str:
        with urllib.request.urlopen(self.url + "/metrics", timeout=30) as response:
            return response.read().decode()

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        self._log.close()


class Traffic:
    """The seeded request mix and the state it needs between requests."""

    def __init__(self, seed: int) -> None:
        from repro.scenarios.scenario import Scenario

        self._scenario = Scenario
        self.rng = random.Random(seed)
        self._made = 0
        self.cached_set = [self.new_scenario() for _ in range(CACHED_SET)]
        self.reserve: deque = deque(self.new_scenario() for _ in range(EXTEND_RESERVE))
        self.recorded: dict[str, tuple[int, ...]] = {}

    def new_scenario(self):
        """A scenario not on record, in the next of the ``SLOTS``."""
        protocol, k = SLOTS[self._made % len(SLOTS)]
        self._made += 1
        return self._scenario(
            protocol=protocol,
            k=k,
            replications=REPS,
            seed=self.rng.randrange(1, 2**31),
        )

    def block(self) -> list[str]:
        kinds = [kind for kind, count in BLOCK.items() for _ in range(count)]
        self.rng.shuffle(kinds)
        return kinds


def _makespans(results: list[dict]) -> tuple[int, ...]:
    return tuple(-1 if result["makespan"] is None else result["makespan"] for result in results)


class LoadGenerator:
    """Sends requests through ``ServiceClient`` and records what comes back."""

    def __init__(self, server: Server, traffic: Traffic, outcome: Outcome) -> None:
        from repro.service.client import ServiceClient

        self.server = server
        self.client = ServiceClient(server.url, retry=None)
        self.traffic = traffic
        self.outcome = outcome
        self.samples: dict[str, list[float]] = {kind: [] for kind in BLOCK}
        self.queue_wait_ms: list[float] = []
        self.run_ms: list[float] = []
        self.resimulated: list[int] = []
        self.host_probes: list[float] = []

    # ------------------------------------------------------------- requests
    def cached(self, scenario) -> None:
        started = time.perf_counter()
        status = self.client.submit(scenario)
        self.samples["cached"].append((time.perf_counter() - started) * 1000.0)
        ok = status.cached and status.finished
        if ok and self.traffic.rng.random() < CACHED_CHECK_SHARE:
            payload = self.client.result(status.hash)
            ok = payload["new_runs"] == 0 and _makespans(payload["results"]) == self.traffic.recorded[status.hash]
        self.outcome.check(ok, f"cached {scenario.format()}: cached={status.cached} state={status.state}")

    def awaited(self, scenario, kind: str | None) -> dict:
        """Submit, wait for the job, and return its result payload."""
        sent = time.time()  # compared with the server's own job timestamps
        status = self.client.submit(scenario)
        self.client.wait(status.id, timeout=120, poll_interval=0.002, max_poll_interval=0.02)
        job = self.server.get_json(f"/jobs/{status.id}")["job"]
        payload = self.client.result(status.hash)
        if kind is not None:
            self.samples[kind].append((job["finished_at"] - sent) * 1000.0)
            self.queue_wait_ms.append((job["started_at"] - job["created_at"]) * 1000.0)
            self.run_ms.append((job["finished_at"] - job["started_at"]) * 1000.0)
        return payload

    def fresh(self, scenario, kind: str | None = "fresh") -> None:
        payload = self.awaited(scenario, kind)
        self._check_payload(scenario, payload, payload["new_runs"] == REPS)
        self.traffic.recorded[payload["hash"]] = _makespans(payload["results"])

    def extend(self, scenario) -> None:
        extended = scenario.replace(replications=2 * REPS)
        payload = self.awaited(extended, "extend")
        self.resimulated.append(payload["new_runs"] - REPS)
        self._check_payload(extended, payload, payload["new_runs"] >= REPS)

    def _check_payload(self, scenario, payload: dict, new_runs_ok: bool) -> None:
        makespans = _makespans(payload["results"])
        ok = (
            new_runs_ok
            and payload["solved_runs"] == scenario.replications
            and min(makespans) >= scenario.k
        )
        if ok and self.traffic.rng.random() < RERUN_CHECK_SHARE:
            from repro.scenarios.session import Session

            ok = _makespans([r.to_dict() for r in Session().run(scenario).results]) == makespans
        self.outcome.check(ok, f"{scenario.format()}: new_runs={payload['new_runs']} solved={payload['solved_runs']}")

    # ----------------------------------------------------------------- mix
    def warm(self) -> None:
        """Record the cached set and the extend reserve, then serve each once."""
        for scenario in [*self.traffic.cached_set, *self.traffic.reserve]:
            self.fresh(scenario, kind=None)
        for scenario in self.traffic.cached_set:
            self.client.submit(scenario)

    def run_blocks(self, blocks: int) -> list[float]:
        block_s = []
        for _ in range(blocks):
            started = time.perf_counter()
            for kind in self.traffic.block():
                if kind == "cached":
                    rng = self.traffic.rng
                    self.cached(self.traffic.cached_set[rng.randrange(CACHED_SET)])
                elif kind == "fresh":
                    scenario = self.traffic.new_scenario()
                    self.fresh(scenario)
                    self.traffic.reserve.append(scenario)
                else:
                    self.extend(self.traffic.reserve.popleft())
            block_s.append(time.perf_counter() - started)
            self.host_probes.append(host_probe_ms())
        return block_s


def _boot(workdir: Path, name: str, cpu: int | None, obs: bool, traffic: Traffic, outcome: Outcome):
    """Start a server, wait for ``/healthz``, warm it; returns (server, load, seconds)."""
    started = time.perf_counter()
    server = Server(workdir / name, cpu, obs)
    try:
        server.wait_ready()
        load = LoadGenerator(server, traffic, outcome)
        load.warm()
    except BaseException:
        server.stop()
        raise
    return server, load, time.perf_counter() - started


def run(workload: str, seed: int, seconds: int, trace: bool, workdir: Path) -> Outcome:
    from repro.obs import configure_tracing, set_enabled

    set_enabled(False)
    configure_tracing(None)
    outcome = Outcome()
    client_cpu, server_cpu = pin_plan()
    # The traced run splits its blocks between an untraced and a traced server.
    blocks = max(seconds // 2, 1) if trace else seconds
    setups = 1 if trace else SETUPS
    outcome.report = provenance(
        seed,
        workload,
        {
            "slots": [list(slot) for slot in SLOTS],
            "reps": REPS,
            "cached_set": CACHED_SET,
            "block": BLOCK,
            "blocks": blocks,
            "store": "sqlite",
            "client_cpu": client_cpu,
            "server_cpu": server_cpu,
            "setups": setups,
        },
    )
    pin_self(client_cpu)
    probes = [host_probe_ms()]
    servers: list[Server] = []
    try:
        setup_s = []
        for index in range(setups):
            server, load, seconds_taken = _boot(
                workdir, f"setup-{index}", server_cpu, False, Traffic(seed), outcome
            )
            servers.append(server)
            setup_s.append(seconds_taken)
            if index < setups - 1:
                server.stop()
        # The load generator's own garbage collections would land in the
        # tail of the latencies it measures; freeze what set-up allocated.
        gc.collect()
        gc.freeze()
        rss_before = proc_status_kb(server.pid, "VmRSS")
        cpu_before = proc_cpu_seconds(server.pid)
        block_s = load.run_blocks(blocks)
        requests = blocks * sum(BLOCK.values())
        rss_kb_per_req = (proc_status_kb(server.pid, "VmRSS") - rss_before) / len(load.samples["cached"])
        cpu_ms_per_req = (proc_cpu_seconds(server.pid) - cpu_before) * 1000.0 / requests
        peak_rss_mb = proc_status_kb(server.pid, "VmHWM") / 1024.0
        server.stop()
        outcome.report.update(
            setup_samples_s=setup_s,
            block_samples_s=block_s,
            samples={kind: len(values) for kind, values in load.samples.items()},
            cached_percentiles_ms=tail_percentiles(load.samples["cached"]),
            server_peak_rss_mb=peak_rss_mb,
            server_rss_kb_per_cached_req=rss_kb_per_req,
            server_cpu_ms_per_req=cpu_ms_per_req,
        )
        if trace:
            traced_p50 = _traced(workdir, server_cpu, seed, blocks, outcome, servers)
            untraced_p50 = median(load.samples["cached"])
            outcome.metric("service.server_cpu_ms_per_req", cpu_ms_per_req, "ms")
            outcome.metric("service.rss_kb_per_req", rss_kb_per_req, "kB")
            outcome.metric("client.cached_p99_ms", percentile(load.samples["cached"], 99), "ms")
            outcome.metric(
                "obs.overhead_pct", (traced_p50 - untraced_p50) / untraced_p50 * 100.0, "%"
            )
        else:
            cached = load.samples["cached"]
            outcome.metric("setup_s", median(setup_s), "s")
            outcome.metric("sweep_s", median(block_s), "s")
            outcome.metric("peak_rss_mb", peak_rss_mb, "MB")
            outcome.metric("cached_p50_ms", median(cached), "ms")
            outcome.metric("fresh_p50_ms", median(load.samples["fresh"]), "ms")
            outcome.metric("extend_p50_ms", median(load.samples["extend"]), "ms")
    finally:
        for server in servers:
            server.stop()
    probes.extend(load.host_probes)
    probes.append(host_probe_ms())
    outcome.report["host_probe_ms"] = probes
    if trace:
        outcome.metric("host.probe_ms", median(probes), "ms")
    return outcome


# ----------------------------------------------------------------- tracing
def _prometheus(text: str) -> dict[str, float]:
    """``{"name{labels}": value}`` for every sample line of an exposition."""
    values = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.rpartition(" ")
            values[key] = float(value)
    return values


def _delta(before: dict[str, float], after: dict[str, float], prefix: str) -> float:
    return sum(value - before.get(key, 0.0) for key, value in after.items() if key.startswith(prefix))


def _traced(workdir: Path, cpu: int | None, seed: int, blocks: int, outcome: Outcome, servers: list) -> float:
    """A server with observability on: the same warm-up and blocks, per layer.

    Returns the traced run's ``cached_p50_ms``.
    """
    from repro.obs import read_trace
    from repro.scenarios.session import Session
    from repro.scenarios.store_sqlite import SqliteStore

    traffic = Traffic(seed)
    server, load, _ = _boot(workdir, "traced", cpu, True, traffic, outcome)
    servers.append(server)
    before = _prometheus(server.metrics_text())
    started_at = time.time()
    load.run_blocks(blocks)
    after = _prometheus(server.metrics_text())

    # An online copy of the server's store, for in-process session/store timing.
    copy_path = workdir / "store-copy.db"
    with closing(sqlite3.connect(server.store_path)) as source, closing(sqlite3.connect(copy_path)) as target:
        source.backup(target)
    trace_events = read_trace(server.store_path.with_name(server.store_path.name + ".trace.jsonl"))
    server.stop()

    spans = [event for event in trace_events if event.ts >= started_at]
    kernel_s = sum(e.dur_s for e in spans if e.name in ("engine.run", "engine.batch", "engine.megabatch"))
    plan_s = sum(e.dur_s for e in spans if e.name == "session.plan")
    iterations = _delta(before, after, "repro_megabatch_kernel_iterations_total")

    def mean_ms(family: str, labels: str) -> float:
        count = _delta(before, after, f"{family}_count{labels}")
        return _delta(before, after, f"{family}_sum{labels}") / count * 1000.0 if count else 0.0

    store = SqliteStore(copy_path)
    session = Session(store_dir=store)
    run_cached_ms, load_ms = [], []
    for _ in range(10):
        for scenario in traffic.cached_set:
            started = time.perf_counter()
            result_set = session.run_cached(scenario)
            run_cached_ms.append((time.perf_counter() - started) * 1000.0)
            outcome.check(result_set is not None and result_set.new_runs == 0, f"copy lost {scenario.format()}")
            started = time.perf_counter()
            store.load(scenario)
            load_ms.append((time.perf_counter() - started) * 1000.0)
    store.close()

    cached_p50 = median(load.samples["cached"])
    http_ms = mean_ms("repro_http_request_seconds", '{method="POST",route="/scenarios"}')
    outcome.metric("experiments.self_s", 0.0, "s")
    outcome.metric("session.plan_s", plan_s / blocks, "s")
    outcome.metric("session.run_cached_ms", median(run_cached_ms), "ms")
    outcome.metric("session.resimulated_runs", sum(load.resimulated) / len(load.resimulated), "count")
    outcome.metric("store.probe_ms", mean_ms("repro_store_probe_seconds", '{backend="sqlite"}'), "ms")
    outcome.metric("store.append_ms", mean_ms("repro_store_append_seconds", '{backend="sqlite"}'), "ms")
    outcome.metric("store.load_ms", median(load_ms), "ms")
    outcome.metric("engine.kernel_s", kernel_s / blocks, "s")
    outcome.metric("engine.kernel_iterations", iterations / blocks, "count")
    outcome.metric("engine.us_per_iteration", kernel_s / iterations * 1e6 if iterations else 0.0, "us")
    outcome.metric("engine.slots", _delta(before, after, "repro_engine_slots_total") / blocks, "count")
    outcome.metric("engine.rows", _delta(before, after, "repro_megabatch_rows_total") / blocks, "count")
    outcome.metric("http.server_ms", http_ms, "ms")
    outcome.metric("http.client_overhead_ms", cached_p50 - http_ms, "ms")
    outcome.metric("jobs.queue_wait_ms", median(load.queue_wait_ms), "ms")
    outcome.metric("jobs.run_ms", median(load.run_ms), "ms")
    outcome.report.update(
        traced_cached_p50_ms=cached_p50,
        traced_fresh_p50_ms=median(load.samples["fresh"]),
        traced_extend_p50_ms=median(load.samples["extend"]),
        server_spans=len(spans),
    )
    return cached_p50
