"""The sweep workloads: ``fig1-grid`` and ``window-paper-scale``.

A run repeats one *round* while another fits in ``--seconds`` (at least
``MIN_ROUNDS`` times).  A round times one whole grid in-process (workers=1,
no store, observability off), then a slice of the store phase: a small grid
of the same protocols served, recorded and extended through a
:class:`~repro.scenarios.session.Session` over a SQLite store, the
resumable-sweep path (``figure1 --store``).  Interleaving the two spreads
every metric's samples over the whole run, so a slow spell of the host
weighs on all of them alike instead of on one.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from common import (
    LayerSpans,
    Outcome,
    counter_total,
    histogram_sum_count,
    host_probe_ms,
    percentile,
    pin_plan,
    pin_self,
    program_layer_targets,
    provenance,
    self_peak_rss_mb,
    tail_percentiles,
    time_subprocess_setup,
)

#: Grid parameters per workload; ``cell_k`` sizes the store phase's grid.
GRIDS: dict[str, dict[str, object]] = {
    "fig1-grid": {
        "specs": ("lfa-xt2", "lfa-xt10", "ofa", "ebb", "llib"),
        "k_values": (10, 100, 1_000, 10_000),
        "runs": 10,
        "cell_k": (10, 100),
        "figure1": True,
    },
    "window-paper-scale": {
        "specs": ("ebb", "llib"),
        "k_values": (100_000, 1_000_000),
        "runs": 10,
        "cell_k": (1_000, 10_000),
        "figure1": False,
    },
}
MIN_ROUNDS = 3
MAX_ROUNDS = 12
SETUP_SAMPLES = 3
#: Store-phase work per round: cached serves, and fresh+extend grid pairs.
CACHED_PER_ROUND = 600
GRIDS_PER_ROUND = 10
TRACED_GRIDS = 2


@dataclass
class Prepared:
    """A workload made ready: inputs derived from the seed, store warmed."""

    workload: str
    specs: list
    grid_seed: int
    cell_seed: int
    session: object
    rng: random.Random
    workdir: Path
    cached_cells: list = field(default_factory=list)
    fresh_cells: list = field(default_factory=list)
    #: Expected makespans by (content hash, replications).
    recorded: dict[tuple[str, int], tuple[int, ...]] = field(default_factory=dict)

    @property
    def grid(self) -> dict[str, object]:
        return GRIDS[self.workload]


@dataclass
class StoreSamples:
    cached_ms: list[float] = field(default_factory=list)
    fresh_ms: list[float] = field(default_factory=list)
    extend_ms: list[float] = field(default_factory=list)
    resimulated: list[int] = field(default_factory=list)


def _config(seed: int, k_values, runs: int):
    from repro.experiments.config import ExperimentConfig

    return ExperimentConfig(k_values=list(k_values), runs=runs, seed=seed, workers=1)


def _cell_scenarios(prepared: Prepared, seed: int, runs: int) -> list:
    """The store phase's grid as Session scenarios, seeded like ``run_sweep``."""
    from repro.experiments.runner import cell_seed_root
    from repro.scenarios.scenario import Scenario

    config = _config(seed, prepared.grid["cell_k"], runs)
    return [
        Scenario(
            protocol=spec.spec,
            k=k,
            replications=runs,
            seed=cell_seed_root(config, spec_index, k_index),
            max_slots_factor=config.max_slots_factor,
        )
        for spec_index, spec in enumerate(prepared.specs)
        for k_index, k in enumerate(config.k_values)
    ]


def run_grid(prepared: Prepared):
    """One full grid through the experiments layer's public front door."""
    from repro.experiments.figure1 import reproduce_figure1
    from repro.experiments.runner import run_sweep

    grid = prepared.grid
    config = _config(prepared.grid_seed, grid["k_values"], grid["runs"])
    if grid["figure1"]:
        return reproduce_figure1(config=config, specs=prepared.specs).sweep
    return run_sweep(prepared.specs, config)


def prepare(workload: str, seed: int, workdir: Path) -> Prepared:
    """Imports, observability off, one warm-up pass, the store phase's cells."""
    from repro.experiments.config import paper_protocol_suite
    from repro.experiments.runner import run_sweep
    from repro.obs import configure_tracing, set_enabled
    from repro.scenarios.session import Session

    set_enabled(False)
    configure_tracing(None)
    rng = random.Random(seed)
    suite = {spec.key: spec for spec in paper_protocol_suite()}
    grid = GRIDS[workload]
    prepared = Prepared(
        workload=workload,
        specs=[suite[key] for key in grid["specs"]],
        grid_seed=rng.randrange(1, 2**31),
        cell_seed=rng.randrange(1, 2**31),
        session=Session(store_dir=f"sqlite:{workdir / 'cells.db'}"),
        rng=rng,
        workdir=workdir,
    )
    # The warm-up pass: every protocol of the grid at the store phase's
    # sizes, through the experiments front door the timed grids use.
    run_sweep(prepared.specs, _config(prepared.cell_seed + 1, grid["cell_k"], grid["runs"]))
    prepared.cached_cells = _cell_scenarios(prepared, prepared.cell_seed, grid["runs"])
    prepared.fresh_cells = _cell_scenarios(prepared, rng.randrange(1, 2**31), grid["runs"])
    for scenario, result_set in zip(
        prepared.cached_cells, prepared.session.run_all(prepared.cached_cells)
    ):
        prepared.recorded[_key(scenario)] = _makespans(result_set.results)
    for scenario in prepared.cached_cells:
        prepared.session.run_cached(scenario)
    return prepared


def _key(scenario) -> tuple[str, int]:
    return scenario.content_hash(), scenario.replications


def _makespans(results) -> tuple[int, ...]:
    return tuple(-1 if result.makespan is None else result.makespan for result in results)


def check_grid(outcome: Outcome, sweep, reference_digest: str | None) -> str:
    """Every replication solved with makespan >= k; the digest repeats."""
    cells = sorted((key, k, _makespans(cell.results)) for (key, k), cell in sweep.cells.items())
    digest = hashlib.sha256(json.dumps(cells).encode()).hexdigest()[:16]
    same = reference_digest is None or digest == reference_digest
    for (key, k), cell in sweep.cells.items():
        for result in cell.results:
            outcome.check(
                same and result.solved and result.makespan is not None and result.makespan >= k,
                f"{key} k={k} seed={result.seed}: solved={result.solved} "
                f"makespan={result.makespan} digest {digest} vs {reference_digest}",
            )
    return digest


def _check_result_sets(outcome: Outcome, prepared: Prepared, scenarios, result_sets, new_runs_ok) -> None:
    """Solved, makespan >= k, ``new_runs`` as expected, and the results repeat.

    The first time a scenario is checked, its results are compared with a
    store-less ``Session`` run; later checks compare with those results.
    """
    from repro.scenarios.session import Session

    if _key(scenarios[0]) not in prepared.recorded:
        for scenario, reference in zip(scenarios, Session().run_all(scenarios)):
            prepared.recorded[_key(scenario)] = _makespans(reference.results)
    for scenario, result_set in zip(scenarios, result_sets):
        makespans = _makespans(result_set.results)
        same = makespans == prepared.recorded[_key(scenario)]
        outcome.check(
            new_runs_ok(result_set.new_runs) and result_set.all_solved and min(makespans) >= scenario.k and same,
            f"{scenario.format()}: new_runs={result_set.new_runs} "
            f"solved={result_set.all_solved} equal to a store-less run: {same}",
        )


def store_slice(prepared: Prepared, outcome: Outcome, samples: StoreSamples, cached: int, grids: int) -> None:
    """Serve recorded cells; record the small grid into empty stores and extend it.

    The cached serves are split into ``grids`` bursts, one before each fresh
    grid, so they sample the host over the whole slice.  Every empty store
    gets the same scenarios, so each fresh sample does the same work and
    must give the same results: the first is compared with a store-less run,
    the rest with the first.
    """
    from repro.scenarios.session import Session

    runs = int(prepared.grid["runs"])
    fresh = prepared.fresh_cells
    extended = [scenario.replace(replications=2 * runs) for scenario in fresh]
    for _ in range(grids):
        _serve_cached(prepared, outcome, samples, cached // grids)
        session = Session(store_dir=f"sqlite:{prepared.workdir / f'fresh-{len(samples.fresh_ms)}.db'}")
        started = time.perf_counter()
        result_sets = session.run_all(fresh)
        samples.fresh_ms.append((time.perf_counter() - started) * 1000.0)
        _check_result_sets(outcome, prepared, fresh, result_sets, lambda new: new == runs)

        started = time.perf_counter()
        result_sets = session.run_all(extended)
        samples.extend_ms.append((time.perf_counter() - started) * 1000.0)
        samples.resimulated.extend(result_set.new_runs - runs for result_set in result_sets)
        _check_result_sets(outcome, prepared, extended, result_sets, lambda new: new >= runs)
        session.store.close()


def _serve_cached(prepared: Prepared, outcome: Outcome, samples: StoreSamples, count: int) -> None:
    rng = prepared.rng
    for _ in range(count):
        scenario = prepared.cached_cells[rng.randrange(len(prepared.cached_cells))]
        started = time.perf_counter()
        result_set = prepared.session.run_cached(scenario)
        samples.cached_ms.append((time.perf_counter() - started) * 1000.0)
        outcome.check(
            result_set is not None
            and result_set.new_runs == 0
            and _makespans(result_set.results) == prepared.recorded[_key(scenario)],
            f"cached {scenario.format()} not served intact from the store",
        )


def run(workload: str, seed: int, seconds: int, trace: bool, workdir: Path) -> Outcome:
    outcome = Outcome()
    cpu = pin_plan()[0]
    outcome.report = provenance(seed, workload, {})
    pin_self(cpu)
    prepared = prepare(workload, seed, workdir)
    grid = prepared.grid
    outcome.report["params"] = {
        "protocols": list(grid["specs"]),
        "k_values": list(grid["k_values"]),
        "runs": grid["runs"],
        "workers": 1,
        "store": None,
        "grid_seed": prepared.grid_seed,
        "store_phase": {
            "backend": "sqlite",
            "k_values": list(grid["cell_k"]),
            "runs": grid["runs"],
            "cached_per_round": CACHED_PER_ROUND,
            "grids_per_round": GRIDS_PER_ROUND,
        },
        "pinned_cpu": cpu,
    }
    probes = [host_probe_ms()]
    if trace:
        _traced(prepared, outcome)
    else:
        setup_argv = ["perfbench/run.py", "--setup-probe", "--workload", workload, "--seed", str(seed)]
        setup: list[float] = []
        sweeps: list[float] = []
        store = StoreSamples()
        digest = None
        run_started = time.perf_counter()
        # Start another round only while one more is expected to fit.
        while len(sweeps) < MIN_ROUNDS or (
            len(sweeps) < MAX_ROUNDS
            and (time.perf_counter() - run_started) * (len(sweeps) + 1) / len(sweeps) <= seconds
        ):
            started = time.perf_counter()
            sweep = run_grid(prepared)
            sweeps.append(time.perf_counter() - started)
            digest = check_grid(outcome, sweep, digest)
            store_slice(prepared, outcome, store, CACHED_PER_ROUND, GRIDS_PER_ROUND)
            if len(setup) < SETUP_SAMPLES:
                setup.append(time_subprocess_setup(setup_argv))
            probes.append(host_probe_ms())
        outcome.metric("setup_s", median(setup), "s")
        outcome.metric("sweep_s", median(sweeps), "s")
        outcome.metric("peak_rss_mb", self_peak_rss_mb(), "MB")
        outcome.metric("cached_p50_ms", median(store.cached_ms), "ms")
        outcome.metric("fresh_p50_ms", median(store.fresh_ms), "ms")
        outcome.metric("extend_p50_ms", median(store.extend_ms), "ms")
        outcome.report.update(
            setup_samples_s=setup,
            sweep_samples_s=sweeps,
            digest=digest,
            cached_samples=len(store.cached_ms),
            cached_percentiles_ms=tail_percentiles(store.cached_ms),
            fresh_samples_ms=store.fresh_ms,
            extend_samples_ms=store.extend_ms,
        )
    probes.append(host_probe_ms())
    outcome.report["host_probe_ms"] = probes
    if trace:
        outcome.metric("host.probe_ms", median(probes), "ms")
    return outcome


#: Service-only layers: the sweep workloads never reach them.
NOT_ON_PATH = (
    ("http.server_ms", "ms"),
    ("http.client_overhead_ms", "ms"),
    ("jobs.queue_wait_ms", "ms"),
    ("jobs.run_ms", "ms"),
    ("service.server_cpu_ms_per_req", "ms"),
    ("service.rss_kb_per_req", "kB"),
)


def _traced(prepared: Prepared, outcome: Outcome) -> None:
    """Untraced and traced grids in turn, then a traced store-phase slice."""
    from repro.obs import REGISTRY, configure_tracing, set_enabled

    trace_path = Path(prepared.session.store.path).with_name("program-trace.jsonl")
    untraced: list[float] = []
    traced: list[float] = []
    grid_spans = LayerSpans()
    digest = None
    before = REGISTRY.snapshot()
    for _ in range(TRACED_GRIDS):
        started = time.perf_counter()
        digest = check_grid(outcome, run_grid(prepared), digest)
        untraced.append(time.perf_counter() - started)

        set_enabled(True)
        configure_tracing(trace_path)
        try:
            with grid_spans.patched(program_layer_targets()):
                started = time.perf_counter()
                with grid_spans.span("experiments"):
                    sweep = run_grid(prepared)
                traced.append(time.perf_counter() - started)
        finally:
            set_enabled(False)
            configure_tracing(None)
        digest = check_grid(outcome, sweep, digest)
    after = REGISTRY.snapshot()

    untraced_store = StoreSamples()
    _serve_cached(prepared, outcome, untraced_store, 3 * CACHED_PER_ROUND)
    store = StoreSamples()
    store_spans = LayerSpans()
    set_enabled(True)
    try:
        with store_spans.patched(program_layer_targets()):
            store_before = REGISTRY.snapshot()
            store_slice(prepared, outcome, store, CACHED_PER_ROUND, GRIDS_PER_ROUND)
            store_after = REGISTRY.snapshot()
    finally:
        set_enabled(False)
    load_ms = []
    for scenario in prepared.cached_cells * 10:
        started = time.perf_counter()
        prepared.session.store.load(scenario)
        load_ms.append((time.perf_counter() - started) * 1000.0)

    grids = len(traced)
    per_grid = {layer: value / grids for layer, value in grid_spans.self_time.items()}
    kernel_s = per_grid.get("engine", 0.0)

    def per_grid_count(family: str) -> float:
        return (counter_total(after, family) - counter_total(before, family)) / grids

    def mean_ms(family: str) -> float:
        total_after, count_after = histogram_sum_count(store_after, family)
        total_before, count_before = histogram_sum_count(store_before, family)
        count = count_after - count_before
        return (total_after - total_before) / count * 1000.0 if count else 0.0

    iterations = per_grid_count("repro_megabatch_kernel_iterations_total")
    outcome.metric("experiments.self_s", per_grid.get("experiments", 0.0), "s")
    outcome.metric("session.plan_s", per_grid.get("session", 0.0), "s")
    outcome.metric("client.cached_p99_ms", percentile(untraced_store.cached_ms, 99), "ms")
    outcome.metric("session.run_cached_ms", median(store.cached_ms), "ms")
    outcome.metric("session.resimulated_runs", sum(store.resimulated) / len(store.resimulated), "count")
    outcome.metric("store.probe_ms", mean_ms("repro_store_probe_seconds"), "ms")
    outcome.metric("store.append_ms", mean_ms("repro_store_append_seconds"), "ms")
    outcome.metric("store.load_ms", median(load_ms), "ms")
    outcome.metric("engine.kernel_s", kernel_s, "s")
    outcome.metric("engine.kernel_iterations", iterations, "count")
    outcome.metric("engine.us_per_iteration", kernel_s / iterations * 1e6 if iterations else 0.0, "us")
    outcome.metric("engine.slots", per_grid_count("repro_engine_slots_total"), "count")
    outcome.metric("engine.rows", per_grid_count("repro_megabatch_rows_total"), "count")
    for name, unit in NOT_ON_PATH:
        outcome.metric(name, 0.0, unit)
    outcome.metric("obs.overhead_pct", (median(traced) - median(untraced)) / median(untraced) * 100.0, "%")
    outcome.report.update(
        untraced_sweep_s=untraced,
        traced_sweep_s=traced,
        layer_self_s_per_grid=per_grid,
        accounted_pct_of_untraced_sweep=sum(per_grid.values()) / median(untraced) * 100.0,
        store_phase_layer_self_s=dict(store_spans.self_time),
    )
