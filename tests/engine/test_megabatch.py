"""Fusion tests for the cross-cell batched engines.

Three contracts are pinned here:

* **Distributional parity** — fused groups of fair cells sample the same
  makespan process as the per-run :class:`FairEngine` (same mean and
  quantiles within sampling tolerance, same solved rate at a binding cap),
  for both Log-fails Adaptive variants of the paper's suite, which fuse into
  one kernel.  (Exact outcomes of the default path are pinned by
  ``test_golden_digest.py``.)
* **Composition independence** — a cell's fused results are bit-identical no
  matter which group it is fused into (alone, with any siblings, across
  parameter variants), which is what makes resumed sweeps that re-fuse only
  the missing cells reproduce fresh ones exactly.
* **Routing** — the Session/sweep layer sends every batch-eligible cell to
  its batched engine (slotted ALOHA takes the geometric-skipping path
  inside it) and scatter-backs fused results into the store under the
  per-cell hashes.
"""

from __future__ import annotations

import math
from typing import ClassVar

import numpy as np
import pytest

from repro.channel.arrivals import PoissonArrival
from repro.channel.trace import ExecutionTrace
from repro.core.exp_backon_backoff import ExpBackonBackoff
from repro.core.one_fail_adaptive import OneFailAdaptive
from repro.engine.dispatch import simulate_megabatch
from repro.engine.fair_engine import FairEngine
from repro.engine.megabatch import FusedCell, MegaFairEngine, MegaWindowEngine
from repro.engine.registry import batch_engine_for
from repro.experiments.config import ExperimentConfig, ProtocolSpec
from repro.experiments.runner import run_sweep
from repro.protocols.aloha import SlottedAloha
from repro.protocols.base import FairProtocol, build_protocol
from repro.protocols.splitting import BinarySplitting
from repro.scenarios import Scenario, Session
from repro.util.rng import derive_seeds

#: Both Log-fails Adaptive variants of the paper's suite: distinct
#: parameterisations that share one fuse key, so their parity is checked
#: with the two fused into one kernel.
LFA_VARIANTS = ["log-fails-adaptive(xi_t=0.5)", "log-fails-adaptive(xi_t=0.1)"]

#: Every windowed protocol with a fusable (feedback-oblivious) schedule.
FUSED_WINDOW_SPECS = [
    "exp-backon-backoff",
    "exponential-backoff",
    "log-backoff",
    "loglog-iterated-backoff",
    "polynomial-backoff",
]

RUNS = 300


def _fused_cell(spec: str, k: int, seeds, max_slots: int | None = None) -> FusedCell:
    return FusedCell(
        protocol=build_protocol(spec, k=k),
        k=k,
        seeds=tuple(seeds),
        max_slots=max_slots if max_slots is not None else 10_000 * k,
    )


@pytest.fixture(scope="module")
def fused_lfa_makespans() -> dict[str, np.ndarray]:
    """Both LFA variants at k=150, fused into one kernel group."""
    k = 150
    cells = [
        _fused_cell(spec, k, derive_seeds(1 + index, RUNS)) for index, spec in enumerate(LFA_VARIANTS)
    ]
    fused = MegaFairEngine().simulate_fused(cells)
    makespans = {}
    for spec, results in zip(LFA_VARIANTS, fused):
        assert all(result.solved for result in results)
        makespans[spec] = np.asarray([result.makespan for result in results])
    return makespans


def _serial_makespans(spec: str, k: int, runs: int = RUNS, root_seed: int = 7) -> np.ndarray:
    engine = FairEngine()
    return np.asarray(
        [
            engine.simulate(build_protocol(spec, k=k), k, seed=seed).makespan
            for seed in derive_seeds(root_seed, runs)
        ]
    )


class TestFusedFairDistributionalParity:
    """A fused group's samples must follow the per-run fair engine's law."""

    @pytest.mark.parametrize("spec", LFA_VARIANTS)
    def test_makespan_mean_and_quantiles_match_fair_engine(self, spec, fused_lfa_makespans):
        """Two-sample z-test on the means (4 sigma), quartiles within 10%."""
        fused = fused_lfa_makespans[spec]
        serial = _serial_makespans(spec, 150)
        pooled = math.sqrt(fused.var(ddof=1) / fused.size + serial.var(ddof=1) / serial.size)
        z_score = abs(fused.mean() - serial.mean()) / pooled
        assert z_score < 4.0, (
            f"fused mean {fused.mean():.1f} vs serial mean {serial.mean():.1f} (z={z_score:.2f})"
        )
        for quantile in (0.25, 0.5, 0.75):
            fused_q = np.quantile(fused, quantile)
            serial_q = np.quantile(serial, quantile)
            assert fused_q == pytest.approx(serial_q, rel=0.10), (
                f"q{quantile}: fused {fused_q} vs serial {serial_q}"
            )


class TestWindowGroups:
    def test_distinct_schedules_rejected(self):
        cells = [
            _fused_cell("exp-backon-backoff", 20, [1, 2]),
            _fused_cell("exponential-backoff", 20, [3, 4]),
        ]
        with pytest.raises(ValueError, match="one window schedule"):
            MegaWindowEngine().simulate_fused(cells)

    @pytest.mark.parametrize("spec", FUSED_WINDOW_SPECS)
    def test_every_windowed_protocol_fuses_across_k(self, spec):
        cells = [
            _fused_cell(spec, 40, derive_seeds(3, 4)),
            _fused_cell(spec, 90, derive_seeds(4, 4)),
        ]
        fused = MegaWindowEngine().simulate_fused(cells)
        for cell, cell_results in zip(cells, fused):
            alone = MegaWindowEngine().simulate_batch(
                cell.protocol, cell.k, list(cell.seeds), max_slots=cell.max_slots
            )
            assert cell_results == alone
            assert all(result.solved and result.successes == cell.k for result in alone)


class TestCompositionIndependence:
    """A cell's fused results never depend on its siblings."""

    def test_fair_cell_alone_vs_grouped(self):
        alone = MegaFairEngine().simulate_fused([_fused_cell("one-fail-adaptive", 60, derive_seeds(5, 3))])
        grouped = MegaFairEngine().simulate_fused(
            [
                _fused_cell("one-fail-adaptive", 200, derive_seeds(9, 3)),
                _fused_cell("one-fail-adaptive", 60, derive_seeds(5, 3)),
                _fused_cell("one-fail-adaptive", 15, derive_seeds(7, 2)),
            ]
        )
        assert grouped[1] == alone[0]

    def test_lfa_variants_fuse_into_one_kernel_without_interference(self):
        xt2 = _fused_cell("log-fails-adaptive(xi_t=0.5)", 50, derive_seeds(1, 3))
        xt10 = _fused_cell("log-fails-adaptive(xi_t=0.1)", 50, derive_seeds(2, 3))
        alone = MegaFairEngine().simulate_fused([xt2])
        mixed = MegaFairEngine().simulate_fused([xt10, xt2])
        assert mixed[1] == alone[0]

    def test_independence_across_chunk_boundaries(self):
        """Cells whose makespans straddle the pre-draw chunk size still match."""
        # k=400 OFA runs for thousands of slots — several refill boundaries.
        cell = _fused_cell("one-fail-adaptive", 400, derive_seeds(6, 2))
        sibling = _fused_cell("one-fail-adaptive", 10, derive_seeds(8, 2))
        alone = MegaFairEngine().simulate_fused([cell])
        grouped = MegaFairEngine().simulate_fused([cell, sibling])
        assert grouped[0] == alone[0]

    def test_aloha_cell_alone_vs_grouped(self):
        """The per-cell silence-skipping path draws only from its own stream."""
        cell = _fused_cell("slotted-aloha", 60, derive_seeds(5, 3))
        alone = MegaFairEngine().simulate_fused([cell])
        grouped = MegaFairEngine().simulate_fused(
            [_fused_cell("slotted-aloha", 25, derive_seeds(6, 2)), cell]
        )
        assert grouped[1] == alone[0]

    def test_windowed_cell_alone_vs_grouped(self):
        cell = _fused_cell("exp-backon-backoff", 70, derive_seeds(5, 3))
        alone = MegaWindowEngine().simulate_fused([cell])
        grouped = MegaWindowEngine().simulate_fused(
            [_fused_cell("exp-backon-backoff", 25, derive_seeds(6, 2)), cell]
        )
        assert grouped[1] == alone[0]


class TestMegaResultStructure:
    def test_solved_run_invariants(self):
        cells = [
            _fused_cell("one-fail-adaptive", 30, derive_seeds(3, 5)),
            _fused_cell("one-fail-adaptive", 80, derive_seeds(4, 2)),
        ]
        fused = MegaFairEngine().simulate_fused(cells)
        for cell, cell_results in zip(cells, fused):
            assert [result.seed for result in cell_results] == list(cell.seeds)
            for result in cell_results:
                assert result.solved
                assert result.engine == "mega"
                assert result.k == cell.k
                assert result.successes == cell.k
                assert result.slots_simulated == result.makespan
                assert (
                    result.successes + result.collisions + result.silences
                    == result.slots_simulated
                )
                assert result.metadata == {"batch_reps": len(cell.seeds)}

    def test_deterministic_given_seeds(self):
        cells = [_fused_cell("one-fail-adaptive", 40, derive_seeds(5, 4))]
        assert MegaFairEngine().simulate_fused(cells) == MegaFairEngine().simulate_fused(cells)

    def test_unsolved_at_cap_counts_every_slot(self):
        cell = _fused_cell("one-fail-adaptive", 100, derive_seeds(4, 6), max_slots=20)
        (results,) = MegaFairEngine().simulate_fused([cell])
        for result in results:
            assert not result.solved
            assert result.makespan is None
            assert result.slots_simulated == 20

    def test_per_cell_caps_bind_independently(self):
        """A capped cell retires while its uncapped sibling keeps stepping."""
        capped = _fused_cell("one-fail-adaptive", 100, derive_seeds(4, 3), max_slots=20)
        free = _fused_cell("one-fail-adaptive", 30, derive_seeds(5, 3))
        fused = MegaFairEngine().simulate_fused([capped, free])
        assert all(not result.solved and result.slots_simulated == 20 for result in fused[0])
        assert all(result.solved for result in fused[1])

    def test_prototype_not_mutated(self):
        prototype = OneFailAdaptive()
        MegaFairEngine().simulate_fused([FusedCell(prototype, 50, tuple(derive_seeds(0, 4)), 500_000)])
        assert prototype.messages_received == 0

    def test_simulate_batch_is_a_group_of_one(self):
        seeds = derive_seeds(7, 4)
        via_batch = MegaFairEngine().simulate_batch(OneFailAdaptive(), 40, seeds)
        (via_fused,) = MegaFairEngine().simulate_fused(
            [FusedCell(OneFailAdaptive(), 40, tuple(seeds), 400_000)]
        )
        assert via_batch == via_fused

    def test_single_run_via_simulate(self):
        result = MegaFairEngine().simulate(OneFailAdaptive(), 20, seed=3)
        assert result.solved and result.engine == "mega"

    def test_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            MegaFairEngine().simulate(OneFailAdaptive(), 20, seed=0, trace=ExecutionTrace())
        with pytest.raises(ValueError, match="trace"):
            MegaWindowEngine().simulate(ExpBackonBackoff(), 20, seed=0, trace=ExecutionTrace())


class TestEligibilityAndFuseKeys:
    def test_supports_matrix(self):
        assert MegaFairEngine.supports(OneFailAdaptive())
        assert MegaFairEngine.supports(build_protocol("log-fails-adaptive(xi_t=0.5)", k=16))
        # Slotted ALOHA runs on the engine's geometric silence-skipping path.
        assert MegaFairEngine.supports(SlottedAloha(k=16))
        assert not MegaFairEngine.supports(ExpBackonBackoff())
        for spec in FUSED_WINDOW_SPECS:
            assert MegaWindowEngine.supports(build_protocol(spec, k=16))
        assert not MegaWindowEngine.supports(OneFailAdaptive())

    def test_fair_fuse_key_is_the_protocol_class(self):
        xt2 = build_protocol("log-fails-adaptive(xi_t=0.5)", k=16)
        xt10 = build_protocol("log-fails-adaptive(xi_t=0.1)", k=16)
        assert MegaFairEngine.fuse_key(xt2) == MegaFairEngine.fuse_key(xt10)
        assert MegaFairEngine.fuse_key(xt2) != MegaFairEngine.fuse_key(OneFailAdaptive())

    def test_window_fuse_key_separates_schedules(self):
        assert MegaWindowEngine.fuse_key(ExpBackonBackoff()) == MegaWindowEngine.fuse_key(
            ExpBackonBackoff()
        )
        assert MegaWindowEngine.fuse_key(ExpBackonBackoff()) != MegaWindowEngine.fuse_key(
            build_protocol("exponential-backoff", k=16)
        )

    def test_mixed_fair_classes_rejected(self):
        cells = [
            _fused_cell("one-fail-adaptive", 20, [1, 2]),
            _fused_cell("log-fails-adaptive(xi_t=0.5)", 20, [3, 4]),
        ]
        with pytest.raises(ValueError, match="one protocol class"):
            MegaFairEngine().simulate_fused(cells)

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="at least one cell"):
            MegaFairEngine().simulate_fused([])
        with pytest.raises(ValueError, match="at least one seed"):
            _fused_cell("one-fail-adaptive", 20, [])

    def test_ineligible_protocol_rejected(self):
        class PlainFair(FairProtocol):
            name: ClassVar[str] = "test-mega-plain-fair"

            def reset(self):
                pass

            def transmission_probability(self, slot):
                return 0.5

            def notify(self, observation):
                pass

        cell = FusedCell(PlainFair(), 20, (1, 2), 200)
        with pytest.raises(ValueError, match="fused kernel"):
            MegaFairEngine().simulate_fused([cell])

    def test_batch_engine_for_routing(self):
        assert batch_engine_for(OneFailAdaptive()) == "mega"
        assert batch_engine_for(ExpBackonBackoff()) == "mega-window"
        assert batch_engine_for(SlottedAloha(k=16)) == "mega"
        assert batch_engine_for(OneFailAdaptive(), engine="mega") == "mega"
        assert batch_engine_for(OneFailAdaptive(), engine="mega-window") is None
        assert batch_engine_for(OneFailAdaptive(), engine="fair") is None
        assert (
            batch_engine_for(OneFailAdaptive(), arrivals=PoissonArrival(k=10, rate=0.5))
            is None
        )


class TestSimulateMegabatchFrontDoor:
    def test_front_door_auto_routes(self):
        cells = [
            _fused_cell("one-fail-adaptive", 30, derive_seeds(1, 2)),
            _fused_cell("one-fail-adaptive", 60, derive_seeds(2, 2)),
        ]
        results = simulate_megabatch(cells)
        assert len(results) == len(cells)
        assert all(result.engine == "mega" for group in results for result in group)

    def test_front_door_rejects_per_run_engine(self):
        cells = [_fused_cell("one-fail-adaptive", 30, derive_seeds(1, 2))]
        with pytest.raises(ValueError, match="not a batched engine"):
            simulate_megabatch(cells, engine="fair")

    def test_front_door_rejects_unbatchable_protocol(self):
        cell = FusedCell(BinarySplitting(), 30, tuple(derive_seeds(1, 2)), 3_000)
        with pytest.raises(ValueError, match="no batch engine"):
            simulate_megabatch([cell])


class TestMixedEligibilityGrid:
    def test_sweep_routes_each_family_to_its_best_engine(self):
        specs = [
            ProtocolSpec(key="ofa", label="OFA", spec="one-fail-adaptive"),
            ProtocolSpec(key="aloha", label="ALOHA", spec="slotted-aloha"),
            ProtocolSpec(key="ebb", label="EBB", spec="exp-backon-backoff"),
        ]
        config = ExperimentConfig(k_values=[20, 40], runs=2, seed=17)
        sweep = run_sweep(specs, config)
        for k in (20, 40):
            assert {result.engine for result in sweep.cell("ofa", k).results} == {"mega"}
            assert {result.engine for result in sweep.cell("aloha", k).results} == {"mega"}
            assert {result.engine for result in sweep.cell("ebb", k).results} == {"mega-window"}

    def test_no_batch_restores_per_run_engines(self):
        specs = [
            ProtocolSpec(key="ofa", label="OFA", spec="one-fail-adaptive"),
            ProtocolSpec(key="aloha", label="ALOHA", spec="slotted-aloha"),
        ]
        config = ExperimentConfig(k_values=[20], runs=2, seed=17, batch=False)
        sweep = run_sweep(specs, config)
        assert {result.engine for result in sweep.cell("ofa", 20).results} == {"fair"}
        assert {result.engine for result in sweep.cell("aloha", 20).results} == {"fair"}


class TestStoreScatterBackResumability:
    GRID = [
        "one-fail-adaptive k=20 reps=3 seed=5",
        "one-fail-adaptive k=45 reps=3 seed=5",
        "one-fail-adaptive k=70 reps=3 seed=5",
    ]

    def scenarios(self) -> list[Scenario]:
        return [Scenario.parse(text) for text in self.GRID]

    def test_fused_results_scatter_into_per_cell_store_records(self, tmp_path):
        stored = Session(store_dir=tmp_path).run_all(self.scenarios())
        assert all(rs.engine_used == "mega" for rs in stored)
        resumed = Session(store_dir=tmp_path).run_all(self.scenarios())
        for first, second in zip(stored, resumed):
            assert second.cached_runs == 3 and second.new_runs == 0
            assert first.makespans == second.makespans

    def test_interrupted_sweep_refuses_only_missing_cells(self, tmp_path):
        """A sweep killed mid-grid resumes bit-identically: cached cells are
        served from the store and only the missing ones enter the new fused
        group — composition independence makes the two executions equal."""
        full = self.scenarios()
        Session(store_dir=tmp_path).run_all(full[:1])  # the "killed" partial sweep
        resumed = Session(store_dir=tmp_path).run_all(full)
        assert resumed[0].cached_runs == 3 and resumed[0].new_runs == 0
        assert all(rs.cached_runs == 0 and rs.new_runs == 3 for rs in resumed[1:])
        fresh = Session().run_all(full)
        for resumed_set, fresh_set in zip(resumed, fresh):
            assert resumed_set.makespans == fresh_set.makespans
            assert [r.seed for r in resumed_set.results] == [r.seed for r in fresh_set.results]
