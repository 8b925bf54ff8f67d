"""Distributional parity and eligibility tests for the windowed batched engine.

The windowed batched engine (:class:`MegaWindowEngine`) cannot be
bit-identical to the per-run window engine's stream (a cell's replications
draw from one interleaved generator), so — exactly like the fair batched
engine is validated against the per-run fair engine — it is validated
*distributionally*: same makespan mean and quantiles within sampling
tolerance, same solved rate at a binding slot cap.  These tests gate the hot
path for Exp Back-on/Back-off and every member of the monotone back-off
family.

The second half pins the eligibility contract through the registry: windowed
protocols with a shared schedule batch, windowed protocols without one (and
everything the windowed kind excludes) silently take the per-run path.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from typing import ClassVar

import numpy as np
import pytest

from repro.channel.model import ChannelModel, FeedbackModel
from repro.channel.trace import ExecutionTrace
from repro.core.exp_backon_backoff import ExpBackonBackoff
from repro.core.one_fail_adaptive import OneFailAdaptive
from repro.engine.dispatch import pick_engine, simulate, simulate_batch
from repro.engine.megabatch import MegaWindowEngine
from repro.engine.window_engine import WindowEngine
from repro.experiments.config import ExperimentConfig, ProtocolSpec
from repro.experiments.runner import run_sweep
from repro.protocols.backoff import (
    ExponentialBackoff,
    LogBackoff,
    LogLogIteratedBackoff,
    PolynomialBackoff,
)
from repro.protocols.base import WindowedProtocol
from repro.scenarios.scenario import Scenario
from repro.scenarios.session import Session
from repro.util.rng import derive_seeds

#: Every windowed protocol with a shared schedule, each with a moderate k:
#: Algorithm 2 exercises the sawtooth schedule (saturated descents + wide
#: delivery windows), the monotone family the ever-growing schedules.
BATCHABLE_CASES = [
    pytest.param(lambda k: ExpBackonBackoff(), 150, id="ebb"),
    pytest.param(lambda k: ExponentialBackoff(), 150, id="exp"),
    pytest.param(lambda k: PolynomialBackoff(), 120, id="poly"),
    pytest.param(lambda k: LogBackoff(), 120, id="log"),
    pytest.param(lambda k: LogLogIteratedBackoff(), 150, id="loglog"),
]

RUNS = 300


def _batch_makespans(factory, k: int, runs: int = RUNS, root_seed: int = 1) -> list[int]:
    seeds = derive_seeds(root_seed, runs)
    results = MegaWindowEngine().simulate_batch(factory(k), k, seeds)
    assert all(result.solved for result in results)
    return [result.makespan for result in results]


def _serial_makespans(factory, k: int, runs: int = RUNS, root_seed: int = 2) -> list[int]:
    engine = WindowEngine()
    return [
        engine.simulate(factory(k), k, seed=seed).makespan for seed in derive_seeds(root_seed, runs)
    ]


class TestDistributionalParity:
    @pytest.mark.parametrize("factory,k", BATCHABLE_CASES)
    def test_makespan_mean_matches_window_engine(self, factory, k):
        """Two-sample z-test on the means, 4-sigma threshold (as in validation.py)."""
        batch = np.asarray(_batch_makespans(factory, k))
        serial = np.asarray(_serial_makespans(factory, k))
        pooled = math.sqrt(batch.var(ddof=1) / batch.size + serial.var(ddof=1) / serial.size)
        z_score = abs(batch.mean() - serial.mean()) / pooled
        assert z_score < 4.0, (
            f"batch mean {batch.mean():.1f} vs serial mean {serial.mean():.1f} (z={z_score:.2f})"
        )

    @pytest.mark.parametrize("factory,k", BATCHABLE_CASES)
    def test_makespan_quantiles_match_window_engine(self, factory, k):
        batch = np.asarray(_batch_makespans(factory, k))
        serial = np.asarray(_serial_makespans(factory, k))
        for quantile in (0.25, 0.5, 0.75):
            batch_q = np.quantile(batch, quantile)
            serial_q = np.quantile(serial, quantile)
            assert batch_q == pytest.approx(serial_q, rel=0.10), (
                f"q{quantile}: batch {batch_q} vs serial {serial_q}"
            )

    @pytest.mark.parametrize(
        "factory,k,cap",
        [
            pytest.param(lambda k: ExpBackonBackoff(), 64, 321, id="ebb-mid"),
            pytest.param(lambda k: LogLogIteratedBackoff(), 64, 352, id="loglog-mid"),
        ],
    )
    def test_solved_rate_at_slot_cap_matches_window_engine(self, factory, k, cap):
        """With a binding cap both engines must censor the same fraction of runs."""
        runs = 400
        batch = MegaWindowEngine().simulate_batch(
            factory(k), k, derive_seeds(11, runs), max_slots=cap
        )
        engine = WindowEngine()
        serial = [
            engine.simulate(factory(k), k, seed=seed, max_slots=cap)
            for seed in derive_seeds(12, runs)
        ]
        batch_rate = sum(result.solved for result in batch) / runs
        serial_rate = sum(result.solved for result in serial) / runs
        pooled = (batch_rate + serial_rate) / 2
        sigma = math.sqrt(max(pooled * (1 - pooled), 1e-12) * 2 / runs)
        assert 0.0 < pooled < 1.0, "cap must bind for some runs and not others"
        assert abs(batch_rate - serial_rate) < 4.0 * sigma + 1e-9, (
            f"solved rate batch {batch_rate:.3f} vs serial {serial_rate:.3f}"
        )
        # Unsolved runs stop at a window boundary at or past the cap — the
        # same boundary semantics as the per-run window engine, whose
        # schedule is deterministic and shared.
        for result in batch:
            if not result.solved:
                assert result.slots_simulated >= cap
                assert result.makespan is None


class TestBatchResultStructure:
    @pytest.mark.parametrize("factory,k", BATCHABLE_CASES)
    def test_solved_run_invariants(self, factory, k):
        results = MegaWindowEngine().simulate_batch(factory(k), k, derive_seeds(3, 50))
        for result in results:
            assert result.solved
            assert result.engine == "mega-window"
            assert result.successes == k
            assert result.slots_simulated == result.makespan
            assert (
                result.successes + result.collisions + result.silences
                == result.slots_simulated
            )
            assert result.metadata["batch_reps"] == 50
            assert result.metadata["windows"] >= 1

    def test_results_in_seed_order(self):
        seeds = derive_seeds(9, 20)
        results = MegaWindowEngine().simulate_batch(ExpBackonBackoff(), 30, seeds)
        assert [result.seed for result in results] == seeds

    def test_deterministic_for_fixed_seed_tuple(self):
        seeds = derive_seeds(5, 25)
        first = MegaWindowEngine().simulate_batch(ExpBackonBackoff(), 40, seeds)
        second = MegaWindowEngine().simulate_batch(ExpBackonBackoff(), 40, seeds)
        assert first == second

    def test_single_run_simulate_api(self):
        result = MegaWindowEngine().simulate(ExpBackonBackoff(), 30, seed=4)
        assert result.solved
        assert result.engine == "mega-window"
        assert result.metadata["batch_reps"] == 1

    def test_chunked_wide_windows_preserve_invariants(self, monkeypatch):
        """Row-chunked occupancy (bounded memory) keeps every invariant.

        Forcing a tiny chunk cap makes every wide window take the multi-chunk
        path; the results must stay structurally sound, deterministic, and
        distributionally in line with the unchunked engine.
        """
        import repro.engine.megabatch as module

        seeds = derive_seeds(21, 40)
        monkeypatch.setattr(module, "_MAX_WINDOW_CELLS", 64)
        chunked = MegaWindowEngine().simulate_batch(ExpBackonBackoff(), 100, seeds)
        again = MegaWindowEngine().simulate_batch(ExpBackonBackoff(), 100, seeds)
        assert chunked == again  # chunk boundaries are deterministic
        for result in chunked:
            assert result.solved
            assert result.successes == 100
            assert result.slots_simulated == result.makespan
            assert (
                result.successes + result.collisions + result.silences
                == result.slots_simulated
            )
        monkeypatch.undo()
        unchunked = MegaWindowEngine().simulate_batch(ExpBackonBackoff(), 100, derive_seeds(22, 40))
        chunked_mean = np.mean([result.makespan for result in chunked])
        unchunked_mean = np.mean([result.makespan for result in unchunked])
        assert chunked_mean == pytest.approx(unchunked_mean, rel=0.15)

    def test_unsolved_runs_count_every_slot(self):
        results = MegaWindowEngine().simulate_batch(
            ExpBackonBackoff(), 1_000, derive_seeds(7, 10), max_slots=50
        )
        for result in results:
            assert not result.solved
            assert result.successes + result.collisions + result.silences == (
                result.slots_simulated
            )


class TestEngineChecks:
    def test_rejects_non_windowed_protocol(self):
        with pytest.raises(TypeError):
            MegaWindowEngine().simulate_batch(OneFailAdaptive(), 10, [0, 1])

    def test_rejects_windowed_protocol_without_schedule_state(self):
        class FeedbackWindowed(WindowedProtocol):
            name: ClassVar[str] = "test-batch-window-feedback"

            def window_lengths(self) -> Iterator[int]:
                while True:
                    yield 4

        with pytest.raises(ValueError, match="window schedule"):
            MegaWindowEngine().simulate_batch(FeedbackWindowed(), 10, [0, 1])
        assert not MegaWindowEngine.supports(FeedbackWindowed())

    def test_rejects_empty_seed_list(self):
        with pytest.raises(ValueError):
            MegaWindowEngine().simulate_batch(ExpBackonBackoff(), 10, [])

    def test_rejects_trace(self):
        with pytest.raises(ValueError, match="trace"):
            MegaWindowEngine().simulate(ExpBackonBackoff(), 10, seed=0, trace=ExecutionTrace())

    def test_requires_paper_channel(self):
        with pytest.raises(ValueError):
            MegaWindowEngine(channel=ChannelModel(feedback=FeedbackModel.COLLISION_DETECTION))
        with pytest.raises(ValueError):
            MegaWindowEngine(channel=ChannelModel(acknowledgements=False))

    def test_supports_covers_the_windowed_suite(self):
        assert MegaWindowEngine.supports(ExpBackonBackoff())
        assert MegaWindowEngine.supports(ExponentialBackoff())
        assert MegaWindowEngine.supports(PolynomialBackoff())
        assert MegaWindowEngine.supports(LogBackoff())
        assert MegaWindowEngine.supports(LogLogIteratedBackoff())
        assert not MegaWindowEngine.supports(OneFailAdaptive())


class TestDispatch:
    def test_pick_engine_batch_window(self):
        assert isinstance(pick_engine(ExpBackonBackoff(), engine="mega-window"), MegaWindowEngine)

    def test_auto_still_prefers_window_engine_for_single_runs(self):
        assert isinstance(pick_engine(ExpBackonBackoff()), WindowEngine)
        assert simulate(ExpBackonBackoff(), k=30, seed=1).engine == "window"

    def test_simulate_front_door_with_batch_window_engine(self):
        result = simulate(ExpBackonBackoff(), k=30, seed=1, engine="mega-window")
        assert result.solved
        assert result.engine == "mega-window"

    def test_simulate_batch_front_door_routes_windowed_protocols(self):
        results = simulate_batch(ExpBackonBackoff(), 30, [0, 1, 2])
        assert len(results) == 3
        assert all(result.engine == "mega-window" for result in results)

    def test_fair_engine_selector_rejected_for_windowed_protocol(self):
        with pytest.raises(ValueError, match="protocol kinds"):
            pick_engine(ExpBackonBackoff(), engine="mega")

    def test_simulate_batch_diagnoses_selector_problems(self):
        # A per-run selector is a selector problem, not a kernel problem.
        with pytest.raises(ValueError, match="not a batched engine"):
            simulate_batch(ExpBackonBackoff(), 10, [0, 1], engine="window")
        # A typo gets the registry's enumerating unknown-engine error.
        with pytest.raises(ValueError, match="unknown engine"):
            simulate_batch(ExpBackonBackoff(), 10, [0, 1], engine="bacth")


class TestSweepAndSessionRouting:
    def test_sweep_batches_windowed_cells(self):
        spec = ProtocolSpec(key="ebb", label="EBB", spec="exp-backon-backoff")
        config = ExperimentConfig(k_values=[40], runs=4, seed=17)
        sweep = run_sweep([spec], config)
        assert all(result.engine == "mega-window" for result in sweep.cell("ebb", 40).results)

    def test_sweep_batch_false_replays_per_run_streams(self):
        spec = ProtocolSpec(key="ebb", label="EBB", spec="exp-backon-backoff")
        config = ExperimentConfig(k_values=[40], runs=4, seed=17, batch=False)
        sweep = run_sweep([spec], config)
        assert all(result.engine == "window" for result in sweep.cell("ebb", 40).results)

    def test_session_explicit_batched_engine(self):
        scenario = Scenario(protocol="exp-backon-backoff", k=50, replications=3, seed=5,
                            engine="mega-window")
        # An explicitly selected batched engine batches even in a
        # batch=False session (same contract as engine="mega" for fair cells).
        result_set = Session(batch=False).run(scenario)
        assert result_set.engine_used == "mega-window"
        assert result_set.results[0].metadata["batch_reps"] == 3

    def test_session_cached_batched_cells_reused(self, tmp_path):
        scenario = Scenario(protocol="exp-backon-backoff", k=50, replications=4, seed=5)
        first = Session(store_dir=tmp_path).run(scenario)
        second = Session(store_dir=tmp_path).run(scenario)
        assert first.new_runs == 4 and first.cached_runs == 0
        assert second.new_runs == 0 and second.cached_runs == 4
        assert second.results == first.results

    def test_session_batch_store_not_served_to_per_run_session(self, tmp_path):
        scenario = Scenario(protocol="exp-backon-backoff", k=50, replications=4, seed=5)
        Session(store_dir=tmp_path).run(scenario)
        # Cached-run reuse is keyed by engine + batch_reps: a per-run session
        # must not mix batched samples into its result set.
        per_run = Session(store_dir=tmp_path, batch=False).run(scenario)
        assert per_run.engine_used == "window"
        assert per_run.new_runs == 4
