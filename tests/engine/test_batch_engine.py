"""Distributional parity and eligibility tests for the fair batched engine.

The batched engine (:class:`MegaFairEngine`) cannot be bit-identical to the
per-run fair engine's stream (a cell's replications draw from one interleaved
generator), so — exactly like the fair/window engines are validated against
the node-level reference — it is validated *distributionally*: same makespan
mean and quantiles within sampling tolerance, same solved rate at a binding
slot cap.  Both of its kernels are covered: the lockstep pass (the adaptive
protocols) and the geometric silence-skipping path (slotted ALOHA).

The second half pins the sweep runner's eligibility contract: fair protocols
with a vectorised state batch, everything else (non-fair protocols, fair
protocols without a kernel, arrival processes, explicit per-run engines)
silently takes the per-run path.
"""

from __future__ import annotations

import math
from typing import ClassVar

import numpy as np
import pytest

from repro.channel.arrivals import PoissonArrival
from repro.channel.model import ChannelModel, FeedbackModel
from repro.channel.trace import ExecutionTrace
from repro.core.exp_backon_backoff import ExpBackonBackoff
from repro.core.one_fail_adaptive import OneFailAdaptive
from repro.engine.dispatch import pick_engine, simulate, simulate_batch
from repro.engine.fair_engine import FairEngine
from repro.engine.megabatch import MegaFairEngine
from repro.engine.registry import batch_engine_for
from repro.experiments.config import ExperimentConfig, ProtocolSpec
from repro.experiments.runner import run_sweep
from repro.protocols import base as protocol_base
from repro.protocols.aloha import SlottedAloha
from repro.protocols.base import FairBatchState, FairProtocol
from repro.protocols.log_fails_adaptive import LogFailsAdaptive
from repro.util.rng import derive_seeds

#: Fair protocols with a vectorised batch state, each with a moderate k.
#: Slotted ALOHA exercises the geometric silence-skipping path (it declares
#: probability_constant_between_receptions); the adaptive protocols exercise
#: the slot-by-slot lockstep path.
BATCHABLE_CASES = [
    pytest.param(lambda k: OneFailAdaptive(), 150, id="ofa"),
    pytest.param(lambda k: SlottedAloha(k=k), 150, id="aloha"),
    pytest.param(lambda k: SlottedAloha(k=k, track_deliveries=False), 80, id="aloha-static"),
    pytest.param(lambda k: LogFailsAdaptive.for_k(k), 150, id="lfa"),
]

RUNS = 300


def _batch_makespans(factory, k: int, runs: int = RUNS, root_seed: int = 1) -> list[int]:
    seeds = derive_seeds(root_seed, runs)
    results = MegaFairEngine().simulate_batch(factory(k), k, seeds)
    assert all(result.solved for result in results)
    return [result.makespan for result in results]


def _serial_makespans(factory, k: int, runs: int = RUNS, root_seed: int = 2) -> list[int]:
    engine = FairEngine()
    return [engine.simulate(factory(k), k, seed=seed).makespan for seed in derive_seeds(root_seed, runs)]


class TestDistributionalParity:
    @pytest.mark.parametrize("factory,k", BATCHABLE_CASES)
    def test_makespan_mean_matches_fair_engine(self, factory, k):
        """Two-sample z-test on the means, 4-sigma threshold (as in validation.py)."""
        batch = np.asarray(_batch_makespans(factory, k))
        serial = np.asarray(_serial_makespans(factory, k))
        pooled = math.sqrt(batch.var(ddof=1) / batch.size + serial.var(ddof=1) / serial.size)
        z_score = abs(batch.mean() - serial.mean()) / pooled
        assert z_score < 4.0, (
            f"batch mean {batch.mean():.1f} vs serial mean {serial.mean():.1f} (z={z_score:.2f})"
        )

    @pytest.mark.parametrize("factory,k", BATCHABLE_CASES)
    def test_makespan_quantiles_match_fair_engine(self, factory, k):
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
            pytest.param(lambda k: OneFailAdaptive(), 64, 400, id="ofa-mid"),
            pytest.param(lambda k: SlottedAloha(k=k), 64, 170, id="aloha-mid"),
        ],
    )
    def test_solved_rate_at_slot_cap_matches_fair_engine(self, factory, k, cap):
        """With a binding cap both engines must censor the same fraction of runs."""
        runs = 400
        batch = MegaFairEngine().simulate_batch(
            factory(k), k, derive_seeds(11, runs), max_slots=cap
        )
        engine = FairEngine()
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
        for result in batch:
            if not result.solved:
                assert result.slots_simulated == cap


class TestBatchResultStructure:
    @pytest.mark.parametrize("factory,k", BATCHABLE_CASES)
    def test_solved_run_invariants(self, factory, k):
        results = MegaFairEngine().simulate_batch(factory(k), k, derive_seeds(3, 50))
        for result in results:
            assert result.solved
            assert result.engine == "mega"
            assert result.successes == k
            assert result.slots_simulated == result.makespan
            assert (
                result.successes + result.collisions + result.silences
                == result.slots_simulated
            )
            assert result.metadata["batch_reps"] == 50

    def test_results_in_seed_order(self):
        seeds = derive_seeds(9, 20)
        results = MegaFairEngine().simulate_batch(OneFailAdaptive(), 30, seeds)
        assert [result.seed for result in results] == seeds

    def test_deterministic_given_seeds(self):
        seeds = derive_seeds(5, 25)
        first = MegaFairEngine().simulate_batch(OneFailAdaptive(), 40, seeds)
        second = MegaFairEngine().simulate_batch(OneFailAdaptive(), 40, seeds)
        assert first == second

    def test_unsolved_at_cap_counts_every_slot(self):
        cap = 20
        results = MegaFairEngine().simulate_batch(
            OneFailAdaptive(), 100, derive_seeds(4, 30), max_slots=cap
        )
        for result in results:
            assert not result.solved
            assert result.makespan is None
            assert result.slots_simulated == cap
            assert (
                result.successes + result.collisions + result.silences == cap
            )

    def test_prototype_not_mutated(self):
        prototype = OneFailAdaptive()
        MegaFairEngine().simulate_batch(prototype, 50, derive_seeds(0, 10))
        assert prototype.messages_received == 0

    def test_single_seed_batch_via_simulate(self):
        result = MegaFairEngine().simulate(SlottedAloha(k=1), 1, seed=0)
        assert result.solved
        assert result.makespan == 1
        assert result.engine == "mega"

    def test_silence_skipping_stuck_protocol_burns_to_cap(self):
        """p = 0 under the skip flag must censor at the cap, not loop forever."""

        class _SilentState(FairBatchState):
            def __init__(self, reps):
                self.reps = reps

            def probabilities(self, slot):
                return np.zeros(self.reps)

            def observe_receptions(self, slot, received, received_any=None, received_rows=None):
                return None

            def compact(self, keep):
                self.reps = int(np.count_nonzero(keep))

        class NeverTransmit(FairProtocol):
            name: ClassVar[str] = "test-batch-never-transmit"
            probability_constant_between_receptions: ClassVar[bool] = True

            def reset(self):
                pass

            def transmission_probability(self, slot):
                return 0.0

            def notify(self, observation):
                pass

            @classmethod
            def make_fused_batch_state(cls, protocols, counts):
                return _SilentState(sum(counts))

        results = MegaFairEngine().simulate_batch(
            NeverTransmit(), 5, [1, 2, 3], max_slots=40
        )
        for result in results:
            assert not result.solved
            assert result.slots_simulated == 40
            assert result.silences == 40


class TestEngineChecks:
    def test_rejects_non_fair_protocol(self):
        with pytest.raises(TypeError):
            MegaFairEngine().simulate_batch(ExpBackonBackoff(), 10, [0, 1])

    def test_rejects_fair_protocol_without_kernel(self):
        class PlainFair(FairProtocol):
            name: ClassVar[str] = "test-batch-plain-fair"

            def reset(self):
                pass

            def transmission_probability(self, slot):
                return 0.5

            def notify(self, observation):
                pass

        with pytest.raises(ValueError, match="fused kernel"):
            MegaFairEngine().simulate_batch(PlainFair(), 10, [0, 1])
        assert not MegaFairEngine.supports(PlainFair())

    def test_rejects_empty_seed_list(self):
        with pytest.raises(ValueError):
            MegaFairEngine().simulate_batch(OneFailAdaptive(), 10, [])

    def test_rejects_trace(self):
        with pytest.raises(ValueError, match="trace"):
            MegaFairEngine().simulate(OneFailAdaptive(), 10, seed=0, trace=ExecutionTrace())

    def test_requires_paper_channel(self):
        with pytest.raises(ValueError):
            MegaFairEngine(channel=ChannelModel(feedback=FeedbackModel.COLLISION_DETECTION))
        with pytest.raises(ValueError):
            MegaFairEngine(channel=ChannelModel(acknowledgements=False))

    def test_supports_covers_the_suite(self):
        assert MegaFairEngine.supports(OneFailAdaptive())
        assert MegaFairEngine.supports(SlottedAloha(k=10))
        assert MegaFairEngine.supports(LogFailsAdaptive.for_k(10))
        assert not MegaFairEngine.supports(ExpBackonBackoff())


class TestDispatch:
    def test_pick_engine_batched(self):
        assert isinstance(pick_engine(OneFailAdaptive(), engine="mega"), MegaFairEngine)

    def test_auto_still_prefers_fair_engine_for_single_runs(self):
        assert isinstance(pick_engine(OneFailAdaptive()), FairEngine)
        assert simulate(OneFailAdaptive(), k=30, seed=1).engine == "fair"

    def test_batch_engine_rejected_with_arrivals(self):
        with pytest.raises(ValueError):
            pick_engine(
                OneFailAdaptive(), engine="mega", arrivals=PoissonArrival(k=10, rate=0.5)
            )

    def test_simulate_front_door_with_batch_engine(self):
        result = simulate(OneFailAdaptive(), k=30, seed=1, engine="mega")
        assert result.solved
        assert result.engine == "mega"

    def test_simulate_batch_front_door(self):
        results = simulate_batch(OneFailAdaptive(), 30, [0, 1, 2])
        assert len(results) == 3
        assert all(result.engine == "mega" for result in results)

    def test_simulate_batch_routes_aloha_to_the_skipping_path(self):
        results = simulate_batch(SlottedAloha(k=30), 30, [0, 1, 2])
        assert all(result.engine == "mega" and result.solved for result in results)


def _sweep_config(**overrides) -> ExperimentConfig:
    defaults = dict(k_values=[40], runs=4, seed=17)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class _PlainFair(FairProtocol):
    """A fair protocol with no vectorised kernel (ALOHA without a batch state)."""

    name: ClassVar[str] = "test-sweep-plain-fair"

    def reset(self):
        self._remaining = 40

    def transmission_probability(self, slot):
        return 1.0 / max(self._remaining, 1)

    def notify(self, observation):
        if observation.received:
            self._remaining = max(self._remaining - 1, 1)


def _spec(key: str, spec: str) -> ProtocolSpec:
    return ProtocolSpec(key=key, label=key.upper(), spec=spec)


class TestSweepEligibility:
    def test_eligible_cell_batches_by_default(self):
        sweep = run_sweep([_spec("ofa", "one-fail-adaptive")], _sweep_config())
        cell = sweep.cell("ofa", 40)
        assert len(cell.results) == 4
        assert all(result.engine == "mega" for result in cell.results)
        assert len({result.seed for result in cell.results}) == 4

    def test_batch_false_replays_per_run_path(self):
        sweep = run_sweep([_spec("ofa", "one-fail-adaptive")], _sweep_config(), batch=False)
        assert all(result.engine == "fair" for result in sweep.cell("ofa", 40).results)

    def test_config_batch_false_is_the_default_knob(self):
        sweep = run_sweep([_spec("ofa", "one-fail-adaptive")], _sweep_config(batch=False))
        assert all(result.engine == "fair" for result in sweep.cell("ofa", 40).results)

    def test_non_fair_protocol_routes_to_its_own_batch_engine(self):
        # Windowed protocols are not "ineligible": the registry routes them
        # to the windowed batched engine instead of the fair one.
        spec = _spec("ebb", "exp-backon-backoff")
        sweep = run_sweep([spec], _sweep_config())
        assert all(result.engine == "mega-window" for result in sweep.cell("ebb", 40).results)
        sweep = run_sweep([spec], _sweep_config(batch=False))
        assert all(result.engine == "window" for result in sweep.cell("ebb", 40).results)

    def test_fair_protocol_without_kernel_falls_back(self, monkeypatch):
        monkeypatch.setitem(protocol_base._REGISTRY, _PlainFair.name, _PlainFair)
        assert batch_engine_for(_PlainFair()) is None
        sweep = run_sweep([_spec("plain", _PlainFair.name)], _sweep_config())
        assert all(result.engine == "fair" for result in sweep.cell("plain", 40).results)

    def test_arrival_processes_fall_back_to_slot_engine(self):
        sweep = run_sweep(
            [_spec("ofa", "one-fail-adaptive")],
            _sweep_config(k_values=[12], runs=2),
            arrivals="poisson(rate=0.2)",
        )
        assert all(result.engine == "slot" for result in sweep.cell("ofa", 12).results)

    def test_explicit_per_run_engine_disables_batching(self):
        sweep = run_sweep([_spec("ofa", "one-fail-adaptive")], _sweep_config(), engine="fair")
        assert all(result.engine == "fair" for result in sweep.cell("ofa", 40).results)

    def test_factory_only_spec_rejected(self):
        spec = ProtocolSpec(key="ofa", label="OFA", factory=lambda k: OneFailAdaptive())
        with pytest.raises(ValueError, match="no spec string"):
            run_sweep([spec], _sweep_config())

    def test_batched_sweep_deterministic_across_workers(self):
        config = _sweep_config(k_values=[20, 40], runs=3)
        serial = run_sweep([_spec("ofa", "one-fail-adaptive")], config, workers=1)
        pooled = run_sweep([_spec("ofa", "one-fail-adaptive")], config, workers=3)
        for key in serial.cells:
            assert serial.cells[key].results == pooled.cells[key].results

    def test_progress_still_counts_per_run(self):
        calls = []
        run_sweep(
            [_spec("ofa", "one-fail-adaptive")],
            _sweep_config(runs=3),
            progress=lambda s, k, done, total: calls.append((s.key, k, done, total)),
        )
        assert calls == [("ofa", 40, 1, 3), ("ofa", 40, 2, 3), ("ofa", 40, 3, 3)]

    def test_mixed_suite_routes_per_protocol(self):
        specs = [_spec("ofa", "one-fail-adaptive"), _spec("ebb", "exp-backon-backoff")]
        sweep = run_sweep(specs, _sweep_config())
        assert all(result.engine == "mega" for result in sweep.cell("ofa", 40).results)
        assert all(result.engine == "mega-window" for result in sweep.cell("ebb", 40).results)
