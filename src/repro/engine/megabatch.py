"""The batched engines: one fused kernel per sweep group, not per cell.

A Figure-1 sweep is a grid of (protocol, k) cells, each with R replications.
The engines here run **all same-kind cells of a sweep as one padded numpy
lockstep kernel**:

* rows of the batch are cell × replication, with a row → cell index map;
* protocol parameters, the network size ``k`` and the ``max_slots`` cap are
  *per-row* arrays (see
  :meth:`~repro.protocols.base.FairProtocol.make_fused_batch_state`), so one
  masked kernel pass per slot serves rows with different parameterisations;
* rows retire individually — a solved k=10 replication stops consuming work
  while its k=10⁶ siblings keep stepping — so the kernel's wall clock tracks
  the *global* maximum makespan of the group instead of the sum of per-cell
  maxima.

A single cell is simply a group of one (``simulate_batch``).  Fair protocols
declaring
:attr:`~repro.protocols.base.FairProtocol.probability_constant_between_receptions`
(slotted ALOHA) take a per-cell path instead of the lockstep pass: between
two receptions their slot outcomes are i.i.d., so every silent stretch is
sampled geometrically and only the non-silent slots are visited.

Randomness and resumability
---------------------------
Each cell consumes its **own** random stream, ``SeedSequence(cell.seeds)``.
The fair lockstep kernel pre-draws each cell's uniforms in fixed-size chunks
at absolute slot boundaries (:data:`_CHUNK`); a cell's draw count per chunk
depends only on its *own* live-row trajectory, so a cell's fused results are
**bit-identical no matter which group it is fused into** — alone, with any
siblings, or re-fused by a resumed sweep that only re-runs the missing
cells.  The silence-skipping path and the windowed kernel draw per cell in
cell order, so they are composition-independent as well.  Batched runs are
distributionally identical — not bit-identical — to the per-run engines'
(pinned by ``tests/engine/test_batch_engine.py``,
``tests/engine/test_batch_window_engine.py`` and
``tests/engine/test_megabatch.py``).

Fusion is planned by the scenario layer (:class:`~repro.scenarios.session.Session`
groups cells by the engines' ``fuse_key`` hook) and executed through
:func:`repro.engine.dispatch.simulate_megabatch`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.channel.model import ChannelModel
from repro.channel.trace import ExecutionTrace
from repro.engine.registry import EngineCapabilities, check_engine_channel, register_engine
from repro.engine.result import SimulationResult
from repro.obs import REGISTRY
from repro.protocols.base import FairBatchState, FairProtocol, Protocol, WindowedProtocol
from repro.util.validation import check_positive_int

__all__ = ["FusedCell", "MegaFairEngine", "MegaWindowEngine"]

# Megabatch profiling hooks (engine.megabatch.* family): rows fused per
# kernel launch, rows retired, and kernel loop iterations.  Incremented once
# per simulate_fused call, never per slot.
_M_ROWS = REGISTRY.counter(
    "repro_megabatch_rows_total",
    "Rows (cell × replication) entering fused mega-batch kernels, by engine.",
    ("engine",),
)
_M_RETIRED = REGISTRY.counter(
    "repro_megabatch_rows_retired_total",
    "Rows retired from fused mega-batch kernels, by engine.",
    ("engine",),
)
_M_KERNEL = REGISTRY.counter(
    "repro_megabatch_kernel_iterations_total",
    "Fused kernel loop iterations (slots or windows), by engine.",
    ("engine",),
)
_M_CELLS = REGISTRY.counter(
    "repro_megabatch_cells_total",
    "Cells fused into mega-batch kernel launches, by engine.",
    ("engine",),
)

#: Slots of uniforms pre-drawn per cell per refill of the fair kernel.  The
#: refill boundaries are *absolute* slot multiples of this constant, and each
#: cell draws its own ``(chunk, live-rows)`` block from its own generator, so
#: a cell's stream consumption is independent of its group's composition.
#: The value must stay constant for that guarantee to hold across runs.
_CHUNK = 1024

#: Which sampler produced each window's occupancy: ``saturated`` windows are
#: emitted without any draws, ``multinomial`` rows are sampled bin-wise, and
#: ``ball-throw`` windows materialise every ball.  One increment per window
#: (or per row chunk), never per slot — zero-cost when recording is disabled.
_M_OCCUPANCY = REGISTRY.counter(
    "repro_batch_window_occupancy_total",
    "Occupancy-sampling decisions in the windowed batch engine, by mode.",
    ("mode",),
)
_M_SATURATED = _M_OCCUPANCY.labels(mode="saturated")

#: Threshold under which a window is all-collisions "for sure": a window is
#: *saturated* when the exact union bound ``P(any bin holds <= 1 ball) <=
#: w [(1-1/w)^m + (m/w)(1-1/w)^{m-1}]`` evaluates below this — one power of
#: two under ``2^{-53}``, so even with the bound's own float rounding the
#: event probability is beneath the resolution of the double-precision
#: uniforms every sampler consumes, and emitting the certain all-collisions
#: outcome is indistinguishable from sampling it.
_SATURATED_BOUND = 2.0**-54

#: Saturation ratio above which sampling the occupancy row directly from the
#: multinomial distribution (O(w) binomial draws per replication) is cheaper
#: than throwing the ``m`` balls explicitly (O(m) uniform draws).  Below the
#: ratio the binomial sampler degrades to O(m/w) per bin anyway, so balls win.
_MULTINOMIAL_RATIO = 22

#: Cap on per-chunk work: both the occupancy matrix (replication rows ×
#: window slots) and the ball-throw scratch arrays (rows × remaining
#: messages) are kept at or under this many entries, so the engine's memory
#: stays bounded (~64 MB of int64 per chunk) at the paper's Figure-1 right
#: edge (k = 10⁷) instead of scaling with R × w or R × k.  Chunk boundaries
#: are a deterministic function of the live batch, so same-seed runs stay
#: bit-identical.
_MAX_WINDOW_CELLS = 1 << 23


@dataclass(frozen=True)
class FusedCell:
    """One (protocol, k) cell of a fused group.

    ``protocol`` is the configured prototype instance (spawned fresh by the
    kernel), ``seeds`` the per-replication seeds keying the cell's private
    random stream, ``max_slots`` the cell's own safety cap, and ``tag`` an
    opaque caller token carried through to the executor layer.
    """

    protocol: Protocol
    k: int
    seeds: tuple[int, ...]
    max_slots: int
    tag: object = field(default=None, compare=False)

    def __post_init__(self) -> None:
        check_positive_int("k", self.k)
        if not self.seeds:
            raise ValueError("a fused cell needs at least one seed")
        check_positive_int("max_slots", self.max_slots)


def _check_cells(cells: Sequence[FusedCell], engine_name: str) -> None:
    if not cells:
        raise ValueError(f"{engine_name}.simulate_fused needs at least one cell")


@dataclass
class _BatchAccumulator:
    """Final per-replication statistics, indexed by the original batch slot."""

    solved: np.ndarray
    makespan: np.ndarray
    slots: np.ndarray
    successes: np.ndarray
    collisions: np.ndarray
    silences: np.ndarray

    @classmethod
    def empty(cls, reps: int) -> "_BatchAccumulator":
        return cls(
            solved=np.zeros(reps, dtype=bool),
            makespan=np.zeros(reps, dtype=np.int64),
            slots=np.zeros(reps, dtype=np.int64),
            successes=np.zeros(reps, dtype=np.int64),
            collisions=np.zeros(reps, dtype=np.int64),
            silences=np.zeros(reps, dtype=np.int64),
        )


class _LiveBatch:
    """The still-running replications of one cell: counters plus the protocol state.

    ``offset`` is the cell's first row in the group's accumulator.
    """

    def __init__(self, k: int, reps: int, state: FairBatchState, offset: int = 0) -> None:
        self.orig = np.arange(offset, offset + reps)
        self.remaining = np.full(reps, k, dtype=np.int64)
        self.successes = np.zeros(reps, dtype=np.int64)
        self.collisions = np.zeros(reps, dtype=np.int64)
        self.silences = np.zeros(reps, dtype=np.int64)
        self.slots = np.zeros(reps, dtype=np.int64)
        self.state = state

    @property
    def size(self) -> int:
        return int(self.orig.size)

    def retire(self, mask: np.ndarray, out: _BatchAccumulator, solved: bool) -> None:
        """Write final stats for the masked replications and drop them."""
        idx = self.orig[mask]
        out.solved[idx] = solved
        out.makespan[idx] = self.slots[mask] if solved else 0
        out.slots[idx] = self.slots[mask]
        out.successes[idx] = self.successes[mask]
        out.collisions[idx] = self.collisions[mask]
        out.silences[idx] = self.silences[mask]
        keep = ~mask
        self.orig = self.orig[keep]
        self.remaining = self.remaining[keep]
        self.successes = self.successes[keep]
        self.collisions = self.collisions[keep]
        self.silences = self.silences[keep]
        self.slots = self.slots[keep]
        self.state.compact(keep)


def _outcome_probabilities(
    p: np.ndarray, remaining: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-replication ``(P(success), P(silence))`` for transmission prob ``p``.

    Mirrors the scalar piecewise cases of :class:`FairEngine`: ``p <= 0`` makes
    every slot silent, ``p >= 1`` succeeds only with a single station left.
    """
    interior = (p > 0.0) & (p < 1.0)
    if interior.all():
        q = 1.0 - p
        q_pow = q ** (remaining - 1)
        return remaining * p * q_pow, q_pow * q
    q = np.where(interior, 1.0 - p, 0.5)  # placeholder base keeps ** finite
    q_pow = q ** (remaining - 1)
    probability_success = np.where(interior, remaining * p * q_pow, 0.0)
    probability_silence = np.where(interior, q_pow * q, 0.0)
    probability_silence = np.where(p <= 0.0, 1.0, probability_silence)
    probability_success = np.where(p >= 1.0, (remaining == 1).astype(float), probability_success)
    return probability_success, probability_silence


def _run_skipping(
    live: _LiveBatch,
    out: _BatchAccumulator,
    cap: int,
    rng: np.random.Generator,
) -> int:
    """Event-by-event loop for slot-independent probabilities.

    Each iteration advances every live replication past one silent stretch
    (sampled geometrically) to its next non-silent slot and resolves that
    slot as a success or collision.  Replications may sit at different
    slot indices; the contract flag guarantees that is unobservable.
    Returns the number of loop iterations (events resolved).
    """
    events = 0
    while live.size:
        events += 1
        p = live.state.probabilities(-1)
        probability_success, probability_silence = _outcome_probabilities(p, live.remaining)

        # Replications that can never progress (p == 0) burn silently to
        # the cap in one step.
        stuck = probability_silence >= 1.0
        if stuck.any():
            live.silences[stuck] += cap - live.slots[stuck]
            live.slots[stuck] = cap
            live.retire(stuck, out, solved=False)
            if not live.size:
                break
            keep = ~stuck
            probability_success = probability_success[keep]
            probability_silence = probability_silence[keep]

        # Length of the silent stretch before the next non-silent slot:
        # P(gap >= j) = P(silence)^j, sampled by inversion.
        draw = rng.random(live.size)
        with np.errstate(divide="ignore", invalid="ignore"):
            gap = np.floor(np.log(draw) / np.log(probability_silence))
        gap = np.where(probability_silence <= 0.0, 0.0, gap)
        allowed = (cap - live.slots).astype(float)
        hits_cap = ~(gap < allowed)  # catches inf/nan from log(0) corners
        stretch = np.where(hits_cap, allowed, gap).astype(np.int64)
        live.silences += stretch
        live.slots += stretch
        if hits_cap.any():
            live.retire(hits_cap, out, solved=False)
            if not live.size:
                break
            keep = ~hits_cap
            probability_success = probability_success[keep]
            probability_silence = probability_silence[keep]

        # The non-silent slot itself: success vs collision, conditioned on
        # the slot not being silent.
        non_silent = 1.0 - probability_silence
        decisive = rng.random(live.size)
        success = decisive * non_silent < probability_success
        live.successes += success
        live.collisions += ~success
        live.remaining -= success
        live.state.observe_receptions(-1, success)
        live.slots += 1
        finished = live.remaining == 0
        if finished.any():
            live.retire(finished, out, solved=True)
            if not live.size:
                break
        capped = live.slots >= cap
        if capped.any():
            live.retire(capped, out, solved=False)
    return events


@dataclass
class _WindowBatchAccumulator:
    """Final per-replication statistics, indexed by the original batch slot."""

    solved: np.ndarray
    makespan: np.ndarray
    slots: np.ndarray
    successes: np.ndarray
    collisions: np.ndarray
    silences: np.ndarray
    windows: np.ndarray

    @classmethod
    def empty(cls, reps: int) -> "_WindowBatchAccumulator":
        return cls(
            solved=np.zeros(reps, dtype=bool),
            makespan=np.zeros(reps, dtype=np.int64),
            slots=np.zeros(reps, dtype=np.int64),
            successes=np.zeros(reps, dtype=np.int64),
            collisions=np.zeros(reps, dtype=np.int64),
            silences=np.zeros(reps, dtype=np.int64),
            windows=np.zeros(reps, dtype=np.int64),
        )


class _LiveWindowBatch:
    """The still-running replications: per-replication counters.

    Unlike the fair batch there is no per-replication protocol state to
    carry — the window schedule is shared by contract
    (:class:`~repro.protocols.base.WindowBatchState`) — so compaction only
    touches the counters.
    """

    def __init__(self, k: int, reps: int) -> None:
        self.orig = np.arange(reps)
        self.remaining = np.full(reps, k, dtype=np.int64)
        self.successes = np.zeros(reps, dtype=np.int64)
        self.collisions = np.zeros(reps, dtype=np.int64)
        self.silences = np.zeros(reps, dtype=np.int64)
        self.windows = np.zeros(reps, dtype=np.int64)

    @property
    def size(self) -> int:
        return int(self.orig.size)

    def retire(
        self,
        mask: np.ndarray,
        out: _WindowBatchAccumulator,
        solved: bool,
        slots: np.ndarray,
    ) -> None:
        """Write final stats for the masked replications and drop them.

        ``slots`` is the per-live-replication total slot count at retirement
        (the truncated end of the finishing window for solved runs, the cap
        boundary for unsolved ones).
        """
        idx = self.orig[mask]
        out.solved[idx] = solved
        out.makespan[idx] = slots[mask] if solved else 0
        out.slots[idx] = slots[mask]
        out.successes[idx] = self.successes[mask]
        out.collisions[idx] = self.collisions[mask]
        out.silences[idx] = self.silences[mask]
        out.windows[idx] = self.windows[mask]
        keep = ~mask
        self.orig = self.orig[keep]
        self.remaining = self.remaining[keep]
        self.successes = self.successes[keep]
        self.collisions = self.collisions[keep]
        self.silences = self.silences[keep]
        self.windows = self.windows[keep]


class _ChunkedCellDraws:
    """Per-cell uniform streams, pre-drawn in composition-independent chunks.

    At every absolute slot multiple of :data:`_CHUNK` each cell with live
    rows draws one ``(chunk, live)`` block from its own generator; the blocks
    are assembled column-wise into one group-level matrix so the kernel's
    per-slot draw is a single row view.  When rows retire, their columns are
    dropped and their unused pre-drawn values discarded — exactly what would
    have happened had the cell run alone.
    """

    def __init__(self, generators: Sequence[np.random.Generator], row_cell: np.ndarray) -> None:
        self._generators = generators
        self._cells = row_cell.copy()
        self._block: np.ndarray | None = None

    def draws(self, slot: int) -> np.ndarray:
        offset = slot % _CHUNK
        if offset == 0 or self._block is None:
            self._refill()
        assert self._block is not None
        return self._block[offset]

    def _refill(self) -> None:
        block = np.empty((_CHUNK, self._cells.size))
        for cell in np.unique(self._cells):
            columns = self._cells == cell
            block[:, columns] = self._generators[cell].random(
                (_CHUNK, int(np.count_nonzero(columns)))
            )
        self._block = block

    def compact(self, keep: np.ndarray) -> None:
        self._cells = self._cells[keep]
        if self._block is not None:
            self._block = self._block[:, keep]


class _FusedLiveBatch:
    """The still-running rows of a fused fair group: counters + protocol state.

    Like :class:`_LiveBatch`, but with the network size and the slot cap
    carried per row (rows come from cells with
    different k).  The kernel is dispatch-overhead bound, so the per-slot
    bookkeeping is collapsed to a single counter: ``under`` counts the slots
    whose uniform draw fell below the silence threshold (successes +
    silences); every other statistic is derived at retirement — successes
    from ``k − remaining``, silences from ``under − successes``, collisions
    from ``slots_lived − under``.
    """

    def __init__(self, ks: np.ndarray, caps: np.ndarray, state: object) -> None:
        rows = ks.size
        self.orig = np.arange(rows)
        self.k = ks.astype(np.int64).copy()
        self.remaining = self.k.copy()
        self.cap = caps.astype(np.int64).copy()
        self.under = np.zeros(rows, dtype=np.int64)
        self.state = state

    @property
    def size(self) -> int:
        return int(self.orig.size)

    def retire(
        self, mask: np.ndarray, out: _BatchAccumulator, solved: bool, slot: int
    ) -> np.ndarray:
        """Write final stats for the masked rows (all of which lived exactly
        ``slot`` slots), drop them, and return the keep mask."""
        idx = self.orig[mask]
        successes = self.k[mask] - self.remaining[mask]
        under = self.under[mask]
        out.solved[idx] = solved
        out.makespan[idx] = slot if solved else 0
        out.slots[idx] = slot
        out.successes[idx] = successes
        out.silences[idx] = under - successes
        out.collisions[idx] = slot - under
        keep = ~mask
        self.orig = self.orig[keep]
        self.k = self.k[keep]
        self.remaining = self.remaining[keep]
        self.cap = self.cap[keep]
        self.under = self.under[keep]
        self.state.compact(keep)
        return keep


@register_engine
class MegaFairEngine:
    """Fuse every fair (protocol, k) cell of a sweep into one lockstep kernel."""

    name = "mega"

    #: The batched engine for fair protocols on the paper's channel: no
    #: traces (outcomes are classified in bulk), no arrivals (slot-0 starts
    #: assumed).  Eligibility of a *specific* protocol is :meth:`supports`.
    capabilities = EngineCapabilities(
        protocol_kinds=frozenset({"fair"}),
        batched=True,
        cost_rank=40,
    )

    def __init__(self, channel: ChannelModel | None = None, max_slots_factor: int = 10_000) -> None:
        self.channel = check_engine_channel(type(self), channel)
        self.max_slots_factor = check_positive_int("max_slots_factor", max_slots_factor)

    # ------------------------------------------------------------ eligibility
    @classmethod
    def supports(cls, protocol: Protocol) -> bool:
        """Whether ``protocol``'s cells can be simulated by this engine.

        The per-protocol half of eligibility, layered by the registry's
        :func:`~repro.engine.registry.batch_engine_for` on top of the
        declared capabilities: the fair kind, the fair-engine state contract
        and a *per-row* kernel
        (:meth:`FairProtocol.make_fused_batch_state`).  A fair protocol
        without one silently takes the per-run path in sweeps.
        """
        if getattr(protocol, "protocol_kind", "generic") not in cls.capabilities.protocol_kinds:
            return False
        if protocol.state_depends_on_own_transmission:
            return False
        return type(protocol).make_fused_batch_state([protocol.spawn()], [1]) is not None

    @classmethod
    def fuse_key(cls, protocol: Protocol) -> object:
        """Cells sharing this key may enter one fused kernel.

        Fair cells fuse per protocol *class*: the per-row parameter arrays of
        the fused state absorb any difference in constructor parameters, so
        e.g. both Log-fails Adaptive ``ξt`` variants of the paper's suite
        stack into one kernel.
        """
        return type(protocol)

    # ----------------------------------------------------------------- public
    def simulate(
        self,
        protocol: FairProtocol,
        k: int,
        seed: int = 0,
        max_slots: int | None = None,
        trace: ExecutionTrace | None = None,
    ) -> SimulationResult:
        """Run one instance as a fused group of one cell of one replication."""
        if trace is not None:
            raise ValueError(
                "MegaFairEngine does not collect traces (outcomes are classified "
                "in bulk, not slot records); use FairEngine for traced runs"
            )
        return self.simulate_batch(protocol, k, [seed], max_slots=max_slots)[0]

    def simulate_batch(
        self,
        protocol: FairProtocol,
        k: int,
        seeds: Sequence[int],
        max_slots: int | None = None,
    ) -> list[SimulationResult]:
        """Simulate one cell — a fused group of size one (the batch API)."""
        cap = max_slots if max_slots is not None else self.max_slots_factor * k
        cell = FusedCell(protocol=protocol, k=k, seeds=tuple(int(s) for s in seeds), max_slots=cap)
        return self.simulate_fused([cell])[0]

    def simulate_fused(self, cells: Sequence[FusedCell]) -> list[list[SimulationResult]]:
        """Simulate every cell of the group in one fused kernel pass.

        Returns one result list per cell (ordered like ``cells``, one
        :class:`SimulationResult` per seed).  Each cell's results are
        bit-identical regardless of the group's composition.  Protocols
        declaring ``probability_constant_between_receptions`` run cell by
        cell through the geometric silence-skipping loop instead of the
        lockstep pass.
        """
        _check_cells(cells, type(self).__name__)
        prototypes = []
        for cell in cells:
            if not isinstance(cell.protocol, FairProtocol):
                raise TypeError(
                    f"MegaFairEngine requires FairProtocol cells, got "
                    f"{type(cell.protocol).__name__}"
                )
            if not self.supports(cell.protocol):
                raise ValueError(
                    f"{type(cell.protocol).__name__} has no per-row fused kernel "
                    "(or declares a contract the fused reduction cannot serve)"
                )
            prototypes.append(cell.protocol.spawn())
        keys = {self.fuse_key(cell.protocol) for cell in cells}
        if len(keys) != 1:
            raise ValueError(
                f"MegaFairEngine can fuse only cells of one protocol class, got "
                f"{sorted(key.__name__ for key in keys)}"
            )

        counts = [len(cell.seeds) for cell in cells]
        protocol_class = type(prototypes[0])
        generators = [
            np.random.default_rng(np.random.SeedSequence(list(cell.seeds))) for cell in cells
        ]
        rows = sum(counts)
        out = _BatchAccumulator.empty(rows)
        if protocol_class.probability_constant_between_receptions:
            iterations = 0
            offset = 0
            for cell, prototype, reps, rng in zip(cells, prototypes, counts, generators):
                state = protocol_class.make_fused_batch_state([prototype], [reps])
                live_cell = _LiveBatch(cell.k, reps, state, offset=offset)
                iterations += _run_skipping(live_cell, out, cell.max_slots, rng)
                offset += reps
        else:
            state = protocol_class.make_fused_batch_state(prototypes, counts)
            row_cell = np.repeat(np.arange(len(cells)), counts)
            ks = np.repeat([cell.k for cell in cells], counts)
            caps = np.repeat([cell.max_slots for cell in cells], counts)
            live = _FusedLiveBatch(ks, caps, state)
            iterations = self._run_lockstep(live, out, generators, row_cell)
        _M_ROWS.labels(engine=self.name).inc(rows)
        _M_RETIRED.labels(engine=self.name).inc(rows)
        _M_KERNEL.labels(engine=self.name).inc(iterations)
        _M_CELLS.labels(engine=self.name).inc(len(cells))

        results: list[list[SimulationResult]] = []
        offset = 0
        for cell, reps in zip(cells, counts):
            cell_results = [
                SimulationResult(
                    solved=bool(out.solved[offset + index]),
                    makespan=int(out.makespan[offset + index]) if out.solved[offset + index] else None,
                    k=cell.k,
                    slots_simulated=int(out.slots[offset + index]),
                    successes=int(out.successes[offset + index]),
                    collisions=int(out.collisions[offset + index]),
                    silences=int(out.silences[offset + index]),
                    protocol=cell.protocol.name,
                    engine=self.name,
                    seed=cell.seeds[index],
                    metadata={"batch_reps": reps},
                )
                for index in range(reps)
            ]
            results.append(cell_results)
            offset += reps
        return results

    # -------------------------------------------------------------- internals
    def _run_lockstep(
        self,
        live: _FusedLiveBatch,
        out: _BatchAccumulator,
        generators: Sequence[np.random.Generator],
        row_cell: np.ndarray,
    ) -> int:
        """One masked kernel pass per slot with per-row retirement.

        Classifies each row's slot from one uniform draw against the
        thresholds ``P(success)`` and ``P(success) + P(silence)`` of the
        ``Binomial(m, p)`` slot outcome, then feeds the receptions back to
        the protocol state.  The loop is organised around the fact that on a
        few dozen rows every numpy dispatch costs as much as the arithmetic:

        * caps are *events*, not per-slot checks — the distinct cap values
          are visited in ascending order and the capped-row pass runs only
          at those slots;
        * the outcome thresholds are cached per state identity
          (:meth:`~repro.protocols.base.FairBatchState.probabilities_cached`)
          and invalidated when the remaining counts change — a protocol
          alternating a few probability flavors (AT/BT schedules) recomputes
          each flavor's thresholds once per reception, not once per slot;
        * successes are sparse, so all success-dependent updates hide behind
          one ``success.any()``.

        Returns the number of slots stepped (the group's makespan).
        """
        draws = _ChunkedCellDraws(generators, row_cell)
        state = live.state
        probabilities_cached = state.probabilities_cached
        observe_receptions = state.observe_receptions
        next_draws = draws.draws
        cap_values = np.unique(live.cap)
        cap_index = 0
        next_cap = int(cap_values[0])
        remaining = live.remaining
        under = live.under
        remaining_f = remaining.astype(float)
        exponent = remaining_f - 1.0
        # Classification thresholds stacked as one (2, rows) array — row 0 is
        # P(success), row 1 is P(success) + P(silence) — so the per-slot
        # classification is a single broadcast comparison.  One entry is kept
        # per probability flavor (see probabilities_cached); `changes` logs
        # the rows whose inputs (probability, remaining count) moved since,
        # and each entry records its position in that log so a cache hit
        # patches only the logged rows, scalar-wise, instead of rebuilding.
        # Row indices shift when rows retire, so retirement drops everything.
        entries: dict[object, list] = {}
        entries_get = entries.get
        changes: list[int] = []
        scratch: np.ndarray | None = None
        # Reusable per-slot buffers: the (2, rows) outcome of the broadcast
        # comparison and the rebuild temporaries q / q**exponent.  Allocated
        # lazily and dropped whenever the row count changes.
        outcome = np.empty((2, remaining.size), dtype=bool)
        success = outcome[0]
        below = outcome[1]
        q_buf: np.ndarray | None = None
        q_pow_buf: np.ndarray | None = None
        slot = 0
        while live.orig.size:
            if slot == next_cap:
                capped = live.cap <= slot
                if capped.any():
                    keep = live.retire(capped, out, solved=False, slot=slot)
                    draws.compact(keep)
                    if not live.orig.size:
                        break
                    remaining = live.remaining
                    under = live.under
                    remaining_f = remaining_f[keep]
                    exponent = exponent[keep]
                    entries.clear()
                    changes.clear()
                    scratch = None
                    outcome = np.empty((2, remaining.size), dtype=bool)
                    success = outcome[0]
                    below = outcome[1]
                    q_buf = None
                    q_pow_buf = None
                cap_index += 1
                next_cap = int(cap_values[cap_index]) if cap_index < cap_values.size else -1
            p, key = probabilities_cached(slot)
            if key is None:
                if scratch is None:
                    scratch = np.empty((2, p.size))
                thresholds = scratch
                rebuild = True
            else:
                entry = entries_get(key)
                if entry is None:
                    thresholds = np.empty((2, p.size))
                    entries[key] = [len(changes), thresholds]
                    rebuild = True
                else:
                    thresholds = entry[1]
                    pointer = entry[0]
                    logged = len(changes)
                    rebuild = False
                    if pointer != logged:
                        stale = set(changes[pointer:])
                        # A scalar np.power costs more than the whole-array
                        # power, so patching pays off only for 1-2 rows.
                        if len(stale) > 2:
                            rebuild = True
                        else:
                            for i in stale:
                                p_i = p[i]
                                q_i = 1.0 - p_i
                                # np.power (not **): the scalar ufunc call is
                                # bit-identical to the array rebuild below,
                                # scalarmath __pow__ is not.
                                q_pow_i = np.power(q_i, exponent[i])
                                t0 = remaining_f[i] * p_i * q_pow_i
                                thresholds[0, i] = t0
                                thresholds[1, i] = q_pow_i * q_i + t0
                        entry[0] = logged
            if rebuild:
                if q_buf is None:
                    q_buf = np.empty(p.size)
                    q_pow_buf = np.empty(p.size)
                q = np.subtract(1.0, p, out=q_buf)
                q_pow = np.power(q, exponent, out=q_pow_buf)
                probability_success = np.multiply(remaining_f, p, out=thresholds[0])
                probability_success *= q_pow
                silence_limit = np.multiply(q_pow, q, out=thresholds[1])
                silence_limit += probability_success
            np.less(next_draws(slot), thresholds, out=outcome)
            under += below
            rows = success.nonzero()[0]
            any_success = rows.size > 0
            state_rows = observe_receptions(slot, success, any_success, rows)
            if state_rows is None:
                entries.clear()
                changes.clear()
            elif state_rows.size:
                changes.extend(state_rows.tolist())
            slot += 1
            if any_success:
                changes.extend(rows.tolist())
                finished_any = False
                if rows.size <= 8:
                    # Successes are sparse (usually one row per slot);
                    # per-row scalar updates beat four whole-array passes.
                    for index in rows:
                        i = int(index)
                        remaining[i] -= 1
                        remaining_f[i] -= 1.0
                        exponent[i] -= 1.0
                        if remaining[i] == 0:
                            finished_any = True
                else:
                    remaining -= success
                    remaining_f -= success
                    exponent -= success
                    finished_any = bool((remaining == 0).any())
                if finished_any:
                    finished = remaining == 0
                    keep = live.retire(finished, out, solved=True, slot=slot)
                    draws.compact(keep)
                    remaining = live.remaining
                    under = live.under
                    remaining_f = remaining_f[keep]
                    exponent = exponent[keep]
                    entries.clear()
                    changes.clear()
                    scratch = None
                    outcome = np.empty((2, remaining.size), dtype=bool)
                    success = outcome[0]
                    below = outcome[1]
                    q_buf = None
                    q_pow_buf = None
        return slot


@register_engine
class MegaWindowEngine:
    """Fuse every same-schedule windowed cell of a sweep into one lockstep pass."""

    name = "mega-window"

    #: The batched engine for windowed protocols on the paper's channel; see
    #: :class:`MegaFairEngine` for the selection rules it shares.
    capabilities = EngineCapabilities(
        protocol_kinds=frozenset({"windowed"}),
        batched=True,
        cost_rank=40,
    )

    def __init__(self, channel: ChannelModel | None = None, max_slots_factor: int = 10_000) -> None:
        self.channel = check_engine_channel(type(self), channel)
        self.max_slots_factor = check_positive_int("max_slots_factor", max_slots_factor)

    # ------------------------------------------------------------ eligibility
    @classmethod
    def supports(cls, protocol: Protocol) -> bool:
        """Whether ``protocol``'s cells can be simulated: windowed kind, a
        shared window schedule
        (:meth:`WindowedProtocol.make_window_batch_state`, i.e. a
        feedback-oblivious schedule) *and* a declared schedule identity
        (:meth:`WindowedProtocol.fused_schedule_key`).  A windowed protocol
        without them silently takes the per-run path in sweeps."""
        if getattr(protocol, "protocol_kind", "generic") not in cls.capabilities.protocol_kinds:
            return False
        if protocol.make_window_batch_state(1) is None:
            return False
        return protocol.fused_schedule_key() is not None

    @classmethod
    def fuse_key(cls, protocol: Protocol) -> object:
        """Cells sharing this key traverse identical window schedules.

        Windowed cells fuse per *schedule identity* — the lockstep window
        iteration requires every fused row to share window boundaries, so
        only cells whose protocols report equal
        :meth:`~repro.protocols.base.WindowedProtocol.fused_schedule_key`
        values group together (e.g. every k of one backoff parameterisation).
        """
        return protocol.fused_schedule_key()

    # ----------------------------------------------------------------- public
    def simulate(
        self,
        protocol: WindowedProtocol,
        k: int,
        seed: int = 0,
        max_slots: int | None = None,
        trace: ExecutionTrace | None = None,
    ) -> SimulationResult:
        """Run one instance as a fused group of one cell of one replication."""
        if trace is not None:
            raise ValueError(
                "MegaWindowEngine does not collect traces (windows are classified "
                "in bulk, not slot records); use WindowEngine for traced runs"
            )
        return self.simulate_batch(protocol, k, [seed], max_slots=max_slots)[0]

    def simulate_batch(
        self,
        protocol: WindowedProtocol,
        k: int,
        seeds: Sequence[int],
        max_slots: int | None = None,
    ) -> list[SimulationResult]:
        """Simulate one cell — a fused group of size one (the batch API)."""
        cap = max_slots if max_slots is not None else self.max_slots_factor * k
        cell = FusedCell(protocol=protocol, k=k, seeds=tuple(int(s) for s in seeds), max_slots=cap)
        return self.simulate_fused([cell])[0]

    def simulate_fused(self, cells: Sequence[FusedCell]) -> list[list[SimulationResult]]:
        """Simulate every cell of the group against one shared window schedule.

        Returns one result list per cell (ordered like ``cells``).  Each
        cell consumes its own random stream, window by window, exactly as it
        would alone, so per-cell results are independent of the group's
        composition.

        Occupancy sampling is adaptive in the saturation ratio ``m/w``
        (balls per bin) — see :meth:`_saturated` and :meth:`_occupancy`:
        saturated windows (every bin surely holds two or more balls) are
        emitted without draws, narrow windows are sampled as multinomial
        rows, and wide delivery windows throw their balls explicitly in
        row chunks bounded by :data:`_MAX_WINDOW_CELLS`.
        """
        _check_cells(cells, type(self).__name__)
        keys = set()
        for cell in cells:
            if not isinstance(cell.protocol, WindowedProtocol):
                raise TypeError(
                    f"MegaWindowEngine requires WindowedProtocol cells, got "
                    f"{type(cell.protocol).__name__}"
                )
            if not self.supports(cell.protocol):
                raise ValueError(
                    f"{type(cell.protocol).__name__} declares no fusable window schedule"
                )
            keys.add(self.fuse_key(cell.protocol))
        if len(keys) != 1:
            raise ValueError(
                f"MegaWindowEngine can fuse only cells sharing one window schedule, "
                f"got {len(keys)} distinct schedule keys"
            )

        counts = [len(cell.seeds) for cell in cells]
        rows = sum(counts)
        schedule_state = cells[0].protocol.make_window_batch_state(rows)
        assert schedule_state is not None  # guarded by supports()
        schedule = schedule_state.lengths
        generators = [
            np.random.default_rng(np.random.SeedSequence(list(cell.seeds))) for cell in cells
        ]
        lives = [_LiveWindowBatch(cell.k, reps) for cell, reps in zip(cells, counts)]
        outs = [_WindowBatchAccumulator.empty(reps) for reps in counts]

        iterations = self._run(cells, schedule, lives, outs, generators)
        _M_ROWS.labels(engine=self.name).inc(rows)
        _M_RETIRED.labels(engine=self.name).inc(rows)
        _M_KERNEL.labels(engine=self.name).inc(iterations)
        _M_CELLS.labels(engine=self.name).inc(len(cells))

        results: list[list[SimulationResult]] = []
        for cell, reps, out in zip(cells, counts, outs):
            results.append(
                [
                    SimulationResult(
                        solved=bool(out.solved[index]),
                        makespan=int(out.makespan[index]) if out.solved[index] else None,
                        k=cell.k,
                        slots_simulated=int(out.slots[index]),
                        successes=int(out.successes[index]),
                        collisions=int(out.collisions[index]),
                        silences=int(out.silences[index]),
                        protocol=cell.protocol.name,
                        engine=self.name,
                        seed=cell.seeds[index],
                        metadata={
                            "batch_reps": reps,
                            "windows": int(out.windows[index]),
                        },
                    )
                    for index in range(reps)
                ]
            )
        return results

    # -------------------------------------------------------------- internals
    @staticmethod
    def _saturated(length: int, m_min: int) -> bool:
        """Whether every bin surely holds >= 2 balls (see :data:`_SATURATED_BOUND`).

        Evaluates the exact union bound over the ``length`` bins at the
        *smallest* live replication's ball count (the bound is decreasing in
        ``m``, so it covers every row).  ``length == 1`` with ``m >= 2`` is
        the degenerate certain collision.
        """
        if m_min < 2 * length:  # deliveries plainly possible; skip the math
            return False
        if length == 1:
            return m_min >= 2
        log_keep_out = math.log1p(-1.0 / length)  # log P(one ball misses a bin)
        p_empty = math.exp(m_min * log_keep_out)
        p_singleton = (m_min / length) * math.exp((m_min - 1) * log_keep_out)
        return length * (p_empty + p_singleton) < _SATURATED_BOUND

    @staticmethod
    def _occupancy(
        rng: np.random.Generator, remaining: np.ndarray, length: int
    ) -> np.ndarray:
        """Sample the (rows × length) multinomial occupancy matrix.

        Narrow windows (many balls per bin) sample each row's bin counts
        directly — O(length) binomial draws per replication; wide windows
        throw the balls explicitly — one bounded draw per ball in the
        narrowest sufficient dtype, offset per row so one ``bincount``
        builds the whole matrix.
        """
        live = remaining.size
        if length * _MULTINOMIAL_RATIO < int(remaining.mean()):
            _M_OCCUPANCY.labels(mode="multinomial").inc()
            return rng.multinomial(remaining, np.full(length, 1.0 / length))
        _M_OCCUPANCY.labels(mode="ball-throw").inc()
        if length <= np.iinfo(np.uint16).max:
            dtype = np.uint16
        elif length <= np.iinfo(np.uint32).max:
            dtype = np.uint32
        else:
            dtype = np.int64
        choices = rng.integers(0, length, size=int(remaining.sum()), dtype=dtype)
        if live * length <= np.iinfo(np.int32).max:
            rows = np.repeat(np.arange(live, dtype=np.int32), remaining)
            keys = rows * np.int32(length) + choices.astype(np.int32, copy=False)
        else:
            rows = np.repeat(np.arange(live, dtype=np.int64), remaining)
            keys = rows * length + choices
        return np.bincount(keys, minlength=live * length).reshape(live, length)

    @staticmethod
    def _window_outcomes(
        rng: np.random.Generator,
        remaining: np.ndarray,
        length: int,
        window_start: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Classify one window for every live replication, in bounded memory.

        Returns per-replication ``(delivered, collisions, silences,
        end_slot)``; ``end_slot`` is the truncated end of the window for the
        replications it finishes (their makespan) and the full window end for
        everyone else.  Rows are processed in chunks bounded both in
        occupancy cells (rows × window slots) and in thrown balls (rows ×
        remaining messages) by :data:`_MAX_WINDOW_CELLS`, so neither the
        occupancy matrix nor the ball-throw scratch arrays scale with the
        network size.
        """
        live = remaining.size
        delivered = np.empty(live, dtype=np.int64)
        collisions = np.empty(live, dtype=np.int64)
        silences = np.empty(live, dtype=np.int64)
        end_slot = np.full(live, window_start + length, dtype=np.int64)
        mean_balls = max(1, int(remaining.mean()))
        chunk = max(1, min(_MAX_WINDOW_CELLS // length, _MAX_WINDOW_CELLS // mean_balls))
        for start in range(0, live, chunk):
            stop = min(start + chunk, live)
            occupancy = MegaWindowEngine._occupancy(rng, remaining[start:stop], length)
            singles = occupancy == 1
            chunk_delivered = singles.sum(axis=1, dtype=np.int64)
            occupied = np.count_nonzero(occupancy, axis=1)
            chunk_collisions = occupied - chunk_delivered
            chunk_silences = length - occupied
            finishing = chunk_delivered == remaining[start:stop]
            if finishing.any():
                # Replications solved by this window stop at their final
                # delivery: truncate the trailing slots (mirroring the
                # per-run window engine) so counters agree with the
                # node-level reference.
                singles_f = singles[finishing]
                occ_f = occupancy[finishing]
                last = length - 1 - np.argmax(singles_f[:, ::-1], axis=1)
                pick = np.arange(occ_f.shape[0])
                chunk_collisions[finishing] = np.cumsum(occ_f >= 2, axis=1)[pick, last]
                chunk_silences[finishing] = np.cumsum(occ_f == 0, axis=1)[pick, last]
                end_slot[start:stop][finishing] = window_start + last + 1
            delivered[start:stop] = chunk_delivered
            collisions[start:stop] = chunk_collisions
            silences[start:stop] = chunk_silences
        return delivered, collisions, silences, end_slot

    def _run(
        self,
        cells: Sequence[FusedCell],
        schedule,
        lives: Sequence[_LiveWindowBatch],
        outs: Sequence[_WindowBatchAccumulator],
        generators: Sequence[np.random.Generator],
    ) -> int:
        """Lockstep iteration of the one shared schedule across all cells.

        Every decision that touches randomness — the per-cell saturated
        shortcut and the occupancy sampling — is made per cell with the
        cell's own generator, so a cell's draw sequence does not depend on
        its siblings.  Returns the number of windows iterated.
        """
        window_start = 0
        windows = 0
        while True:
            running = [index for index, live in enumerate(lives) if live.size]
            if not running:
                break
            for index in running:
                live = lives[index]
                if window_start >= cells[index].max_slots:
                    live.retire(
                        np.ones(live.size, dtype=bool),
                        outs[index],
                        solved=False,
                        slots=np.full(live.size, window_start, dtype=np.int64),
                    )
            running = [index for index in running if lives[index].size]
            if not running:
                break
            try:
                length = int(next(schedule))
            except StopIteration as error:
                unsolved = sum(lives[index].size for index in running)
                raise RuntimeError(
                    f"{type(cells[0].protocol).__name__}: window schedule exhausted "
                    f"with {unsolved} fused replications unsolved"
                ) from error
            if length < 1:
                raise ValueError(f"window length must be >= 1, got {length}")
            windows += 1

            for index in running:
                live = lives[index]
                if self._saturated(length, int(live.remaining.min())):
                    _M_SATURATED.inc()
                    live.collisions += length
                    live.windows += 1
                    continue
                delivered, collisions, silences, end_slot = self._window_outcomes(
                    generators[index], live.remaining, length, window_start
                )
                finishing = delivered == live.remaining
                live.successes += delivered
                live.collisions += collisions
                live.silences += silences
                live.windows += 1
                live.remaining -= delivered
                if finishing.any():
                    live.retire(finishing, outs[index], solved=True, slots=end_slot)
            window_start += length
        return windows
