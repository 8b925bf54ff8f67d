"""Simulation engines and the capability registry that picks between them.

Five engines produce makespan samples of the *same* stochastic process — the
paper's channel model — at very different costs.  Which engine serves which
request is not hard-coded anywhere: every engine class declares an
:class:`~repro.engine.registry.EngineCapabilities` record (the protocol
*kinds* it can serve, the channel feedback models it implements, whether it
supports staggered arrivals, whether it is *batched*, whether it collects
traces) and registers itself with the :mod:`repro.engine.registry`; every
protocol declares its kind
(:attr:`~repro.protocols.base.Protocol.protocol_kind`).  Dispatch, sweep
batch planning, the scenario layer and the CLI's ``--engine`` choices are all
queries against those declarations.  This docstring is the engine-selection
guide: what each engine declares, what it costs, and when the registry
chooses it.

* :class:`~repro.engine.slot_engine.SlotEngine` — wraps the exact node-level
  :class:`~repro.channel.radio_network.RadioNetwork`.  **Declares:** every
  protocol kind, every feedback model, arrivals, traces — it is the
  reference the reduced engines are validated against, and carries the
  highest cost rank so ``"auto"`` falls back to it only when no reduction
  applies.  **Cost:** O(active nodes) per slot.
* :class:`~repro.engine.fair_engine.FairEngine` — **declares:** kind
  ``"fair"``, the paper's channel, traces.  The contract behind the kind:
  every active station transmits with the same probability ``p`` and updates
  state only on commonly-observed feedback, so the slot outcome is
  ``Binomial(m, p)``-distributed — ``P(success) = m·p·(1−p)^{m−1}``,
  ``P(silence) = (1−p)^m`` — and one uniform draw per slot suffices.
  **Cost:** O(1) per slot regardless of k.  **Picked when:**
  ``engine="auto"`` for a fair protocol on the paper's channel (single and
  traced runs).
* :class:`~repro.engine.window_engine.WindowEngine` — **declares:** kind
  ``"windowed"``, the paper's channel, traces.  The contract: stations
  commit to one uniform slot per contention window and the window schedule
  is a pure function of the window index; a whole window is then one
  balls-in-bins experiment.  **Cost:** O(window) numpy work per window (runs
  with k = 10⁷ take seconds).  **Picked when:** ``engine="auto"`` for a
  windowed protocol on the paper's channel.
* :class:`~repro.engine.megabatch.MegaFairEngine` (``"mega"``) — the
  batched engine for fair protocols.  **Declares:** kind ``"fair"``, the
  paper's channel, *batched* (no traces, no arrivals).  Its ``supports``
  hook requires the per-row
  :meth:`~repro.protocols.base.FairProtocol.make_fused_batch_state` kernel.
  It stacks **all fair cells of a sweep that share one protocol class** —
  every k, every parameterisation — into a single padded lockstep kernel
  with per-row parameters and per-row retirement; protocols declaring
  :attr:`~repro.protocols.base.FairProtocol.probability_constant_between_receptions`
  (slotted ALOHA) instead run cell by cell with geometric silence-run
  skipping.  **Cost:** one kernel traversal of the whole group's *global*
  maximum makespan, instead of one traversal per cell.
* :class:`~repro.engine.megabatch.MegaWindowEngine` (``"mega-window"``) —
  the batched engine for windowed protocols.  **Declares:** kind
  ``"windowed"``, the paper's channel, *batched*.  Its ``supports`` hook
  requires a shared, feedback-oblivious schedule
  (:meth:`~repro.protocols.base.WindowedProtocol.make_window_batch_state`)
  with a declared identity
  (:meth:`~repro.protocols.base.WindowedProtocol.fused_schedule_key`) —
  Exp Back-on/Back-off and the whole monotone back-off family qualify.  All
  cells sharing one schedule iterate it in lockstep, each window's
  occupancy sampled per cell from the cell's own stream.

Batched engines are never chosen by ``engine="auto"`` for single runs; they
serve whole cells.  The scenario :class:`~repro.scenarios.session.Session`
(and therefore ``run_sweep``, Figure 1 and Table 1) groups every
batch-eligible cell of a grid by fuse key and executes each group as **one**
:func:`simulate_megabatch` kernel pass — the default; disable with
``batch=False`` / ``--no-batch``.  Eligibility is the registry's
:func:`~repro.engine.registry.batch_engine_for`, the repository's **one**
batch-eligibility predicate; batched runs can also be requested explicitly
via ``engine="mega"`` / ``engine="mega-window"``.  Batched runs are
**distributionally identical but not bit-identical** to their per-run
counterparts: each cell consumes one random stream derived from its full
seed tuple, so the i-th replication's draws interleave with its siblings'.
The parity (same makespan mean and quantiles within sampling tolerance, same
solved rate at a binding cap) is pinned by
``tests/engine/test_batch_engine.py`` and
``tests/engine/test_batch_window_engine.py``.  A cell's stream never depends
on which siblings it was fused with, so resumed sweeps that re-fuse only the
missing cells are bit-identical to fresh ones
(``tests/engine/test_megabatch.py``).  Batching is skipped (falling back to
per-run execution) for: single-run ``engine="auto"`` calls, ``batch=False``
sessions, explicit per-run engine selectors, non-default channels and
arrival processes.

:func:`simulate` dispatches a single run to the cheapest capable engine,
:func:`simulate_batch` runs a whole cell through the eligible batched engine,
:func:`simulate_megabatch` runs a whole fused group through it, and :mod:`repro.engine.validation` provides the statistical
cross-checks used by the test suite and the engine ablation benchmark.
"""

from __future__ import annotations

from repro.engine.registry import (
    EngineCapabilities,
    EngineRegistry,
    available_engines,
    batch_engine_for,
    engine_capabilities,
)
from repro.engine.result import SimulationResult
from repro.engine.slot_engine import SlotEngine
from repro.engine.fair_engine import FairEngine
from repro.engine.window_engine import WindowEngine
from repro.engine.megabatch import FusedCell, MegaFairEngine, MegaWindowEngine
from repro.engine.dispatch import pick_engine, simulate, simulate_batch, simulate_megabatch
from repro.engine.validation import compare_engines, makespan_samples

__all__ = [
    "SimulationResult",
    "SlotEngine",
    "FairEngine",
    "WindowEngine",
    "MegaFairEngine",
    "MegaWindowEngine",
    "FusedCell",
    "EngineCapabilities",
    "EngineRegistry",
    "simulate",
    "simulate_batch",
    "simulate_megabatch",
    "pick_engine",
    "available_engines",
    "batch_engine_for",
    "engine_capabilities",
    "compare_engines",
    "makespan_samples",
]
