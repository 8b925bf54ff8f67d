"""Golden pin: default-path results of the paper's protocols, bit for bit.

A default :class:`~repro.scenarios.session.Session` routes every cell of the
paper's suite through a batched engine.  This test fixes the exact outcome of
each replication — ``(solved, makespan, slots, successes, collisions,
silences)`` — for one small grid as a SHA-256 digest per cell, so a change
that moves kernel code between engines, or reorganises how cells are planned,
must reproduce the same samples draw for draw.  The engine name is left out
of the digest on purpose: it records where a run was produced, not what the
run was.

When a deliberate change to a kernel's use of randomness alters a digest,
regenerate the table below with ``_cell_digest`` and say why in the change
log; a digest that moves without such a reason is a regression.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.scenarios import Scenario, Session

#: Scenario string → SHA-256 of its per-replication outcome tuples.
GOLDEN = {
    "one-fail-adaptive k=64 reps=5 seed=101": (
        "b3bbdac1cdaf543a003efd966cd80f0eb488bfc274cdfe36fbb2eb77ce9138f2"
    ),
    "one-fail-adaptive k=256 reps=5 seed=102": (
        "853bc360d7dcbc3462f369772ae731f6843bdf5c0eb3e9f8c6a17b607c341ff6"
    ),
    "log-fails-adaptive k=64 reps=5 seed=103": (
        "09fbb74de924866e0c20ca38e5fe8610aa40c2a1077f5e6ab53bb5dc9a941b14"
    ),
    "log-fails-adaptive k=256 reps=5 seed=104": (
        "5d16e76a30a78a600f789497f67f7bc33f09166e8549b6a0fd7d325865d49eb6"
    ),
    "exp-backon-backoff k=1000 reps=4 seed=105": (
        "7c7ce3c28c6000c1ec05580642ca8e6ced32ec9d93132bcf39fd88dc3654f52d"
    ),
    "loglog-iterated-backoff k=1000 reps=4 seed=106": (
        "4e525c71148879bc592ee86be2466dc06e2dcf1218e94ea0b9e31bc6414686d6"
    ),
    "slotted-aloha k=300 reps=6 seed=107": (
        "2d5dafd66d0efa357d73b902a6262e9bb84fd2122f8e55e1f9ac6a0743120081"
    ),
}


def _cell_digest(results) -> str:
    outcomes = [
        (
            result.solved,
            result.makespan,
            result.slots_simulated,
            result.successes,
            result.collisions,
            result.silences,
        )
        for result in results
    ]
    return hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()


@pytest.fixture(scope="module")
def default_results():
    scenarios = [Scenario.parse(text) for text in GOLDEN]
    return dict(zip(GOLDEN, Session().run_all(scenarios)))


@pytest.mark.parametrize("text", list(GOLDEN))
def test_default_session_results_are_pinned(default_results, text):
    result_set = default_results[text]
    assert result_set.all_solved
    assert _cell_digest(result_set.results) == GOLDEN[text]
