"""Synchronisation protocols over the simulated network (§7.3).

Two kinds of simulator live here, answering different questions.

**The paper's §7.3 timing models** (Figs 12–14) replay a measured plan
or transcript — a line-rate stream with no credit window and a
calibrated decode cost, so the figures reproduce the paper's protocol
dynamics rather than this implementation's:

``riblt_sync``  — Alice streams Rateless IBLT coded symbols at line rate;
                  Bob decodes incrementally and signals stop (half a round
                  trip of interactivity).
``heal_sync``   — lock-step replay of a state-heal transcript with a
                  per-node compute model at Bob (reproducing the
                  compute-bound plateau of Fig 14);
                  ``simulate_merkle_sync`` runs the registry's ``merkle``
                  scheme on two item sets and replays that heal.

**The protocol as implemented:**

``machine_sync``— the same sans-io ``ReconcilerMachine`` pair every other
                  transport drives, frame by frame through a bandwidth/
                  latency/loss link (``LinkSession``) — any framable
                  registered scheme over a lossy link, and the gossip
                  mesh's ``sim`` transport.
"""

from repro.net.protocols.heal_sync import (
    HealSyncOutcome,
    simulate_merkle_sync,
    simulate_state_heal,
)
from repro.net.protocols.machine_sync import (
    SchemeSyncOutcome,
    simulate_machine_sync,
)
from repro.net.protocols.riblt_sync import RatelessSyncOutcome, simulate_riblt_sync

__all__ = [
    "HealSyncOutcome",
    "RatelessSyncOutcome",
    "SchemeSyncOutcome",
    "simulate_machine_sync",
    "simulate_merkle_sync",
    "simulate_riblt_sync",
    "simulate_state_heal",
]
