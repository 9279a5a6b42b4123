"""State heal over a simulated link: lock-step rounds + compute model.

Replays a :class:`~repro.baselines.merkle.heal.HealReport` transcript.
Round ``k``'s request can only leave once Bob has *processed* round
``k−1``'s nodes (their children define the next frontier), which is the
lock-step descent the paper highlights.  Bob's per-node processing cost
models hashing/verification/database writes; when the link outpaces the
CPU the protocol becomes compute-bound and stops benefiting from extra
bandwidth — the Fig 14 plateau.

The default per-node cost is calibrated so the plateau falls at ≈20 Mbps
for our node-size mix, matching the paper's observation for Geth.

:func:`simulate_merkle_sync` is the item-set face: it runs the registry's
``merkle`` scheme on two sets and replays the heal it just performed —
the one scheme the protocol engine cannot frame
(:func:`~repro.net.protocols.machine_sync.simulate_machine_sync` covers
every other).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.api.registry import get_scheme
from repro.api.session import one_shot_result
from repro.baselines.merkle.heal import HealReport
from repro.net.link import Link, Message
from repro.net.protocols.machine_sync import SchemeSyncOutcome
from repro.net.simulator import Simulator
from repro.net.trace import BandwidthTrace

# Seconds of CPU Bob spends per received trie node (hash check + decode +
# store write).  Calibrated against the ≈20 Mbps compute-bound plateau the
# paper reports for Geth's state heal.
DEFAULT_NODE_PROCESS_SECONDS = 8.0e-5


@dataclass
class HealSyncOutcome:
    """Timing and byte accounting of one simulated state heal."""

    completion_time: float
    bytes_down: int
    bytes_up: int
    round_trips: int
    nodes_fetched: int
    trace: Optional[BandwidthTrace] = field(default=None, repr=False)


def simulate_state_heal(
    report: HealReport,
    bandwidth_bps: float,
    delay_s: float,
    node_process_seconds: float = DEFAULT_NODE_PROCESS_SECONDS,
    trace_bin_seconds: float = 0.1,
) -> HealSyncOutcome:
    """Replay a heal transcript under a bandwidth/latency/compute model."""
    sim = Simulator()
    trace = BandwidthTrace(trace_bin_seconds)
    link = Link(sim, bandwidth_bps, delay_s, trace_to_b=trace)

    state = {
        "round": 0,
        "bob_busy_until": 0.0,
        "completed_at": 0.0,
    }
    rounds = report.rounds

    def bob_send_next_request() -> None:
        if state["round"] >= len(rounds):
            state["completed_at"] = sim.now
            return
        plan = rounds[state["round"]]
        link.send_to_a(plan.request_bytes, plan, alice_receive_request)

    def alice_receive_request(message: Message) -> None:
        plan = message.payload
        link.send_to_b(plan.response_bytes, plan, bob_receive_response)

    def bob_receive_response(message: Message) -> None:
        plan = message.payload
        start = max(sim.now, state["bob_busy_until"])
        done = start + plan.nodes_delivered * node_process_seconds
        state["bob_busy_until"] = done
        state["round"] += 1
        # The next frontier exists only after processing; request then.
        sim.schedule_at(done, bob_send_next_request)

    if rounds:
        bob_send_next_request()
        sim.run(max_events=10_000_000)
        state["completed_at"] = max(state["completed_at"], state["bob_busy_until"])

    return HealSyncOutcome(
        completion_time=state["completed_at"],
        bytes_down=link.a_to_b.bytes_sent,
        bytes_up=link.b_to_a.bytes_sent,
        round_trips=len(rounds),
        nodes_fetched=report.nodes_fetched,
        trace=trace,
    )


def simulate_merkle_sync(
    alice_items: Iterable[bytes],
    bob_items: Iterable[bytes],
    *,
    bandwidth_bps: float,
    delay_s: float,
    **params: object,
) -> SchemeSyncOutcome:
    """Heal Bob's trie of ``bob_items`` to Alice's, under a link model.

    Runs the real heal in process, then replays its transcript through
    :func:`simulate_state_heal` (lock-step rounds, no loss model).
    """
    handle = get_scheme("merkle", **params)
    diff = handle.new(alice_items).subtract(handle.new(bob_items))
    result = one_shot_result(handle, diff)
    heal = simulate_state_heal(diff.heal_report, bandwidth_bps, delay_s)
    return SchemeSyncOutcome(
        scheme=handle.name,
        completion_time=heal.completion_time,
        bytes_down=heal.bytes_down,
        bytes_up=heal.bytes_up,
        rounds=heal.round_trips,
        result=result,
    )
