"""Rateless IBLT synchronisation over a simulated link (§7.3).

Timeline (matching the paper's Fig 13 narrative):

* ``t = 0``       — Bob's request leaves (the TCP-open half round trip);
* ``t = 0.5·RTT`` — Alice starts streaming coded symbols in chunks,
  keeping her transmitter exactly saturated (line-rate streaming);
* Bob decodes each chunk as it arrives (modelled per-symbol CPU cost);
  the moment every received cell zeroises he sends a stop message;
* Alice keeps the pipe full until the stop arrives — the overshoot is
  charged to the transfer, as a real TCP stream would be.

The caller supplies a :class:`SyncPlan` — how many symbols decoding needs
and what they cost — typically measured by running the real codec on the
workload (see ``repro.ledger.workload``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.net.link import Link, Message
from repro.net.simulator import Simulator
from repro.net.trace import BandwidthTrace

REQUEST_BYTES = 96
STOP_BYTES = 64
CHUNK_HEADER_BYTES = 16


@dataclass
class SyncPlan:
    """What the codec run determined about this reconciliation."""

    symbols_needed: int
    bytes_per_symbol: float
    decode_seconds_per_symbol: float = 0.0
    chunk_symbols: int = 256


@dataclass
class RatelessSyncOutcome:
    """Timing and byte accounting of one simulated sync."""

    completion_time: float
    bytes_down_at_decode: int
    bytes_down_total: int
    bytes_up: int
    symbols_delivered: int
    trace: Optional[BandwidthTrace] = field(default=None, repr=False)


def simulate_riblt_sync(
    plan: SyncPlan,
    bandwidth_bps: float,
    delay_s: float,
    trace_bin_seconds: float = 0.1,
) -> RatelessSyncOutcome:
    """Run the streaming protocol on a fresh simulator; see module docs."""
    if plan.symbols_needed < 1:
        raise ValueError("need at least one symbol")
    sim = Simulator()
    trace = BandwidthTrace(trace_bin_seconds)
    link = Link(sim, bandwidth_bps, delay_s, trace_to_b=trace)

    chunk_payload = int(round(plan.chunk_symbols * plan.bytes_per_symbol))
    chunk_size = CHUNK_HEADER_BYTES + chunk_payload

    state = {
        "symbols_received": 0,
        "bob_busy_until": 0.0,
        "decoded_at": None,
        "bytes_at_decode": None,
        "stop_received": False,
    }

    def alice_send_chunk() -> None:
        """Put one chunk on the wire, then schedule the next for the moment
        the transmitter frees up (keeps the pipe exactly saturated)."""
        if state["stop_received"]:
            return
        link.send_to_b(chunk_size, plan.chunk_symbols, bob_receive_chunk)
        sim.schedule_at(link.a_to_b.busy_until, alice_send_chunk)

    def bob_receive_chunk(message: Message) -> None:
        if state["decoded_at"] is not None:
            return  # residual in-flight chunks are overshoot
        n = message.payload
        start = max(sim.now, state["bob_busy_until"])
        done = start + n * plan.decode_seconds_per_symbol
        state["bob_busy_until"] = done
        state["symbols_received"] += n
        if state["symbols_received"] >= plan.symbols_needed:
            state["decoded_at"] = done
            state["bytes_at_decode"] = link.a_to_b.bytes_sent
            sim.schedule_at(done, bob_send_stop)

    def bob_send_stop() -> None:
        link.send_to_a(STOP_BYTES, "stop", alice_receive_stop)

    def alice_receive_stop(message: Message) -> None:
        state["stop_received"] = True

    def alice_receive_request(message: Message) -> None:
        alice_send_chunk()

    link.send_to_a(REQUEST_BYTES, "sync-request", alice_receive_request)
    sim.run(max_events=50_000_000)

    assert state["decoded_at"] is not None, "stream never decoded"
    return RatelessSyncOutcome(
        completion_time=state["decoded_at"],
        bytes_down_at_decode=state["bytes_at_decode"],
        bytes_down_total=link.a_to_b.bytes_sent,
        bytes_up=link.b_to_a.bytes_sent,
        symbols_delivered=state["symbols_received"],
        trace=trace,
    )
