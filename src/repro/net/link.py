"""Point-to-point links with bandwidth serialisation and propagation delay.

Each direction models a single FIFO bottleneck: a message of ``size``
bytes occupies the transmitter for ``size·8/bandwidth`` seconds starting
no earlier than the previous message finished, then arrives after the
one-way propagation delay — the same fluid model Dummynet implements for
the paper's testbed (50 ms delay, 10-100 Mbps caps).

Loss (``loss_rate`` > 0 with an ``rng``) models a *reliable transport
over a lossy path*, the setting every framed protocol in this repo
assumes: a lost transmission is retransmitted after a retransmission
timeout, so the message still arrives, in order, but late — and the
wasted copies are charged to ``bytes_sent`` and occupy the transmitter.
Delivery therefore stays FIFO and loss shows up exactly where TCP users
feel it: added latency and extra bytes, never holes in the stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.net.simulator import Simulator
from repro.net.trace import BandwidthTrace


@dataclass
class Message:
    """Bytes in flight with an opaque payload for the receiver."""

    size: int
    payload: Any
    sent_at: float = 0.0
    delivered_at: float = 0.0


class _Direction:
    """One direction of a duplex link (its own bottleneck queue)."""

    # "Unlimited" bandwidth is modelled as 100 Gbps so that serialisation
    # times stay positive and event chains make progress.
    MAX_BANDWIDTH_BPS = 1e11

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float,
        delay_s: float,
        trace: Optional[BandwidthTrace] = None,
        loss_rate: float = 0.0,
        rng: Optional[random.Random] = None,
        rto_s: Optional[float] = None,
    ) -> None:
        # ``not x > 0`` (rather than ``x <= 0``) also rejects NaN.
        if not bandwidth_bps > 0.0:
            raise ValueError(f"bandwidth_bps must be > 0, got {bandwidth_bps}")
        if not delay_s >= 0.0:
            raise ValueError(f"delay_s must be >= 0, got {delay_s}")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        if loss_rate and rng is None:
            # Never let a requested loss rate silently model zero loss:
            # default to a fixed-seed stream (reproducible runs).
            rng = random.Random(0)
        self.sim = sim
        self.bandwidth_bps = min(bandwidth_bps, self.MAX_BANDWIDTH_BPS)
        self.delay_s = delay_s
        self.trace = trace
        self.loss_rate = loss_rate
        self.rng = rng
        # Conventional minimum RTO shape: one RTT plus a little slack.
        self.rto_s = rto_s if rto_s is not None else 2.0 * delay_s + 0.01
        self._free_at = 0.0
        self._last_delivery = 0.0
        self.bytes_sent = 0
        self.retransmissions = 0

    def send(self, message: Message, deliver: Callable[[Message], None]) -> float:
        """Enqueue a message; returns its delivery time."""
        sim = self.sim
        attempts = 1
        if self.loss_rate and self.rng is not None:
            while self.rng.random() < self.loss_rate:
                attempts += 1
        start = max(sim.now, self._free_at)
        serialisation = message.size * 8.0 / self.bandwidth_bps
        # Every lost copy occupied the transmitter and burned its bytes;
        # the surviving copy leaves one RTO after each loss.
        self._free_at = start + serialisation * attempts
        delivery_time = self._free_at + self.delay_s + (attempts - 1) * self.rto_s
        # A reliable transport delivers in order: a frame whose
        # predecessor is stuck in retransmission waits for it.
        delivery_time = max(delivery_time, self._last_delivery)
        self._last_delivery = delivery_time
        message.sent_at = sim.now
        message.delivered_at = delivery_time
        self.bytes_sent += message.size * attempts
        self.retransmissions += attempts - 1
        if self.trace is not None:
            self.trace.record(delivery_time, message.size * attempts)
        sim.schedule_at(delivery_time, lambda: deliver(message))
        return delivery_time

    @property
    def busy_until(self) -> float:
        """When the transmitter frees up."""
        return self._free_at


class Link:
    """A duplex link between two endpoints, "a" and "b"."""

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float,
        delay_s: float,
        trace_to_b: Optional[BandwidthTrace] = None,
        trace_to_a: Optional[BandwidthTrace] = None,
        loss_rate: float = 0.0,
        rng: Optional[random.Random] = None,
        rto_s: Optional[float] = None,
    ) -> None:
        self.sim = sim
        if loss_rate and rng is None:
            rng = random.Random(0)  # one shared stream for both directions
        self.a_to_b = _Direction(
            sim, bandwidth_bps, delay_s, trace_to_b, loss_rate, rng, rto_s
        )
        self.b_to_a = _Direction(
            sim, bandwidth_bps, delay_s, trace_to_a, loss_rate, rng, rto_s
        )

    @property
    def rtt(self) -> float:
        """Round-trip propagation time (no serialisation)."""
        return self.a_to_b.delay_s + self.b_to_a.delay_s

    def send_to_b(
        self, size: int, payload: Any, deliver: Callable[[Message], None]
    ) -> float:
        return self.a_to_b.send(Message(size, payload), deliver)

    def send_to_a(
        self, size: int, payload: Any, deliver: Callable[[Message], None]
    ) -> float:
        return self.b_to_a.send(Message(size, payload), deliver)
