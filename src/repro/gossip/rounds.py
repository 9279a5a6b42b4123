"""One anti-entropy exchange: clocks, then digests, then the engine.

:func:`run_round` resolves an initiator→responder pair at the cheapest
sufficient tier:

1. **clock skip** — the initiator's :class:`~repro.gossip.node.PeerView`
   proves nothing changed on either side since the last confirmed sync:
   zero bytes move.
2. **digest exchange** — each side ships its
   :class:`~repro.gossip.node.SetDigest` (a ~14-byte frame).  Equal
   digests confirm equal sets (whp): the pair marks itself synced and
   the round cost stays two digest frames, zero coded symbols.
3. **full session** — the digests differ, so the pair drives the exact
   :class:`~repro.protocol.InitiatorMachine` /
   :class:`~repro.protocol.ResponderMachine` pair every other transport
   uses, over the configured transport:

   * ``memory`` — the lock-step byte shuttle (cell-exact, byte-counted);
   * ``sim`` — a :class:`~repro.net.link.Link` on a shared
     :class:`~repro.net.simulator.Simulator`, with bandwidth
     serialisation, propagation delay, and loss-induced retransmission;
   * ``service`` — real asyncio TCP: the responder node's warm backend
     is hosted by a :class:`~repro.service.ReconciliationServer` and the
     initiator machine shuttles over the socket.

Failures never hang: the machines are sans-io and surface every
protocol/budget error as a typed exception, which the round re-raises.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.api import SymbolBudgetExceeded
from repro.gossip.node import GossipNode, SetDigest
from repro.gossip.stats import RoundOutcome
from repro.net.link import Link
from repro.net.simulator import Simulator
from repro.protocol.events import MachineReport
from repro.protocol.machine import InitiatorMachine, ResponderMachine
from repro.service.errors import ProtocolError, ServiceError
from repro.service.framing import BodyReader, FrameError, pack_uvarints

#: What a dying full session can surface: typed budget/protocol errors
#: from either machine, framing garbage, and transport-level failures.
#: These degrade (suspect + backoff) under ``tolerate_failures``; other
#: exceptions are bugs and always propagate.
SESSION_FAILURES = (
    SymbolBudgetExceeded,
    ServiceError,
    FrameError,
    ConnectionError,
    OSError,
)

#: Tag byte opening a gossip digest frame (outside the service frame
#: catalogue: the digest exchange happens before any machine session).
DIGEST_TAG = 0x1D

#: Default staleness bound for the zero-byte clock skip: an in-sync pair
#: re-exchanges digests at least every this many rounds, so a peer that
#: mutated without ever initiating back is re-probed, bounding how long
#: a stale ``in_sync`` belief can survive.
DEFAULT_REFRESH_EVERY = 4


@dataclass
class GossipConfig:
    """Knobs shared by every round a mesh runs."""

    push: bool = True
    """Push-pull rounds: the initiator also pushes its exclusives."""

    block_size: int = 8
    """Coded symbols per SYMBOLS frame in full sessions."""

    max_symbols: Optional[int] = None
    """Initiator-side per-shard symbol budget (typed failure beyond)."""

    difference_bound: int = 0
    """Pre-sizing for fixed-capacity (sketch-mode) schemes."""

    use_estimator: bool = False
    """Run the strata exchange first (sketch-mode schemes only)."""

    refresh_every: int = DEFAULT_REFRESH_EVERY
    """Rounds an in-sync pair may clock-skip before re-proving it."""

    transport: str = "memory"
    """``memory`` | ``sim`` | ``service``."""

    bandwidth_bps: float = 20e6
    """Link bandwidth (sim transport)."""

    delay_s: float = 0.001
    """One-way propagation delay (sim transport)."""

    loss_rate: float = 0.0
    """Frame loss rate in [0, 1) (sim transport)."""

    seed: int = 0
    """Loss-model RNG seed base (sim transport)."""

    tolerate_failures: bool = True
    """Degrade instead of raise when a full session dies (budget blown,
    peer closed, transport error): the initiator marks the responder
    suspect — backing off its contact interval — and the round reports
    tier ``"failed"``.  ``False`` restores raise-through semantics for
    tests and callers that drive sessions directly."""


def encode_digest(digest: SetDigest) -> bytes:
    """Wire form of a digest frame: tag, version, count, XOR lanes."""
    return (
        bytes([DIGEST_TAG])
        + pack_uvarints(digest.version, digest.count)
        + digest.xor64.to_bytes(8, "big")
    )


def decode_digest(blob: bytes) -> SetDigest:
    """Parse a digest frame; raises ``ProtocolError`` on garbage."""
    if not blob or blob[0] != DIGEST_TAG:
        raise ProtocolError("not a gossip digest frame")
    try:
        reader = BodyReader(blob[1:])
        version = reader.uvarint()
        count = reader.uvarint()
        xor64 = int.from_bytes(reader.raw(8), "big")
        reader.expect_end()
    except ProtocolError:
        raise
    except Exception as exc:  # truncation, trailing junk, bad varints
        raise ProtocolError(f"malformed gossip digest frame: {exc}") from exc
    return SetDigest(version, xor64, count)


def exchange_digests(
    x: GossipNode, y: GossipNode, round_no: int
) -> Tuple[bool, int]:
    """Tier-2: swap digest frames; returns (sets match, bytes moved)."""
    request = encode_digest(x.digest())
    response = encode_digest(y.digest())
    x_digest = decode_digest(request)
    y_digest = decode_digest(response)
    y.note_peer_digest(x.node_id, x_digest, round_no)
    x.note_peer_digest(y.node_id, y_digest, round_no)
    matched = x_digest.matches(y_digest)
    if matched:
        x.mark_synced(y.node_id, y_digest, round_no)
        y.mark_synced(x.node_id, x_digest, round_no)
    return matched, len(request) + len(response)


def confirm_sync(x: GossipNode, y: GossipNode, round_no: int) -> bool:
    """Post-session bookkeeping: re-digest both sides, pin the clocks."""
    x_digest = x.digest()
    y_digest = y.digest()
    x.note_peer_digest(y.node_id, y_digest, round_no)
    y.note_peer_digest(x.node_id, x_digest, round_no)
    if x_digest.matches(y_digest):
        x.mark_synced(y.node_id, y_digest, round_no)
        y.mark_synced(x.node_id, x_digest, round_no)
        return True
    return False


def pump_counted(
    initiator: InitiatorMachine, responder: ResponderMachine
) -> Tuple[MachineReport, int]:
    """The lock-step in-memory shuttle, with full wire-byte accounting.

    Same drive order as :func:`repro.protocol.pump.pump`, but every
    byte either machine emits is counted (frames, handshake, STATS —
    everything), because the mesh's deliverable is total bytes on the
    wire, not just coded payload.
    """
    initiator.start()
    responder.start()
    wire_bytes = 0
    now = 0.0
    while not initiator.finished:
        out = initiator.take_output()
        if out and not responder.finished:
            wire_bytes += len(out)
            responder.bytes_received(out)
            continue
        back = responder.take_output()
        if back:
            wire_bytes += len(back)
            initiator.bytes_received(back)
            continue
        if responder.wants_tick:
            responder.tick(now)
            continue
        delay = responder.next_tick_delay(now)
        if delay is not None and not responder.finished:
            now += delay
            responder.tick(now)
            continue
        initiator.peer_closed()
    _raise_typed(initiator, responder)
    assert initiator.report is not None
    return initiator.report, wire_bytes


def _raise_typed(
    initiator: InitiatorMachine, responder: ResponderMachine
) -> None:
    """Re-raise a failed session's typed error (responder root cause
    preferred when the initiator only saw the peer vanish)."""
    if initiator.failed is None:
        return
    error = initiator.failed
    if responder.failed is not None and type(error) is ProtocolError:
        error = responder.failed
    raise error


class LinkSession:
    """One machine pair riding its own :class:`Link` on a shared sim.

    The event wiring mirrors
    :func:`repro.net.protocols.machine_sync.simulate_machine_sync` —
    the responder keeps its transmitter busy inside its credit window,
    frames arrive in order after serialisation + delay (+ retransmission
    under loss) — but many sessions coexist on one
    :class:`~repro.net.simulator.Simulator`, which is what an N-node
    mesh round is.
    """

    def __init__(
        self,
        sim: Simulator,
        initiator: InitiatorMachine,
        responder: ResponderMachine,
        *,
        bandwidth_bps: float,
        delay_s: float,
        loss_rate: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.sim = sim
        self.initiator = initiator
        self.responder = responder
        self.link = Link(
            sim, bandwidth_bps, delay_s, loss_rate=loss_rate, rng=rng
        )
        self.decoded_at: Optional[float] = None
        self._production_scheduled = False

    def start(self) -> None:
        self.initiator.start()
        self.responder.start()
        self._flush_initiator()
        self._schedule_production()

    # -- plumbing ----------------------------------------------------------

    def _flush_responder(self) -> None:
        out = self.responder.take_output()
        if out:
            self.link.send_to_b(len(out), out, self._deliver_to_initiator)
        self._schedule_production()

    def _flush_initiator(self) -> None:
        out = self.initiator.take_output()
        if out:
            self.link.send_to_a(len(out), out, self._deliver_to_responder)
        if self.initiator.decoded and self.decoded_at is None:
            self.decoded_at = self.sim.now

    def _schedule_production(self) -> None:
        if self._production_scheduled or not self.responder.wants_tick:
            return
        self._production_scheduled = True
        self.sim.schedule_at(
            max(self.sim.now, self.link.a_to_b.busy_until), self._produce
        )

    def _produce(self) -> None:
        self._production_scheduled = False
        if self.initiator.finished or not self.responder.wants_tick:
            return
        self.responder.tick(self.sim.now)
        self._flush_responder()

    def _deliver_to_initiator(self, message) -> None:
        if self.initiator.finished:
            return
        self.initiator.bytes_received(message.payload)
        self._flush_initiator()

    def _deliver_to_responder(self, message) -> None:
        if self.responder.finished:
            return
        self.responder.bytes_received(message.payload)
        self._flush_responder()

    # -- outcome -----------------------------------------------------------

    @property
    def wire_bytes(self) -> int:
        """Bytes the link carried, both directions, retransmits included."""
        return self.link.a_to_b.bytes_sent + self.link.b_to_a.bytes_sent

    def result(self) -> Tuple[MachineReport, int, float]:
        """(report, wire bytes, completion time); raises typed on failure."""
        _raise_typed(self.initiator, self.responder)
        report = self.initiator.report
        if report is None:
            if self.responder.failed is not None:
                raise self.responder.failed
            raise ProtocolError(
                "simulated gossip session never completed (machines wedged)"
            )
        completed = self.decoded_at if self.decoded_at is not None else self.sim.now
        return report, self.wire_bytes, completed


def run_link_session(
    initiator: InitiatorMachine,
    responder: ResponderMachine,
    *,
    bandwidth_bps: float,
    delay_s: float,
    loss_rate: float = 0.0,
    rng: Optional[random.Random] = None,
    sim: Optional[Simulator] = None,
) -> Tuple[MachineReport, int, float]:
    """Drive one machine pair over a (possibly lossy) simulated link."""
    sim = sim or Simulator()
    session = LinkSession(
        sim,
        initiator,
        responder,
        bandwidth_bps=bandwidth_bps,
        delay_s=delay_s,
        loss_rate=loss_rate,
        rng=rng,
    )
    session.start()
    sim.run(max_events=50_000_000)
    return session.result()


def run_round(
    x: GossipNode,
    y: GossipNode,
    round_no: int,
    config: Optional[GossipConfig] = None,
) -> RoundOutcome:
    """One anti-entropy exchange, initiator ``x`` → responder ``y``.

    ``memory`` and ``service`` transports apply the learned/pushed items
    immediately; the ``sim`` transport is driven by the mesh's shared
    round loop instead (see :meth:`GossipMesh.run_round`), which calls
    this only for the two cheap tiers.
    """
    config = config or GossipConfig()
    if x.in_backoff(y.node_id, round_no):
        return RoundOutcome(x.node_id, y.node_id, "backoff")
    if x.can_skip(y.node_id, round_no, config.refresh_every):
        return RoundOutcome(x.node_id, y.node_id, "clock-skip")
    matched, digest_bytes = exchange_digests(x, y, round_no)
    if matched:
        x.mark_contact_ok(y.node_id)
        y.mark_contact_ok(x.node_id)
        return RoundOutcome(
            x.node_id, y.node_id, "digest-skip", digest_bytes=digest_bytes
        )
    try:
        if config.transport == "service":
            report, wire_bytes = _run_service_session(x, y, config)
        else:
            initiator = x.initiator(
                push=config.push,
                max_symbols=config.max_symbols,
                difference_bound=config.difference_bound,
                use_estimator=config.use_estimator,
            )
            responder = y.responder(
                block_size=config.block_size,
                use_estimator=config.use_estimator,
            )
            if config.transport == "sim":
                report, wire_bytes, _ = run_link_session(
                    initiator,
                    responder,
                    bandwidth_bps=config.bandwidth_bps,
                    delay_s=config.delay_s,
                    loss_rate=config.loss_rate,
                    rng=random.Random(config.seed ^ (round_no << 16)
                                      ^ (x.node_id << 8) ^ y.node_id)
                    if config.loss_rate
                    else None,
                )
            else:
                report, wire_bytes = pump_counted(initiator, responder)
    except SESSION_FAILURES as exc:
        x.mark_failed(y.node_id, round_no)
        if not config.tolerate_failures:
            raise
        return RoundOutcome(
            x.node_id,
            y.node_id,
            "failed",
            digest_bytes=digest_bytes,
            error=f"{type(exc).__name__}: {exc}",
        )
    learned = x.learn(report.only_in_remote)
    confirm_sync(x, y, round_no)
    x.mark_contact_ok(y.node_id)
    y.mark_contact_ok(x.node_id)
    return RoundOutcome(
        x.node_id,
        y.node_id,
        "full",
        digest_bytes=digest_bytes,
        session_bytes=wire_bytes,
        symbols=report.symbols,
        learned=learned,
        delivered=report.pushed,
    )


def _run_service_session(
    x: GossipNode, y: GossipNode, config: GossipConfig
) -> Tuple[MachineReport, int]:
    """Full session over real asyncio TCP: ``y``'s warm backend is
    hosted by a :class:`~repro.service.ReconciliationServer` and ``x``'s
    initiator machine shuttles over the socket."""
    import asyncio

    from repro.service.server import ReconciliationServer, ServerConfig

    async def go() -> Tuple[MachineReport, int]:
        server = ReconciliationServer(
            backend=y.backend,
            config=ServerConfig(block_size=max(config.block_size, 8)),
        )
        await server.start()
        try:
            host, port = server.address
            return await _shuttle(host, port, config)
        finally:
            await server.close()

    async def _shuttle(host: str, port: int, config: GossipConfig):
        machine = x.initiator(
            push=config.push,
            max_symbols=config.max_symbols,
            difference_bound=config.difference_bound,
            use_estimator=config.use_estimator,
        )
        reader, writer = await asyncio.open_connection(host, port)
        wire_bytes = 0
        try:
            machine.start()
            while not machine.finished:
                out = machine.take_output()
                if out:
                    wire_bytes += len(out)
                    writer.write(out)
                    await writer.drain()
                if machine.finished:
                    break
                data = await reader.read(1 << 16)
                if not data:
                    machine.peer_closed()
                else:
                    wire_bytes += len(data)
                    machine.bytes_received(data)
            out = machine.take_output()
            if out:
                wire_bytes += len(out)
                writer.write(out)
                try:
                    await writer.drain()
                except (ConnectionError, OSError):
                    pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        if machine.failed is not None:
            raise machine.failed
        assert machine.report is not None
        return machine.report, wire_bytes

    return asyncio.run(go())
