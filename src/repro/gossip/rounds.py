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

   * ``memory`` — the lock-step loop, :func:`repro.protocol.pump.drive`
     (cell-exact, every wire byte counted);
   * ``sim`` — a :class:`~repro.net.protocols.machine_sync.LinkSession`
     on a :class:`~repro.net.simulator.Simulator`, with bandwidth
     serialisation, propagation delay, and loss-induced retransmission;
   * ``service`` — real asyncio TCP: the responder node's warm backend
     is hosted by a :class:`~repro.service.ReconciliationServer` and the
     initiator machine shuttles over the socket.

This module owns no in-process machine driver of its own:
:class:`PairRound` holds the tier ladder, the per-pair session
construction and the post-session bookkeeping, shared with the mesh's
concurrent ``sim`` rounds; moving bytes is the transports' job.

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
from repro.net.protocols.machine_sync import LinkSession
from repro.net.simulator import Simulator
from repro.protocol.events import MachineReport
from repro.protocol.machine import InitiatorMachine, ResponderMachine
from repro.protocol.pump import drive
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
    """Initiator-side symbol budget (typed failure beyond)."""

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
    matched = confirm_sync(
        x, y, round_no, decode_digest(request), decode_digest(response)
    )
    return matched, len(request) + len(response)


def confirm_sync(
    x: GossipNode, y: GossipNode, round_no: int, x_digest=None, y_digest=None
) -> bool:
    """Note each side's digest at the other (by default re-digest both,
    the post-session bookkeeping) and pin the clocks if they match."""
    x_digest = x_digest or x.digest()
    y_digest = y_digest or y.digest()
    x.note_peer_digest(y.node_id, y_digest, round_no)
    y.note_peer_digest(x.node_id, x_digest, round_no)
    if x_digest.matches(y_digest):
        x.mark_synced(y.node_id, y_digest, round_no)
        y.mark_synced(x.node_id, x_digest, round_no)
        return True
    return False


class PairRound:
    """One initiator ``x`` → responder ``y`` exchange in flight.

    Everything about a round that does not depend on the transport: the
    cheap tiers, the session machines, and the bookkeeping that closes a
    full session — shared by :func:`run_round` and the mesh's concurrent
    ``sim`` rounds, which differ only in who moves the bytes and when.
    """

    def __init__(
        self, x: GossipNode, y: GossipNode, round_no: int, config: GossipConfig
    ) -> None:
        self.x, self.y, self.round_no, self.config = x, y, round_no, config
        self.digest_bytes = 0

    def _outcome(self, tier: str, **fields: object) -> RoundOutcome:
        return RoundOutcome(
            self.x.node_id,
            self.y.node_id,
            tier,
            digest_bytes=self.digest_bytes,
            **fields,
        )

    def cheap_tiers(self) -> Optional[RoundOutcome]:
        """Backoff, clock skip, digest exchange; ``None`` when the
        digests differ, i.e. the pair still owes a full session."""
        x, y = self.x, self.y
        if x.in_backoff(y.node_id, self.round_no):
            return self._outcome("backoff")
        if x.can_skip(y.node_id, self.round_no, self.config.refresh_every):
            return self._outcome("clock-skip")
        matched, self.digest_bytes = exchange_digests(x, y, self.round_no)
        if not matched:
            return None
        x.mark_contact_ok(y.node_id)
        y.mark_contact_ok(x.node_id)
        return self._outcome("digest-skip")

    def initiator(self, push: bool) -> InitiatorMachine:
        return self.x.initiator(
            push=push,
            max_symbols=self.config.max_symbols,
            difference_bound=self.config.difference_bound,
            use_estimator=self.config.use_estimator,
        )

    def responder(self) -> ResponderMachine:
        return self.y.responder(
            block_size=self.config.block_size,
            use_estimator=self.config.use_estimator,
        )

    def link_session(self, sim: Simulator, push: bool) -> LinkSession:
        """The full session on ``sim`` (sim transport), not yet started."""
        config = self.config
        seed = (
            config.seed
            ^ (self.round_no << 16)
            ^ (self.x.node_id << 8)
            ^ self.y.node_id
        )
        return LinkSession(
            sim,
            self.initiator(push),
            self.responder(),
            bandwidth_bps=config.bandwidth_bps,
            delay_s=config.delay_s,
            loss_rate=config.loss_rate,
            rng=random.Random(seed) if config.loss_rate else None,
        )

    def failed(self, exc: Exception) -> RoundOutcome:
        """Degrade a dead full session: suspect + backoff, tier ``failed``
        (re-raised instead unless ``config.tolerate_failures``)."""
        self.x.mark_failed(self.y.node_id, self.round_no)
        if not self.config.tolerate_failures:
            raise exc
        return self._outcome("failed", error=f"{type(exc).__name__}: {exc}")

    def done(
        self,
        report: MachineReport,
        session_bytes: int,
        delivered: int,
        completion_time: float = 0.0,
    ) -> RoundOutcome:
        """Apply a finished session's diff to ``x`` and pin the clocks."""
        x, y = self.x, self.y
        learned = x.learn(report.only_in_remote)
        confirm_sync(x, y, self.round_no)
        x.mark_contact_ok(y.node_id)
        y.mark_contact_ok(x.node_id)
        return self._outcome(
            "full",
            session_bytes=session_bytes,
            symbols=report.symbols,
            learned=learned,
            delivered=delivered,
            completion_time=completion_time,
        )


def run_round(
    x: GossipNode,
    y: GossipNode,
    round_no: int,
    config: Optional[GossipConfig] = None,
) -> RoundOutcome:
    """One anti-entropy exchange, initiator ``x`` → responder ``y``.

    Learned/pushed items are applied immediately.  A mesh runs its
    ``sim`` rounds concurrently on one simulator instead (see
    :meth:`GossipMesh.run_round`).
    """
    config = config or GossipConfig()
    pair = PairRound(x, y, round_no, config)
    outcome = pair.cheap_tiers()
    if outcome is not None:
        return outcome
    try:
        if config.transport == "service":
            report, wire_bytes = _run_service_session(pair)
        elif config.transport == "sim":
            session = pair.link_session(Simulator(), config.push)
            report, wire_bytes, _ = session.run()
        else:
            initiator, responder = pair.initiator(config.push), pair.responder()
            wire_bytes = drive(initiator, responder)
            report = initiator.report
    except SESSION_FAILURES as exc:
        return pair.failed(exc)
    return pair.done(report, wire_bytes, report.pushed)


def _run_service_session(pair: PairRound) -> Tuple[MachineReport, int]:
    """Full session over real asyncio TCP: the responder's warm backend
    is hosted by a :class:`~repro.service.ReconciliationServer` and the
    initiator's machine is driven by the client's own socket loop."""
    import asyncio

    from repro.service.client import dial_initiator
    from repro.service.server import ReconciliationServer, ServerConfig

    async def go() -> Tuple[MachineReport, int]:
        server = ReconciliationServer(
            backend=pair.y.backend,
            config=ServerConfig(block_size=max(pair.config.block_size, 8)),
        )
        host, port = await server.start()
        try:
            # Both ends of this loopback session share one stall deadline.
            return await dial_initiator(
                pair.initiator(pair.config.push),
                host,
                port,
                idle_timeout=server.config.idle_timeout,
            )
        finally:
            await server.close()

    return asyncio.run(go())
