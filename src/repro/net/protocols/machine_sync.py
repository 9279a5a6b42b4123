"""The simulated-link transport for the sans-io protocol engine.

:class:`LinkSession` is the one simulated-link driver: it runs the
*same* :class:`~repro.protocol.InitiatorMachine` /
:class:`~repro.protocol.ResponderMachine` pair the in-memory pump and
the asyncio TCP service drive — but every frame travels a
:class:`~repro.net.link.Link` with bandwidth serialisation, propagation
delay, and loss-induced retransmission.  :func:`simulate_machine_sync`
wraps it for two item sets ("any registered scheme over a lossy
20 Mbps / 50 ms link" as a one-liner); the gossip mesh puts many
sessions on one shared :class:`~repro.net.simulator.Simulator`.

Streaming schemes fill the pipe like the Fig 13 model (the responder
produces a block whenever its transmitter frees up and the
stream's credit window is open, so a long-fat link ramps like slow start),
sketch schemes pay their lock-step round trips, and the estimator
composition pays its extra exchange.

Only schemes that can neither stream nor serialize (Merkle's
interactive heal) cannot be framed; use
:func:`~repro.net.protocols.heal_sync.simulate_merkle_sync` for those.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from repro.api.base import DEFAULT_MAX_ROUNDS, ReconcileResult
from repro.api.registry import get_scheme
from repro.api.session import result_of, sketch_sizing
from repro.net.link import Link, Message
from repro.net.simulator import Simulator
from repro.protocol import (
    InitiatorMachine,
    MachineReport,
    ResponderMachine,
    memory_responder,
)
from repro.protocol.pump import raise_root_cause

#: Event cap for draining one simulator: a runaway event chain raises
#: instead of spinning.
MAX_SIM_EVENTS = 50_000_000


@dataclass
class SchemeSyncOutcome:
    """Unified timing/byte accounting of one simulated sync."""

    scheme: str
    completion_time: float
    bytes_down: int
    bytes_up: int
    rounds: int
    result: Optional[ReconcileResult] = None


class LinkSession:
    """One machine pair riding its own :class:`Link` on a simulator.

    The responder (endpoint "a") keeps its transmitter busy inside its
    credit window; frames arrive in order after serialisation + delay
    (+ retransmission under loss).  Many sessions may share one
    :class:`~repro.net.simulator.Simulator` — that is what an N-node
    mesh round is: ``start()`` each, drain the simulator once, then
    read each ``result()``.
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

    def run(self) -> Tuple[MachineReport, int, float]:
        """Start, drain the simulator, and return :meth:`result`."""
        self.start()
        self.sim.run(max_events=MAX_SIM_EVENTS)
        return self.result()

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
        """Keep Alice's transmitter busy while her window allows (Fig 13)."""
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

    def _deliver_to_initiator(self, message: Message) -> None:
        if self.initiator.finished:
            return
        self.initiator.bytes_received(message.payload)
        self._flush_initiator()

    def _deliver_to_responder(self, message: Message) -> None:
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
        """(report, wire bytes, completion time); raises typed on failure.

        Call once the simulator has drained.  ``completion time`` is the
        moment the initiator decoded.
        """
        if not self.initiator.finished:
            # The event heap drained with Bob still waiting — Alice died
            # without an ERROR frame (e.g. a representation-limit
            # ValueError while building a sketch).  Nothing will ever
            # arrive: the peer vanished, as in the in-memory pump.
            self.initiator.peer_closed()
        raise_root_cause(self.initiator, self.responder)
        assert self.initiator.report is not None  # finished and not failed
        completed = self.decoded_at if self.decoded_at is not None else self.sim.now
        return self.initiator.report, self.wire_bytes, completed


def run_link_session(
    initiator: InitiatorMachine, responder: ResponderMachine, **link: object
) -> Tuple[MachineReport, int, float]:
    """Drive one machine pair over its own (possibly lossy) simulated link;
    ``link`` takes :class:`LinkSession`'s keywords."""
    return LinkSession(Simulator(), initiator, responder, **link).run()


def simulate_machine_sync(
    alice_items: Iterable[bytes],
    bob_items: Iterable[bytes],
    scheme: str = "riblt",
    *,
    bandwidth_bps: float,
    delay_s: float,
    loss_rate: float = 0.0,
    seed: int = 0,
    block_symbols: int = 64,
    difference_bound: int = 0,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    max_symbols: Optional[int] = None,
    use_estimator: Optional[bool] = None,
    **params: object,
) -> SchemeSyncOutcome:
    """Synchronise Bob to Alice through the engine, under a link model.

    Alice (the responder) sits at endpoint "a", Bob (the initiator) at
    endpoint "b"; ``completion_time`` is the moment Bob
    decodes.  ``use_estimator`` defaults to "whenever a fixed-capacity
    scheme has no explicit ``difference_bound``" — the same policy as
    :func:`repro.api.reconcile` (``0`` here means "no bound").
    """
    a = list(dict.fromkeys(alice_items))
    b = list(dict.fromkeys(bob_items))
    handle = get_scheme(scheme, **params).bound_to(a, b)
    caps = handle.capabilities
    if not caps.streaming and not caps.serializable:
        raise ValueError(
            f"scheme {handle.name!r} cannot be framed by the protocol engine; "
            "use repro.net.protocols.simulate_merkle_sync for its "
            "interactive transcript"
        )
    bound, estimate = sketch_sizing(handle, difference_bound or None)
    if use_estimator is None:
        use_estimator = estimate
    session = LinkSession(
        Simulator(),
        InitiatorMachine(
            handle,
            b,
            difference_bound=bound,
            max_rounds=max_rounds,
            max_symbols=max_symbols,
            use_estimator=use_estimator,
        ),
        memory_responder(
            handle,
            a,
            block_size=block_symbols,
            slow_start=True,
            use_estimator=use_estimator,
        ),
        bandwidth_bps=bandwidth_bps,
        delay_s=delay_s,
        loss_rate=loss_rate,
        rng=random.Random(seed) if loss_rate else None,
    )
    report, _, completed_at = session.run()
    return SchemeSyncOutcome(
        scheme=report.scheme,
        completion_time=completed_at,
        bytes_down=session.link.a_to_b.bytes_sent,
        bytes_up=session.link.b_to_a.bytes_sent,
        rounds=report.rounds,
        result=result_of(report),
    )
