"""The simulated-link transport for the sans-io protocol engine.

:func:`simulate_machine_sync` runs the *same*
:class:`~repro.protocol.InitiatorMachine` /
:class:`~repro.protocol.ResponderMachine` pair the in-memory pump and
the asyncio TCP service drive — but every frame travels a
:class:`~repro.net.link.Link` with bandwidth serialisation, propagation
delay, and (new) loss-induced retransmission.  That makes "any
registered scheme over a lossy 20 Mbps / 50 ms link" a one-liner for
the first time: streaming schemes fill the pipe like the Fig 13 model
(the responder produces a block whenever its transmitter frees up and
the shard's credit window is open, so a long-fat link ramps like slow
start), sketch schemes pay their lock-step round trips, and the
estimator composition pays its extra exchange.

Only schemes that can neither stream nor serialize (Merkle's
interactive heal) cannot be framed; use
:func:`~repro.net.protocols.heal_sync.simulate_state_heal` /
:func:`~repro.net.protocols.scheme_sync.simulate_scheme_sync` for those.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional

from repro.api.base import ReconcileResult
from repro.api.registry import get_scheme
from repro.net.link import Link
from repro.net.protocols.scheme_sync import SchemeSyncOutcome
from repro.net.simulator import Simulator
from repro.protocol import InitiatorMachine, memory_responder
from repro.service.errors import ProtocolError


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
    max_rounds: int = 4,
    max_symbols: Optional[int] = None,
    use_estimator: Optional[bool] = None,
    **params: object,
) -> SchemeSyncOutcome:
    """Synchronise Bob to Alice through the engine, under a link model.

    Alice (the responder) sits at endpoint "a", Bob (the initiator) at
    endpoint "b"; ``completion_time`` is the moment Bob's last shard
    decodes.  ``use_estimator`` defaults to "whenever a fixed-capacity
    scheme has no explicit ``difference_bound``" — the same policy as
    :func:`repro.api.reconcile`.
    """
    handle = get_scheme(scheme, **params)
    a = list(dict.fromkeys(alice_items))
    b = list(dict.fromkeys(bob_items))
    if handle.params.symbol_size is None:
        probe = a[0] if a else (b[0] if b else None)
        if probe is None:
            raise ValueError("simulating empty sets needs an explicit symbol_size")
        handle = handle.with_params(symbol_size=len(probe))
    caps = handle.capabilities
    if not caps.streaming and not caps.serializable:
        raise ValueError(
            f"scheme {handle.name!r} cannot be framed by the protocol engine; "
            "use simulate_scheme_sync for its interactive transcript"
        )
    fixed = caps.fixed_capacity
    if use_estimator is None:
        use_estimator = fixed and (caps.needs_estimator or not difference_bound)
    bound = max(1, difference_bound) if fixed and difference_bound else 0

    initiator = InitiatorMachine(
        handle,
        b,
        difference_bound=bound,
        max_rounds=max_rounds,
        max_symbols=max_symbols,
        use_estimator=bool(use_estimator),
    )
    responder = memory_responder(
        handle,
        a,
        block_size=block_symbols,
        slow_start=True,
        use_estimator=bool(use_estimator),
    )

    sim = Simulator()
    link = Link(
        sim,
        bandwidth_bps,
        delay_s,
        loss_rate=loss_rate,
        rng=random.Random(seed) if loss_rate else None,
    )
    state = {"decoded_at": None, "production_scheduled": False}

    def flush_responder() -> None:
        out = responder.take_output()
        if out:
            link.send_to_b(len(out), out, deliver_to_initiator)
        schedule_production()

    def flush_initiator() -> None:
        out = initiator.take_output()
        if out:
            link.send_to_a(len(out), out, deliver_to_responder)
        if initiator.decoded and state["decoded_at"] is None:
            state["decoded_at"] = sim.now

    def schedule_production() -> None:
        """Keep Alice's transmitter busy while her window allows (Fig 13)."""
        if state["production_scheduled"] or not responder.wants_tick:
            return
        state["production_scheduled"] = True
        sim.schedule_at(max(sim.now, link.a_to_b.busy_until), produce)

    def produce() -> None:
        state["production_scheduled"] = False
        if initiator.finished or not responder.wants_tick:
            return
        responder.tick(sim.now)
        flush_responder()

    def deliver_to_initiator(message) -> None:
        if initiator.finished:
            return
        initiator.bytes_received(message.payload)
        flush_initiator()

    def deliver_to_responder(message) -> None:
        if responder.finished:
            return
        responder.bytes_received(message.payload)
        flush_responder()

    initiator.start()
    responder.start()
    flush_initiator()
    schedule_production()
    sim.run(max_events=50_000_000)

    if initiator.failed is not None:
        error = initiator.failed
        if responder.failed is not None and type(error) is ProtocolError:
            error = responder.failed  # the Alice-side root cause
        raise error
    report = initiator.report
    if report is None:
        # The event heap drained with Bob still waiting — Alice died
        # without an ERROR frame (e.g. a representation-limit ValueError
        # while building a sketch).  Surface her root cause.
        if responder.failed is not None:
            raise responder.failed
        raise ProtocolError("simulated sync never completed (machines wedged)")
    result = ReconcileResult(
        only_in_a=set(report.only_in_remote),
        only_in_b=set(report.only_in_local),
        bytes_on_wire=report.accounted_bytes,
        symbols_used=report.symbols,
        scheme=report.scheme,
        rounds=report.rounds,
        symbol_size=report.symbol_size,
    )
    completed_at = state["decoded_at"] if state["decoded_at"] is not None else sim.now
    return SchemeSyncOutcome(
        scheme=report.scheme,
        completion_time=completed_at,
        bytes_down=link.a_to_b.bytes_sent,
        bytes_up=link.b_to_a.bytes_sent,
        rounds=report.rounds,
        result=result,
    )
