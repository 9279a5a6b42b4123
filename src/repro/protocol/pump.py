"""The in-memory transport: pump two machines against each other.

This is the "transport" behind ``repro.api.reconcile``,
``repro.api.Session`` and the gossip mesh's ``memory`` rounds, and the
only copy of it: :func:`shuttle` moves frames, :func:`drive` adds the
responder's ticks, reports the wire bytes it moved and raises on
failure, :func:`pump` returns the report instead, and
:func:`raise_root_cause` is the one error rule, shared with the
simulated-link driver (:mod:`repro.net.protocols.machine_sync`).

Every frame a machine emits is handed straight to its peer, lock-step.
Lock-step matters — the responder only produces a new block (``tick``)
once the initiator has nothing left to say, so the coded-symbol stream
stops at exactly the cell that decodes, and byte accounting matches a
bare encoder → decoder loop over the core codec cell for cell.

Virtual time: the pump keeps a float clock that jumps straight to the
responder's next deadline when neither side has bytes to move, so
budget-grace expiry (a wall-clock second on a real transport) costs
nothing in memory.
"""

from __future__ import annotations

from typing import Sequence

from repro.api.registry import Scheme
from repro.protocol.events import MachineReport
from repro.protocol.machine import (
    InitiatorMachine,
    ReconcilerMachine,
    ResponderMachine,
)
from repro.service.backends import open_backend
from repro.service.errors import ProtocolError


def memory_responder(
    handle: Scheme,
    items: Sequence[bytes],
    *,
    num_shards: int = 1,
    block_size: int = 1,
    slow_start: bool = False,
    use_estimator: bool = False,
) -> ResponderMachine:
    """A responder over a fresh in-memory backend for ``items``.

    Defaults differ from the service profile on purpose: one shard,
    block size 1, no slow-start ramp and no budget — the lock-step,
    cell-exact configuration whose wire bytes are identical to a bare
    encoder → decoder loop over the core codec.
    """
    backend = open_backend(items, scheme=handle, num_shards=num_shards)
    return ResponderMachine(
        backend,
        backend.handle,
        block_size=block_size,
        slow_start=slow_start,
        use_estimator=use_estimator,
    )


def raise_root_cause(
    initiator: InitiatorMachine, responder: ReconcilerMachine
) -> None:
    """Re-raise a failed initiator's typed error; no-op while it has none.

    The one error rule of every in-process transport: both machines live
    in one process, so when the initiator only knows "the peer vanished"
    (a bare :class:`ProtocolError`), the responder's root cause (e.g. a
    scheme's representation-limit ``ValueError``) is the error the
    caller actually needs.
    """
    error = initiator.failed
    if error is None:
        return
    if responder.failed is not None and type(error) is ProtocolError:
        error = responder.failed
    raise error


def shuttle(initiator: InitiatorMachine, responder: ReconcilerMachine) -> int:
    """Hand every pending frame to its peer until both sides are quiet.

    Moves bytes only — it never ticks, so a caller that paces the
    responder itself (:class:`repro.api.Session`) uses it between ticks.
    Returns the wire bytes moved, both directions, every frame counted.
    """
    moved = 0
    while not initiator.finished:
        out = initiator.take_output()
        if out and not responder.finished:
            responder.bytes_received(out)
            moved += len(out)
            continue
        back = responder.take_output()
        if not back:
            break
        initiator.bytes_received(back)
        moved += len(back)
    return moved


def drive(initiator: InitiatorMachine, responder: ReconcilerMachine) -> int:
    """The lock-step loop: run both machines until the initiator finishes.

    Returns the total wire bytes moved (handshake, frames, STATS —
    everything), which is what the gossip mesh charges a full session,
    and leaves the outcome on ``initiator.report``; a ``Failed``
    initiator re-raises its typed error (see :func:`raise_root_cause`).
    """
    initiator.start()
    responder.start()
    wire_bytes = 0
    now = 0.0
    while True:
        wire_bytes += shuttle(initiator, responder)
        if initiator.finished:
            raise_root_cause(initiator, responder)
            return wire_bytes
        if responder.wants_tick:
            responder.tick(now)
            continue
        delay = responder.next_tick_delay(now)
        if delay is not None and not responder.finished:
            now += delay
            responder.tick(now)
            continue
        # Neither bytes nor ticks can move: the responder is finished or
        # wedged.  Surface it as the peer vanishing, never a hang.
        initiator.peer_closed()


def pump(
    initiator: InitiatorMachine, responder: ReconcilerMachine
) -> MachineReport:
    """:func:`drive` both machines to completion entirely in memory and
    return the initiator's :class:`MachineReport`."""
    drive(initiator, responder)
    assert initiator.report is not None  # finished and not failed
    return initiator.report
