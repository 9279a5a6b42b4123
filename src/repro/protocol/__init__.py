"""``repro.protocol`` — the transport-agnostic reconciliation engine.

One sans-io state machine per side (:class:`InitiatorMachine` /
:class:`ResponderMachine`, see :mod:`repro.protocol.machine` for the
event/effect contract and the Alice/Bob direction convention) drives
every transport in the repo:

* ``repro.api.Session`` / ``repro.api.reconcile`` pump the machines in
  memory (:func:`repro.protocol.pump.pump`);
* ``repro.net.protocols.machine_sync`` drives them through the
  discrete-event simulator's bandwidth/latency/loss links;
* ``repro.service`` shuttles the same frames over asyncio TCP.
"""

from repro.protocol.events import (
    ClusterInfo,
    Delivered,
    Effect,
    Failed,
    MachineReport,
    SendBytes,
)
from repro.protocol.machine import (
    DEFAULT_MAX_ROUNDS,
    DEFAULT_SKETCH_BOUND,
    ESTIMATE_MARGIN,
    InitiatorMachine,
    ReconcilerMachine,
    ResponderMachine,
)
from repro.protocol.pump import memory_responder, pump

__all__ = [
    "DEFAULT_MAX_ROUNDS",
    "DEFAULT_SKETCH_BOUND",
    "ESTIMATE_MARGIN",
    "ClusterInfo",
    "Delivered",
    "Effect",
    "Failed",
    "InitiatorMachine",
    "MachineReport",
    "ReconcilerMachine",
    "ResponderMachine",
    "SendBytes",
    "memory_responder",
    "pump",
]
