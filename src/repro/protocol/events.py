"""Events, effects, and the outcome record of the protocol engine.

The sans-io contract (see :mod:`repro.protocol.machine`): a transport
feeds a :class:`~repro.protocol.machine.ReconcilerMachine` **events** —
``start()``, ``bytes_received(data)``, ``tick(now)``, ``peer_closed()``
— and in return drains **effects**:

:class:`SendBytes`
    Framed bytes the transport must deliver to the peer, in order.
:class:`Delivered`
    Terminal success: carries the :class:`MachineReport` the transport
    (or its caller) turns into a ``ReconcileResult`` / ``SyncResult``.
:class:`Failed`
    Terminal failure: carries the typed exception (the same
    ``ReconcileError`` / ``ServiceError`` family every legacy driver
    raised) for the transport to re-raise or log.

A machine never blocks, sleeps, or touches a socket; after a terminal
effect it is ``finished`` and ignores further events.  That is the
whole trick: the asyncio service, the in-memory pump, and the
discrete-event network simulator all drive the *same* protocol logic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Set

if TYPE_CHECKING:  # import-free at runtime: this module must not pull
    from repro.service.framing import SyncMode  # repro.service (cycle)


class Effect:
    """Marker base class for everything a machine asks a transport to do."""

    __slots__ = ()


@dataclass
class SendBytes(Effect):
    """Deliver ``data`` to the peer (already framed, order matters)."""

    data: bytes


@dataclass
class Delivered(Effect):
    """The reconciliation finished; ``report`` holds everything learned."""

    report: "MachineReport"


@dataclass
class Failed(Effect):
    """The reconciliation failed with the typed ``error``."""

    error: Exception


@dataclass(frozen=True)
class ClusterInfo:
    """Worker-pool routing metadata carried in a cluster WELCOME tail.

    A worker serving on behalf of a supervisor appends this to its
    WELCOME: the pool size, which worker answered, the *global* shard
    count, and one listening port per worker (all equal in
    SO_REUSEPORT single-port mode).  Worker ``w`` of ``num_workers``
    owns exactly the global shards ``{g : g % num_workers == w}``, so
    the tuple fully determines routing — no per-shard table needed.
    """

    num_workers: int
    worker_index: int
    total_shards: int
    ports: tuple = ()


@dataclass
class MachineReport:
    """Scheme- and transport-independent outcome of one machine run.

    Two byte totals coexist because the repo keeps two accountings:

    ``payload_bytes``
        Coded bytes actually carried inside SYMBOLS/SKETCH/ESTIMATE
        frame bodies — what the service's ``SyncResult.bytes_received``
        has always reported.
    ``accounted_bytes``
        The paper's §7.1 accounting (estimator ``wire_size`` plus each
        round's ``decode_wire_bytes``) — what ``reconcile()`` has always
        reported as ``bytes_on_wire``.  For streams the two coincide.
    """

    scheme: str
    mode: "SyncMode"
    symbol_size: Optional[int]
    only_in_remote: Set[bytes] = field(default_factory=set)
    only_in_local: Set[bytes] = field(default_factory=set)
    symbols: int = 0
    payload_bytes: int = 0
    accounted_bytes: int = 0
    rounds: int = 1
    pushed: int = 0
    push_bytes: int = 0
    payloads: Optional[dict] = None
    """Raw payload bytes of the connection's stream, captured only when
    asked (goldens), keyed by the serving worker's index (0 outside a
    cluster)."""

    cluster: Optional["ClusterInfo"] = None
    """Routing metadata from a cluster WELCOME tail (None outside one)."""

    @property
    def difference_size(self) -> int:
        return len(self.only_in_remote) + len(self.only_in_local)
