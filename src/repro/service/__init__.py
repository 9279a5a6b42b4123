"""``repro.service`` — asyncio reconciliation serving (paper §1, §7.3).

The paper's deployment story is a server that streams coded symbols to
arbitrarily many clients *without any per-client state or prior
context*: one universal stream, patched incrementally as the set
churns.  This package is that story over real sockets:

:mod:`repro.service.framing`
    Length-prefixed frame layer over TCP, carrying one §6 coded-symbol
    stream (or one-shot sketch) per connection beside its control frames.
:mod:`repro.service.shard`
    Keyed hash-partitioning of a set into shards: the server's storage
    unit, and a cluster's routing unit.
:mod:`repro.service.backends`
    What produces a server's bytes: the warm Rateless-IBLT backend
    (one shared, continuously patched encoder per shard, served as the
    XOR of their prefixes — never re-encodes for a new client) or any
    registered scheme from :mod:`repro.api`.
:mod:`repro.service.server`
    The asyncio session manager: each connection pumps a
    :class:`~repro.protocol.ResponderMachine` (the sans-io engine),
    whose credit window bounds what a session is served and whose
    typed symbol budgets drop runaway sessions.
:mod:`repro.service.client`
    The asyncio client: :func:`~repro.service.client.sync` shuttles
    bytes between the socket and an
    :class:`~repro.protocol.InitiatorMachine`, optionally pushing back
    what the server is missing.
:mod:`repro.service.node`
    :class:`~repro.service.node.ServiceNode`, the high-level peer API
    combining a local set with both roles.
"""

from repro.service.backends import StaleStream
from repro.service.client import RetryPolicy, SyncResult, sync, sync_once
from repro.service.errors import (
    IdleTimeout,
    PeerError,
    ProtocolError,
    SchemeMismatch,
    ServerBusy,
    ServiceError,
    WorkerUnavailable,
)
from repro.service.framing import FrameError, FrameTooLarge, TruncatedFrame
from repro.service.node import ServiceNode
from repro.service.server import ReconciliationServer, ServerConfig, ServerStats

__all__ = [
    "FrameError",
    "FrameTooLarge",
    "IdleTimeout",
    "PeerError",
    "ProtocolError",
    "ReconciliationServer",
    "RetryPolicy",
    "SchemeMismatch",
    "ServerBusy",
    "ServerConfig",
    "ServerStats",
    "ServiceError",
    "ServiceNode",
    "StaleStream",
    "SyncResult",
    "TruncatedFrame",
    "WorkerUnavailable",
    "sync",
    "sync_once",
]
