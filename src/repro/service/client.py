"""The asyncio reconciliation client: :func:`sync` a local set with a server.

Since the sans-io engine landed, the client is a ~30-line asyncio
adapter: it opens the socket, then shuttles raw bytes between the
stream pair and an :class:`~repro.protocol.InitiatorMachine` — the same
machine the in-memory pump and the simulated-link transport drive, so
the wire behaviour (HELLO handshake, stream absorb/DONE, sketch RETRY
doubling, PUSH/BYE/STATS) is defined exactly once, in
:mod:`repro.protocol.machine`.  That adapter, :func:`run_initiator`
(:func:`dial_initiator` with the connection handling), is the only
asyncio initiator loop: gossip's ``service`` transport drives its
machines through it too.

``push=True`` closes the loop: once everything decoded, the items the
server is missing (this side's exclusives) are pushed back, so both
sets converge in a single session while the server's warm encoder is
patched — not rebuilt — by the incoming items.

``retry=RetryPolicy(...)`` makes connection-level failures survivable:
refused/reset/timed-out connections are retried with exponential
backoff and deterministic, seedable jitter.  ``ConnectionError``/
``OSError`` retry, and so does the typed
:class:`~repro.service.errors.ServerBusy` an overloaded server sheds
with — its server-suggested retry-after hint takes precedence over the
policy's own (possibly shorter) backoff step.  Any other *typed*
protocol failure (budget exceeded, scheme mismatch, idle timeout, stale
stream) means both ends are alive and disagree, and retrying would just
replay the disagreement — unless ``retry_frame_errors`` opts into
treating corruption-shaped failures as transient (chaos testing over
deliberately lossy links).
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

import repro.protocol.machine as protocol_machine
from repro.api.base import DEFAULT_MAX_ROUNDS, SymbolBudgetExceeded
from repro.api.registry import get_scheme
from repro.protocol.events import ClusterInfo, MachineReport
from repro.service.defaults import with_service_hasher
from repro.service.errors import (
    IdleTimeout,
    ProtocolError,
    SchemeMismatch,
    ServerBusy,
    WorkerUnavailable,
)
from repro.service.framing import FrameError, MAX_FRAME_BYTES, SyncMode
from repro.service.shard import hash_items

_READ_CHUNK = 1 << 16
# The typed failures wire corruption decays into (RetryPolicy.retry_frame_errors).
_CORRUPTION = (FrameError, ProtocolError, SymbolBudgetExceeded, IdleTimeout)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded reconnect schedule: exponential backoff + seeded jitter.

    ``attempts`` counts *total* connection attempts (1 = no retries).
    The delay before retry ``k`` is ``base_delay * multiplier**(k-1)``
    capped at ``max_delay``, then scaled by a uniform factor in
    ``[1 - jitter, 1 + jitter]`` drawn from ``random.Random(seed)`` —
    so a seeded policy yields an exactly reproducible schedule (tests),
    while the default ``seed=None`` decorrelates a fleet of clients
    that all lost the same server at the same instant.
    """

    attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5
    seed: Optional[int] = None
    retry_frame_errors: bool = False
    """Also retry the typed failures wire corruption decays into —
    :class:`~repro.service.framing.FrameError` (mangled framing),
    :class:`~repro.service.errors.ProtocolError` (a corrupted type
    byte), :class:`~repro.api.SymbolBudgetExceeded` (a poisoned coded
    symbol that can never peel),
    :class:`~repro.service.errors.IdleTimeout` (a stalled or
    blackholed link hitting :func:`sync`'s ``idle_timeout``) —
    excluding :class:`~repro.service.errors.SchemeMismatch`, which is
    a real configuration disagreement a retry would only replay.  Off
    by default: on a healthy link these indicate bugs, not weather."""

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def delays(self) -> Iterator[float]:
        """The sleep before each retry (``attempts - 1`` values)."""
        rng = random.Random(self.seed)
        delay = self.base_delay
        for _ in range(self.attempts - 1):
            scale = 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
            yield min(delay, self.max_delay) * scale
            delay *= self.multiplier


@dataclass
class SyncResult:
    """Everything one :func:`sync` call learned (and spent)."""

    only_in_server: set = field(default_factory=set)
    only_in_client: set = field(default_factory=set)
    scheme: str = "riblt"
    mode: SyncMode = SyncMode.STREAM
    symbols: int = 0
    bytes_received: int = 0
    bytes_sent: int = 0
    pushed: int = 0
    rounds: int = 1
    """Sketch rounds (the estimator exchange counts one); 1 for a stream."""
    attempts: int = 1
    """Total connection attempts this sync spent (1 = first try won)."""
    busy_waits: int = 0
    """Attempts that ended in a typed ``BUSY`` shed and were retried
    after the server's retry-after hint — the client-side view of the
    server's shed counter."""
    payloads: Optional[dict] = None
    """Raw coded wire bytes per stream, captured only when asked (golden
    tests), keyed by the serving worker's index (0 for a solo server)."""

    @property
    def difference_size(self) -> int:
        return len(self.only_in_server) + len(self.only_in_client)


def _to_sync_result(report) -> SyncResult:
    return SyncResult(
        scheme=report.scheme,
        mode=report.mode,
        symbols=report.symbols,
        bytes_received=report.payload_bytes,
        bytes_sent=report.push_bytes,
        pushed=report.pushed,
        rounds=report.rounds,
        payloads=report.payloads,
        only_in_server=set(report.only_in_remote),
        only_in_client=set(report.only_in_local),
    )


async def sync(
    host: str,
    port: int,
    items: Iterable[bytes],
    *,
    scheme: str = "riblt",
    push: bool = False,
    max_symbols: Optional[int] = None,
    difference_bound: int = 0,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    capture_payloads: bool = False,
    max_frame: int = MAX_FRAME_BYTES,
    retry: Optional[RetryPolicy] = None,
    idle_timeout: Optional[float] = None,
    **params: object,
) -> SyncResult:
    """Reconcile ``items`` against the server at ``(host, port)``.

    ``items`` may be any iterable; a repeated item counts once, dropped
    before any hash or digest: on the lanes by one first-lane sort of the
    row matrix (:meth:`~repro.core.symbols.SymbolCodec.distinct_item_rows`),
    so only a batch holding a repeat, or a list-form one, pays a dedup pass.
    The server's shard count is its own affair: a solo server answers
    with one stream, a cluster with one per worker.  ``max_symbols`` is
    this side's budget per stream — exceeding it raises the same typed
    :class:`~repro.api.SymbolBudgetExceeded` a server-side drop
    produces.  ``difference_bound`` seeds sketch-mode sizing (ignored by
    streaming schemes); ``params`` configure the scheme exactly as in
    :func:`repro.api.reconcile`, except that the keyed checksum hash
    defaults to SipHash at the service layer (pass ``hasher="blake2b"``
    to override; see :mod:`repro.service.defaults`).  ``retry`` bounds
    reconnects on connection-level failures (see :class:`RetryPolicy`); the default
    ``None`` keeps the historical fail-fast behaviour.  ``idle_timeout``
    is this side's stall deadline: a session in which no byte moves for
    that long fails with a typed
    :class:`~repro.service.errors.IdleTimeout` instead of hanging on a
    blackholed link (``None`` = wait forever, the historical default).
    """
    materialised = list(items)
    handle = get_scheme(scheme, **with_service_hasher(scheme, params))
    handle = handle.bound_to(materialised)
    # One pass from item bytes to columns per sync, reused by every worker
    # session: a streaming scheme's batch becomes the row matrix its stream
    # encoder takes (a worker's stripe of it in a cluster), deduplicated by
    # one sort of its first lane, and one hash per item serves striping
    # and checksums.
    codec = handle.codec
    if codec is not None and handle.capabilities.streaming:
        materialised = codec.distinct_item_rows(materialised)
    else:
        materialised = list(dict.fromkeys(materialised))
    item_hashes = hash_items(handle.hash64, materialised)

    async def _session(
        session_host: str,
        session_port: int,
        *,
        expect_worker: Optional[int] = None,
        on_cluster=None,
    ) -> SyncResult:
        machine = protocol_machine.InitiatorMachine(
            handle,
            materialised,
            push=push,
            max_symbols=max_symbols,
            difference_bound=difference_bound,
            max_rounds=max_rounds,
            capture_payloads=capture_payloads,
            max_frame=max_frame,
            item_hashes=item_hashes,
            expect_worker=expect_worker,
        )
        report, _ = await dial_initiator(
            machine,
            session_host,
            session_port,
            idle_timeout=idle_timeout,
            on_cluster=on_cluster,
        )
        return _to_sync_result(report)

    async def _attempt() -> SyncResult:
        # A solo server answers the dialled port and that is the whole
        # sync.  A cluster worker's WELCOME carries a routing tail; the
        # moment it arrives we fan out one session per *other* worker
        # (their private ports) and merge — the items are striped by the
        # same keyed hash everywhere, so the sessions are disjoint.
        cluster_box: list[ClusterInfo] = []
        siblings: list[asyncio.Task] = []

        def _fan_out(info: ClusterInfo) -> None:
            cluster_box.append(info)
            for worker in range(info.num_workers):
                if worker != info.worker_index:
                    session = _session(host, info.ports[worker], expect_worker=worker)
                    siblings.append(asyncio.ensure_future(session))

        try:
            first = await _session(host, port, on_cluster=_fan_out)
            others = await asyncio.gather(*siblings)
        except BaseException:
            for task in siblings:
                task.cancel()
            await asyncio.gather(*siblings, return_exceptions=True)
            raise
        if not cluster_box or cluster_box[0].num_workers == 1:
            return first
        return _merge_cluster([first, *others])

    if retry is None:
        return await _attempt()
    delays = retry.delays()
    attempts = busy_waits = 0
    while True:
        attempts += 1
        try:
            result = await _attempt()
        except (ServerBusy, ConnectionError, OSError, *_CORRUPTION) as exc:
            weather = isinstance(exc, (ServerBusy, ConnectionError, OSError)) or (
                retry.retry_frame_errors and not isinstance(exc, SchemeMismatch)
            )
            pause = next(delays, None) if weather else None
            if pause is None:
                raise
            if isinstance(exc, ServerBusy):  # honour its retry-after hint
                busy_waits += 1
                pause = max(pause, exc.retry_after)
            await asyncio.sleep(pause)
        else:
            result.attempts, result.busy_waits = attempts, busy_waits
            return result


def sync_once(
    host: str, port: int, items: Iterable[bytes], **kwargs: object
) -> SyncResult:
    """Blocking convenience wrapper around :func:`sync` (CLI, scripts)."""
    return asyncio.run(sync(host, port, items, **kwargs))


async def dial_initiator(
    machine: protocol_machine.InitiatorMachine,
    host: str,
    port: int,
    *,
    idle_timeout: Optional[float] = None,
    on_cluster=None,
) -> tuple[MachineReport, int]:
    """:func:`run_initiator` over a fresh connection to ``(host, port)``,
    closed again whatever the outcome."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        return await run_initiator(
            machine, reader, writer, idle_timeout=idle_timeout, on_cluster=on_cluster
        )
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def run_initiator(
    machine: protocol_machine.InitiatorMachine,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    *,
    idle_timeout: Optional[float] = None,
    on_cluster=None,
) -> tuple[MachineReport, int]:
    """Shuttle bytes between the stream pair and an initiator machine.

    The one asyncio initiator loop.  Returns the machine's report and
    the wire bytes moved (both directions, every frame counted); a
    failed machine re-raises its typed error.  ``on_cluster`` fires
    once, as soon as a cluster WELCOME tail is parsed (the caller fans
    out sessions to the sibling workers).  ``idle_timeout`` bounds every
    socket wait (read and drain): a link that moves no byte for that
    long fails typed, never hangs.
    """

    async def _bounded(awaitable, doing: str):
        if idle_timeout is None:
            return await awaitable
        try:
            return await asyncio.wait_for(awaitable, timeout=idle_timeout)
        except asyncio.TimeoutError:
            raise IdleTimeout(
                f"no progress {doing} for {idle_timeout:g}s"
            ) from None

    machine.start()
    wire_bytes = 0
    cluster_seen = False
    saw_eof = False
    while not machine.finished:
        out = machine.take_output()
        if out:
            wire_bytes += len(out)
            writer.write(out)
            await _bounded(writer.drain(), "draining to server")
        if machine.finished:
            break
        data = await _bounded(reader.read(_READ_CHUNK), "reading from server")
        if not data:
            saw_eof = True
            machine.peer_closed()
        else:
            wire_bytes += len(data)
            machine.bytes_received(data)
        if not cluster_seen and machine.cluster is not None:
            cluster_seen = True
            if on_cluster is not None:
                on_cluster(machine.cluster)
    out = machine.take_output()
    if out:
        wire_bytes += len(out)
        writer.write(out)
        try:
            await writer.drain()
        except (ConnectionError, OSError):
            pass  # the sync outcome is already decided
    failure = machine.failed
    if failure is not None:
        in_cluster = machine.cluster is not None or machine.expect_worker is not None
        if (
            saw_eof
            and in_cluster
            and isinstance(failure, (ProtocolError, FrameError))
            and not isinstance(failure, SchemeMismatch)
        ):
            # A worker vanishing mid-session cuts the stream (a typed
            # ERROR frame would have arrived *before* EOF and kept
            # saw_eof False).  Retryable: the supervisor restarts it.
            raise WorkerUnavailable(
                f"cluster worker closed mid-session: {failure}"
            ) from failure
        raise failure
    assert machine.report is not None
    return machine.report, wire_bytes


def _merge_cluster(results: list) -> SyncResult:
    """Fold per-worker session results into one cluster-wide result.

    Workers own disjoint stripes, so the difference sets are disjoint
    unions, the counters plain sums and the rounds the most any worker
    took; payloads stay keyed by worker.
    """
    merged = SyncResult(scheme=results[0].scheme, mode=results[0].mode)
    for result in results:
        merged.only_in_server |= result.only_in_server
        merged.only_in_client |= result.only_in_client
        merged.symbols += result.symbols
        merged.bytes_received += result.bytes_received
        merged.bytes_sent += result.bytes_sent
        merged.pushed += result.pushed
        merged.rounds = max(merged.rounds, result.rounds)
        if result.payloads is not None:
            merged.payloads = {**(merged.payloads or {}), **result.payloads}
    return merged
