"""The asyncio reconciliation server: many peers, one warm stream each.

One :class:`ReconciliationServer` owns a sharded set and serves any
number of concurrent sessions over TCP.  Protocol logic — handshake
validation, stream production with slow-start ramping and the
connection's credit window, sketch RETRY doubling, symbol budgets with
their grace window, PUSH/BYE/STATS — is *not* implemented here: each
session is a :class:`~repro.protocol.ResponderMachine` (the same
sans-io machine the in-memory pump and the simulated link drive), and
this module is only the asyncio shell that shuttles socket bytes in,
machine frames out, and ``tick``s production while the machine wants
it: one tick per write, serving the blocks ``_WRITE_BYTES`` buy in one
encode pass (the in-memory pump and the simulated link tick one block
at a time).  What bounds a session's cost is the machine's credit
window, not the socket: kernel buffers let a server run megabytes ahead
of a busy client, so the machine serves the stream only up to the limit
the client's ``CREDIT`` frames have granted.  A window-stalled session
holds a cursor and waits on its read task; one that never grants is
reaped by ``idle_timeout`` with the typed ``IDLE`` error.

Runaway sessions are dropped, not tolerated: a stream that exceeds
``max_symbols`` without the client reporting decode fails the
machine with the typed :class:`~repro.api.SymbolBudgetExceeded`, which
reaches the client as an ``ERROR`` frame (so it fails with the same
typed exception).  Mutating the served set mid-session similarly
surfaces as a typed :class:`~repro.service.backends.StaleStream` /
``ERROR`` rather than a stream that silently stopped making sense.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Iterable, Optional

import repro.protocol.machine as protocol_machine
from repro.api.registry import Scheme
from repro.protocol.events import ClusterInfo
from repro.service.backends import ShardBackend, open_backend
from repro.service.framing import (
    MAX_FRAME_BYTES,
    ErrorCode,
    FrameError,
    FrameType,
    encode_frame,
    pack_busy_body,
)
from repro.service.defaults import DEFAULT_BUSY_RETRY_AFTER, with_service_hasher

_READ_CHUNK = 1 << 16
# Coded bytes a session serves per tick (one encode pass, one write)
# while its window is open.  16 KiB cut big_diff server CPU by another
# quarter but raised its client CPU and sync p50 ~8 % on a 2-core host.
_WRITE_BYTES = 1 << 12


@dataclass
class ServerConfig:
    """Service knobs (all enforceable per deployment, not negotiated up)."""

    block_size: int = 64
    """Coded symbols per SYMBOLS frame (stream mode)."""

    max_symbols: Optional[int] = 1 << 17
    """Per-session symbol budget of the one stream; ``None`` disables
    the cap."""

    budget_grace: float = 1.0
    """Seconds a budget-exhausted stream waits for the client's DONE
    (covering symbols already in flight) before the session is declared
    runaway and dropped."""

    max_sketch_bound: int = 1 << 16
    """Largest sketch capacity a RETRY may request (sketch mode)."""

    max_frame: int = MAX_FRAME_BYTES
    """Inbound frame size cap."""

    max_sessions: Optional[int] = None
    """Finish after this many sessions (CLI/testing); ``None`` = forever."""

    idle_timeout: Optional[float] = 60.0
    """Seconds of session silence (no client bytes, no write progress)
    before the server sends a typed ``ErrorCode.IDLE`` frame and drops
    the session — a stalled client must not hold its session state,
    budget grace, and backpressure bookkeeping forever.  ``None``
    disables the deadline."""

    max_concurrent_sessions: Optional[int] = None
    """Admission cap on *live* sessions.  A connection arriving past it
    is answered immediately with a typed ``ErrorCode.BUSY`` frame (the
    retry-after hint included) and shed — never silently queued behind
    sessions it cannot see.  ``None`` admits everything."""

    per_peer_rate: Optional[float] = None
    """Admissions per second allowed per peer host (token bucket,
    ``per_peer_burst`` capacity).  A peer dialling faster is shed with
    ``BUSY`` exactly like a session-cap overflow.  ``None`` disables
    peer rate limiting."""

    per_peer_burst: int = 8
    """Token-bucket capacity per peer host: how many connections one
    peer may open back-to-back before ``per_peer_rate`` throttles it."""

    max_session_bytes: Optional[int] = None
    """Per-session bound on coded bytes served.  A session crossing it
    mid-stream is shed with ``BUSY`` (the work is real, the client may
    retry later) so one enormous diff cannot monopolise the server's
    memory and cycles.  ``None`` disables the bound."""

    busy_retry_after: float = DEFAULT_BUSY_RETRY_AFTER
    """Retry-after hint (seconds) stamped into every ``BUSY`` frame."""


@dataclass
class ServerStats:
    """Counters across the server's lifetime (observability)."""

    sessions_started: int = 0
    sessions_completed: int = 0
    sessions_dropped: int = 0
    sessions_shed: int = 0
    """Connections answered with a typed ``BUSY``: refused at admission
    (those never count in ``sessions_started``) or cut mid-session by
    the ``max_session_bytes`` bound (those do — they were admitted)."""
    shed_reasons: dict = field(default_factory=dict)
    """Shed counts keyed by reason string (``"session limit"``,
    ``"peer rate limit"``, ``"session bytes"``)."""
    symbols_sent: int = 0
    bytes_sent: int = 0
    items_pushed: int = 0
    errors_sent: dict = field(default_factory=dict)

    def count_error(self, code: ErrorCode) -> None:
        self.errors_sent[int(code)] = self.errors_sent.get(int(code), 0) + 1

    def count_shed(self, reason: str) -> None:
        self.sessions_shed += 1
        self.shed_reasons[reason] = self.shed_reasons.get(reason, 0) + 1


class ReconciliationServer:
    """Serve reconciliation sessions for one (sharded) set.

    ``params`` go to the scheme's parameter dataclass exactly as in
    :func:`repro.api.reconcile`, except that the keyed checksum hash
    defaults to SipHash at the service layer (pass ``hasher="blake2b"``
    to override; see :mod:`repro.service.defaults`); ``symbol_size`` is
    inferred from the first item when omitted.  Alternatively pass an existing
    ``backend``: the server then hosts that backend's (live, warm)
    shard state directly — the gossip layer uses this to expose a
    :class:`~repro.gossip.GossipNode`'s set over TCP without copying or
    re-encoding it — and ``items``/``scheme``/``num_shards``/``params``
    must be left at their defaults.

    ``data_dir`` makes the served state durable (:mod:`repro.durable`):
    a fresh directory is initialised from ``items`` and checkpointed
    before serving; an existing one is *recovered* — snapshots parsed,
    churn journal replayed — so the server comes back warm without
    re-ingesting anything (``items`` may then be omitted, and the
    stored shard count and codec parameters are adopted).  ``durable``
    takes a :class:`~repro.durable.DurableConfig`; the server owns the
    store and closes it in :meth:`close`.
    """

    def __init__(
        self,
        items: Iterable[bytes] = (),
        *,
        scheme: str = "riblt",
        num_shards: int = 1,
        config: Optional[ServerConfig] = None,
        backend: Optional[ShardBackend] = None,
        data_dir: Optional[object] = None,
        durable: Optional[object] = None,
        **params: object,
    ) -> None:
        if backend is None:
            backend = open_backend(
                items,
                scheme=scheme,
                num_shards=num_shards,
                data_dir=data_dir,
                durable=durable,
                **with_service_hasher(scheme, params, data_dir),
            )
        elif (
            data_dir is not None
            or num_shards != 1
            or params
            or scheme != "riblt"
            or list(items)
        ):
            raise ValueError(
                "backend= is exclusive: the backend already fixes the "
                "items, scheme, shard count, parameters and data dir"
            )
        self._owns_store = data_dir is not None
        self.backend: ShardBackend = backend
        self.handle: Scheme = backend.handle
        self.config = config or ServerConfig()
        self.stats = ServerStats()
        self.cluster: Optional[ClusterInfo] = None
        """Set by a cluster worker before ``start``: stamps every
        session's WELCOME with the pool's routing tail."""
        self._server: Optional[asyncio.base_events.Server] = None
        self._extra_servers: list[asyncio.base_events.Server] = []
        self._session_tasks: set[asyncio.Task] = set()
        self._sessions_finished = 0
        self._active_sessions = 0
        self._peer_buckets: dict = {}
        self._finished = asyncio.Event()

    # -- the served set ---------------------------------------------------

    def add_item(self, item: bytes) -> None:
        """Add an item; the warm encoder is patched, not rebuilt."""
        self.add_items([item])

    def remove_item(self, item: bytes) -> None:
        """Remove an item; the warm encoder is patched, not rebuilt."""
        self.remove_items([item])

    def add_items(self, items: Iterable[bytes]) -> None:
        """Add a batch: one hash pass, one warm-bank patch, one stream
        invalidation per touched shard."""
        self.backend.add_many(items)

    def remove_items(self, items: Iterable[bytes]) -> None:
        """Remove a batch; the warm bank is patched in one pass."""
        self.backend.remove_many(items)

    def checkpoint(self) -> None:
        """Force a durable snapshot now (``data_dir`` servers only)."""
        if not self._owns_store:
            raise RuntimeError("checkpoint() needs a data_dir-backed server")
        self.backend.checkpoint()  # type: ignore[attr-defined]

    def __contains__(self, item: bytes) -> bool:
        return item in self.backend.sharded

    def __len__(self) -> int:
        return len(self.backend.sharded)

    @property
    def num_shards(self) -> int:
        return self.backend.num_shards

    # -- lifecycle --------------------------------------------------------

    async def start(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        reuse_port: bool = False,
    ) -> tuple[str, int]:
        """Bind and accept; returns the actual ``(host, port)``.

        ``reuse_port`` binds with ``SO_REUSEPORT`` so N worker processes
        can share one port, the kernel load-balancing accepts between
        them (raises on platforms without it).
        """
        if self._server is not None:
            raise RuntimeError("server already started")
        kwargs = {"reuse_port": True} if reuse_port else {}
        self._server = await asyncio.start_server(
            self._on_connection, host, port, **kwargs
        )
        sock_host, sock_port = self._server.sockets[0].getsockname()[:2]
        self._address = (sock_host, sock_port)
        return self._address

    async def listen(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        reuse_port: bool = False,
    ) -> tuple[str, int]:
        """Accept sessions on an additional address (cluster entry port)."""
        kwargs = {"reuse_port": True} if reuse_port else {}
        extra = await asyncio.start_server(
            self._on_connection, host, port, **kwargs
        )
        self._extra_servers.append(extra)
        return extra.sockets[0].getsockname()[:2]

    @property
    def address(self) -> tuple[str, int]:
        if self._server is None:
            raise RuntimeError("server not started")
        return self._address

    @property
    def port(self) -> int:
        return self.address[1]

    async def wait_finished(self) -> None:
        """Block until ``config.max_sessions`` sessions have finished
        (forever when unset — cancel or :meth:`close` to stop)."""
        await self._finished.wait()

    async def drain(self, timeout: Optional[float] = None) -> None:
        """Graceful shutdown: stop accepting, let live sessions finish.

        Sessions still running after ``timeout`` seconds are cancelled
        by the :meth:`close` this always ends with.
        """
        if self._server is not None:
            self._server.close()
        for extra in self._extra_servers:
            extra.close()
        pending = {task for task in self._session_tasks if not task.done()}
        if pending:
            await asyncio.wait(pending, timeout=timeout)
        await self.close()

    async def close(self) -> None:
        """Stop accepting, cancel live sessions, release the socket."""
        if self._server is not None:
            self._server.close()
        for extra in self._extra_servers:
            extra.close()
        for task in list(self._session_tasks):
            task.cancel()
        for task in list(self._session_tasks):
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        if self._server is not None:
            await self._server.wait_closed()
        for extra in self._extra_servers:
            await extra.wait_closed()
        self._extra_servers.clear()
        if self._owns_store:
            self.backend.close()  # type: ignore[attr-defined]
            self._owns_store = False
        self._finished.set()

    async def __aenter__(self) -> "ReconciliationServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # -- admission --------------------------------------------------------

    _MAX_PEER_BUCKETS = 1024

    def _admission_reason(self, writer: asyncio.StreamWriter) -> Optional[str]:
        """Why this connection must be shed (``None`` = admit it)."""
        config = self.config
        cap = config.max_concurrent_sessions
        if cap is not None and self._active_sessions >= cap:
            return "session limit"
        if config.per_peer_rate is not None:
            peername = writer.get_extra_info("peername")
            host = peername[0] if peername else "<unknown>"
            if not self._take_peer_token(host):
                return "peer rate limit"
        return None

    def _take_peer_token(self, host: str) -> bool:
        """One admission token from ``host``'s bucket (refill-on-read)."""
        rate = self.config.per_peer_rate or 0.0
        burst = float(max(1, self.config.per_peer_burst))
        now = asyncio.get_running_loop().time()
        tokens, stamp = self._peer_buckets.get(host, (burst, now))
        tokens = min(burst, tokens + (now - stamp) * rate)
        granted = tokens >= 1.0
        self._peer_buckets[host] = (tokens - 1.0 if granted else tokens, now)
        if len(self._peer_buckets) > self._MAX_PEER_BUCKETS:
            # A bucket refilled to capacity carries no state worth
            # keeping; drop those so hostile peer churn cannot grow the
            # table without bound.
            for peer, (held, seen) in list(self._peer_buckets.items()):
                if min(burst, held + (now - seen) * rate) >= burst:
                    del self._peer_buckets[peer]
        return granted

    async def _shed(self, writer: asyncio.StreamWriter, reason: str) -> None:
        """Answer an over-limit connection with ``BUSY`` and drop it.

        No machine, no session state: the BUSY frame is written
        immediately — the client pipelines its HELLO, so this *is* the
        HELLO's answer, in bounded time — then the connection closes.
        Every write is guarded: a peer that vanished first changes
        nothing.
        """
        self.stats.count_shed(reason)
        self.stats.count_error(ErrorCode.BUSY)
        frame = encode_frame(
            FrameType.ERROR,
            pack_busy_body(
                self.config.busy_retry_after, f"server busy: {reason}"
            ),
        )
        try:
            writer.write(frame)
            await asyncio.wait_for(writer.drain(), timeout=5.0)
        except (asyncio.TimeoutError, ConnectionError, OSError):
            pass

    # -- sessions ---------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._session_tasks.add(task)
        cancelled = False
        try:
            reason = self._admission_reason(writer)
            if reason is not None:
                await self._shed(writer, reason)
                return
            await self._run_admitted(reader, writer)
        except asyncio.CancelledError:
            # Server shutdown.  Absorb the cancellation: a handler task
            # that *ends* cancelled trips asyncio.streams' internal
            # done-callback into logging a spurious traceback.  An
            # admitted session's own finally already accounted it.
            cancelled = True
        finally:
            self._session_tasks.discard(task)
            writer.close()
            if not cancelled:
                try:
                    await writer.wait_closed()
                except (asyncio.CancelledError, ConnectionError, OSError):
                    pass

    async def _run_admitted(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.sessions_started += 1
        self._active_sessions += 1
        session = _Session(self, reader, writer)
        try:
            await session.run()
        except (FrameError, ConnectionError, OSError):
            pass  # accounted (as dropped) by the session's finally
        finally:
            self._active_sessions -= 1
            self._sessions_finished += 1
            maximum = self.config.max_sessions
            if maximum is not None and self._sessions_finished >= maximum:
                if self._server is not None:
                    self._server.close()
                self._finished.set()


class _Session:
    """One client connection: an asyncio pump around a responder machine."""

    def __init__(
        self,
        server: ReconciliationServer,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.server = server
        self.reader = reader
        self.writer = writer
        self._accounted = False
        config = server.config
        self.machine = protocol_machine.ResponderMachine(
            server.backend,
            server.handle,
            block_size=config.block_size,
            max_symbols=config.max_symbols,
            budget_grace=config.budget_grace,
            max_sketch_bound=config.max_sketch_bound,
            max_frame=config.max_frame,
            cluster=server.cluster,
        )

    async def run(self) -> None:
        machine = self.machine
        machine.start()
        loop = asyncio.get_running_loop()
        idle = self.server.config.idle_timeout
        # Progress = client bytes arriving, or our writes draining.  A
        # session making either kind never expires; one making neither
        # is a stalled client squatting on session state.
        last_progress = loop.time()
        read_task: asyncio.Task = asyncio.ensure_future(self.reader.read(_READ_CHUNK))
        byte_cap = self.server.config.max_session_bytes
        try:
            while not machine.finished:
                if byte_cap is not None and machine.bytes_sent >= byte_cap:
                    # The bound lives in the shell, not the machine: the
                    # machine cannot know the deployment's memory story.
                    # shed() queues the typed BUSY frame; the flush
                    # below delivers it.
                    self.server.stats.count_shed("session bytes")
                    machine.shed(
                        self.server.config.busy_retry_after,
                        f"session exceeded {byte_cap} served bytes",
                    )
                out = machine.take_output()
                if out:
                    self.writer.write(out)
                    if idle is None:
                        await self.writer.drain()
                    else:
                        remaining = last_progress + idle - loop.time()
                        try:
                            if remaining <= 0:
                                raise asyncio.TimeoutError
                            await asyncio.wait_for(
                                self.writer.drain(), timeout=remaining
                            )
                        except asyncio.TimeoutError:
                            # Client stopped reading: declare the
                            # deadline blown; the machine queues a typed
                            # ERROR frame, flushed best-effort below.
                            machine.deadline_expired()
                            continue
                    last_progress = loop.time()
                if machine.finished:
                    break
                if read_task.done():
                    data = read_task.result()  # re-raises connection errors
                    if not data:
                        machine.peer_closed()
                        continue
                    machine.bytes_received(data)
                    last_progress = loop.time()
                    read_task = asyncio.ensure_future(self.reader.read(_READ_CHUNK))
                    continue
                if machine.wants_tick:
                    # One tick serves about _WRITE_BYTES in one encode
                    # pass: no per-write or §6 writer cost per block.
                    # Production is synchronous CPU work; yield so sessions
                    # interleave even when the socket buffer never fills.
                    machine.tick(loop.time(), _WRITE_BYTES)
                    await asyncio.sleep(0)
                    continue
                delay = machine.next_tick_delay(loop.time())
                timeout = delay
                if idle is not None:
                    idle_remaining = last_progress + idle - loop.time()
                    if idle_remaining <= 0:
                        machine.deadline_expired()
                        continue
                    timeout = (
                        idle_remaining
                        if timeout is None
                        else min(timeout, idle_remaining)
                    )
                await asyncio.wait(
                    {read_task},
                    timeout=timeout,
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if not read_task.done() and delay is not None:
                    machine.tick(loop.time())
            out = machine.take_output()
            if out:
                # Bounded AND guarded: a client that stopped reading
                # must not pin the session in teardown forever, and one
                # that reset the connection mid-drain (the chaos proxy
                # manufactures exactly this) must surface here — as a
                # finished session whose final frame was lost — not as
                # an unhandled ConnectionResetError in the event loop.
                try:
                    self.writer.write(out)
                    await asyncio.wait_for(self.writer.drain(), timeout=5.0)
                except (asyncio.TimeoutError, ConnectionError, OSError):
                    pass
        finally:
            self._account()
            if not read_task.done():
                read_task.cancel()
            try:
                await read_task
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass

    def _account(self) -> None:
        """Fold this session into the server stats (exactly once).

        Runs in ``run``'s ``finally`` so sessions torn down by
        connection errors or server shutdown still report their
        symbols/bytes/error codes, like the legacy server did.
        """
        if self._accounted:
            return
        self._accounted = True
        machine = self.machine
        stats = self.server.stats
        if machine.complete:
            stats.sessions_completed += 1
        else:
            stats.sessions_dropped += 1
        stats.symbols_sent += machine.symbols_sent
        stats.bytes_sent += machine.bytes_sent
        stats.items_pushed += machine.pushes_applied
        for code in machine.error_codes:
            stats.count_error(code)
