"""The sans-io reconciliation engine: one state machine, every transport.

The paper's protocol (§3–§4) is a single loop — stream coded symbols
until the peer's peeling decoder reports done — but before this module
the repo drove that loop separately per transport (in-memory sessions,
the simulated link, the asyncio TCP service).  :class:`ReconcilerMachine`
is that loop exactly once, written sans-io: it never touches a socket,
never sleeps, never blocks.

Event/effect contract
---------------------

A transport adapter feeds a machine **events** and drains **effects**
(:mod:`repro.protocol.events`):

* events — ``start()``, ``bytes_received(data)``, ``tick(now)``,
  ``peer_closed()``.  ``tick`` drives time-based behaviour: stream
  production on the responder and budget-grace expiry; ``now`` is any
  monotonic clock the transport likes (the in-memory pump uses a
  virtual one, asyncio uses ``loop.time()``, the network simulator its
  event-heap clock).
* effects — :class:`~repro.protocol.events.SendBytes` (framed bytes to
  deliver, in order), :class:`~repro.protocol.events.Delivered` (the
  terminal :class:`~repro.protocol.events.MachineReport`), and
  :class:`~repro.protocol.events.Failed` (the terminal typed error).
  ``take_output()`` is the byte-stream convenience; ``poll_effects()``
  the full-fidelity one.

Events never raise protocol errors: every failure — malformed frames,
budget exhaustion, a peer vanishing mid-stream — surfaces as a
``Failed`` effect carrying the same typed exception family the legacy
drivers raised (``ReconcileError`` / ``SymbolBudgetExceeded`` /
``ServiceError``...), so an adapter can blindly re-raise.  After a
terminal effect the machine is ``finished`` and ignores further events;
it can never hang a transport.

Direction convention (Alice/Bob)
--------------------------------

As everywhere in the repo, *Alice* is the remote sender and *Bob* the
local receiver who recovers the difference.  The
:class:`ResponderMachine` plays Alice (it owns a
:class:`~repro.service.backends.ShardBackend` and produces coded bytes);
the :class:`InitiatorMachine` plays Bob (it opens the session, absorbs,
and finally emits ``Delivered`` with ``only_in_remote`` = A \\ B and
``only_in_local`` = B \\ A).  A full-duplex peer simply runs one of
each over the same connection.

Wire format and modes
---------------------

Both machines speak the :mod:`repro.service.framing` catalogue at
``PROTOCOL_VERSION``; a peer on another version is refused, typed, at
the HELLO/WELCOME check.  Capability dispatch:

* the **streaming** scheme (Rateless IBLT, the only one) runs STREAM
  mode: the responder ships §6-framed coded symbols in ``SYMBOLS``
  frames until the initiator's peeler reports done (``SHARD_DONE`` per
  shard, then ``BYE``/``STATS``) — but never past the per-shard credit
  window the initiator's ``CREDIT`` frames open (see "Flow control"
  below);
* its ``HELLO`` ends with the initiator's cell 0, a set digest: a solo
  responder with an equal cell 0 answers ``WELCOME`` (IN_SYNC) + ``STATS``
  in one write, and on that ``STATS`` the initiator delivers the empty
  difference — one round trip;
* **fixed-capacity / one-shot serializable** schemes run SKETCH mode:
  sized sketches in ``SKETCH`` frames with client-driven doubling
  ``RETRY``s, never past the responder's ``max_sketch_bound`` — and,
  when both sides were constructed with ``use_estimator=True``, the
  strata-estimator exchange (``ESTIMATE`` frame) sizes the first
  sketch, the composition deployments use;
* neither side trusts the other's sizes or mode: the initiator checks
  the announced mode against its scheme's capabilities, and a
  ``SKETCH`` must echo the bound the initiator asked for;
* schemes that can neither stream nor serialize (Merkle's interactive
  heal) cannot be framed; callers keep the in-process path.

Flow control
------------

"Stream until Bob says stop" needs a brake that is not the transport's
buffers: a responder that can write faster than its peer decodes would
otherwise serialise megabytes nobody reads.  Each stream-mode shard
therefore has a cumulative symbol *limit*, ``INITIAL_WINDOW`` at first.
The responder starts a block only while the shard's cursor is below the
limit (block boundaries never move, so the initiator absorbs the same
prefix it always did).  The initiator doubles the limit — one
``CREDIT(shard, limit)`` frame — whenever what it has absorbed without
decoding reaches half of what it has granted: O(log symbols) frames per
shard, a responder never more than ~4x ahead of its peer, and a
long-fat link still ramps like TCP slow start.  The limit is cumulative
so grants are idempotent and order-free: a duplicate or stale one is a
no-op, never a double credit.

A read usually carries several blocks of every shard (one per shard
per tick), so the initiator absorbs a read's SYMBOLS frames in *waves*.
For each undecoded shard a wave takes every next frame whose cells lie
inside the shard encoder's coded prefix.  A frame past the prefix grows
it by doubling (to the frame's end, or twice the prefix within the
grant) and opens the shard's part of the next wave: O(log symbols) waves
and walk-kernel calls per shard, not one per frame, and since cells are
deterministic, block boundaries and wire bytes are those of frame-sized
growth.  A shard's frames are parsed into one block shaped like its
cached prefix, the matching ``cached_block`` is subtracted, and one
:func:`~repro.core.decoder.ingest` call peels every shard of the wave,
sharing each peel round's hash and kernel calls.  Each shard's job
names its frames' ends as stop points, so a shard that decodes mid-wave
stops at the first frame end it decodes at — peeling is monotone in the
prefix — and its later frames are dropped uncounted.  The initiator then
answers each frame (SHARD_DONE, CREDIT, typed error) in arrival order,
exactly as frame-at-a-time absorption would: shards are independent.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.api.base import (
    DEFAULT_MAX_ROUNDS,
    ESTIMATE_MARGIN,
    ReconcileError,
    SymbolBudgetExceeded,
)
from repro.api.registry import Scheme
from repro.baselines.strata import StrataEstimator
from repro.core.decoder import RatelessDecoder, ingest
from repro.core.encoder import RatelessEncoder
from repro.core.wire import SymbolStreamReader
from repro.protocol.events import (
    ClusterInfo,
    Delivered,
    Effect,
    Failed,
    MachineReport,
    SendBytes,
    ShardTally,
)
from repro.core.cellbank import CodedSymbolBank
from repro.service.backends import ShardBackend, StaleStream, set_digest
from repro.service.errors import (
    IdleTimeout,
    PeerError,
    ProtocolError,
    SchemeMismatch,
    ServerBusy,
)
from repro.service.framing import (
    INITIAL_WINDOW,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    BodyReader,
    ErrorCode,
    FrameDecoder,
    FrameError,
    FrameType,
    SyncMode,
    TruncatedFrame,
    encode_frame,
    pack_busy_body,
    pack_lp_str,
    pack_uvarints,
)
from repro.service.shard import hash_items, partition_with_hashes

# Sketch bound when the initiator's HELLO leaves sizing to the responder.
DEFAULT_SKETCH_BOUND = 16


def _raise_peer_error(body: bytes) -> None:
    """Map an ERROR frame to the typed exception the peer meant."""
    parser = BodyReader(body)
    code = parser.uvarint()
    if code == ErrorCode.BUSY:
        # BUSY alone carries structure past the code: uvarint
        # retry_after_ms, then the message.  Parsed defensively — a
        # peer that omitted the hint still sheds typed, just hintless.
        try:
            retry_ms = parser.uvarint()
        except FrameError:
            retry_ms = 0
        message = parser.rest().decode("utf-8", errors="replace")
        raise ServerBusy(f"server: {message}", retry_after=retry_ms / 1000.0)
    message = parser.rest().decode("utf-8", errors="replace")
    if code == ErrorCode.BUDGET:
        raise SymbolBudgetExceeded(
            f"server: {message}", symbols_sent=0, max_symbols=0
        )
    if code == ErrorCode.STALE:
        raise StaleStream(f"server: {message}")
    if code == ErrorCode.MISMATCH:
        raise SchemeMismatch(f"server: {message}")
    if code == ErrorCode.IDLE:
        raise IdleTimeout(f"server: {message}")
    if code in (ErrorCode.PROTOCOL, ErrorCode.UNSUPPORTED):
        raise ProtocolError(f"server: {message}")
    raise PeerError(code, message)


class ReconcilerMachine:
    """Shared sans-io plumbing: frame parsing, effects, terminal states.

    Subclasses implement ``_on_start`` / ``_on_frame`` / ``_on_tick`` /
    ``_on_peer_closed``; any exception they raise becomes a ``Failed``
    effect (optionally preceded by an ``ERROR`` frame — see
    ``_handle_failure``), never an exception out of an event method.
    """

    def __init__(self, max_frame: int = MAX_FRAME_BYTES) -> None:
        self._frames = FrameDecoder(max_frame)
        self._effects: List[Effect] = []
        self._started = False
        self.finished = False
        self.failed: Optional[Exception] = None
        self.report: Optional[MachineReport] = None

    # -- events -----------------------------------------------------------

    def start(self) -> None:
        """Begin the session (the initiator emits its HELLO here)."""
        if self._started or self.finished:
            return
        self._started = True
        self._guard(self._on_start)

    def bytes_received(self, data: bytes) -> None:
        """Feed raw transport bytes; any chunking/coalescing is fine."""
        if self.finished:
            return
        self._guard(lambda: self._feed(data))

    def tick(self, now: float = 0.0) -> None:
        """Advance time-based behaviour (production, grace deadlines)."""
        if self._started and not self.finished:
            self._guard(lambda: self._on_tick(now))

    def peer_closed(self) -> None:
        """The transport saw EOF; mid-frame or mid-sync closes fail."""
        if self.finished:
            return

        def handle() -> None:
            if self._frames.pending_bytes:
                raise TruncatedFrame(
                    f"peer closed with {self._frames.pending_bytes} bytes "
                    "of a partial frame"
                )
            self._on_peer_closed()

        self._guard(handle)

    # -- effects ----------------------------------------------------------

    def poll_effects(self) -> List[Effect]:
        """Drain and return every pending effect, in order."""
        out = self._effects
        self._effects = []
        return out

    def take_output(self) -> bytes:
        """Drain effects, returning the pending bytes-to-send.

        Terminal effects are mirrored on :attr:`report` / :attr:`failed`
        at emit time, so byte-stream adapters may use only this method.
        """
        return b"".join(
            effect.data
            for effect in self.poll_effects()
            if isinstance(effect, SendBytes)
        )

    # -- scheduling hints --------------------------------------------------

    @property
    def wants_tick(self) -> bool:
        """True when an immediate ``tick`` would make progress."""
        return False

    def next_tick_delay(self, now: float) -> Optional[float]:
        """Seconds until a ``tick`` is due (None: only input can help)."""
        return None

    # -- internals ---------------------------------------------------------

    def _feed(self, data: bytes) -> None:
        for ftype, body in self._frames.feed(data):
            if self.finished:
                break
            self._on_frame(ftype, body)

    def _guard(self, fn) -> None:
        try:
            fn()
        except Exception as exc:  # typed protocol failures AND bugs: never hang
            self._handle_failure(exc)

    def _handle_failure(self, exc: Exception) -> None:
        self._fail(exc)

    def _fail(self, exc: Exception) -> None:
        if self.finished:
            return
        self.failed = exc
        self.finished = True
        self._effects.append(Failed(exc))

    def _deliver(self, report: MachineReport) -> None:
        if self.finished:
            return
        self.report = report
        self.finished = True
        self._effects.append(Delivered(report))

    def _send_frame(self, ftype: int, body: bytes = b"") -> int:
        frame = encode_frame(ftype, body)
        self._effects.append(SendBytes(frame))
        return len(frame)

    # -- subclass responsibilities ----------------------------------------

    def _on_start(self) -> None:  # pragma: no cover - overridden
        pass

    def _on_frame(self, ftype: int, body: bytes) -> None:
        raise ProtocolError(f"unexpected frame type {ftype:#x}")

    def _on_tick(self, now: float) -> None:
        pass

    def _on_peer_closed(self) -> None:
        raise ProtocolError("peer closed the connection mid-session")


class _InitiatorShard:
    """Initiator-side decoding state for one shard.

    ``tally.shard`` is the *global* shard id (== the local frame id
    outside a cluster); ``items``/``hashes`` are the shard's slice of
    the batch and of its keyed hashes (computed once, for placement and
    checksums) — in stream mode, row-matrix and vector slices.  In
    stream mode the shard holds the core codec itself: an ``encoder``
    of its items, the §6 ``reader`` of the peer's stream, the peeling
    ``decoder``, and the count of coded symbols ``absorbed`` so far.
    In sketch mode ``bound`` is the sketch bound this side last asked
    for: the only one a ``SKETCH`` frame may echo.
    """

    __slots__ = (
        "items", "hashes", "encoder", "reader", "decoder", "absorbed", "tally",
        "done", "result", "granted", "bound",
    )

    def __init__(self, shard: int, items: list, hashes: list, bound: int) -> None:
        self.items = items
        self.hashes = hashes
        self.encoder: Optional[RatelessEncoder] = None
        self.reader: Optional[SymbolStreamReader] = None
        self.decoder: Optional[RatelessDecoder] = None
        self.absorbed = 0
        self.tally = ShardTally(shard)
        self.granted = INITIAL_WINDOW
        self.bound = bound
        self.done = False
        self.result = None


class InitiatorMachine(ReconcilerMachine):
    """Bob's side: opens the session, absorbs, delivers the difference.

    In STREAM mode each shard runs the core codec directly — a
    :class:`~repro.core.encoder.RatelessEncoder` of its items, a
    :class:`~repro.core.wire.SymbolStreamReader` and a
    :class:`~repro.core.decoder.RatelessDecoder` — and a read's SYMBOLS
    frames reach the decoders in waves, one ``ingest`` call per prefix
    doubling (see "Flow control").  ``difference_bound`` (> 0)
    pre-sizes sketch mode exactly like the legacy drivers;
    ``use_estimator=True`` (agreed out of band with the responder, not
    negotiated) runs the strata exchange first and sizes the initial
    sketch as ``ceil(estimate × ESTIMATE_MARGIN)``.
    """

    def __init__(
        self,
        handle: Scheme,
        items: Sequence[bytes],
        *,
        num_shards: int = 0,
        push: bool = False,
        max_symbols: Optional[int] = None,
        difference_bound: int = 0,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        use_estimator: bool = False,
        capture_payloads: bool = False,
        max_frame: int = MAX_FRAME_BYTES,
        item_hashes: Optional[Sequence[int]] = None,
        expect_worker: Optional[int] = None,
    ) -> None:
        super().__init__(max_frame)
        if handle.params.symbol_size is None:
            raise ValueError(
                f"scheme {handle.name!r}: the initiator needs an explicit symbol_size"
            )
        self.handle = handle
        self.items = items if hasattr(items, "shape") else list(items)
        self.num_shards_wish = num_shards
        self.push = push
        self.max_symbols = max_symbols
        self.difference_bound = int(difference_bound or 0)
        self.max_rounds = max_rounds
        self.use_estimator = use_estimator
        self._hash64 = handle.hash64
        self._item_hashes = item_hashes
        self.expect_worker = expect_worker
        self.cluster: Optional[ClusterInfo] = None
        self._state = "welcome"
        self._mode: Optional[SyncMode] = None
        self._shards: List[_InitiatorShard] = []
        self._remaining = -1
        self._estimator_rounds = 0
        self._estimator_bytes = 0
        self._estimator_payload = 0
        self._pushed = 0
        self._push_bytes = 0
        self._only_remote: set = set()
        self._only_local: set = set()
        self._payloads: Optional[dict] = {} if capture_payloads else None
        self._digest = b""

    # -- progress introspection (used by the in-memory Session wrapper) ---

    @property
    def decoded(self) -> bool:
        """True once every shard recovered its difference."""
        return self._remaining == 0

    @property
    def payload_bytes(self) -> int:
        """Coded payload bytes received so far (frame headers excluded)."""
        return self._estimator_payload + sum(
            st.tally.payload_bytes for st in self._shards
        )

    # -- machine events ----------------------------------------------------

    def _on_start(self) -> None:
        symbol_size = self.handle.params.symbol_size
        assert symbol_size is not None
        codec = self.handle.codec
        if self.handle.capabilities.streaming and codec is not None:
            # One pass from items to the row matrix the encoders slice and
            # to the keyed hashes placement and checksums share; the HELLO
            # digest (this side's cell 0) folds straight from both.
            self.items = codec.item_rows(self.items)
            if self._item_hashes is None:
                self._item_hashes = hash_items(self._hash64, self.items)
            self._digest = set_digest(self.items, self._item_hashes, codec).pack(codec)
        self._send_frame(
            FrameType.HELLO,
            pack_uvarints(PROTOCOL_VERSION)
            + pack_lp_str(self.handle.name)
            + pack_uvarints(
                symbol_size, codec.checksum_size if codec is not None else 0
            )
            + pack_lp_str(str(getattr(self.handle.params, "hasher", "")))
            + pack_uvarints(
                self.handle.key_probe,
                self.num_shards_wish,
                0,  # block size: responder's choice
                self.difference_bound,
            )
            + self._digest,
        )

    def _on_frame(self, ftype: int, body: bytes) -> None:
        if ftype == FrameType.ERROR:
            _raise_peer_error(body)
        if self._state == "welcome":
            self._on_welcome(ftype, body)
        elif self._state == "stream":
            raise ProtocolError(f"expected SYMBOLS, got frame type {ftype:#x}")
        elif self._state == "estimate":
            self._on_estimate(ftype, body)
        elif self._state == "sketch":
            self._on_sketch(ftype, body)
        elif self._state == "in_sync":
            if ftype != FrameType.STATS:
                raise ProtocolError(f"expected STATS, got frame type {ftype:#x}")
            self._deliver(self._build_report())
        else:  # "stats": drain frames racing the BYE
            if ftype == FrameType.STATS:
                self._deliver(self._build_report())

    def _on_welcome(self, ftype: int, body: bytes) -> None:
        if ftype != FrameType.WELCOME:
            raise ProtocolError(f"expected WELCOME, got frame type {ftype:#x}")
        welcome = BodyReader(body)
        version = welcome.uvarint()
        try:
            mode = SyncMode(welcome.uvarint())
        except ValueError as exc:
            raise ProtocolError(f"unknown sync mode in WELCOME: {exc}") from None
        granted = welcome.uvarint()
        welcome.uvarint()  # responder block size: informational
        cluster = self._parse_cluster_tail(welcome)
        welcome.expect_end()
        if version != PROTOCOL_VERSION:
            raise ProtocolError(
                f"server speaks protocol {version}, client {PROTOCOL_VERSION}"
            )
        caps = self.handle.capabilities
        # IN_SYNC answers this side's digest; only a solo responder gives it.
        runnable = {SyncMode.STREAM: caps.streaming, SyncMode.SKETCH: caps.serializable}
        if not runnable.get(mode, bool(self._digest) and cluster is None):
            raise ProtocolError(
                f"server announced {mode.name} mode, which scheme "
                f"{self.handle.name!r} cannot run"
            )
        # In a cluster the worker grants its *local* shard count; the
        # wish (and placement) always speak global shards.
        total = cluster.total_shards if cluster is not None else granted
        if self.num_shards_wish and total != self.num_shards_wish:
            raise SchemeMismatch(
                f"server runs {total} shards, caller demanded "
                f"{self.num_shards_wish}"
            )
        if cluster is not None:
            if (
                self.expect_worker is not None
                and cluster.worker_index != self.expect_worker
            ):
                raise ProtocolError(
                    f"routed to worker {cluster.worker_index}, "
                    f"expected worker {self.expect_worker}"
                )
            owned = list(
                range(cluster.worker_index, total, cluster.num_workers)
            )
            if granted != len(owned):
                raise ProtocolError(
                    f"worker {cluster.worker_index} granted {granted} shards "
                    f"but the striped topology owns {len(owned)}"
                )
        else:
            owned = list(range(granted))
        self.cluster = cluster
        self._mode = mode
        if self._payloads is not None:
            self._payloads = {g: bytearray() for g in owned}
        if mode == SyncMode.IN_SYNC:
            # The responder's cell 0 equals ours: the difference is empty.
            # Delivered on the STATS sent in the same write, and on nothing
            # else, so a corrupted mode byte cannot fake an empty answer.
            self._shards = [_InitiatorShard(g, None, None, 0) for g in owned]
            self._remaining = 0
            self._state = "in_sync"
            return
        hashes = self._item_hashes
        if hashes is None:
            hashes = hash_items(self._hash64, self.items)
        parts, part_hashes = partition_with_hashes(self.items, hashes, total)
        bound = self.difference_bound or DEFAULT_SKETCH_BOUND
        self._shards = [
            _InitiatorShard(g, parts[g], part_hashes[g], bound) for g in owned
        ]
        self._remaining = len(owned)
        if mode == SyncMode.STREAM:
            codec = self.handle.codec
            for st in self._shards:
                st.encoder = RatelessEncoder(codec, st.items, item_hashes=st.hashes)
                st.reader = SymbolStreamReader(codec)
                st.decoder = RatelessDecoder(codec)
            self._state = "stream"
        else:
            if self.use_estimator and len(owned) != 1:
                raise ProtocolError(
                    "the estimator composition requires a single shard"
                )
            self._state = "estimate" if self.use_estimator else "sketch"

    def _parse_cluster_tail(self, welcome: BodyReader) -> Optional[ClusterInfo]:
        """Routing metadata appended by cluster workers (absent = solo)."""
        if not welcome.remaining:
            return None
        num_workers = welcome.uvarint()
        worker_index = welcome.uvarint()
        total_shards = welcome.uvarint()
        if num_workers < 1 or not 0 <= worker_index < num_workers:
            raise ProtocolError(
                f"bad cluster tail: worker {worker_index} of {num_workers}"
            )
        if total_shards < num_workers:
            raise ProtocolError(
                f"bad cluster tail: {total_shards} shards over "
                f"{num_workers} workers"
            )
        ports = tuple(welcome.uvarint() for _ in range(num_workers))
        return ClusterInfo(num_workers, worker_index, total_shards, ports)

    def _feed(self, data: bytes) -> None:
        run: list = []  # consecutive SYMBOLS frames: (shard id, state, payload)
        try:
            for ftype, body in self._frames.feed(data):
                if self._state == "stream" and ftype == FrameType.SYMBOLS:
                    parser = BodyReader(body)
                    shard_id = parser.uvarint()
                    if shard_id >= len(self._shards):
                        raise ProtocolError(f"server sent unknown shard {shard_id}")
                    run.append((shard_id, self._shards[shard_id], parser.rest()))
                    continue
                frames, run = run, []
                if frames:
                    self._on_symbols(frames)
                if self.finished:
                    return
                self._on_frame(ftype, body)
        finally:  # the frames before a malformed header come first
            if run:
                self._on_symbols(run)

    def _on_symbols(self, frames: list) -> None:
        """Absorb a run of SYMBOLS frames in waves, then answer each frame
        in arrival order (see "Flow control")."""
        end, results, queues, ahead = len(frames), {}, {}, {}
        for pos, (_, st, _) in enumerate(frames):
            if not st.done:
                queues.setdefault(st, []).append(pos)
        while True:
            jobs, spans, bad = [], [], {}
            for st, queue in queues.items():
                bank, taken, top, encoder = None, [], st.absorbed, st.encoder
                while queue and queue[0] < end:
                    if taken and top == encoder.produced_count:
                        break  # the prefix is spent: the next wave grows it
                    part = ahead.pop(st, None)
                    if part is None:
                        # the cached prefix's form: the subtraction is one XOR per lane
                        part = encoder.bank.slice(0, 0)
                        try:
                            st.reader.feed_into(part, frames[queue[0]][2])
                        except ValueError as exc:  # the shard stops here
                            bad[st] = (queue[0], exc)
                            break
                    produced = encoder.produced_count
                    if top + len(part) > produced:
                        if taken:  # past the prefix: the next wave grows it
                            ahead[st] = part
                            break
                        grow = max(top + len(part), min(2 * produced, st.granted))
                        encoder.produce_block(grow - produced)
                    if bank is None:
                        bank = part
                    else:
                        bank.extend(part)
                    top += len(part)
                    taken.append((queue.pop(0), top))
                if taken:
                    bank.subtract_in_place(encoder.cached_block(st.absorbed, top))
                    stops = [cells - st.absorbed for _, cells in taken]
                    jobs.append((st.decoder, bank, stops))
                    spans.append((st, taken))
            if not (jobs or bad):
                break
            ingest(jobs)  # each decoder stops at the first frame end it decodes at
            for st, taken in spans:
                decoded, stop = st.decoder.decoded, st.decoder.symbols_received
                for pos, top in taken:
                    done = decoded and top >= stop
                    results[pos] = (done, top)
                    if done:
                        queues[st] = []  # its later frames are dropped
                        break
                    if self.max_symbols is not None and top >= self.max_symbols:
                        end = min(end, pos + 1)  # the run fails at this frame
                st.absorbed = stop
            for st, (pos, exc) in bad.items():
                if not st.decoder.decoded:  # reached: the run ends there
                    results[pos], end, queues[st] = exc, min(end, pos + 1), []
        for pos in range(end):
            shard_id, st, payload = frames[pos]
            if st.done:
                continue  # frames already in flight when SHARD_DONE crossed them
            if self._payloads is not None:
                self._payloads[st.tally.shard].extend(payload)
            st.tally.payload_bytes += len(payload)
            result = results[pos]
            if isinstance(result, ValueError):
                # A scheme deserializer rejecting peer bytes is a wire-level
                # corruption, not a caller bug: keep the failure typed.
                raise ProtocolError(
                    f"shard {shard_id}: malformed SYMBOLS payload: {result}"
                )
            decoded, st.tally.symbols = result
            if decoded:
                st.done = True
                st.result = st.decoder.result()
                self._remaining -= 1
                self._send_frame(FrameType.SHARD_DONE, pack_uvarints(shard_id))
                if not self._remaining:
                    self._finish_up()
            elif (
                self.max_symbols is not None
                and st.tally.symbols >= self.max_symbols
            ):
                raise SymbolBudgetExceeded(
                    f"shard {shard_id}: no decode within {self.max_symbols} "
                    "coded symbols",
                    symbols_sent=st.tally.symbols,
                    max_symbols=self.max_symbols,
                )
            elif 2 * st.tally.symbols >= st.granted:
                # Half the window absorbed and still undecoded: double it,
                # so the responder keeps streaming while the grant travels.
                while 2 * st.tally.symbols >= st.granted:
                    st.granted *= 2
                self._send_frame(
                    FrameType.CREDIT, pack_uvarints(shard_id, st.granted)
                )

    def _on_estimate(self, ftype: int, body: bytes) -> None:
        if ftype != FrameType.ESTIMATE:
            raise ProtocolError(f"expected ESTIMATE, got frame type {ftype:#x}")
        try:
            remote = StrataEstimator.deserialize(body)
        except ValueError as exc:
            raise ProtocolError(f"malformed ESTIMATE payload: {exc}") from None
        local = StrataEstimator.from_items(self.items)
        estimate = local.estimate(remote)
        self._estimator_rounds = 1
        self._estimator_bytes = remote.wire_size()
        self._estimator_payload = len(body)
        bound = max(1, math.ceil(estimate * ESTIMATE_MARGIN))
        if self.difference_bound:
            bound = max(bound, self.difference_bound)
        for local, st in enumerate(self._shards):
            st.bound = bound
            self._send_frame(FrameType.RETRY, pack_uvarints(local, bound))
        self._state = "sketch"

    def _on_sketch(self, ftype: int, body: bytes) -> None:
        if ftype != FrameType.SKETCH:
            raise ProtocolError(f"expected SKETCH, got frame type {ftype:#x}")
        parser = BodyReader(body)
        shard_id = parser.uvarint()
        bound = parser.uvarint()
        blob = parser.rest()
        if shard_id >= len(self._shards):
            raise ProtocolError(f"server sent unknown shard {shard_id}")
        st = self._shards[shard_id]
        if st.done:
            return
        if bound != st.bound:
            raise ProtocolError(
                f"shard {shard_id}: SKETCH echoes bound {bound}, "
                f"asked for {st.bound}"
            )
        if self._payloads is not None:
            self._payloads[st.tally.shard].extend(blob)
        st.tally.payload_bytes += len(blob)
        sized = self.handle.sized_for(max(1, bound))
        try:
            remote = sized.deserialize(blob)
        except ValueError as exc:
            raise ProtocolError(
                f"shard {shard_id}: malformed SKETCH payload: {exc}"
            ) from None
        local = sized.new(st.items)
        diff = remote.subtract(local)
        decode = diff.decode()
        st.tally.accounted_bytes += diff.decode_wire_bytes(decode)
        if decode.success:
            st.done = True
            st.result = decode
            st.tally.symbols = decode.symbols_used
            self._remaining -= 1
            self._send_frame(FrameType.SHARD_DONE, pack_uvarints(shard_id))
            if not self._remaining:
                self._finish_up()
            return
        if not self.handle.capabilities.fixed_capacity:
            raise ReconcileError(f"{self.handle.name}: sketch did not decode")
        st.tally.rounds += 1
        if st.tally.rounds > self.max_rounds:
            raise ReconcileError(
                f"shard {shard_id}: sketch did not decode within "
                f"{self.max_rounds} doublings (last bound {bound})"
            )
        st.bound = max(1, bound) * 2
        self._send_frame(FrameType.RETRY, pack_uvarints(shard_id, st.bound))

    def _finish_up(self) -> None:
        for st in self._shards:
            decode = st.result
            assert decode is not None
            st.tally.only_in_remote = len(decode.remote)
            st.tally.only_in_local = len(decode.local)
            self._only_remote.update(decode.remote)
            self._only_local.update(decode.local)
        if self.push and self._only_local:
            total = (
                self.cluster.total_shards
                if self.cluster is not None
                else len(self._shards)
            )
            pushes = sorted(self._only_local)
            by_shard, _ = partition_with_hashes(
                pushes, hash_items(self._hash64, pushes), total
            )
            for local, st in enumerate(self._shards):
                members = by_shard[st.tally.shard]
                if not members:
                    continue
                body = pack_uvarints(local, len(members)) + b"".join(members)
                self._push_bytes += len(body)
                self._pushed += len(members)
                self._send_frame(FrameType.PUSH, body)
        self._send_frame(FrameType.BYE)
        self._state = "stats"

    def _on_peer_closed(self) -> None:
        if self._state == "stats":
            # Peer closed without STATS; the reconciliation itself is done.
            self._deliver(self._build_report())
            return
        if self._state == "welcome":
            raise ProtocolError("server closed the connection before WELCOME")
        raise ProtocolError("server closed mid-sync (missing shards undecoded)")

    def _build_report(self) -> MachineReport:
        assert self._mode is not None
        payload = self.payload_bytes
        if self._mode == SyncMode.STREAM:
            accounted = payload - self._estimator_payload
        else:
            accounted = self._estimator_bytes + sum(
                st.tally.accounted_bytes for st in self._shards
            )
        rounds = self._estimator_rounds + (
            max((st.tally.rounds for st in self._shards), default=1)
        )
        return MachineReport(
            scheme=self.handle.name,
            mode=self._mode,
            num_shards=len(self._shards),
            symbol_size=self.handle.params.symbol_size,
            only_in_remote=self._only_remote,
            only_in_local=self._only_local,
            symbols=sum(st.tally.symbols for st in self._shards),
            payload_bytes=payload,
            accounted_bytes=accounted,
            rounds=rounds,
            pushed=self._pushed,
            push_bytes=self._push_bytes,
            per_shard=[st.tally for st in self._shards],
            payloads=self._payloads,
            cluster=self.cluster,
        )


class _ResponderShard:
    """Responder-side production state for one stream-mode shard."""

    __slots__ = ("shard", "cursor", "done", "ramp", "limit", "grace_deadline")

    def __init__(self, shard: int, cursor, ramp: int) -> None:
        self.shard = shard
        self.cursor = cursor
        self.done = False
        self.ramp = ramp
        self.limit = INITIAL_WINDOW
        self.grace_deadline: Optional[float] = None


class ResponderMachine(ReconcilerMachine):
    """Alice's side: validates the HELLO, then serves the backend.

    Stream-mode production happens on ``tick`` — one block per shard
    that is neither done nor at its credit limit, ramping from 8 cells
    up to ``block_size`` (``slow_start=False`` pins every block to
    ``block_size``, which the lock-step transports use for cell-exact
    termination).  A shard's limit starts at ``INITIAL_WINDOW`` and
    only the initiator's ``CREDIT`` frames raise it; a block starts
    whenever the cursor is below the limit, so at most
    ``limit + block_size`` symbols are ever served.  When every live
    shard sits at its limit ``wants_tick`` is False and
    ``next_tick_delay`` is None: only input (a grant, a SHARD_DONE) or
    the host's idle deadline moves the session.  Budget exhaustion arms
    a ``budget_grace`` deadline (symbols already in flight may still
    decode); ``tick``-ing past it fails the session with the typed
    ``SymbolBudgetExceeded`` and an ``ERROR`` frame.  The budget is
    checked before the limit, so no grant can buy symbols past it.
    """

    def __init__(
        self,
        backend: ShardBackend,
        handle: Scheme,
        *,
        block_size: int = 64,
        slow_start: bool = True,
        max_symbols_per_shard: Optional[int] = None,
        budget_grace: float = 1.0,
        max_sketch_bound: int = 1 << 16,
        use_estimator: bool = False,
        max_frame: int = MAX_FRAME_BYTES,
        cluster: Optional[ClusterInfo] = None,
    ) -> None:
        super().__init__(max_frame)
        self.backend = backend
        self.handle = handle
        self.cluster = cluster
        self.block_size = block_size
        self.slow_start = slow_start
        self.max_symbols_per_shard = max_symbols_per_shard
        self.budget_grace = budget_grace
        self.max_sketch_bound = max_sketch_bound
        self.use_estimator = use_estimator
        self.symbols_sent = 0
        self.bytes_sent = 0
        self.pushes_applied = 0
        self.complete = False
        self.error_codes: List[int] = []
        self._mode: Optional[SyncMode] = None
        self._streams: List[_ResponderShard] = []
        self._sketch_bound = DEFAULT_SKETCH_BOUND
        self._state = "hello"

    # -- failure plumbing --------------------------------------------------

    def _handle_failure(self, exc: Exception) -> None:
        if isinstance(exc, SymbolBudgetExceeded):
            self._send_error(ErrorCode.BUDGET, str(exc))
        elif isinstance(exc, StaleStream):
            self._send_error(ErrorCode.STALE, str(exc))
        # FrameError and internal failures drop the session silently,
        # matching the asyncio server (no ERROR reply to garbage).
        self._fail(exc)

    def _send_error(self, code: ErrorCode, message: str) -> None:
        self.error_codes.append(int(code))
        size = self._send_frame(
            FrameType.ERROR,
            pack_uvarints(int(code)) + message.encode("utf-8"),
        )
        if self._mode == SyncMode.STREAM:
            self.bytes_sent += size

    def _protocol_fail(self, code: ErrorCode, message: str) -> None:
        self._send_error(code, message)
        self._fail(ProtocolError(message))

    def deadline_expired(self, message: str = "session idle past deadline") -> None:
        """Hosting transport declares the peer stalled.

        The machine cannot observe wall-clock silence itself (sans-io);
        the server calls this when a session blows its idle deadline.
        Emits a typed ``ERROR`` frame — so a merely-slow client fails
        with :class:`~repro.service.errors.IdleTimeout` rather than a
        mute connection reset — and fails the session.
        """
        if self.finished:
            return
        self._send_error(ErrorCode.IDLE, message)
        self._fail(IdleTimeout(message))

    def shed(self, retry_after: float, message: str = "server busy") -> None:
        """Hosting transport sheds this session for overload control.

        Like :meth:`deadline_expired`, the trigger lives outside the
        sans-io machine (the server's byte/session bound tripped
        mid-session).  Emits the typed ``ErrorCode.BUSY`` frame with
        the server's retry-after hint and fails the session with
        :class:`~repro.service.errors.ServerBusy`, so the client backs
        off and retries instead of diagnosing a mute reset.
        """
        if self.finished:
            return
        self.error_codes.append(int(ErrorCode.BUSY))
        size = self._send_frame(
            FrameType.ERROR, pack_busy_body(retry_after, message)
        )
        if self._mode == SyncMode.STREAM:
            self.bytes_sent += size
        self._fail(ServerBusy(message, retry_after=retry_after))

    # -- machine events ----------------------------------------------------

    def _on_frame(self, ftype: int, body: bytes) -> None:
        if self._state == "hello":
            self._on_hello(ftype, body)
        else:
            self._on_session_frame(ftype, body)

    def _on_hello(self, ftype: int, body: bytes) -> None:
        if ftype != FrameType.HELLO:
            self._protocol_fail(
                ErrorCode.PROTOCOL, f"expected HELLO, got frame type {ftype:#x}"
            )
            return
        digest = self._check_hello(BodyReader(body))
        if digest is None:
            return
        mode = self.backend.mode
        # A cluster worker serves a stripe, never the whole set: it streams.
        if digest and not self.cluster:
            if digest == self.backend.digest().pack(self.handle.codec):
                mode = SyncMode.IN_SYNC
        welcome = pack_uvarints(
            PROTOCOL_VERSION,
            int(mode),
            self.backend.num_shards,
            self.block_size,
        )
        if self.cluster is not None:
            # Cluster tail: absent entirely outside a worker pool, so
            # solo WELCOMEs stay byte-identical to every golden capture.
            c = self.cluster
            welcome += pack_uvarints(
                c.num_workers, c.worker_index, c.total_shards, *c.ports
            )
        self._send_frame(FrameType.WELCOME, welcome)
        self._mode = mode
        if mode == SyncMode.IN_SYNC:
            self._send_stats()  # in the same write: one round trip
            return
        if mode == SyncMode.STREAM:
            ramp = min(8, self.block_size) if self.slow_start else self.block_size
            self._streams = [
                _ResponderShard(shard, self.backend.open_stream(shard), ramp)
                for shard in range(self.backend.num_shards)
            ]
            self._state = "stream"
            return
        self._state = "sketch"
        if self.use_estimator:
            estimator = StrataEstimator.from_items(list(self.backend.sharded))
            blob = estimator.serialize()
            self.bytes_sent += len(blob)
            self._send_frame(FrameType.ESTIMATE, blob)
        else:
            for shard in range(self.backend.num_shards):
                self._send_sketch(shard, self._sketch_bound)

    def _check_hello(self, body: BodyReader) -> Optional[bytes]:
        """The HELLO's digest field (empty when it carries none) once every
        trust check passed; ``None`` after a typed rejection."""
        version = body.uvarint()
        scheme = body.lp_str()
        symbol_size = body.uvarint()
        checksum_size = body.uvarint()
        hasher = body.lp_str()
        probe = body.uvarint()
        num_shards = body.uvarint()
        body.uvarint()  # block_size wish: informational, responder decides
        requested = body.uvarint()
        self._sketch_bound = requested or DEFAULT_SKETCH_BOUND
        digest = body.rest()
        handle, codec, mismatch = self.handle, self.handle.codec, ErrorCode.MISMATCH
        ours = getattr(handle.params, "hasher", "")
        shards = self.cluster.total_shards if self.cluster else self.backend.num_shards
        stride = symbol_size + checksum_size + CodedSymbolBank.COUNT_BYTES
        digests = (0, stride) if self.backend.mode == SyncMode.STREAM else (0,)
        checks = (  # in order; the first that fails is the one reported
            (version != PROTOCOL_VERSION, ErrorCode.PROTOCOL,
             f"protocol version {version} unsupported (server: {PROTOCOL_VERSION})"),
            (scheme != handle.name, mismatch,
             f"scheme mismatch: client {scheme!r}, server {handle.name!r}"),
            (symbol_size != handle.params.symbol_size, mismatch,
             f"symbol_size mismatch: client {symbol_size}, "
             f"server {handle.params.symbol_size}"),
            (codec is not None and checksum_size != codec.checksum_size, mismatch,
             f"checksum_size mismatch: client {checksum_size}, "
             f"server {codec and codec.checksum_size}"),
            (hasher and ours and hasher != ours, mismatch,
             f"hasher mismatch: client {hasher!r}, server {ours!r}"),
            (probe != handle.key_probe, mismatch,
             "hash key probe mismatch: peers hold different keys"),
            (num_shards and num_shards != shards, mismatch,
             f"shard count mismatch: client expects {num_shards}, "
             f"server runs {shards}"),
            (len(digest) not in digests, ErrorCode.PROTOCOL,
             f"HELLO digest of {len(digest)} bytes, expected one of {digests}"),
        )
        for failed, code, message in checks:
            if failed:
                return self._reject(code, message)
        # The client's own bound is capped like a RETRY's; the default is
        # the server's choice.  A sketch-mode responder has no digest.
        if self.backend.mode == SyncMode.SKETCH:
            return None if self._refuse_bound("HELLO", requested) else b""
        return digest

    def _reject(self, code: ErrorCode, message: str) -> None:
        self._send_error(code, message)
        self._fail(SchemeMismatch(message) if code == ErrorCode.MISMATCH
                   else ProtocolError(message))

    # -- after the handshake ------------------------------------------------

    def _on_session_frame(self, ftype: int, body: bytes) -> None:
        """Client frames after the handshake, in stream or sketch mode."""
        reader = BodyReader(body)
        stream = self._state == "stream"
        if ftype == FrameType.PUSH:
            self._apply_push(reader)
        elif ftype == FrameType.BYE:
            self._send_stats()
        elif ftype == FrameType.SHARD_DONE and not stream:
            pass  # bookkeeping only; nothing streams in sketch mode
        elif ftype in (FrameType.SHARD_DONE, FrameType.RETRY):
            shard = reader.uvarint()
            bound = reader.uvarint() if ftype == FrameType.RETRY else 0
            reader.expect_end()
            if shard >= self.backend.num_shards:
                self._protocol_fail(ErrorCode.PROTOCOL, f"no such shard {shard}")
            elif ftype == FrameType.SHARD_DONE:
                self._streams[shard].done = True
            elif stream:
                # In stream mode the backend has no sketches to rebuild.
                self._protocol_fail(ErrorCode.PROTOCOL, "RETRY is invalid in stream mode")
            elif not self._refuse_bound(f"shard {shard}", bound):
                self._send_sketch(shard, bound)
        elif ftype == FrameType.CREDIT and stream:
            shard = reader.uvarint()
            limit = reader.uvarint()
            if reader.remaining or shard >= len(self._streams):
                self._protocol_fail(
                    ErrorCode.PROTOCOL, f"malformed CREDIT for shard {shard}"
                )
                return
            st = self._streams[shard]
            # Cumulative, so a stale or duplicated grant changes nothing.
            st.limit = max(st.limit, limit)
        else:
            self._protocol_fail(
                ErrorCode.PROTOCOL, f"unexpected frame type {ftype:#x} from client"
            )

    def _on_tick(self, now: float) -> None:
        if self._state != "stream":
            return
        budget = self.max_symbols_per_shard
        for st in self._streams:
            if st.done:
                continue
            sent = st.cursor.symbols_sent
            if budget is not None and sent >= budget:
                if st.grace_deadline is None:
                    # Budget spent; symbols are still in flight, so give
                    # the client one grace period to report decode
                    # before declaring the session runaway.
                    st.grace_deadline = now + self.budget_grace
                    continue
                if now >= st.grace_deadline:
                    raise SymbolBudgetExceeded(
                        f"shard {st.shard}: {sent} symbols served without "
                        f"decode (budget {budget})",
                        symbols_sent=sent,
                        max_symbols=budget,
                    )
                continue
            if sent >= st.limit:
                continue  # window spent: wait for the initiator's CREDIT
            if self.slow_start:
                cells = st.ramp
                st.ramp = min(st.ramp * 2, self.block_size)
            else:
                cells = self.block_size
            if budget is not None:
                cells = min(cells, budget - sent)
            payload = st.cursor.next_block(cells)
            self.symbols_sent += cells
            self.bytes_sent += self._send_frame(
                FrameType.SYMBOLS, pack_uvarints(st.shard) + payload
            )

    @property
    def wants_tick(self) -> bool:
        if self.finished or self._state != "stream":
            return False
        budget = self.max_symbols_per_shard
        for st in self._streams:
            if st.done:
                continue
            sent = st.cursor.symbols_sent
            if budget is not None and sent >= budget:
                if st.grace_deadline is None:
                    return True  # a tick is needed to arm the grace deadline
            elif sent < st.limit:
                return True
        return False

    def next_tick_delay(self, now: float) -> Optional[float]:
        if self.finished or self._state != "stream":
            return None
        deadlines = [
            st.grace_deadline
            for st in self._streams
            if not st.done and st.grace_deadline is not None
        ]
        if self.wants_tick:
            return 0.0
        if deadlines:
            return max(0.0, min(deadlines) - now)
        return None

    def _refuse_bound(self, what: str, bound: int) -> bool:
        """Fail the session, typed ``BUDGET``, for a sketch bound past
        ``max_sketch_bound`` — before any sketch is built."""
        if bound <= self.max_sketch_bound:
            return False
        message = (
            f"{what}: sketch bound {bound} exceeds server cap "
            f"{self.max_sketch_bound}"
        )
        self._send_error(ErrorCode.BUDGET, message)
        self._fail(ReconcileError(message))
        return True

    def _send_sketch(self, shard: int, bound: int) -> None:
        blob = self.backend.build_sketch(shard, bound)
        self.bytes_sent += len(blob)
        self._send_frame(FrameType.SKETCH, pack_uvarints(shard, bound) + blob)

    # -- shared ------------------------------------------------------------

    def _send_stats(self) -> None:
        body = pack_uvarints(
            self.symbols_sent, self.bytes_sent, self.pushes_applied
        )
        size = self._send_frame(FrameType.STATS, body)
        if self._mode != SyncMode.SKETCH:
            self.bytes_sent += size
        self.complete = True
        self.finished = True

    def _apply_push(self, reader: BodyReader) -> None:
        reader.uvarint()  # shard hint; placement is re-derived locally
        count = reader.uvarint()
        symbol_size = self.handle.params.symbol_size
        assert symbol_size is not None
        items = [reader.raw(symbol_size) for _ in range(count)]
        reader.expect_end()
        # Known items (another session already pushed them) and repeats
        # are skipped; the rest land as one batch — one journal record
        # and one warm-bank patch per shard on a durable server.
        sharded = self.backend.sharded
        fresh = [item for item in dict.fromkeys(items) if item not in sharded]
        try:
            self.backend.add_many(fresh)
        except KeyError as exc:  # an item of a shard this worker does not own
            self._protocol_fail(ErrorCode.PROTOCOL, f"PUSH refused: {exc.args[0]}")
            return
        self.pushes_applied += len(fresh)

    def _on_peer_closed(self) -> None:
        # The client left without BYE: the session simply ends
        # incomplete (the adapter counts it as dropped), like the
        # asyncio server's read loop returning on EOF.
        self.finished = True
