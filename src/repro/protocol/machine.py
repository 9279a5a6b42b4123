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

* events — ``start()``, ``bytes_received(data)``, ``tick(now, burst)``,
  ``peer_closed()``.  ``tick`` drives time-based behaviour: stream
  production on the responder and budget-grace expiry; ``now`` is any
  monotonic clock the transport likes (the in-memory pump uses a
  virtual one, asyncio uses ``loop.time()``, the network simulator its
  event-heap clock); ``burst`` lets one tick serve that many bytes.
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
  frames — one stream per connection, whatever its shard count — until
  the initiator's peeler reports done (``DONE``, then ``BYE``/``STATS``)
  — but never past the credit window the initiator's ``CREDIT`` frames
  open (see "Flow control" below);
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
otherwise serialise megabytes nobody reads.  So there is one window per
connection: the stream has a cumulative symbol *limit*,
``INITIAL_WINDOW`` at first.  The responder starts a block only while
its cursor is below the limit (block boundaries never move, so the
initiator absorbs the same prefix it always did).  The initiator doubles
the limit — one ``CREDIT(limit)`` frame — whenever what it has absorbed
without decoding reaches half of what it has granted: O(log symbols)
frames per connection, a responder never more than ~4x ahead of its
peer, and a long-fat link still ramps like TCP slow start.  The limit is
cumulative so grants are idempotent and order-free: a duplicate or stale
one is a no-op, never a double credit.

The stream is one because a coded symbol is linear in the set (§4): the
responder's shards are storage, and its cell i is the XOR (and count
sum) of their cells i — the whole set's cell i.  So one encoder of this
side's items and one decoder serve the connection; a cluster worker
serves its stripe of the shards, and its initiator encodes the items
that stripe would hold.

A read usually carries several blocks, so the initiator absorbs a
read's SYMBOLS frames in *waves*.  A wave takes every next frame whose
cells lie inside the encoder's coded prefix.  A frame past the prefix
grows it by doubling (to the frame's end, or twice the prefix within
the grant) and opens the next wave: O(log symbols) waves and walk-kernel
calls, not one per frame, and since cells are deterministic, block
boundaries and wire bytes are those of frame-sized growth.  A wave's
frames are parsed into one block shaped like the cached prefix, the
matching ``cached_block`` is subtracted, and one
:meth:`~repro.core.decoder.RatelessDecoder.add_coded_block` call peels
it.  The call names the frames' ends as stop points, so a stream that
decodes mid-wave stops at the first frame end it decodes at — peeling is
monotone in the prefix — and its later frames are dropped uncounted.
The initiator then answers each frame (DONE, CREDIT, typed error) in
arrival order, exactly as frame-at-a-time absorption would.
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
from repro.core.decoder import DecodeResult, RatelessDecoder
from repro.core.encoder import RatelessEncoder
from repro.core.wire import SymbolStreamReader
from repro.protocol.events import (
    ClusterInfo,
    Delivered,
    Effect,
    Failed,
    MachineReport,
    SendBytes,
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
from repro.service.shard import hash_items, stripe_with_hashes

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
        raise SymbolBudgetExceeded(f"server: {message}", symbols_sent=0, max_symbols=0)
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

    def tick(self, now: float = 0.0, burst: int = 0) -> None:
        """Advance time-based behaviour (production, grace deadlines)."""
        if self._started and not self.finished:
            self._guard(lambda: self._on_tick(now, burst))

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

    def _on_tick(self, now: float, burst: int) -> None:
        pass

    def _on_peer_closed(self) -> None:
        raise ProtocolError("peer closed the connection mid-session")


class InitiatorMachine(ReconcilerMachine):
    """Bob's side: opens the session, absorbs, delivers the difference.

    In STREAM mode the connection's one stream runs the core codec
    directly — a :class:`~repro.core.encoder.RatelessEncoder` of this
    side's items (in a cluster, of the items the answering worker's
    stripe holds), a :class:`~repro.core.wire.SymbolStreamReader` and a
    :class:`~repro.core.decoder.RatelessDecoder` — and a read's SYMBOLS
    frames reach the decoder in waves, one ``add_coded_block`` call per
    prefix doubling (see "Flow control").  ``difference_bound`` (> 0)
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
        # The one stream (or sketch exchange) of the connection.
        self._encoder: Optional[RatelessEncoder] = None
        self._reader: Optional[SymbolStreamReader] = None
        self._decoder: Optional[RatelessDecoder] = None
        self._absorbed = 0  # cells the decoder holds
        self._granted = INITIAL_WINDOW
        self._bound = 0  # the sketch bound last asked for: the only one echoed
        self._symbols = 0
        self._payload = 0  # SYMBOLS or SKETCH payload bytes
        self._accounted = 0
        self._rounds = 1
        self._result = None
        self._estimator_rounds = 0
        self._estimator_bytes = 0
        self._estimator_payload = 0
        self._pushed = 0
        self._push_bytes = 0
        self._payloads: Optional[bytearray] = bytearray() if capture_payloads else None
        self._digest = b""

    # -- progress introspection (used by the in-memory Session wrapper) ---

    @property
    def decoded(self) -> bool:
        """True once the difference is recovered."""
        return self._result is not None

    @property
    def payload_bytes(self) -> int:
        """Coded payload bytes received so far (frame headers excluded)."""
        return self._estimator_payload + self._payload

    # -- machine events ----------------------------------------------------

    def _on_start(self) -> None:
        symbol_size = self.handle.params.symbol_size
        assert symbol_size is not None
        codec = self.handle.codec
        if self.handle.capabilities.streaming and codec is not None:
            # One pass from items to the row matrix the encoder takes and
            # to the keyed hashes striping and checksums share; the HELLO
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
        if (
            cluster is not None
            and self.expect_worker is not None
            and cluster.worker_index != self.expect_worker
        ):
            raise ProtocolError(
                f"routed to worker {cluster.worker_index}, "
                f"expected worker {self.expect_worker}"
            )
        self.cluster = cluster
        self._mode = mode
        if mode == SyncMode.IN_SYNC:
            # The responder's cell 0 equals ours: the difference is empty.
            # Delivered on the STATS sent in the same write, and on nothing
            # else, so a corrupted mode byte cannot fake an empty answer.
            self._result = DecodeResult(success=True)
            self._state = "in_sync"
            return
        if cluster is not None:
            # A worker serves its stripe of the global shards: sync those.
            hashes = self._item_hashes
            if hashes is None:
                hashes = hash_items(self._hash64, self.items)
            self.items, self._item_hashes = stripe_with_hashes(
                self.items, hashes, cluster.total_shards, cluster.num_workers,
                cluster.worker_index,
            )
        self._bound = self.difference_bound or DEFAULT_SKETCH_BOUND
        if mode == SyncMode.STREAM:
            codec = self.handle.codec
            self._encoder = RatelessEncoder(
                codec, self.items, item_hashes=self._item_hashes
            )
            self._reader = SymbolStreamReader(codec)
            self._decoder = RatelessDecoder(codec)
            self._state = "stream"
        else:
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
        run: list = []  # consecutive SYMBOLS payloads
        try:
            for ftype, body in self._frames.feed(data):
                if self._state == "stream" and ftype == FrameType.SYMBOLS:
                    run.append(body)
                    continue
                payloads, run = run, []
                if payloads:
                    self._on_symbols(payloads)
                if self.finished:
                    return
                self._on_frame(ftype, body)
        finally:  # the frames before a malformed header come first
            if run:
                self._on_symbols(run)

    def _on_symbols(self, payloads: list) -> None:
        """Absorb a run of SYMBOLS frames in waves, then answer each frame
        in arrival order (see "Flow control")."""
        encoder, reader, decoder = self._encoder, self._reader, self._decoder
        budget = self.max_symbols
        tops: list = []  # cells absorbed after each answered frame
        done = failure = part = None
        while len(tops) < len(payloads) and done is None and failure is None:
            if budget is not None and self._absorbed >= budget:
                break  # the answers fail at the frame that spent it
            bank, stops, start = None, [], self._absorbed
            top = start
            while len(tops) + len(stops) < len(payloads):
                if stops and (top == encoder.produced_count or (
                    budget is not None and top >= budget
                )):
                    break  # the prefix is spent (the next wave grows it), or the budget
                if part is None:
                    # the cached prefix's form: the subtraction is one XOR per lane
                    part = encoder.bank.slice(0, 0)
                    try:
                        reader.feed_into(part, payloads[len(tops) + len(stops)])
                    except ValueError as exc:  # the stream stops here
                        failure = exc
                        break
                produced = encoder.produced_count
                if top + len(part) > produced:
                    if stops:
                        break  # past the prefix: the next wave grows it
                    grow = max(top + len(part), min(2 * produced, self._granted))
                    encoder.produce_block(grow - produced)
                if bank is None:
                    bank = part
                else:
                    bank.extend(part)
                top += len(part)
                stops.append(top - start)
                part = None
            if stops:
                bank.subtract_in_place(encoder.cached_block(start, top))
                # the decoder stops at the first frame end it decodes at
                decoder.add_coded_block(bank, stops)
                self._absorbed = decoder.symbols_received
                for stop in stops:
                    tops.append(start + stop)
                    if decoder.decoded and start + stop >= self._absorbed:
                        done = len(tops) - 1  # its later frames are dropped
                        break
            if decoder.decoded:
                failure = None  # a bad frame past the decode point is dropped
        for pos, top in enumerate(tops):
            if self._payloads is not None:
                self._payloads.extend(payloads[pos])
            self._payload += len(payloads[pos])
            self._symbols = top
            if pos == done:
                self._result = decoder.result()
                self._send_frame(FrameType.DONE)
                self._finish_up()
                return
            if budget is not None and top >= budget:
                raise SymbolBudgetExceeded(
                    f"no decode within {budget} coded symbols",
                    symbols_sent=top,
                    max_symbols=budget,
                )
            if 2 * top >= self._granted:
                # Half the window absorbed and still undecoded: double it,
                # so the responder keeps streaming while the grant travels.
                while 2 * top >= self._granted:
                    self._granted *= 2
                self._send_frame(FrameType.CREDIT, pack_uvarints(self._granted))
        if failure is not None:
            # A scheme deserializer rejecting peer bytes is a wire-level
            # corruption, not a caller bug: keep the failure typed.
            raise ProtocolError(f"malformed SYMBOLS payload: {failure}")

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
        self._bound = max(bound, self.difference_bound)
        self._send_frame(FrameType.RETRY, pack_uvarints(self._bound))
        self._state = "sketch"

    def _on_sketch(self, ftype: int, body: bytes) -> None:
        if ftype != FrameType.SKETCH:
            raise ProtocolError(f"expected SKETCH, got frame type {ftype:#x}")
        parser = BodyReader(body)
        bound = parser.uvarint()
        blob = parser.rest()
        if bound != self._bound:
            raise ProtocolError(f"SKETCH echoes bound {bound}, asked for {self._bound}")
        if self._payloads is not None:
            self._payloads.extend(blob)
        self._payload += len(blob)
        sized = self.handle.sized_for(max(1, bound))
        try:
            remote = sized.deserialize(blob)
        except ValueError as exc:
            raise ProtocolError(f"malformed SKETCH payload: {exc}") from None
        diff = remote.subtract(sized.new(self.items))
        decode = diff.decode()
        self._accounted += diff.decode_wire_bytes(decode)
        if decode.success:
            self._result = decode
            self._symbols = decode.symbols_used
            self._send_frame(FrameType.DONE)
            self._finish_up()
            return
        if not self.handle.capabilities.fixed_capacity:
            raise ReconcileError(f"{self.handle.name}: sketch did not decode")
        self._rounds += 1
        if self._rounds > self.max_rounds:
            raise ReconcileError(
                f"sketch did not decode within {self.max_rounds} doublings "
                f"(last bound {bound})"
            )
        self._bound = max(1, bound) * 2
        self._send_frame(FrameType.RETRY, pack_uvarints(self._bound))

    def _finish_up(self) -> None:
        if self.push and self._result.local:
            # One PUSH: this side's exclusives all lie in the served set's
            # shards (in a cluster, the answering worker's stripe).
            pushes = sorted(self._result.local)
            body = pack_uvarints(len(pushes)) + b"".join(pushes)
            self._push_bytes += len(body)
            self._pushed += len(pushes)
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
        raise ProtocolError("server closed mid-sync (difference undecoded)")

    def _build_report(self) -> MachineReport:
        assert self._mode is not None and self._result is not None
        if self._mode == SyncMode.SKETCH:
            accounted = self._estimator_bytes + self._accounted
        else:
            accounted = self._payload
        payloads = self._payloads
        if payloads is not None:
            worker = self.cluster.worker_index if self.cluster is not None else 0
            payloads = {worker: payloads}
        return MachineReport(
            scheme=self.handle.name,
            mode=self._mode,
            symbol_size=self.handle.params.symbol_size,
            only_in_remote=set(self._result.remote),
            only_in_local=set(self._result.local),
            symbols=self._symbols,
            payload_bytes=self.payload_bytes,
            accounted_bytes=accounted,
            rounds=self._estimator_rounds + self._rounds,
            pushed=self._pushed,
            push_bytes=self._push_bytes,
            payloads=payloads,
            cluster=self.cluster,
        )


class ResponderMachine(ReconcilerMachine):
    """Alice's side: validates the HELLO, then serves the backend.

    Stream-mode production happens on ``tick`` — one block of the
    connection's one stream (or the run a byte ``burst`` buys, read and
    §6-encoded in one pass) while it is neither done nor at its credit
    limit, ramping from 8 cells up to ``block_size`` (``slow_start=False``
    pins every block to ``block_size``, which the lock-step transports
    use for cell-exact termination).  The limit starts at
    ``INITIAL_WINDOW`` and only the initiator's ``CREDIT`` frames raise
    it; a block starts whenever the cursor is below the limit, so at
    most ``limit + block_size`` symbols are ever served.  At the limit
    ``wants_tick`` is False and ``next_tick_delay`` is None: only input
    (a grant, a DONE) or the host's idle deadline moves the session.
    Spending ``max_symbols`` arms a ``budget_grace`` deadline (symbols
    already in flight may still decode); ``tick``-ing past it fails the
    session with the typed ``SymbolBudgetExceeded`` and an ``ERROR``
    frame.  The budget is checked before the limit, so no grant can buy
    symbols past it.
    """

    def __init__(
        self,
        backend: ShardBackend,
        handle: Scheme,
        *,
        block_size: int = 64,
        slow_start: bool = True,
        max_symbols: Optional[int] = None,
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
        self.max_symbols = max_symbols
        self.budget_grace = budget_grace
        self.max_sketch_bound = max_sketch_bound
        self.use_estimator = use_estimator
        self.symbols_sent = 0
        self.bytes_sent = 0
        self.pushes_applied = 0
        self.complete = False
        self.error_codes: List[int] = []
        self._mode: Optional[SyncMode] = None
        # the one stream: its cursor, ramp, credit limit and grace deadline
        self._cursor = None
        self._done = False
        self._ramp = 8
        self._limit = INITIAL_WINDOW
        self._grace_deadline: Optional[float] = None
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

    def _send_error(self, code: ErrorCode, message: str, body: bytes = b"") -> None:
        self.error_codes.append(int(code))
        body = body or pack_uvarints(int(code)) + message.encode("utf-8")
        size = self._send_frame(FrameType.ERROR, body)
        if self._mode == SyncMode.STREAM:
            self.bytes_sent += size

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
        self._send_error(ErrorCode.BUSY, message, pack_busy_body(retry_after, message))
        self._fail(ServerBusy(message, retry_after=retry_after))

    # -- machine events ----------------------------------------------------

    def _on_frame(self, ftype: int, body: bytes) -> None:
        if self._state == "hello":
            self._on_hello(ftype, body)
        else:
            self._on_session_frame(ftype, body)

    def _on_hello(self, ftype: int, body: bytes) -> None:
        if ftype != FrameType.HELLO:
            self._reject(
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
        welcome = pack_uvarints(PROTOCOL_VERSION, int(mode), self.block_size)
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
            self._cursor = self.backend.open_stream()
            self._state = "stream"
            return
        self._state = "sketch"
        if self.use_estimator:
            estimator = StrataEstimator.from_items(list(self.backend.sharded))
            blob = estimator.serialize()
            self.bytes_sent += len(blob)
            self._send_frame(FrameType.ESTIMATE, blob)
        else:
            self._send_sketch(self._sketch_bound)

    def _check_hello(self, body: BodyReader) -> Optional[bytes]:
        """The HELLO's digest field (empty when it carries none) once every
        trust check passed; ``None`` after a typed rejection."""
        version = body.uvarint()
        scheme = body.lp_str()
        symbol_size = body.uvarint()
        checksum_size = body.uvarint()
        hasher = body.lp_str()
        probe = body.uvarint()
        body.uvarint()  # block_size wish: informational, responder decides
        requested = body.uvarint()
        self._sketch_bound = requested or DEFAULT_SKETCH_BOUND
        digest = body.rest()
        handle, codec, mismatch = self.handle, self.handle.codec, ErrorCode.MISMATCH
        ours = getattr(handle.params, "hasher", "")
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
        elif ftype == FrameType.DONE:
            reader.expect_end()
            self._done = True  # in sketch mode, bookkeeping only
        elif ftype == FrameType.RETRY:
            bound = reader.uvarint()
            reader.expect_end()
            if stream:
                # In stream mode the backend has no sketches to rebuild.
                self._reject(ErrorCode.PROTOCOL, "RETRY is invalid in stream mode")
            elif not self._refuse_bound("RETRY", bound):
                self._send_sketch(bound)
        elif ftype == FrameType.CREDIT and stream:
            limit = reader.uvarint()
            if reader.remaining:
                self._reject(ErrorCode.PROTOCOL, "malformed CREDIT")
                return
            # Cumulative, so a stale or duplicated grant changes nothing.
            self._limit = max(self._limit, limit)
        else:
            self._reject(
                ErrorCode.PROTOCOL, f"unexpected frame type {ftype:#x} from client"
            )

    def _on_tick(self, now: float, burst: int) -> None:
        if self._state != "stream" or self._done:
            return
        budget = self.max_symbols
        sent = self._cursor.symbols_sent
        if budget is not None and sent >= budget:
            if self._grace_deadline is None:
                # Budget spent; symbols are still in flight, so give the
                # client one grace period to report decode before
                # declaring the session runaway.
                self._grace_deadline = now + self.budget_grace
            elif now >= self._grace_deadline:
                raise SymbolBudgetExceeded(
                    f"{sent} symbols served without decode (budget {budget})",
                    symbols_sent=sent,
                    max_symbols=budget,
                )
            return
        if sent >= self._limit:
            return  # window spent: wait for the initiator's CREDIT
        # Each block starts below the limit and the budget, as its own tick
        # would; the run lasts while the burst does (a cell is at least its
        # fixed fields and one count byte), one encode pass for all of it.
        codec, stop = self.handle.codec, math.inf if budget is None else budget
        cell_bytes = codec.symbol_size + codec.checksum_size + 1
        sizes, top = [], sent
        while top < min(self._limit, stop) and (top - sent) * cell_bytes <= burst:
            ramp = self._ramp if self.slow_start else self.block_size
            sizes.append(min(ramp, self.block_size, stop - top))
            self._ramp, top = 2 * sizes[-1], top + sizes[-1]
        for payload in self._cursor.next_blocks(sizes):
            self.bytes_sent += self._send_frame(FrameType.SYMBOLS, payload)
        self.symbols_sent = top

    @property
    def wants_tick(self) -> bool:
        if self.finished or self._state != "stream" or self._done:
            return False
        sent = self._cursor.symbols_sent
        if self.max_symbols is not None and sent >= self.max_symbols:
            return self._grace_deadline is None  # a tick arms the deadline
        return sent < self._limit

    def next_tick_delay(self, now: float) -> Optional[float]:
        if self.wants_tick:
            return 0.0
        if self.finished or self._done or self._grace_deadline is None:
            return None
        return max(0.0, self._grace_deadline - now)

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

    def _send_sketch(self, bound: int) -> None:
        blob = self.backend.build_sketch(bound)
        self.bytes_sent += len(blob)
        self._send_frame(FrameType.SKETCH, pack_uvarints(bound) + blob)

    # -- shared ------------------------------------------------------------

    def _send_stats(self) -> None:
        body = pack_uvarints(self.symbols_sent, self.bytes_sent, self.pushes_applied)
        size = self._send_frame(FrameType.STATS, body)
        if self._mode != SyncMode.SKETCH:
            self.bytes_sent += size
        self.complete = True
        self.finished = True

    def _apply_push(self, reader: BodyReader) -> None:
        count = reader.uvarint()
        symbol_size = self.handle.params.symbol_size
        assert symbol_size is not None
        items = [reader.raw(symbol_size) for _ in range(count)]
        reader.expect_end()
        # Known items (another session already pushed them) and repeats
        # are skipped; the rest land as one batch — one journal record
        # and one warm-bank patch per touched shard on a durable server.
        sharded = self.backend.sharded
        fresh = [item for item in dict.fromkeys(items) if item not in sharded]
        try:
            self.backend.add_many(fresh)
        except KeyError as exc:  # an item of a shard this worker does not own
            self._reject(ErrorCode.PROTOCOL, f"PUSH refused: {exc.args[0]}")
            return
        self.pushes_applied += len(fresh)

    def _on_peer_closed(self) -> None:
        # The client left without BYE: the session simply ends
        # incomplete (the adapter counts it as dropped), like the
        # asyncio server's read loop returning on EOF.
        self.finished = True
