"""Length-prefixed frame layer: the service's unit of transmission.

A frame is ``uvarint(len) || type-byte || body``.  The §6 coded-symbol
wire format stays untouched inside ``SYMBOLS`` frame bodies — this layer
only adds what a TCP connection needs: delimitation (so control frames
can interleave the coded stream), a type tag, and a hard size cap so a
corrupted length prefix cannot balloon the receive buffer.

Both a sans-io incremental decoder (:class:`FrameDecoder`, used by the
robustness tests and any non-asyncio transport) and asyncio stream
helpers (:func:`read_frame` / :func:`write_frame`) are provided.

Frame catalogue (bodies are varint-packed, see the pack helpers)::

    HELLO       c->s  version, scheme, symbol_size, checksum_size,
                      hasher, key_probe, block_size, bound,
                      digest (rest of body: empty, or one packed cell)
    WELCOME     s->c  version, mode, block_size
                      [cluster tail: num_workers, worker_index,
                       total_shards, one port per worker]
    SYMBOLS     s->c  <§6 stream bytes>
    SKETCH      s->c  bound, <serialized sketch>
    DONE        c->s  (empty)
    RETRY       c->s  bound                 (sketch mode undershoot)
    PUSH        c->s  count, count·symbol_size item bytes
    BYE         c->s  (empty)
    STATS       s->c  symbols_sent, bytes_sent, pushes_applied
    ERROR       both  code, utf-8 message
                      (code BUSY: code, retry_after_ms, utf-8 message)
    ESTIMATE    s->c  <serialized strata estimator summary>
    CREDIT      c->s  limit                 (stream mode flow control)

``ESTIMATE`` carries the responder's strata-estimator summary when both
peers agreed (at machine construction — it is not negotiated in HELLO)
to run the estimator-then-sized-sketch composition; the initiator
answers with a ``RETRY`` that requests the first sized sketch.
Sessions that did not agree on it never emit it.

``CREDIT`` is stream mode's flow control: the responder serves the
stream only up to a cumulative symbol ``limit`` that starts at
:data:`INITIAL_WINDOW` and that only the initiator's ``CREDIT`` frames
raise (see :mod:`repro.protocol.machine`).  Protocol version 2 made it
mandatory — there is no unbounded streaming to fall back to — so a
version-1 peer fails typed at the HELLO/WELCOME version check.

Version 3 appends the initiator's cell 0, a set digest, to ``HELLO``; a
solo stream-mode responder whose own cell 0 is equal answers ``WELCOME``
in :data:`SyncMode.IN_SYNC` plus ``STATS``: one round trip, no stream.

Version 4 carries one stream (or one sketch) per connection, whatever
the server's shard count: a coded symbol is linear in the set, so the
responder serves the XOR of its shards' cells.  Every per-shard field
left the wire — the shard id of SYMBOLS, SKETCH, RETRY, PUSH and CREDIT,
the shard-count wish of HELLO and the shard count of WELCOME — and
SHARD_DONE became the bodyless ``DONE``.  A cluster client still learns
``total_shards`` from the WELCOME tail: it routes its items to workers
by global shard.
"""

from __future__ import annotations

import asyncio
import math
from enum import IntEnum
from typing import Iterator, Optional

from repro.core import varint

PROTOCOL_VERSION = 4

# Stream-mode flow control: coded symbols a responder may serve before
# the first CREDIT.  Two service-default blocks, which covers the whole
# 8+16+32+64 slow-start ramp, so a session that decodes within it
# (d <= 64 or so) never waits a round trip.
INITIAL_WINDOW = 128

# A frame larger than this is corruption (or abuse), not data: the
# biggest legitimate frames are PUSH bodies and serialized sketches,
# both far below 4 MiB under any sane set size.
MAX_FRAME_BYTES = 4 << 20

# LEB128 for a value below MAX_FRAME_BYTES fits in 4 bytes; allow the
# full 64-bit width before declaring the prefix malformed.
_MAX_PREFIX_BYTES = 10


class FrameType(IntEnum):
    """The one-byte tag leading every frame body."""

    HELLO = 0x01
    WELCOME = 0x02
    SYMBOLS = 0x03
    SKETCH = 0x04
    DONE = 0x05
    RETRY = 0x06
    PUSH = 0x07
    BYE = 0x08
    STATS = 0x09
    ERROR = 0x0A
    ESTIMATE = 0x0B
    CREDIT = 0x0C


class ErrorCode(IntEnum):
    """Codes carried by ``ERROR`` frames."""

    PROTOCOL = 1
    BUDGET = 2
    MISMATCH = 3
    STALE = 4
    UNSUPPORTED = 5
    IDLE = 6
    BUSY = 7


class SyncMode(IntEnum):
    """How a scheme's bytes travel (announced in ``WELCOME``)."""

    STREAM = 0  # rateless coded-symbol stream, SYMBOLS frames
    SKETCH = 1  # sized sketch + retry doubling, SKETCH frames
    IN_SYNC = 2  # the HELLO digest matched: STATS follows, nothing streams


class FrameError(Exception):
    """Malformed framing: bad length prefix, unknown type, size cap."""


class FrameTooLarge(FrameError):
    """A frame's declared length exceeds the configured cap."""


class TruncatedFrame(FrameError):
    """The byte source ended in the middle of a frame."""


def encode_frame(ftype: int, body: bytes = b"") -> bytes:
    """Serialise one frame (length prefix covers the type byte)."""
    payload_len = 1 + len(body)
    if payload_len > MAX_FRAME_BYTES:
        raise FrameTooLarge(f"frame of {payload_len} bytes exceeds cap")
    return varint.encode_uvarint(payload_len) + bytes((ftype,)) + body


class FrameDecoder:
    """Incremental, transport-agnostic frame parser.

    Feed arbitrary byte chunks; complete frames come out.  State
    survives partial frames across feeds; :meth:`finish` turns a
    mid-frame EOF into a typed error instead of silent data loss.
    """

    def __init__(self, max_frame: int = MAX_FRAME_BYTES) -> None:
        self.max_frame = max_frame
        self._buffer = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered that do not yet form a complete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[tuple[int, bytes]]:
        """Append bytes; return every ``(type, body)`` that completed."""
        self._buffer.extend(data)
        frames = list(self._drain())
        return frames

    def _drain(self) -> Iterator[tuple[int, bytes]]:
        buf = self._buffer
        pos = 0
        end = len(buf)
        while pos < end:
            try:
                length, after = varint.decode_uvarint(
                    bytes(buf[pos : pos + _MAX_PREFIX_BYTES])
                )
            except ValueError:
                if end - pos >= _MAX_PREFIX_BYTES:
                    raise FrameError("malformed frame length prefix") from None
                break  # prefix still incomplete
            if length > self.max_frame:
                raise FrameTooLarge(
                    f"frame declares {length} bytes, cap is {self.max_frame}"
                )
            if length < 1:
                raise FrameError("empty frame (no type byte)")
            start = pos + after
            if end - start < length:
                break  # body still incomplete
            yield buf[start], bytes(buf[start + 1 : start + length])
            pos = start + length
        if pos:
            del buf[:pos]

    def finish(self) -> None:
        """Assert the source ended on a frame boundary."""
        if self._buffer:
            raise TruncatedFrame(
                f"stream ended with {len(self._buffer)} bytes of a partial frame"
            )


async def read_frame(
    reader: asyncio.StreamReader, max_frame: int = MAX_FRAME_BYTES
) -> Optional[tuple[int, bytes]]:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    EOF inside a frame raises :class:`TruncatedFrame` — a peer that
    vanishes mid-message must never look like a graceful goodbye.
    """
    length = 0
    shift = 0
    for i in range(_MAX_PREFIX_BYTES):
        try:
            byte = (await reader.readexactly(1))[0]
        except asyncio.IncompleteReadError:
            if i == 0:
                return None  # clean EOF between frames
            raise TruncatedFrame("connection closed inside a frame length") from None
        length |= (byte & 0x7F) << shift
        if not byte & 0x80:
            break
        shift += 7
    else:
        raise FrameError("malformed frame length prefix")
    if length > max_frame:
        raise FrameTooLarge(f"frame declares {length} bytes, cap is {max_frame}")
    if length < 1:
        raise FrameError("empty frame (no type byte)")
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise TruncatedFrame(
            f"connection closed {length - len(exc.partial)} bytes short of a frame"
        ) from None
    return payload[0], payload[1:]


async def write_frame(
    writer: asyncio.StreamWriter, ftype: int, body: bytes = b""
) -> None:
    """Write one frame and apply transport backpressure (``drain``)."""
    writer.write(encode_frame(ftype, body))
    await writer.drain()


# -- body packing -----------------------------------------------------------


class BodyReader:
    """Sequential parser for varint-packed frame bodies."""

    def __init__(self, body: bytes) -> None:
        self._body = body
        self._pos = 0

    def uvarint(self) -> int:
        try:
            value, self._pos = varint.decode_uvarint(self._body, self._pos)
        except ValueError as exc:
            raise FrameError(f"bad frame body: {exc}") from None
        return value

    def raw(self, size: int) -> bytes:
        if len(self._body) - self._pos < size:
            raise FrameError(
                f"bad frame body: wanted {size} bytes, "
                f"{len(self._body) - self._pos} left"
            )
        out = self._body[self._pos : self._pos + size]
        self._pos += size
        return out

    def rest(self) -> bytes:
        out = self._body[self._pos :]
        self._pos = len(self._body)
        return out

    @property
    def remaining(self) -> int:
        """Bytes not yet consumed (optional-tail detection)."""
        return len(self._body) - self._pos

    def lp_bytes(self) -> bytes:
        """A length-prefixed byte string."""
        return self.raw(self.uvarint())

    def lp_str(self) -> str:
        try:
            return self.lp_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FrameError(f"bad frame body: {exc}") from None

    def expect_end(self) -> None:
        if self._pos != len(self._body):
            raise FrameError(
                f"bad frame body: {len(self._body) - self._pos} trailing bytes"
            )


def pack_uvarints(*values: int) -> bytes:
    return b"".join(varint.encode_uvarint(v) for v in values)


def pack_lp(data: bytes) -> bytes:
    return varint.encode_uvarint(len(data)) + data


def pack_lp_str(text: str) -> bytes:
    return pack_lp(text.encode("utf-8"))


def pack_busy_body(retry_after: float, message: str) -> bytes:
    """The ``ERROR`` body for :data:`ErrorCode.BUSY`.

    Alone in the error catalogue, BUSY carries structure beyond its
    message: ``uvarint code | uvarint retry_after_ms | raw utf-8
    message`` — the server-suggested backoff a shed client should wait
    before reconnecting, in integer milliseconds so it varint-packs
    tightly (sub-millisecond hints round up to 1 ms, never to "now").
    """
    millis = int(math.ceil(max(0.0, retry_after) * 1000.0))
    return pack_uvarints(int(ErrorCode.BUSY), millis) + message.encode("utf-8")
