"""Shard backends: what turns a shard's items into bytes for a session.

The tentpole backend is :class:`WarmRibltBackend` — the paper's
"universal stream" (§4.1, §7.3) made operational.  Each shard owns ONE
:class:`~repro.core.encoder.RatelessEncoder` shared by every session the
server ever serves: a new client costs no encoding work for any cell
another client already pulled (the cached bank is just re-serialized),
and set churn patches the cached prefix in place via linearity instead
of re-encoding.  Per-session state is only a cursor: a stream index and
a §6 writer.

Any other scheme registered in :mod:`repro.api` can back a shard too:

* streaming schemes ride :class:`SchemeStreamBackend` (a fresh
  per-session :class:`~repro.api.base.StreamingReconciler`, no warm
  reuse — the interface does not promise shareable state);
* serializable fixed-capacity / one-shot schemes ride
  :class:`SketchBackend`, which serves a ``bound``-sized sketch and
  rebuilds it on client ``RETRY`` (the estimator-then-sized-sketch
  composition of :mod:`repro.api.session`, pushed over the wire).

Consistency: every stream cursor snapshots its shard's version at open;
a mutation mid-stream makes the already-sent prefix and the yet-unsent
suffix describe *different* sets, so the cursor refuses to continue
(:class:`StaleStream`) rather than serve a stream that can never decode
to a meaningful difference.  Clients simply reconnect; the warm bank
they then read is already patched.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Optional

from repro.api.base import StreamingReconciler, UnsupportedOperation
from repro.api.registry import Scheme
from repro.core.encoder import RatelessEncoder
from repro.core.symbols import SymbolCodec
from repro.core.wire import SymbolStreamWriter
from repro.service.errors import ServiceError
from repro.service.framing import SyncMode
from repro.service.shard import ShardedSet


class StaleStream(ServiceError):
    """The shard's set changed while a session was mid-stream."""


def _group_by_shard(
    items: list[bytes], placed: list[int]
) -> dict[int, list[bytes]]:
    """Bucket a placed batch per shard, preserving batch order."""
    groups: dict[int, list[bytes]] = {}
    for item, shard in zip(items, placed):
        groups.setdefault(shard, []).append(item)
    return groups


class ShardStream(ABC):
    """One session's cursor into one shard's coded-symbol stream."""

    symbols_sent: int = 0

    @abstractmethod
    def next_block(self, max_cells: int) -> bytes:
        """The next ``max_cells`` coded symbols, wire-framed (§6)."""


class ShardBackend(ABC):
    """Per-shard byte production plus set mutation for one server."""

    mode: SyncMode

    def __init__(self, handle: Scheme, sharded: ShardedSet) -> None:
        self.handle = handle
        self.sharded = sharded

    @property
    def scheme(self) -> str:
        return self.handle.name

    @property
    def num_shards(self) -> int:
        return self.sharded.num_shards

    def add(self, item: bytes) -> int:
        """Account a new item; returns the shard it landed in."""
        return self.sharded.add(item)

    def remove(self, item: bytes) -> int:
        """Drop an item; returns the shard it left."""
        return self.sharded.remove(item)

    def add_many(self, items: Iterable[bytes]) -> list[int]:
        """Account a batch of items; returns each item's shard.

        One version bump per touched shard.  Backends with warm per-shard
        state override this to patch it batch-at-a-time.
        """
        return self.sharded.add_many(items)

    def remove_many(self, items: Iterable[bytes]) -> list[int]:
        """Drop a batch of items; returns each item's shard."""
        return self.sharded.remove_many(items)

    def open_stream(self, shard: int) -> ShardStream:
        raise UnsupportedOperation(f"{type(self).__name__} does not stream")

    def build_sketch(self, shard: int, bound: int) -> bytes:
        raise UnsupportedOperation(f"{type(self).__name__} does not sketch")


class _WarmStream(ShardStream):
    """Cursor over a shared warm encoder: reads cached cells, owns only
    the §6 serialisation state (header + implicit indices + set size)."""

    def __init__(self, backend: "WarmRibltBackend", shard: int) -> None:
        self._backend = backend
        self._shard = shard
        self._encoder = backend.encoders[shard]
        self._version = backend.sharded.versions[shard]
        self._writer = SymbolStreamWriter(
            backend.codec, set_size=self._encoder.set_size
        )
        self._head: Optional[bytes] = self._writer.header()
        self._index = 0
        self.symbols_sent = 0

    def next_block(self, max_cells: int) -> bytes:
        backend = self._backend
        if backend.sharded.versions[self._shard] != self._version:
            raise StaleStream(
                f"shard {self._shard} mutated mid-stream; reconnect to resync"
            )
        lo = self._index
        self._index += max_cells
        # cached_block only *encodes* cells nobody has pulled yet; every
        # prefix cell any previous session produced is reused as-is.
        bank = self._encoder.cached_block(lo, self._index)
        self.symbols_sent = self._index
        head = self._head or b""
        self._head = None
        return head + self._writer.write_block(bank)


class WarmRibltBackend(ShardBackend):
    """One warm, continuously patched Rateless-IBLT encoder per shard.

    ``encoders`` is the durable-store load hook: recovery rebuilds each
    shard's encoder from its snapshot (exact parked walk state + cached
    bank) and hands them in ready-made instead of re-ingesting
    ``sharded``.  They must be index-aligned with ``sharded.shards``
    and hold the same members.
    """

    mode = SyncMode.STREAM

    def __init__(
        self,
        handle: Scheme,
        sharded: ShardedSet,
        codec: SymbolCodec,
        encoders: Optional[list[RatelessEncoder]] = None,
    ) -> None:
        super().__init__(handle, sharded)
        self.codec = codec
        if encoders is None:
            encoders = [RatelessEncoder(codec, members) for members in sharded.shards]
        elif len(encoders) != sharded.num_shards:
            raise ValueError(
                f"{len(encoders)} encoders adopted for {sharded.num_shards} shards"
            )
        self.encoders = encoders

    def add(self, item: bytes) -> int:
        shard = self.sharded.add(item)
        self.encoders[shard].add_item(item)  # patches the cached prefix
        return shard

    def remove(self, item: bytes) -> int:
        shard = self.sharded.remove(item)
        self.encoders[shard].remove_item(item)
        return shard

    def add_many(self, items: Iterable[bytes]) -> list[int]:
        """Batch churn: group by shard, one fused warm-bank patch each."""
        items = items if isinstance(items, list) else list(items)
        placed = self.sharded.add_many(items)
        for shard, group in _group_by_shard(items, placed).items():
            self.encoders[shard].add_items(group)
        return placed

    def remove_many(self, items: Iterable[bytes]) -> list[int]:
        """Batch churn: group by shard, one fused warm-bank patch each."""
        items = items if isinstance(items, list) else list(items)
        placed = self.sharded.remove_many(items)
        for shard, group in _group_by_shard(items, placed).items():
            self.encoders[shard].remove_items(group)
        return placed

    def open_stream(self, shard: int) -> ShardStream:
        return _WarmStream(self, shard)

    def cached_symbols(self, shard: int) -> int:
        """Length of the shard's cached prefix (observability)."""
        return self.encoders[shard].produced_count


class _SchemeStream(ShardStream):
    """Cursor over a per-session StreamingReconciler (cold build)."""

    def __init__(
        self,
        reconciler: StreamingReconciler,
        backend: "SchemeStreamBackend",
        shard: int,
    ) -> None:
        self._reconciler = reconciler
        self._backend = backend
        self._shard = shard
        self._version = backend.sharded.versions[shard]
        self.symbols_sent = 0

    def next_block(self, max_cells: int) -> bytes:
        if self._backend.sharded.versions[self._shard] != self._version:
            raise StaleStream(
                f"shard {self._shard} mutated mid-stream; reconnect to resync"
            )
        self.symbols_sent += max_cells
        return self._reconciler.produce_block(max_cells)


class SchemeStreamBackend(ShardBackend):
    """Any registered streaming scheme; sessions get cold reconcilers."""

    mode = SyncMode.STREAM

    def open_stream(self, shard: int) -> ShardStream:
        reconciler = self.handle.new(list(self.sharded.shards[shard]))
        assert isinstance(reconciler, StreamingReconciler)
        return _SchemeStream(reconciler, self, shard)


class SketchBackend(ShardBackend):
    """Serializable fixed-capacity / one-shot schemes: sized sketches."""

    mode = SyncMode.SKETCH

    def build_sketch(self, shard: int, bound: int) -> bytes:
        sized = self.handle.sized_for(max(1, bound))
        return sized.new(list(self.sharded.shards[shard])).serialize()


def make_backend(
    handle: Scheme, sharded: ShardedSet, codec: Optional[SymbolCodec]
) -> ShardBackend:
    """The right backend for a scheme's capabilities.

    ``codec`` is the shared symbol codec when the scheme has one (used
    by the warm fast path); registry integration means *any* scheme can
    back a shard — streaming schemes as live streams, serializable ones
    as sized sketches.  Only schemes that can neither stream nor ship a
    sketch (Merkle's interactive heal) are rejected.
    """
    caps = handle.capabilities
    if caps.streaming:
        if handle.name == "riblt" and codec is not None:
            return WarmRibltBackend(handle, sharded, codec)
        return SchemeStreamBackend(handle, sharded)
    if caps.serializable:
        return SketchBackend(handle, sharded)
    raise ValueError(
        f"scheme {handle.name!r} can neither stream nor serialize a sketch; "
        "it cannot back a service shard"
    )
