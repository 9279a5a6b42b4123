"""Shard backends: what turns a server's items into bytes for a session.

The tentpole backend is :class:`WarmRibltBackend` — the paper's
"universal stream" (§4.1, §7.3) made operational.  The backend owns ONE
:class:`~repro.core.encoder.RatelessEncoder` over its whole set (a
cluster worker's: its stripe), shared by every session the server ever
serves: a new client costs no encoding work for any cell another client
already pulled, and a churn batch is hashed once and patched into the
cached prefix by one walk-kernel call (linearity) instead of
re-encoding.  Shards are placement only — membership and version clocks
in :class:`~repro.service.shard.ShardedSet`, cluster stripes, journal
segments — never a second encoder: a coded symbol is linear in the set,
so splitting it inside one process would only add bookkeeping.
Per-session state is only a cursor: a stream index and a §6 writer.

Rateless IBLT is the one streaming scheme, so it is the one that warms.
Every other serializable scheme (fixed-capacity or one-shot) backs a
server through :class:`SketchBackend`, which serves a ``bound``-sized
sketch of the whole set and rebuilds it on client ``RETRY``.
:func:`open_backend` is the one constructor of both — and so of every
host's peer state.

Every item maps to coded symbol 0 (ρ(0) = 1, §4.1.2), so a set's cell 0
is its digest (:func:`set_digest`, :meth:`ShardBackend.digest`).

Consistency: every stream cursor snapshots the shards' versions at
open; a mutation mid-stream makes the sent prefix and the unsent suffix
describe *different* sets, so the cursor refuses to continue
(:class:`StaleStream`).  Clients reconnect and read the patched bank.
"""

from __future__ import annotations

from abc import ABC
from functools import reduce
from operator import xor
from pathlib import Path
from typing import Iterable, Optional

from repro import engine
from repro.api.base import UnsupportedOperation
from repro.api.registry import Scheme, get_scheme
from repro.core.cellbank import CodedSymbolBank, lanes_from_bytes
from repro.core.encoder import RatelessEncoder
from repro.core.wire import SymbolStreamWriter
from repro.service.errors import ServiceError
from repro.service.framing import SyncMode
from repro.service.shard import ShardedSet, hash_items, partition_with_hashes


class StaleStream(ServiceError):
    """The served set changed while a session was mid-stream."""


def set_digest(items, hashes, codec=None) -> CodedSymbolBank:
    """Cell 0 of a set, as a one-cell bank: the XOR of ``items`` (bytes or
    a row matrix), the XOR of their checksums from keyed ``hashes`` (the
    ``codec``'s masked ones, else the full hashes) and their count."""
    checksums = codec.checksums_from_hash64(hashes) if codec is not None else hashes
    if hasattr(items, "shape"):
        size = items.shape[1]
        folded = engine.np.bitwise_xor.reduce(lanes_from_bytes(items, size), axis=0)
        total = int.from_bytes(folded.astype("<u8").tobytes()[:size], "little")
    else:
        total = reduce(xor, (int.from_bytes(item, "little") for item in items), 0)
    if hasattr(checksums, "shape"):
        checksum = int(engine.np.bitwise_xor.reduce(checksums))
    else:
        checksum = reduce(xor, checksums, 0)
    return CodedSymbolBank([total], [checksum], [len(items)])


class ShardBackend(ABC):
    """A server's sharded storage, its byte production and its mutation."""

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
        return self.add_many([item])[0]

    def remove(self, item: bytes) -> int:
        """Drop an item; returns the shard it left."""
        return self.remove_many([item])[0]

    def add_many(self, items: Iterable[bytes]) -> list[int]:
        """Account a batch of items; returns each item's shard.

        All-or-nothing, one version bump per touched shard, and one keyed
        hash pass over the batch.  A warm backend patches its encoder in
        :meth:`_churn`, one pass for the whole batch.
        """
        return self._churn(items, 1)

    def remove_many(self, items: Iterable[bytes]) -> list[int]:
        """Drop a batch of items; returns each item's shard."""
        return self._churn(items, -1)

    def _churn(self, items: Iterable[bytes], direction: int, hashes=None) -> list[int]:
        """The one mutation body: add (``direction`` +1) or remove (−1) a
        batch; ``hashes`` are its keyed hashes when the caller has them."""
        mutate = self.sharded.add_many if direction > 0 else self.sharded.remove_many
        return mutate(items, hashes)

    def digest(self) -> CodedSymbolBank:
        """Cell 0 of the whole set, from the members in one hash pass."""
        members = list(self.sharded)
        return set_digest(members, hash_items(self.handle.hash64, members))

    def build_sketch(self, bound: int) -> bytes:
        raise UnsupportedOperation(f"{type(self).__name__} does not sketch")


class StreamCursor:
    """One session's cursor into the backend's one coded stream: it slices
    the warm encoder's cached cells (producing only the cells nobody has
    pulled yet) and owns only the §6 serialisation state (header +
    implicit indices + set size).  It snapshots every shard's version at
    open and refuses to go on past churn (:class:`StaleStream`)."""

    def __init__(self, backend: "WarmRibltBackend") -> None:
        self._backend = backend
        self._versions = list(backend.sharded.versions)
        self.symbols_sent = 0
        self._writer = SymbolStreamWriter(backend.codec, set_size=len(backend.sharded))
        self._head: Optional[bytes] = self._writer.header()

    def next_block(self, max_cells: int) -> bytes:
        """The next ``max_cells`` coded symbols, wire-framed (§6)."""
        if max_cells < 1:
            raise ValueError(f"max_cells must be >= 1, got {max_cells}")
        backend = self._backend
        if backend.sharded.versions != self._versions:
            raise StaleStream("the set mutated mid-stream; reconnect to resync")
        lo = self.symbols_sent
        self.symbols_sent = lo + max_cells
        bank = backend.encoder.cached_block(lo, self.symbols_sent)
        head = self._head or b""
        self._head = None
        return head + self._writer.write_block(bank)


class WarmRibltBackend(ShardBackend):
    """One warm, continuously patched Rateless-IBLT encoder per backend.

    ``encoder`` comes ready-made, holding exactly ``sharded``'s members:
    :func:`open_backend` ingests the batch with the placement hashes it
    already has, and durable recovery restores it from its snapshot
    (exact parked walk state + cached bank) with no hashing at all.
    """

    mode = SyncMode.STREAM

    def __init__(
        self, handle: Scheme, sharded: ShardedSet, encoder: RatelessEncoder
    ) -> None:
        super().__init__(handle, sharded)
        self.codec = handle.codec
        self.encoder = encoder

    def _churn(self, items: Iterable[bytes], direction: int, hashes=None) -> list[int]:
        """One keyed hash pass places, validates and applies the batch on the
        set and seeds added rows' checksums; then one encoder call patches
        the cached prefix."""
        items = items if isinstance(items, list) else list(items)
        if hashes is None:
            hashes = hash_items(self.handle.hash64, items)
        placed = super()._churn(items, direction, hashes)
        if direction > 0:
            self.encoder.add_items(items, item_hashes=hashes)
        else:
            self.encoder.remove_items(items)
        return placed

    def digest(self) -> CodedSymbolBank:
        """Cell 0 of the whole set, the encoder's cached cell 0 (kept
        current by the churn patch).  Hashes nothing."""
        return self.encoder.cached_block(0, 1).in_form(False)

    def open_stream(self) -> StreamCursor:
        return StreamCursor(self)


class SketchBackend(ShardBackend):
    """Serializable fixed-capacity / one-shot schemes: sized sketches."""

    mode = SyncMode.SKETCH

    def build_sketch(self, bound: int) -> bytes:
        """A ``bound``-sized sketch of the whole set (a worker's: its stripe)."""
        sized = self.handle.sized_for(max(1, bound))
        return sized.new(list(self.sharded)).serialize()


def open_backend(
    items: Iterable[bytes] = (),
    *,
    scheme: "str | Scheme" = "riblt",
    num_shards: int = 1,
    data_dir: Optional[object] = None,
    durable: Optional[object] = None,
    **params: object,
) -> ShardBackend:
    """The one constructor of peer state: ``items`` → a shard backend.

    Every host — server, node, gossip peer, in-memory responder, durable
    store, cluster supervisor — stands its peer up here, through the
    client's ingest pipeline: the handle resolves itself (``scheme`` is
    a registry name configured by ``params`` as in
    :func:`repro.api.reconcile`, or an already-bound handle;
    ``symbol_size`` is inferred from the first item when unset), every
    item is hashed *once*, and those keyed hashes both place the items
    in shards and seed the warm encoder's checksums.  The keyed hash is
    the library default unless ``params`` say otherwise; service hosts
    apply :func:`~repro.service.defaults.with_service_hasher` first.

    riblt backs the set with one warm encoder, every other serializable
    scheme with sized sketches.  A scheme that can do neither
    (Merkle's interactive heal, or a streaming scheme other than riblt)
    is rejected.

    ``data_dir`` makes the state durable through
    :func:`repro.durable.open_durable` (``durable`` is its
    :class:`~repro.durable.DurableConfig`, and ``scheme`` must then be a
    name): a fresh directory is initialised from ``items``; an existing
    one is recovered and checked against whatever the caller asserts.
    The caller owns the returned store and must ``close()`` it.
    """
    materialised = items if isinstance(items, list) else list(items)
    if data_dir is not None:
        from repro.durable.store import MANIFEST_NAME, open_durable

        if not materialised and (Path(data_dir) / MANIFEST_NAME).exists():
            num_shards = 0  # nothing asserted about the set: adopt the store's
        return open_durable(
            data_dir,
            materialised,
            scheme=scheme,
            num_shards=num_shards,
            config=durable,
            **params,
        )
    handle = get_scheme(scheme, **params).bound_to(materialised)
    caps = handle.capabilities
    if not (handle.name == "riblt" if caps.streaming else caps.serializable):
        raise ValueError(
            f"scheme {handle.name!r} can neither warm a riblt stream nor "
            "serialize a sketch; it cannot back a service shard"
        )
    hash64 = handle.hash64
    sharded = ShardedSet(hash64, num_shards)
    hashes = hash_items(hash64, materialised)
    sharded.adopt_parts(partition_with_hashes(materialised, hashes, num_shards)[0])
    if not caps.streaming:
        return SketchBackend(handle, sharded)
    encoder = RatelessEncoder(handle.codec, materialised, item_hashes=hashes)
    return WarmRibltBackend(handle, sharded, encoder)
