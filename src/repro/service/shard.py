"""Keyed hash-partitioning of a server's set into shards.

Shards are placement: each has its own membership and version clock,
the durable store keeps one version per shard, and a cluster stripes
shards over worker processes, each with its own journal segment.  They
are never encoders: a backend holds one warm encoder over its whole set
(a worker's: its stripe), since a coded symbol is linear in the set.
The wire never sees them — a connection carries that one coded-symbol
stream — except that a cluster client routes its items to workers by
global shard (:func:`stripe_with_hashes`).

Placement must be *identical* on both peers, so the router hashes with
the same keyed 64-bit hash the codec uses for checksums — mixed through
an extra splitmix64 round with a salt, so shard membership is
decorrelated from the checksum values that seed the §4.2 index mapping.
Peers that disagree on the hash family or key will disagree on
placement (and on checksums); the service handshake carries a key probe
to reject that pairing before any symbols flow.

Every host's cold ingest places its batch here: :func:`hash_items` (the
uint64 hash vector, under SipHash's lanes), then one ``mix64`` lane pass
and one stable argsort split (:func:`partition_with_hashes`).  A churn
batch's one :func:`hash_items` pass is handed to the set's mutations as
``hashes`` (validation, placement), and on to the encoder's checksums.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from repro import engine
from repro.core.cellbank import to_list
from repro.hashing.prng import mix64, mix64_lanes

# Below this the batch-placement set-up costs more than the scalar loop.
_NUMPY_MIN_BATCH = 32

# Any fixed constant works; it only needs to differ from the identity so
# the shard index and the checksum are independent functions of hash64.
_SHARD_SALT = 0x5379_6E63_5368_6172  # "SyncShar"

# A fixed probe string both peers hash during the handshake: equal keyed
# hashes => almost certainly equal (hasher, key) pairs, without either
# key crossing the wire.
_KEY_PROBE_DATA = b"repro.service key probe v1"


def shard_of(hash64: Callable[[bytes], int], item: bytes, num_shards: int) -> int:
    """The shard ``item`` belongs to (identical for peers sharing the hash)."""
    return mix64(hash64(item) ^ _SHARD_SALT) % num_shards


def hash_items(hash64: Callable[[bytes], int], items: Sequence[bytes]):
    """The keyed 64-bit hashes of many items, in order: exactly what shard
    placement mixes *and* the codec masks into checksums, so a caller
    that keeps them hashes once.  Routed through the hasher's batch face
    when ``hash64`` is a bound method of one (equal-length items or their
    row matrix); any other shape takes the identical scalar loop.
    """
    if not len(items):
        return []
    hasher = getattr(hash64, "__self__", None)
    batch = getattr(hasher, "hash64_batch", None)
    if (
        batch is not None
        and getattr(hasher, "hash64", None) == hash64
        and (hasattr(items, "shape") or len(set(map(len, items))) <= 1)
    ):
        return batch(items)
    return [hash64(item) for item in items]


def _placement_lanes(hashes, num_shards: int):
    """``mix64(h ^ salt) % num_shards`` of a hash vector, as one lane pass."""
    np = engine.np
    mixed = mix64_lanes(np.asarray(hashes, dtype=np.uint64) ^ np.uint64(_SHARD_SALT))
    return mixed % np.uint64(num_shards)


def placements_from_hashes(hashes: Sequence[int], num_shards: int) -> list[int]:
    """Shard placements from precomputed keyed hashes, in order:
    ``mix64(h ^ salt) % num_shards`` per hash, as one uint64 lane pass
    on the vector engine.
    """
    if engine.NUMPY_LANE and len(hashes) >= _NUMPY_MIN_BATCH:
        return _placement_lanes(hashes, num_shards).tolist()
    return [mix64(h ^ _SHARD_SALT) % num_shards for h in to_list(hashes)]


def key_probe(hash64: Callable[[bytes], int]) -> int:
    """64-bit handshake probe identifying the (hasher, key) pair."""
    return hash64(_KEY_PROBE_DATA)


class ShardedSet:
    """A set of fixed-width items, hash-partitioned into ``num_shards``.

    Tracks a per-shard ``version`` that bumps on every mutation; stream
    cursors snapshot it to detect (and refuse to serve) a stream whose
    underlying set changed mid-flight.
    """

    def __init__(
        self,
        hash64: Callable[[bytes], int],
        num_shards: int,
        items: Iterable[bytes] = (),
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.hash64 = hash64
        self.num_shards = num_shards
        self.shards: list[set[bytes]] = [set() for _ in range(num_shards)]
        self.versions: list[int] = [0] * num_shards
        items = items if isinstance(items, list) else list(items)
        parts: list[list[bytes]] = [[] for _ in range(num_shards)]
        for item, shard in zip(items, self.place_many(items)):
            parts[shard].append(item)
        self.adopt_parts(parts)

    def adopt_parts(self, parts: Sequence[Sequence[bytes]]) -> None:
        """Load an already-placed partition (``parts[s]`` = shard ``s``'s
        items) into this empty set.  Versions land where one ``add`` per
        item would have left them; a repeated item raises ``KeyError``.
        """
        for shard, part in enumerate(parts):
            members = set(part)
            if len(members) != len(part):
                dup = next(i for i in members if part.count(i) > 1)
                raise KeyError(f"duplicate item: {dup.hex()}")
            self.shards[shard] = members
            self.versions[shard] = len(part)

    # -- placement (the overridable core; subset sets remap it) -----------

    def place(self, item: bytes) -> int:
        """The local shard index ``item`` belongs to."""
        return shard_of(self.hash64, item, self.num_shards)

    def place_many(self, items: Sequence[bytes], hashes=None) -> list[int]:
        """:meth:`place` of many items, in order (``hashes``: their
        :func:`hash_items`, when the caller has them)."""
        if hashes is None:
            hashes = hash_items(self.hash64, items)
        return placements_from_hashes(hashes, self.num_shards)

    # -- mutation (one body; the single-item forms are one-element batches)

    def add(self, item: bytes) -> int:
        """Place ``item``; returns its shard.  Raises ``KeyError`` on dup."""
        return self.add_many([item])[0]

    def remove(self, item: bytes) -> int:
        """Remove ``item``; returns its shard.  Raises ``KeyError`` if absent."""
        return self.remove_many([item])[0]

    def add_many(self, items: Iterable[bytes], hashes=None, checked=None) -> list[int]:
        """Place a batch of items; returns each item's shard, in order.

        All-or-nothing: a duplicate (against the set or inside the batch)
        raises ``KeyError`` before anything is placed.  Each touched
        shard's version bumps once per batch — one stream invalidation
        per churn event, not one per item.  ``hashes`` as in
        :meth:`place_many`; ``checked``, what :meth:`check_many` just
        returned for the batch, is applied without a second check.
        """
        return self._mutate_many(items, True, hashes, checked)

    def remove_many(self, items, hashes=None, checked=None) -> list[int]:
        """Drop a batch of items; returns each item's shard, in order.

        All-or-nothing, mirroring :meth:`add_many` (an absent item — or
        one named twice in the batch — raises before anything changes).
        """
        return self._mutate_many(items, False, hashes, checked)

    def check_many(
        self, items: Sequence[bytes], adding: bool, hashes=None
    ) -> list[int]:
        """Placements of a batch that :meth:`add_many` (``adding``) or
        :meth:`remove_many` would accept; ``KeyError`` otherwise.
        Changes nothing — the write-ahead journal validates with it."""
        placed = self.place_many(items, hashes)
        seen: set[bytes] = set()
        for item, shard in zip(items, placed):
            if (item in self.shards[shard]) == adding or item in seen:
                raise KeyError(
                    f"duplicate item: {item.hex()}"
                    if adding
                    else f"item not in set: {item.hex()}"
                )
            seen.add(item)
        return placed

    def _mutate_many(self, items, adding: bool, hashes, checked) -> list[int]:
        items = items if isinstance(items, list) else list(items)
        placed = self.check_many(items, adding, hashes) if checked is None else checked
        for item, shard in zip(items, placed):
            (self.shards[shard].add if adding else self.shards[shard].remove)(item)
        for shard in set(placed):
            self.versions[shard] += 1
        return placed

    def __contains__(self, item: bytes) -> bool:
        return item in self.shards[self.place(item)]

    def __len__(self) -> int:
        return sum(len(members) for members in self.shards)

    def __iter__(self) -> Iterator[bytes]:
        for members in self.shards:
            yield from members


class ShardSubsetSet(ShardedSet):
    """A :class:`ShardedSet` owning only a subset of a larger shard space.

    A cluster worker hosts the global shards ``owned`` out of
    ``total_shards``: placement hashes against the *global* shard count
    (so every peer agrees on routing) and then remaps to the worker's
    dense local indices.  An item whose global shard is not owned raises
    ``KeyError`` from mutations and is simply not contained.
    """

    def __init__(
        self,
        hash64: Callable[[bytes], int],
        total_shards: int,
        owned: Sequence[int],
        items: Iterable[bytes] = (),
    ) -> None:
        owned = tuple(owned)
        if not owned:
            raise ValueError("a shard subset must own at least one shard")
        if len(set(owned)) != len(owned):
            raise ValueError(f"duplicate shards in subset: {owned}")
        for g in owned:
            if not 0 <= g < total_shards:
                raise ValueError(f"shard {g} outside [0, {total_shards})")
        self.total_shards = total_shards
        self.owned = owned
        self._local = {g: i for i, g in enumerate(owned)}
        super().__init__(hash64, len(owned), items)

    def place(self, item: bytes) -> int:
        return self.place_many([item])[0]

    def place_many(self, items: Sequence[bytes], hashes=None) -> list[int]:
        if hashes is None:
            hashes = hash_items(self.hash64, items)
        placed = placements_from_hashes(hashes, self.total_shards)
        try:
            return [self._local[g] for g in placed]
        except KeyError as exc:
            (g,) = exc.args
            item = items[placed.index(g)]
            raise KeyError(f"item {item.hex()} places in unowned shard {g}") from None

    def __contains__(self, item: bytes) -> bool:
        g = shard_of(self.hash64, item, self.total_shards)
        local = self._local.get(g)
        return local is not None and item in self.shards[local]


def partition_with_hashes(
    items: Sequence[bytes], hashes: Sequence[int], num_shards: int
) -> tuple[list, list]:
    """Partition a batch by shard, carrying its keyed hashes along.

    Returns ``(parts, part_hashes)``: ``parts[s]`` holds shard ``s``'s
    items in input order, as row-matrix or list slices like the batch,
    and ``part_hashes[s][i]`` is the keyed hash of ``parts[s][i]`` —
    ready to seed codec checksums without hashing the items again.  One
    shard is the identity: the batch and its hashes come back as they are.
    """
    if len(items) != len(hashes):
        raise ValueError(f"{len(items)} items but {len(hashes)} hashes")
    if num_shards == 1:
        return [items], [hashes]
    if engine.NUMPY_LANE:
        np = engine.np
        hashes = np.asarray(hashes, dtype=np.uint64)
        # placements fit a small dtype, which argsorts by radix
        placed = _placement_lanes(hashes, num_shards).astype(
            np.min_scalar_type(num_shards - 1)
        )
        order = np.argsort(placed, kind="stable")
        ends = np.bincount(placed, minlength=num_shards).cumsum().tolist()
        if hasattr(items, "shape"):
            items = items[order]
        else:
            items = [items[i] for i in order.tolist()]
        hashes = hashes[order]
        bounds = list(zip([0, *ends], ends))
        return [items[a:b] for a, b in bounds], [hashes[a:b] for a, b in bounds]
    parts: list[list[bytes]] = [[] for _ in range(num_shards)]
    part_hashes: list[list[int]] = [[] for _ in range(num_shards)]
    placed = placements_from_hashes(hashes, num_shards)
    for item, h, shard in zip(items, hashes, placed):
        parts[shard].append(item)
        part_hashes[shard].append(h)
    return parts, part_hashes


def stripe_with_hashes(
    items: Sequence[bytes],
    hashes: Sequence[int],
    total_shards: int,
    num_workers: int,
    worker: int,
) -> tuple:
    """The items of a batch (and their keyed hashes), in input order, whose
    global shard out of ``total_shards`` worker ``worker`` of
    ``num_workers`` owns: ``g % num_workers == worker``.  Items come as
    row-matrix or list slices like the batch."""
    if engine.NUMPY_LANE:
        np = engine.np
        hashes = np.asarray(hashes, dtype=np.uint64)
        placed = _placement_lanes(hashes, total_shards)
        keep = np.flatnonzero(placed % np.uint64(num_workers) == worker)
        if hasattr(items, "shape"):
            return items[keep], hashes[keep]
        return [items[i] for i in keep.tolist()], hashes[keep]
    placed = placements_from_hashes(hashes, total_shards)
    keep = [i for i, g in enumerate(placed) if g % num_workers == worker]
    return [items[i] for i in keep], [hashes[i] for i in keep]
