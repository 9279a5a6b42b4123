"""Placement hashes are computed once and reused — never re-derived.

Every sync used to hash each item twice with the same keyed hash:
once for shard placement, once for the codec's mapping/checksum seeds.
The reuse path threads the placement hashes from
:func:`repro.service.shard.hash_items` through the initiator's
stream-mode shards (and :func:`repro.service.backends.open_backend`)
into :class:`~repro.core.encoder.RatelessEncoder`, which derives checksums
from them via
:meth:`~repro.core.symbols.SymbolCodec.checksums_from_hash64`.

These tests pin the only property that makes the optimisation safe:
the reused-hash path is **bit-identical** to hashing from scratch, for
every hasher family and checksum width.
"""

import asyncio

import pytest

from repro.api import get_scheme
from repro.core.encoder import RatelessEncoder
from repro.core.symbols import SymbolCodec
from repro.hashing.keyed import make_hasher
from repro.protocol import InitiatorMachine, memory_responder, pump
from repro.service import ReconciliationServer, sync
from repro.service.framing import FrameType, SyncMode
from repro.service.shard import hash_items, partition_with_hashes

HASHERS = ("blake2b", "siphash")
CHECKSUM_SIZES = (4, 8)


def items_range(lo, hi):
    return [b"%012d" % i for i in range(lo, hi)]


@pytest.mark.parametrize("hasher", HASHERS)
@pytest.mark.parametrize("checksum_size", CHECKSUM_SIZES)
def test_checksums_from_hash64_matches_checksum_batch(hasher, checksum_size):
    codec = SymbolCodec(
        symbol_size=12,
        hasher=make_hasher(hasher),
        checksum_size=checksum_size,
    )
    items = items_range(0, 300)
    hashes = hash_items(codec.hasher.hash64, items)
    assert list(map(int, codec.checksums_from_hash64(hashes))) == list(
        map(int, codec.checksum_batch(items))
    )


@pytest.mark.parametrize("hasher", HASHERS)
def test_encoder_identical_with_and_without_item_hashes(hasher):
    codec = SymbolCodec(symbol_size=12, hasher=make_hasher(hasher))
    items = items_range(0, 200)
    hashes = hash_items(codec.hasher.hash64, items)
    cold = RatelessEncoder(codec, items)
    reused = RatelessEncoder(codec, items, item_hashes=hashes)
    assert [cold.produce_next() for _ in range(400)] == [
        reused.produce_next() for _ in range(400)
    ]


def test_encoder_rejects_misaligned_hashes():
    codec = SymbolCodec(symbol_size=12)
    items = items_range(0, 10)
    with pytest.raises(ValueError):
        RatelessEncoder(codec, items, item_hashes=[1, 2, 3])


def test_partition_with_hashes_keeps_alignment():
    codec = SymbolCodec(symbol_size=12)
    items = items_range(0, 500)
    hashes = hash_items(codec.hasher.hash64, items)
    parts, part_hashes = partition_with_hashes(items, hashes, 4)
    for shard in range(4):
        assert list(map(int, part_hashes[shard])) == [
            codec.hasher.hash64(item) for item in parts[shard]
        ]
    with pytest.raises(ValueError):
        partition_with_hashes(items, hashes[:-1], 4)


@pytest.mark.parametrize("num_shards", (1, 4))
def test_partition_parity_across_engines(num_shards):
    """Both engines split a batch into the same parts in the same order;
    one shard is the identity — the batch and its hashes come back as
    they are, with no placement pass."""
    from helpers import engine_lane

    codec = SymbolCodec(symbol_size=12)
    items = items_range(0, 300)
    split = {}
    for vector in (True, False):
        with engine_lane(vector):
            hashes = hash_items(codec.hasher.hash64, items)
            parts, part_hashes = partition_with_hashes(items, hashes, num_shards)
            if num_shards == 1:
                assert parts == [items] and part_hashes[0] is hashes
            split[vector] = (
                [list(part) for part in parts],
                [list(map(int, column)) for column in part_hashes],
            )
    assert split[True] == split[False]


@pytest.mark.parametrize("num_shards", (1, 4))
def test_wire_bytes_identical_with_hash_reuse(num_shards, monkeypatch):
    """The full engine round trip is byte-identical whether or not the
    initiator's hashes reach its encoder, against one server shard or
    four."""
    from repro.protocol import machine

    handle = get_scheme("riblt", symbol_size=12)
    alice = items_range(0, 400)
    bob = alice[12:] + items_range(9_000, 9_006)

    def roundtrip():
        initiator = InitiatorMachine(handle, bob, capture_payloads=True)
        responder = memory_responder(handle, alice, num_shards=num_shards)
        return pump(initiator, responder)

    reused = roundtrip()
    monkeypatch.setattr(
        machine,
        "RatelessEncoder",
        lambda codec, items, item_hashes: RatelessEncoder(codec, items),
    )
    cold = roundtrip()
    assert reused.payloads == cold.payloads
    assert reused.only_in_remote == cold.only_in_remote
    assert reused.only_in_local == cold.only_in_local


# -- sync() drops repeats once, before any hash or digest ------------------------


@pytest.mark.parametrize("feed", ("repeats", "generator"))
def test_sync_counts_a_repeated_item_once(feed, lane, monkeypatch):
    """``sync()`` takes any iterable and drops repeats (first occurrence
    kept) before the keyed hashes and the HELLO digest are taken: a list
    with repeats, or a generator, reconciles to the exact difference and
    sends the HELLO of the deduplicated list — and a repeat-laden copy of
    the server's set still matches its digest (one round trip)."""
    from repro.protocol import machine

    hellos = []
    send = machine.InitiatorMachine._send_frame

    def spy(self, ftype, body=b""):
        if ftype == FrameType.HELLO:
            hellos.append(body)
        return send(self, ftype, body)

    monkeypatch.setattr(machine.InitiatorMachine, "_send_frame", spy)
    theirs, mine = items_range(0, 300), items_range(20, 320)
    feeds = {
        "repeats": lambda items: items + items[5::7] + items[:3],
        "generator": lambda items: (item for item in items),
    }

    async def scenario():
        async with ReconciliationServer(theirs, num_shards=2) as server:
            host, port = server.address
            clean = await sync(host, port, mine)
            fed = await sync(host, port, feeds[feed](mine))
            same = await sync(host, port, feeds[feed](theirs))
            return clean, fed, same

    clean, fed, same = asyncio.run(scenario())
    assert fed.only_in_server == clean.only_in_server == set(items_range(0, 20))
    assert fed.only_in_client == clean.only_in_client == set(items_range(300, 320))
    assert fed.symbols == clean.symbols
    assert hellos[0] == hellos[1] != hellos[2]
    assert same.mode == SyncMode.IN_SYNC and same.difference_size == 0


def test_sync_refuses_a_wrong_width_item(lane):
    """A wrong-width item is refused before any connection, repeats or
    not, with the codec's ``ValueError``."""
    items = items_range(0, 50) + [b"short", b"short"] + items_range(0, 5)
    with pytest.raises(ValueError, match="item must be exactly 12 bytes, got 5"):
        asyncio.run(sync("127.0.0.1", 1, items))
