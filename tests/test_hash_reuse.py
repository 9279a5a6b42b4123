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

import pytest

from repro.api import get_scheme
from repro.core.encoder import RatelessEncoder
from repro.core.symbols import SymbolCodec
from repro.hashing.keyed import make_hasher
from repro.protocol import InitiatorMachine, memory_responder, pump
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
    initiator's placement hashes reach the encoders."""
    from repro.protocol import machine

    handle = get_scheme("riblt", symbol_size=12)
    alice = items_range(0, 400)
    bob = alice[12:] + items_range(9_000, 9_006)

    def roundtrip():
        initiator = InitiatorMachine(
            handle, bob, num_shards=num_shards, capture_payloads=True
        )
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
