"""The vectorised set-ingestion pipeline: source-store mechanics, batch faces,
and the service's bulk churn — engine-agnostic behaviour (the
bit-identity of the two engines lives in test_batch_equivalence.py)."""

import pytest

from repro import engine
from repro.core.encoder import RatelessEncoder
from repro.core.mapping import IndexGenerator
from repro.core.symbols import SymbolCodec
from repro.hashing.keyed import Blake2bHasher, SipHasher
from repro.hashing.prng import mix64, mix64_lanes
from repro.service.shard import ShardedSet, shard_of

from helpers import engine_lane, make_items
from test_batch_equivalence import CODECS as EQUIVALENCE_CODECS


# -- codec batch faces ------------------------------------------------------


def test_checksum_batch_matches_singles(rng):
    for hasher in (Blake2bHasher(), SipHasher()):
        for checksum_size in (8, 4):
            codec = SymbolCodec(8, hasher=hasher, checksum_size=checksum_size)
            items = make_items(rng, 50)
            assert list(map(int, codec.checksum_batch(items))) == [
                codec.checksum_data(item) for item in items
            ]


def test_checksum_batch_falls_back_without_batch_face(rng):
    class LegacyHasher:
        """A pre-batch custom hasher: only the hash64 face."""

        key = b"\x00" * 16

        def hash64(self, data: bytes) -> int:
            return int.from_bytes(data[:8].ljust(8, b"\x00"), "little")

    codec = SymbolCodec(8, hasher=LegacyHasher())
    items = make_items(rng, 20)
    assert codec.checksum_batch(items) == [
        codec.checksum_data(item) for item in items
    ]


def test_to_int_batch_matches_singles_and_validates(rng):
    codec = SymbolCodec(8)
    items = make_items(rng, 30)
    assert codec.to_int_batch(items) == [codec.to_int(item) for item in items]
    with pytest.raises(ValueError):
        codec.to_int_batch([b"12345678", b"short"])


def test_mix64_lanes_matches_scalar(rng):
    np = pytest.importorskip("numpy")
    values = [rng.getrandbits(64) for _ in range(500)]
    lanes = mix64_lanes(np.array(values, dtype=np.uint64))
    assert lanes.tolist() == [mix64(v) for v in values]


def test_index_generator_restore_round_trip():
    """A walk re-parked at a checked-out ``(state, current)`` pair — as
    the encoder's per-cell stepper is — resumes the same sequence."""
    gen = IndexGenerator(seed=0xDEADBEEF)
    for _ in range(5):
        gen.next_index()
    parked = IndexGenerator(0, gen.alpha)
    parked.current, parked.state = gen.current, gen.state
    assert parked.next_index() == gen.next_index()


# -- encoder source-store mechanics -----------------------------------------


def test_bulk_encoder_membership_and_size(rng):
    items = make_items(rng, 64)
    enc = RatelessEncoder(SymbolCodec(8), items[:60])
    assert len(enc) == enc.set_size == 60
    assert items[0] in enc
    assert items[63] not in enc
    enc.add_items(items[60:])
    assert len(enc) == 64
    enc.remove_items(items[:8])
    assert len(enc) == 56
    assert items[0] not in enc


def test_bulk_duplicate_rejected_atomically(rng):
    items = make_items(rng, 40)
    enc = RatelessEncoder(SymbolCodec(8), items[:20])
    with pytest.raises(KeyError):
        enc.add_items(items[20:] + [items[0]])  # dup against the set
    assert len(enc) == 20
    assert items[20] not in enc  # nothing from the failed batch landed
    with pytest.raises(KeyError):
        enc.add_items([items[30], items[30]])  # dup inside the batch
    assert len(enc) == 20


def test_bulk_remove_missing_rejected_atomically(rng):
    items = make_items(rng, 30)
    enc = RatelessEncoder(SymbolCodec(8), items[:20])
    with pytest.raises(KeyError):
        enc.remove_items([items[0], items[25]])  # second one absent
    assert items[0] in enc
    with pytest.raises(KeyError):
        enc.remove_items([items[1], items[1]])  # named twice
    assert items[1] in enc


def test_single_add_sees_pooled_duplicates(rng):
    items = make_items(rng, 32)
    enc = RatelessEncoder(SymbolCodec(8), items)  # one bulk batch
    with pytest.raises(KeyError):
        enc.add_item(items[5])
    enc.remove_item(items[5])  # single removal of a bulk-ingested row
    assert items[5] not in enc
    enc.add_item(items[5])  # and back in, as a one-row append
    assert items[5] in enc
    assert len(enc) == 32


def test_pool_survives_numpy_lane_loss(rng):
    """Bulk-ingested symbols keep streaming when the NumPy lane is turned
    off mid-life (the store repacks its columns as lists for the scalar
    kernel), and back on again."""
    items = make_items(rng, 100)
    with engine_lane(True):
        enc = RatelessEncoder(SymbolCodec(8), items)
        head = enc.produce_block(50).cells()
        assert enc._store.vector
    with engine_lane(False):
        tail = enc.produce_block(50).cells()
        assert not enc._store.vector
    with engine_lane(True):
        more = enc.produce_block(50).cells()
        assert enc._store.vector
    reference = RatelessEncoder(SymbolCodec(8), items)
    assert head + tail + more == reference.produce_block(150).cells()


@pytest.mark.parametrize("size", [8, 92])
def test_pool_compacts_under_churn(rng, size):
    """200 rounds of 64 adds + 64 removes against a 2 500-item encoder:
    the source store's NumPy columns must not keep the dead rows (the
    old column pool once grew 64 rows a round for ever) nor let their
    free room outgrow the set, and the stream stays a cold encoder's."""
    if not engine.NUMPY_LANE:
        pytest.skip("the source store's NumPy form is the vector engine")
    items = make_items(rng, 2500 + 200 * 64, size)
    enc = RatelessEncoder(SymbolCodec(size), items[:2500])
    enc.produce_block(200)
    live = list(items[:2500])
    store = enc._store
    for round_no in range(200):
        fresh = items[2500 + 64 * round_no : 2500 + 64 * (round_no + 1)]
        enc.add_items(fresh)
        stale = [live.pop(rng.randrange(len(live))) for _ in range(64)]
        live.extend(fresh)
        enc.remove_items(stale)
        assert store.vector
        assert store.values.shape[0] <= 2 * len(enc)
    assert len(enc) == 2500
    assert store.values.shape == (store.idx.shape[0], -(-size // 8))
    cold = RatelessEncoder(SymbolCodec(size), live)
    assert enc.cached_block(0, 200) == cold.cached_block(0, 200)
    # the walk keeps going past the patched prefix, compacted rows and all
    assert enc.cached_block(200, 300) == cold.cached_block(200, 300)
    values, checksums, currents, states = enc.export_rows()
    assert sorted(values) == sorted(int.from_bytes(i, "little") for i in live)


def test_empty_batches_are_noops(rng):
    enc = RatelessEncoder(SymbolCodec(8), make_items(rng, 10))
    enc.add_items([])
    enc.remove_items([])
    assert len(enc) == 10


# -- sharded bulk churn -----------------------------------------------------


def _hash64(data: bytes) -> int:
    return Blake2bHasher().hash64(data)


def test_sharded_add_many_matches_singles(rng):
    items = make_items(rng, 200)
    one = ShardedSet(_hash64, 4)
    for item in items:
        one.add(item)
    many = ShardedSet(_hash64, 4)
    placed = many.add_many(items)
    assert placed == [one.place(item) for item in items]
    assert [sorted(s) for s in many.shards] == [sorted(s) for s in one.shards]
    # one version bump per touched shard, not per item
    assert all(v <= 1 for v in many.versions)
    removed = many.remove_many(items[:50])
    assert removed == placed[:50]
    assert len(many) == 150


def test_sharded_add_many_atomic(rng):
    items = make_items(rng, 20)
    sharded = ShardedSet(_hash64, 2, items[:10])
    versions = list(sharded.versions)
    with pytest.raises(KeyError):
        sharded.add_many(items[10:] + [items[0]])
    assert len(sharded) == 10
    assert sharded.versions == versions  # nothing bumped
    with pytest.raises(KeyError):
        sharded.remove_many([items[0], items[15]])
    assert len(sharded) == 10


def test_warm_backend_bulk_churn_matches_rebuild(rng):
    from repro.service.backends import open_backend

    items = make_items(rng, 240)
    base, fresh = items[:200], items[200:]
    codec = SymbolCodec(8)
    backend = open_backend(base, num_shards=3)
    sharded = backend.sharded
    # produce some cells, then churn in one batch
    warm = backend.encoder
    warm.produce_block(64)
    versions = list(sharded.versions)
    backend.add_many(fresh)
    backend.remove_many(base[:40])
    assert all(v > old for v, old in zip(sharded.versions, versions))
    survivors = base[40:] + fresh
    rebuilt = ShardedSet(_hash64, 3, survivors)
    assert sharded.shards == rebuilt.shards
    expected = RatelessEncoder(codec, sorted(survivors))
    assert warm.produced_count == 64
    assert expected.produce_block(64).cells() == [warm.cached(i) for i in range(64)]
    assert warm.set_size == len(survivors)


def test_server_bulk_mutation_api(rng):
    from repro.service.server import ReconciliationServer

    items = make_items(rng, 60)
    server = ReconciliationServer(items[:40], num_shards=2)
    server.add_items(items[40:])
    assert len(server) == 60
    server.remove_items(items[:10])
    assert len(server) == 50
    assert items[0] not in server
    assert items[59] in server
    with pytest.raises(KeyError):
        server.add_items([items[59]])


# -- one cold-ingest pipeline ------------------------------------------------


def _handle_for(codec, monkeypatch):
    """A riblt handle, and riblt reconcilers, on ``codec`` (the registry's
    params cannot name every codec the encoder takes, §8 mappings
    included)."""
    from repro.api.adapters import riblt
    from repro.api.registry import get_scheme

    monkeypatch.setattr(riblt, "codec_for", lambda params: codec)
    handle = get_scheme("riblt", symbol_size=codec.symbol_size)
    handle.__dict__["codec"] = codec  # the handle's cached codec
    return handle


def _per_item_reference(codec, items):
    """The reference the pipeline must equal: one ``add_item`` per item."""
    encoder = RatelessEncoder(codec)
    for item in items:
        encoder.add_item(item)
    return encoder


def _assert_same_encoder(encoder, reference):
    cells = max(300, encoder.produced_count)
    assert encoder.cached_block(0, cells) == reference.cached_block(0, cells)
    assert encoder.export_rows() == reference.export_rows()


@pytest.mark.parametrize("hasher", ["blake2b", "siphash"])
@pytest.mark.parametrize("codec_name", sorted(EQUIVALENCE_CODECS))
def test_cold_ingest_matches_per_item_reference(
    lane, codec_name, hasher, rng, monkeypatch
):
    """Hash → place → the one encoder's columns, through ``open_backend``,
    equals one ``shard_of`` per item for placement and one ``add_item``
    per item for the encoder; an initiator's one stream
    encoder (fed an item list, or a row matrix with its hashes as the
    client feeds them) equals one ``add_item`` per item — on every codec
    the equivalence suite covers, on both engines."""
    from repro.protocol import InitiatorMachine, memory_responder, pump
    from repro.service.backends import open_backend
    from repro.service.shard import hash_items

    base = EQUIVALENCE_CODECS[codec_name]()
    codec = SymbolCodec(
        base.symbol_size,
        hasher=SipHasher() if hasher == "siphash" else Blake2bHasher(),
        irregular=base.irregular,
        checksum_size=base.checksum_size,
    )
    items = make_items(rng, 240, codec.symbol_size)
    handle = _handle_for(codec, monkeypatch)
    hash64 = codec.hasher.hash64
    rows = codec.item_rows(items)
    for batch in (items, rows):
        assert list(map(int, hash_items(hash64, batch))) == [hash64(x) for x in items]
    backend = open_backend(items, scheme=handle, num_shards=4)
    assert [backend.sharded.place(item) for item in items] == [
        shard_of(hash64, item, 4) for item in items
    ]
    _assert_same_encoder(backend.encoder, _per_item_reference(codec, items))
    feeds = {"list": (items, None), "client": (rows, hash_items(hash64, rows))}
    for batch, hashes in feeds.values():
        initiator = InitiatorMachine(handle, batch, item_hashes=hashes)
        # One item fewer on the responder: equal sets would end in-sync,
        # before any encoder is built.
        pump(initiator, memory_responder(handle, items[1:], num_shards=4))
        _assert_same_encoder(initiator._encoder, _per_item_reference(codec, items))


@pytest.mark.parametrize("size", [8, 16])
def test_bulk_duplicates_are_exact_and_all_or_nothing(lane, size, rng):
    """Only a repeated *item* is a duplicate: items that share a 1-byte
    checksum (or, at 16 bytes, their whole first value lane) are not.
    A repeated item refuses the batch whole — through the constructor
    and through ``add_items`` on a non-empty store."""
    codec = SymbolCodec(size, checksum_size=1)
    prefix = rng.randbytes(8)
    by_checksum: dict[int, bytes] = {}
    items: list[bytes] = []
    while len(items) < 2:  # two distinct items with one checksum
        item = (prefix + rng.randbytes(8))[-size:] if size > 8 else rng.randbytes(8)
        if item in by_checksum.values():
            continue
        twin = by_checksum.setdefault(codec.checksum_data(item), item)
        if twin != item:
            items = [twin, item]
    items += [i for i in make_items(rng, 60, size) if i not in items][:58]
    if size > 8:  # every row shares its first lane with another
        items = [prefix + item[8:] for item in items]
        items = list(dict.fromkeys(items))
    assert len(set(items)) == len(items) and codec.checksum_data(items[0]) == (
        codec.checksum_data(items[1])
    )

    encoder = RatelessEncoder(codec, items[:30])  # equal checksums: no error
    with pytest.raises(KeyError):
        RatelessEncoder(codec, items + [items[3]])
    encoder.produce_block(40)
    before = (len(encoder), encoder.export_rows(), encoder.bank.copy())
    with pytest.raises(KeyError):
        encoder.add_items(items[30:] + [items[35]])
    assert (len(encoder), encoder.export_rows(), encoder.bank) == before
    encoder.add_items(items[30:])
    cold = RatelessEncoder(codec, items)
    assert encoder.cached_block(0, 80) == cold.cached_block(0, 80)
