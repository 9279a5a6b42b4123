"""One peer state: every host stands its ``ShardBackend`` up through
``open_backend`` and mutates it one way.

The paper's universality property (§4.1, §7.3) gives a set *one*
coded-symbol stream, so whichever host holds the set — server, node,
gossip peer, in-memory responder, durable store — must hold the same
state: same shard members, same version clocks, same key probe, same
coded cells.  The digests below were recorded at the commit before
``open_backend`` existed, from the hosts' separate constructors.
"""

from __future__ import annotations

import ast
import asyncio
import hashlib
import math
import random
import re
import shutil
from pathlib import Path

import pytest

import repro
from repro.api.registry import available_schemes, get_scheme, scheme_info
from repro.core.encoder import RatelessEncoder
from repro.durable import DurableConfig
from repro.durable.store import JOURNAL_NAME, journal_segment_name, open_durable
from repro.gossip import GossipNode, make_nodes
from repro.hashing.keyed import SipHasher
from repro.protocol.pump import memory_responder
from repro.service import ReconciliationServer, ServiceNode
from repro.service.backends import open_backend
from repro.service.shard import ShardedSet, ShardSubsetSet, shard_of

from helpers import engine_lane

NUM_SHARDS = 4
NO_FSYNC = DurableConfig(fsync=False)

# name -> (scheme, item width, params, digest recorded at the parent)
CASES = {
    "riblt-8": (
        "riblt",
        8,
        dict(hasher="siphash"),
        "406bfb30b0725b0ee7f59bd14e34d8a2f5e3ea0a05bbfd4d61105ef174e65007",
    ),
    "riblt-92": (
        "riblt",
        92,
        dict(hasher="siphash"),
        "6c5eb7a189fa282ff840fefe4d37a813df5269141b9b63053b29c67877514331",
    ),
    "regular_iblt-8": (
        "regular_iblt",
        8,
        dict(hasher="blake2b"),
        "cf282214d950c2a42f345a5a670c292860c6496c36b4204289adb2112f66c3bf",
    ),
}


def items_for(size: int) -> list[bytes]:
    rng = random.Random(0x5EED + size)
    return sorted({rng.randbytes(size) for _ in range(600)})


def fingerprint(backend) -> str:
    """Per-shard members and versions, the key probe and — for a warm
    backend — the first 64 packed coded cells of every shard's members
    (the digests were recorded with one encoder per shard).  The warm
    backend's one encoder must hold those cells' XOR: a coded symbol is
    linear in the set."""
    sharded = backend.sharded
    codec = backend.handle.codec
    digest = hashlib.sha256()
    for shard in range(backend.num_shards):
        members = sorted(sharded.shards[shard])
        digest.update(repr((members, sharded.versions[shard])).encode())
    digest.update(str(backend.handle.key_probe).encode())
    if hasattr(backend, "encoder"):
        blocks = [
            RatelessEncoder(codec, sorted(members)).cached_block(0, 64)
            for members in sharded.shards
        ]
        for block in blocks:
            digest.update(block.pack(codec))
        for block in blocks[1:]:
            blocks[0].add_in_place(block)
        assert backend.encoder.cached_block(0, 64) == blocks[0]
    return digest.hexdigest()


@pytest.mark.parametrize("case", CASES)
def test_every_host_reaches_the_same_backend(case, lane, tmp_path):
    scheme, size, params, recorded = CASES[case]
    items = items_for(size)
    spec = dict(scheme=scheme, num_shards=NUM_SHARDS, **params)
    handle = get_scheme(scheme, symbol_size=size, **params)
    hosts = {
        "open_backend": open_backend(items, **spec),
        "server": ReconciliationServer(items, **spec).backend,
        "node": ServiceNode(items, **spec).backend,
        "gossip": GossipNode(0, items, **spec).backend,
        "memory": memory_responder(handle, items, num_shards=NUM_SHARDS).backend,
    }
    if scheme == "riblt":
        hosts["data_dir"] = open_backend(
            items, data_dir=tmp_path, durable=NO_FSYNC, **spec
        )
    else:
        with pytest.raises(ValueError, match="persists warm riblt banks"):
            open_backend(items, data_dir=tmp_path, **spec)
    try:
        assert {name: fingerprint(b) for name, b in hosts.items()} == dict.fromkeys(
            hosts, recorded
        )
    finally:
        if "data_dir" in hosts:
            hosts["data_dir"].close()


def test_gossip_digest_and_clock_after_construction():
    """The digest peers compare, as the parent's constructor left it."""
    recorded = {
        "riblt-8": 14282640139943605027,
        "riblt-92": 15622734371985179909,
        "regular_iblt-8": 12188797026577265075,
    }
    for case, xor64 in recorded.items():
        scheme, size, params, _ = CASES[case]
        node = GossipNode(
            0, items_for(size), scheme=scheme, num_shards=NUM_SHARDS, **params
        )
        digest = node.digest()
        assert (digest.version, digest.xor64, digest.count) == (600, xor64, 600)


def test_service_hosts_default_to_siphash_and_library_hosts_do_not():
    """Which hosts apply the service hasher default is existing
    behaviour: the TCP-facing ones do, the in-process ones keep the
    registry's, and an existing store's manifest beats both."""
    items = items_for(8)
    hasher = lambda backend: backend.handle.params.hasher  # noqa: E731
    assert hasher(ReconciliationServer(items).backend) == "siphash"
    assert hasher(ServiceNode(items).backend) == "siphash"
    assert hasher(open_backend(items)) == "blake2b"
    assert hasher(GossipNode(0, items).backend) == "blake2b"
    assert hasher(make_nodes([items])[0].backend) == "blake2b"
    handle = get_scheme("riblt", symbol_size=8)
    assert hasher(memory_responder(handle, items).backend) == "blake2b"


def test_existing_store_keeps_its_hasher_under_a_service_host(tmp_path):
    items = items_for(8)
    open_backend(items, data_dir=tmp_path, durable=NO_FSYNC).close()  # blake2b

    async def scenario():
        server = ReconciliationServer(data_dir=tmp_path, durable=NO_FSYNC)
        try:
            assert server.handle.params.hasher == "blake2b"
            assert len(server) == len(items)
        finally:
            await server.close()

    asyncio.run(scenario())


# -- set-up hashes every item once -------------------------------------------


def test_server_setup_hashes_each_item_once(monkeypatch, lane, tmp_path):
    """Shard placement and the warm encoder's checksums share one keyed
    hash pass (two once: ``ShardedSet`` placed, then each per-shard
    ``RatelessEncoder`` hashed its shard again).  So does churn: a
    durable ``add_many`` or ``remove_many`` validates, journals, places
    and seeds checksums from one pass over its batch (three and two
    passes before churn became one patch pass), on a cluster worker's
    ``ShardSubsetSet`` too."""
    hashed = {"batch": 0, "scalar": 0}
    batch, scalar = SipHasher.hash64_batch, SipHasher.hash64

    def spy_batch(self, items):
        hashed["batch"] += len(items)
        return batch(self, items)

    def spy_scalar(self, data):
        hashed["scalar"] += 1
        return scalar(self, data)

    monkeypatch.setattr(SipHasher, "hash64_batch", spy_batch)
    monkeypatch.setattr(SipHasher, "hash64", spy_scalar)
    items = items_for(8)
    server = ReconciliationServer(items, num_shards=NUM_SHARDS)
    assert hashed["batch"] == len(items)
    assert hashed["scalar"] <= 1  # at most the handshake's key probe
    assert len(server.backend.encoder) == len(server.backend.sharded)

    def churn_passes(backend, fresh, gone):
        backend.encoder.cached_block(0, 48)  # a prefix for the churn to patch
        passes = []
        for mutate, batch_ in ((backend.add_many, fresh), (backend.remove_many, gone)):
            hashed.update(batch=0, scalar=0)
            mutate(batch_)
            passes.append((hashed["batch"] / len(batch_), hashed["scalar"]))
        return passes

    rng = random.Random(28)
    fresh = [rng.randbytes(8) for _ in range(90)]
    durable = open_backend(
        items, num_shards=NUM_SHARDS, data_dir=tmp_path / "full", durable=NO_FSYNC,
        hasher="siphash",
    )
    try:
        assert churn_passes(durable, fresh, items[::7]) == [(1, 0), (1, 0)]
    finally:
        durable.close()
    owned = (1, 3)
    hash64 = durable.handle.hash64
    live = set(items) - set(items[::7])
    mine = [i for i in sorted(live) if shard_of(hash64, i, NUM_SHARDS) in owned]
    more = [rng.randbytes(8) for _ in range(90)]
    extra = [i for i in more if shard_of(hash64, i, NUM_SHARDS) in owned]
    hashed.update(batch=0, scalar=0)
    worker = open_durable(
        tmp_path / "full", shard_subset=owned, journal_name=journal_segment_name(0),
        config=NO_FSYNC,
    )
    assert hashed == {"batch": 0, "scalar": 0}  # 8-byte checksums are the hashes
    try:
        assert isinstance(worker.sharded, ShardSubsetSet)
        assert churn_passes(worker, extra, mine[:40]) == [(1, 0), (1, 0)]
    finally:
        worker.close()


# -- one mutation body per layer -----------------------------------------------


def _twins(build):
    return build(), build()


def _bank_bytes(backend, cells=96):
    return backend.encoder.cached_block(0, cells).pack(backend.handle.codec)


def test_single_item_mutation_is_the_one_element_batch(tmp_path, lane):
    items = items_for(8)
    base, new, gone = items[:500], items[500], items[3]

    def single(target):
        return [target.add(new), target.remove(gone)]

    def batch(target):
        return target.add_many([new]) + target.remove_many([gone])

    # ShardedSet: same placement, same version bumps.
    hash64 = get_scheme("riblt", symbol_size=8).hash64
    one, many = _twins(lambda: ShardedSet(hash64, 3, base))
    assert single(one) == batch(many)
    assert (one.shards, one.versions) == (many.shards, many.versions)

    # WarmRibltBackend: the produced prefix is patched identically.
    def warm():
        backend = open_backend(base, num_shards=3, hasher="siphash")
        _bank_bytes(backend)  # produce a prefix for churn to patch
        return backend

    one, many = _twins(warm)
    assert single(one) == batch(many)
    assert one.sharded.versions == many.sharded.versions
    final = [item for item in base if item != gone] + [new]
    rebuilt = open_backend(final, num_shards=3, hasher="siphash")
    assert _bank_bytes(one) == _bank_bytes(many) == _bank_bytes(rebuilt)

    # DurableBackend: one journal record per call, byte for byte.
    def durable(name):
        backend = open_backend(
            base, num_shards=3, data_dir=tmp_path / name, durable=NO_FSYNC
        )
        _bank_bytes(backend)
        return backend

    one, many = durable("one"), durable("many")
    try:
        assert single(one) == batch(many)
        assert _bank_bytes(one) == _bank_bytes(many)
        assert one.sharded.versions == many.sharded.versions
        journals = [
            (tmp_path / name / JOURNAL_NAME).read_bytes() for name in ("one", "many")
        ]
        assert journals[0] == journals[1] and len(journals[0]) > 16
    finally:
        one.close()
        many.close()

    # The hosts: server, node and gossip peer forward to the same body.
    for host in (ReconciliationServer, ServiceNode):
        one, many = _twins(lambda: host(base, num_shards=3))
        _bank_bytes(one.backend), _bank_bytes(many.backend)
        one.add_item(new)
        one.remove_item(gone)
        many.add_items([new])
        many.remove_items([gone])
        assert one.backend.sharded.versions == many.backend.sharded.versions
        assert _bank_bytes(one.backend) == _bank_bytes(many.backend)
        with pytest.raises(KeyError):
            one.add_item(new)  # all-or-nothing validation is the set's own
        with pytest.raises(KeyError):
            one.remove_item(gone)
    one, many = _twins(lambda: GossipNode(0, base, num_shards=3))
    one.add(new)
    many.add_many([new])
    assert one.digest() == many.digest()
    assert one.backend.sharded.versions == many.backend.sharded.versions


# -- one churn pass per batch ------------------------------------------------


def _state(encoder, codec):
    """An encoder's packed bank and its source rows, sorted (row order
    follows ingest order, which is not part of the state)."""
    return encoder.bank.pack(codec), sorted(zip(*encoder.export_rows()))


@pytest.mark.parametrize("size", [8, 92])
@pytest.mark.parametrize("durable", [False, True])
def test_churn_batch_matches_per_shard_encoder_calls(lane, tmp_path, size, durable):
    """Random add/remove batches through a warm or durable 4-shard
    backend — one hash pass and one ``add_items``/``remove_items`` call
    on its one encoder each — leave that encoder's bank the lane XOR of
    per-shard ``RatelessEncoder.add_items`` / ``remove_items`` run one
    shard at a time, and its source rows their union, over cached
    prefixes that start empty and grow between batches."""
    rng = random.Random(size)
    items = items_for(size)
    spec = dict(num_shards=NUM_SHARDS, hasher="siphash")
    data_dir = tmp_path if durable else None
    backend = open_backend(items, data_dir=data_dir, durable=NO_FSYNC, **spec)
    codec = backend.handle.codec
    reference = ShardedSet(backend.handle.hash64, NUM_SHARDS, items)
    shards = [RatelessEncoder(codec, sorted(part)) for part in reference.shards]
    depths = [0, 0, 40, 40, 300, 300, 700, 700, 720, 740, 760, 780]
    live = list(items)
    try:
        for depth in depths:
            for encoder in [backend.encoder, *shards]:
                encoder.cached_block(0, depth)
            rng.shuffle(live)
            count = rng.choice([1, 5, 40, 200])
            gone, live = live[:count], live[count:]
            fresh = [rng.randbytes(size) for _ in range(rng.choice([1, 9, 64, 250]))]
            live += fresh
            backend.add_many(fresh)
            backend.remove_many(gone)
            for batch, adding in ((fresh, True), (gone, False)):
                mutate = reference.add_many if adding else reference.remove_many
                placed = mutate(batch)
                for shard, encoder in enumerate(shards):
                    group = [i for i, s in zip(batch, placed) if s == shard]
                    if group:
                        (encoder.add_items if adding else encoder.remove_items)(group)
            union = shards[0].cached_block(0, depth)
            for encoder in shards[1:]:
                union.add_in_place(encoder.cached_block(0, depth))
            rows = sorted(row for e in shards for row in zip(*e.export_rows()))
            assert _state(backend.encoder, codec) == (union.pack(codec), rows)
            assert backend.sharded.versions == reference.versions
    finally:
        if durable:
            backend.close()


def test_warm_stream_refuses_empty_blocks():
    """``next_block(max_cells < 1)`` raises before the cursor moves: it
    used to step the cursor back, so the next block re-sent cells under
    later indices."""
    items = items_for(8)
    stream = open_backend(items, num_shards=NUM_SHARDS).open_stream()
    expected = open_backend(items, num_shards=NUM_SHARDS).open_stream()
    assert stream.next_block(8) == expected.next_block(8)
    for cells in (0, -3):
        with pytest.raises(ValueError, match="max_cells"):
            stream.next_block(cells)
    assert stream.symbols_sent == 8
    assert stream.next_block(8) == expected.next_block(8)


def test_stream_cursor_slices_the_encoders_prefix(lane):
    """The cursor serves slices of the backend's one warm encoder: over
    the service ramp and 64-cell blocks it serves the bytes a bare
    encoder of the set would; a first session makes the encoder encode
    no cell before a block needs it, and a later one encodes none."""
    from repro.core.wire import SymbolStreamWriter

    items = items_for(8)
    backend = open_backend(items, num_shards=NUM_SHARDS)
    bare = RatelessEncoder(backend.codec, items)
    for session in ("cold", "warm"):
        writer = SymbolStreamWriter(backend.codec, set_size=len(items))
        stream, served = backend.open_stream(), 0
        for cells in [8, 16, 32] + [64] * 30:
            block = stream.next_block(cells)
            cut = bare.cached_block(served, served + cells)
            head = writer.header() if not served else b""
            assert block == head + writer.write_block(cut)
            served += cells
            if session == "cold":
                assert backend.encoder.produced_count == served
    assert backend.encoder.produced_count == served


def test_golden_snapshots_restore_to_lane_banks(tmp_path):
    """Restored under the vector engine, the snapshot in
    ``tests/golden/durable_journal`` gives a lane-form bank whose ``pack``
    is byte-identical to the file's cell section: the lane form does not
    change the durable format."""
    pytest.importorskip("numpy")
    from repro.core.symbols import SymbolCodec
    from repro.durable.snapshot import unpack_snapshot

    golden = Path(__file__).parent / "golden" / "durable_journal"
    codec = SymbolCodec(8, hasher=SipHasher(bytes(range(16))))
    stride = 8 + 8 + 8  # sum | checksum | count
    cells = 112
    with engine_lane(True):
        blob = (golden / "encoder.g2.snap").read_bytes()
        snapshot = unpack_snapshot(blob, codec)
        encoder = snapshot.restore(codec)
        assert encoder.bank.vector and len(encoder.bank) == cells
        assert encoder.bank.pack(codec) == blob[-4 - cells * stride : -4]
        assert encoder.bank == snapshot.bank


def test_data_dir_written_per_shard_reopens_identically(lane, tmp_path):
    """``tests/golden/durable_journal``'s journal was written while each
    shard's churn was still patched by its own kernel call: four shards
    with unequal cached prefixes, checkpointed, then six churn batches (1
    to 70 items) left in the journal.  Its snapshot is those four shard
    encoders in one, each produced to 112 cells, rows concatenated and
    banks lane-XORed.  Reopening replays the journal through the
    one-pass ``add_many``/``remove_many``; the encoder must equal a cold
    ingest of the final set produced to 112 cells, and members, versions,
    bank and sorted source rows must hash to the pinned digest."""
    golden = Path(__file__).parent / "golden" / "durable_journal"
    data_dir = shutil.copytree(golden, tmp_path / "data")
    config = DurableConfig(fsync=False, checkpoint_every=None)
    backend = open_backend(data_dir=data_dir, durable=config)
    try:
        codec = backend.handle.codec
        encoder = backend.encoder
        assert len(backend.sharded) == 431 and len(encoder.bank) == 112
        cold = open_backend(list(backend.sharded), scheme=backend.handle).encoder
        cold.cached_block(0, 112)
        assert _state(encoder, codec) == _state(cold, codec)
        sharded = backend.sharded
        digest = hashlib.sha256()
        for members, version in zip(sharded.shards, sharded.versions):
            digest.update(repr((sorted(members), version)).encode())
        digest.update(repr(_state(encoder, codec)).encode())
        assert digest.hexdigest() == (
            "33fcb8fe7685dadb442f194deb7d5f8dc1e1de92d663df86cd9c0d5222b04b7a"
        )
    finally:
        backend.close()


def test_one_patch_walk_per_churn_batch(monkeypatch, tmp_path):
    """A churn batch is one walk-kernel call, however many shards it
    touches: the backend's one encoder walks the whole batch over its one
    cached prefix.  And ``encoder.py`` has one patch body, ``_patch``: the
    only code that validates a batch, kills rows or walks a produced
    prefix for churn; every add and remove form is a call of it, and the
    backends reach it through the encoder's ``add_items``/``remove_items``."""
    pytest.importorskip("numpy")
    from repro.core import encoder as encoder_module

    calls = []
    kernel = encoder_module.scatter_walk_arrays

    def spy(*args, **kwargs):
        calls.append(args[3])  # the walked rows' idx column
        return kernel(*args, **kwargs)

    items = items_for(8)
    rng = random.Random(20)
    spec = dict(num_shards=NUM_SHARDS, hasher="siphash")
    with engine_lane(True):
        warm = open_backend(items, **spec)
        durable = open_backend(items, data_dir=tmp_path, durable=NO_FSYNC, **spec)
        try:
            for backend in (warm, durable):
                backend.encoder.cached_block(0, 128)
                fresh = [rng.randbytes(8) for _ in range(160)]
                gone = items[1::3]
                monkeypatch.setattr(encoder_module, "scatter_walk_arrays", spy)
                churn = ((backend.add_many, fresh), (backend.remove_many, gone))
                for mutate, batch in churn:
                    calls.clear()
                    assert set(mutate(batch)) == set(range(NUM_SHARDS))
                    assert len(calls) == 1 and len(calls[0]) == len(batch)
                monkeypatch.undo()
        finally:
            durable.close()

    src = Path(repro.__file__).parent
    tree = ast.parse((src / "core" / "encoder.py").read_text())
    owner = _enclosing_functions(tree)
    defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert "_patch_prefix" not in defined

    def callers(name):
        return {
            owner[id(node)]
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and name in (getattr(node.func, a, None) for a in ("id", "attr"))
        }

    assert callers("_walk_into") == {"walk", "_patch"}
    assert callers("kill") == callers("_validate") == callers("alphas_for") - {
        "restore"
    } == {"_patch"}
    assert callers("_patch") == {"add_value", "remove_value", "churn"}
    assert callers("churn") == {"add_items", "remove_items"}
    backends = (src / "service" / "backends.py").read_text()
    for method in ("add_items", "remove_items"):
        assert f"self.encoder.{method}(" in backends
    for module in ("service/backends.py", "durable/store.py"):
        imported = {
            alias.name
            for node in ast.walk(ast.parse((src / module).read_text()))
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        assert "churn" not in imported, module


@pytest.mark.parametrize("size", [8, 92])
def test_one_encoder_per_backend(lane, size):
    """A backend holds ONE warm encoder over its whole set, whatever its
    shard count: shards are placement (membership, versions, stripes,
    journal segments), never encoders.  A 1-shard and a 4-shard backend
    of the same items hold byte-identical encoder state — bank, source
    rows (in ingest order), digest and served blocks — after 64 produced
    cells and after an add/remove churn batch.  Structurally, no module
    of ``service`` or ``durable`` keeps an ``encoders`` list, the stream
    cursor reads no XOR-ed read-ahead, and ``_walk_into`` walks one bank:
    no lane matrix laid end to end, no per-row ends."""
    rng = random.Random(43 + size)
    items = items_for(size)
    fresh = [rng.randbytes(size) for _ in range(90)]
    one, four = (
        open_backend(items, num_shards=shards, hasher="siphash") for shards in (1, 4)
    )
    codec = one.handle.codec

    def state(backend):
        stream = backend.open_stream()
        blocks = [stream.next_block(cells) for cells in (8, 16, 40)]
        encoder = backend.encoder
        rows = encoder.export_rows()
        return encoder.bank.pack(codec), rows, backend.digest(), blocks

    assert state(one) == state(four)
    assert one.encoder.produced_count == 64
    for backend in (one, four):
        backend.add_many(fresh)
        backend.remove_many(items[::5])
    assert state(one) == state(four)
    assert [len(members) for members in four.sharded.shards] != [len(one.sharded)]

    src = Path(repro.__file__).parent
    for package in ("service", "durable"):
        for path in (src / package).rglob("*.py"):
            names = {
                getattr(node, "attr", getattr(node, "id", None))
                for node in ast.walk(ast.parse(path.read_text()))
            }
            assert "encoders" not in names, path.relative_to(src)
    tree = ast.parse((src / "service" / "backends.py").read_text())
    (cursor,) = [
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "StreamCursor"
    ]
    assert not [
        node
        for node in ast.walk(cursor)
        if isinstance(node, ast.Attribute) and node.attr.startswith("_ahead")
    ]
    tree = ast.parse((src / "core" / "encoder.py").read_text())
    (walk,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_walk_into"
    ]
    called = {
        getattr(node.func, "attr", getattr(node.func, "id", None))
        for node in ast.walk(walk)
        if isinstance(node, ast.Call)
    }
    assert not called & {"concatenate", "repeat", "accumulate", "diff"}, called
    assert [arg.arg for arg in walk.args.args][0] == "bank"


def test_one_walk_per_prefix_doubling(monkeypatch, lane):
    """A SYMBOLS frame past the initiator's coded prefix grows it by
    doubling (to the frame's end, or twice the prefix within the grant),
    so the prefix costs O(log cells) walk-kernel calls over a
    service-profile stream (8/16/32/64 ramp, then 64-cell blocks) from a
    two-shard server, not one per frame.  The payloads stay those of a
    bare encoder's prefix."""
    from repro.core import encoder as encoder_module
    from repro.protocol import InitiatorMachine, pump

    walks: dict[int, int] = {}
    kernel = encoder_module._walk_into

    def spy(bank, *rest):
        walks[id(bank)] = walks.get(id(bank), 0) + 1
        return kernel(bank, *rest)

    rng = random.Random(0x3A1C)
    shared = [rng.randbytes(8) for _ in range(400)]
    theirs = shared + [rng.randbytes(8) for _ in range(1_600)]
    handle = get_scheme("riblt", symbol_size=8, hasher="siphash")
    initiator = InitiatorMachine(handle, shared, capture_payloads=True)
    responder = memory_responder(
        handle, theirs, num_shards=2, block_size=64, slow_start=True
    )
    frames = [0]
    absorb = initiator._on_symbols

    def count(run):
        frames[0] += len(run)
        return absorb(run)

    monkeypatch.setattr(initiator, "_on_symbols", count)
    monkeypatch.setattr(encoder_module, "_walk_into", spy)
    report = pump(initiator, responder)
    monkeypatch.undo()
    assert len(report.only_in_remote) == 1_600
    encoder = initiator._encoder
    cells = encoder.produced_count
    assert frames[0] >= 30 and cells >= initiator._absorbed
    assert walks[id(encoder.bank)] <= math.ceil(math.log2(cells / 8)) + 2
    bare = RatelessEncoder(handle.codec, shared)
    assert encoder.cached_block(0, cells).cells() == bare.produce(cells)


def test_service_node_items_is_a_view_of_the_backend():
    node = ServiceNode(items_for(8)[:50], num_shards=2)
    node.add_items(items_for(8)[50:60])
    assert node.items == set(node.backend.sharded) == set(items_for(8)[:60])
    assert len(node) == 60 and items_for(8)[55] in node
    with pytest.raises(AttributeError):
        node.items = set()  # read-only: the backend is the only copy


# -- structure -------------------------------------------------------------------


def _enclosing_functions(tree: ast.AST) -> dict[int, str]:
    """``id(node) -> name of the innermost def`` containing it."""
    owner: dict[int, str] = {}

    def visit(node: ast.AST, name: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = node.name
        owner[id(node)] = name
        for child in ast.iter_child_nodes(node):
            visit(child, name)

    visit(tree, "<module>")
    return owner


def test_one_streaming_scheme_in_src():
    """Rateless IBLT is the one scheme whose coded prefix decodes
    wherever it is cut (§4), so "streams" means riblt on every layer:
    exactly one registry entry has the streaming capability, no generic
    stream layer (a streaming reconciler interface, a scheme stream
    backend) survives, and ``open_backend`` builds a warm riblt backend
    or a sketch backend — no generic stream backend beside them.
    """
    streaming = {
        name
        for name in available_schemes()
        if scheme_info(name).capabilities.streaming
    }
    assert streaming == {"riblt"}
    src = Path(repro.__file__).parent
    gone = (
        r"\b(SchemeStreamBackend|_SchemeStream|_try_stream_decode"
        r"|StreamingReconciler|absorb_many|stream_result|accepts_item_hashes)\b"
    )
    for path in src.rglob("*.py"):
        assert not re.search(gone, path.read_text()), path.relative_to(src)
    tree = ast.parse((src / "service" / "backends.py").read_text())
    (fn,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "open_backend"
    ]
    built = {
        node.func.id
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id.endswith("Backend")
    }
    assert built == {"WarmRibltBackend", "SketchBackend"}


def test_one_stream_path_in_src():
    """STREAM mode drives the core codec directly on both ends: the
    initiator's one stream holds an encoder, a §6 reader and a decoder,
    and the responder's one cursor class (``StreamCursor``, over the warm
    encoder) holds the §6 writer.  No interface, adapter stream face or
    hash-forwarding keyword sits between the machine and the codec.
    """
    import inspect

    src = Path(repro.__file__).parent
    gone = r"\b(StreamingReconciler|absorb_many|accepts_item_hashes)\b"
    constructed: dict[str, set[str]] = {}
    stream_classes = []
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        rel = path.relative_to(src).as_posix()
        assert not re.search(gone, text), rel
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                constructed.setdefault(node.func.id, set()).add(rel)
            if isinstance(node, ast.ClassDef):
                bases = {ast.unparse(base) for base in node.bases}
                methods = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
                if "next_block" in methods:  # a server-side stream cursor
                    stream_classes.append((rel, node.name, bases))
    assert constructed["SymbolStreamReader"] - {"core/wire.py"} == {
        "protocol/machine.py"
    }
    assert constructed["SymbolStreamWriter"] - {"core/wire.py"} == {
        "service/backends.py"
    }
    assert stream_classes == [("service/backends.py", "StreamCursor", set())]
    new = inspect.signature(get_scheme("riblt").new)
    assert [p.kind for p in new.parameters.values()] == [
        inspect.Parameter.POSITIONAL_OR_KEYWORD
    ]


def test_one_set_digest_in_src():
    """A set's digest is its cell 0 (every item maps to coded symbol 0),
    folded in one place: ``service.backends.set_digest`` XOR-reduces items
    and keyed hashes, and every other digest reads a backend's
    ``digest()`` — the warm prefixes' cached cell 0 on a riblt host.  No
    other function both obtains keyed hashes and XOR-folds them, so the
    gossip node keeps no second, incrementally folded copy.
    """
    src = Path(repro.__file__).parent
    hash_sources = {
        "hash_items",
        "hash64",
        "hash64_batch",
        "checksum_batch",
        "checksum_data",
        "checksums_from_hash64",
    }

    def callee(call: ast.Call) -> str:
        func = call.func
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")

    def xor_folds(fn) -> bool:
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            if callee(node) == "reduce" and node.args:
                first = node.args[0]
                if getattr(first, "id", getattr(first, "attr", "")) == "xor":
                    return True
                if getattr(node.func, "value", None) is not None and (
                    getattr(node.func.value, "attr", "") == "bitwise_xor"
                ):
                    return True
        return False

    def takes_hashes(fn) -> bool:
        if any(arg.arg == "hashes" for arg in fn.args.args):
            return True
        return any(
            isinstance(node, ast.Call) and callee(node) in hash_sources
            for node in ast.walk(fn)
        )

    folding = set()
    for path in src.rglob("*.py"):
        name = path.relative_to(src).as_posix()
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef) and xor_folds(fn) and takes_hashes(fn):
                folding.add((name, fn.name))
    assert folding == {("service/backends.py", "set_digest")}
    node_text = (src / "gossip" / "node.py").read_text()
    assert not re.search(r"\b(_xor|_fold|_digest_version)\b", node_text)


def test_one_duplicate_pass_per_sync():
    """``sync()`` checks a batch for repeats once.  On the lane path (a
    streaming codec) that check is ``SymbolCodec.distinct_item_rows``: one
    sort of the row matrix's first lane, the one the encoder runs, and
    only a batch holding a repeat pays ``dict.fromkeys``.  Every
    ``dict.fromkeys`` left in ``service/client.py`` is on the other
    branch of that streaming test (sketch schemes)."""
    src = Path(repro.__file__).parent

    def fromkeys(node) -> list:
        return [
            call
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and ast.unparse(call.func) == "dict.fromkeys"
        ]

    tree = ast.parse((src / "service" / "client.py").read_text())
    branches = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and "streaming" in ast.unparse(node.test)
    ]
    assert len(branches) == 1
    (lane_path,) = branches
    body = ast.Module(lane_path.body, [])
    assert "distinct_item_rows" in ast.unparse(body) and not fromkeys(body)
    other = {id(call) for node in lane_path.orelse for call in fromkeys(node)}
    assert {id(call) for call in fromkeys(tree)} == other

    tree = ast.parse((src / "core" / "symbols.py").read_text())
    (method,) = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "distinct_item_rows"
    ]
    guarded = [
        node
        for node in ast.walk(method)
        if isinstance(node, ast.If) and "has_duplicates" in ast.unparse(node.test)
    ]
    assert len(guarded) == 1 and len(fromkeys(guarded[0])) == 1
    assert len(fromkeys(method)) == 2  # the repeat-holding lane batch, the list form


def test_one_peer_state_constructor_in_src():
    """Handle → codec → keyed hash → ``ShardedSet`` → backend is wired
    in one place.  A host that needs peer state calls ``open_backend``;
    a second prelude, a second symbol-size inference or a shadow copy
    of the set has to edit this test and say why.
    """
    src = Path(repro.__file__).parent
    builders = {
        "ShardedSet",
        "ShardSubsetSet",
        "make_backend",
        "WarmRibltBackend",
        "SketchBackend",
        "DurableBackend",
    }
    allowed = {
        ("service/backends.py", "open_backend"),
        ("durable/store.py", "_recover"),
        ("durable/store.py", "open_durable"),  # wraps open_backend's state
    }
    inference_sites = []
    for path in src.rglob("*.py"):
        name = path.relative_to(src).as_posix()
        text = path.read_text()
        gone = r"\b(codec_of|hash64_of|resolve_symbol_size)\b"
        assert not re.search(gone, text), name
        tree = ast.parse(text)
        owner = _enclosing_functions(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = getattr(func, "id", None) or getattr(func, "attr", "")
                if called in builders:
                    assert (name, owner[id(node)]) in allowed, (
                        f"{name}:{node.lineno} builds peer state outside open_backend"
                    )
                for keyword in node.keywords:
                    value = keyword.value
                    if (
                        keyword.arg == "symbol_size"
                        and isinstance(value, ast.Call)
                        and isinstance(value.func, ast.Name)
                        and value.func.id == "len"
                    ):
                        inference_sites.append((name, owner[id(node)]))
            if name == "service/node.py" and isinstance(
                node, (ast.Assign, ast.AnnAssign, ast.AugAssign)
            ):
                for target in getattr(node, "targets", None) or [node.target]:
                    assert ast.unparse(target) != "self.items", (
                        f"{name}:{node.lineno} keeps a shadow copy of the set"
                    )
    assert inference_sites == [("api/registry.py", "bound_to")]
    store = (src / "durable" / "store.py").read_text()
    assert "class DurableBackend(WarmRibltBackend)" in store
    assert not re.search(r"\binner\b", store), "DurableBackend wraps an inner again"


def test_one_peel_per_read(monkeypatch, lane):
    """A read's SYMBOLS frames share one decode wave per prefix doubling:
    over a seeded service-profile stream from a 4-shard server whose
    reads carry eight frames, each ``_on_symbols`` run makes at most
    1 + (the prefix growths it made) ``add_coded_block`` calls, not one
    per frame (the first two runs grow at most frames, the five full
    ones at most once); the vector engine's peel rounds make fewer than
    60 batch hash calls (170 when each frame is its own call); and the
    initiator's coded prefix and absorbed count follow the doubling
    schedule (pinned)."""
    from repro.core.decoder import RatelessDecoder
    from repro.core.symbols import SymbolCodec
    from repro.protocol import InitiatorMachine

    rng = random.Random(0x9EE1)
    shared = [rng.randbytes(8) for _ in range(2_000)]
    theirs = shared[400:] + [rng.randbytes(8) for _ in range(1_600)]
    handle = get_scheme("riblt", symbol_size=8, hasher="siphash")
    initiator = InitiatorMachine(handle, shared)
    responder = memory_responder(
        handle, theirs, num_shards=4, block_size=64, slow_start=True
    )
    runs, hashes = [], [0]
    absorb, peel = initiator._on_symbols, RatelessDecoder.add_coded_block
    grow, verify = RatelessEncoder.produce_block, SymbolCodec.checksum_int_batch

    def on_symbols(run):
        runs.append({"frames": len(run), "ingest": 0, "grows": 0})
        return absorb(run)

    def add_coded_block(decoder, *args):
        runs[-1]["ingest"] += 1
        return peel(decoder, *args)

    def produce_block(encoder, m):
        if runs and encoder is initiator._encoder:
            runs[-1]["grows"] += 1
        return grow(encoder, m)

    def checksum_int_batch(codec, values):
        hashes[0] += 1
        return verify(codec, values)

    monkeypatch.setattr(initiator, "_on_symbols", on_symbols)
    monkeypatch.setattr(RatelessDecoder, "add_coded_block", add_coded_block)
    monkeypatch.setattr(RatelessEncoder, "produce_block", produce_block)
    monkeypatch.setattr(SymbolCodec, "checksum_int_batch", checksum_int_batch)
    initiator.start()
    responder.start()
    while not initiator.finished:
        responder.bytes_received(initiator.take_output())
        for _ in range(8):
            responder.tick()
        initiator.bytes_received(responder.take_output())
    monkeypatch.undo()
    report = initiator.report
    assert report.only_in_remote == set(theirs) - set(shared)
    assert report.only_in_local == set(shared) - set(theirs)
    assert runs[-1]["frames"] == 8
    for run in runs:
        assert run["ingest"] <= 1 + run["grows"], runs
    if lane:
        assert hashes[0] < 60  # frame-by-frame absorption of these reads: 170
    assert initiator._encoder.produced_count == 4544
    assert initiator._absorbed == report.symbols == 2808
