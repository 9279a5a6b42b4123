"""Crash-safe persistence (``repro.durable``): the recovery contract.

Acceptance anchors:

* recovery after randomized churn is **bit-identical** to fresh ingest
  of the same final set — the served wire stream, the shard versions,
  and future cell production all match (§4.1 linearity end to end);
* a simulated crash at *every* named crash point, followed by restart,
  recovers exactly the acknowledged prefix of mutations and serves a
  stream golden-equal to fresh ingest of that prefix;
* a torn journal tail (byte shortage) is silently truncated; a
  complete record with a bad CRC is *corruption* and fails typed.
"""

import importlib
import json
import random

import pytest

from repro.api.registry import get_scheme
from repro.durable import (
    CRASH_POINTS,
    INJECTOR,
    CorruptJournal,
    CorruptSnapshot,
    DataDirMismatch,
    DurableConfig,
    FaultInjector,
    SimulatedCrash,
    open_durable,
)
from repro.durable.journal import MAGIC as JOURNAL_MAGIC
from repro.durable.store import JOURNAL_NAME, MANIFEST_NAME
from repro.service.backends import open_backend

from helpers import engine_lane

ITEM = 8
NUM_SHARDS = 4


@pytest.fixture(autouse=True)
def _clean_injector():
    INJECTOR.reset()
    yield
    INJECTOR.reset()


def make_items(lo, hi):
    return [b"%08d" % i for i in range(lo, hi)]


def fresh_backend(items, num_shards=NUM_SHARDS):
    """Reference: a cold WarmRibltBackend ingesting ``items`` directly."""
    return open_backend(sorted(items), num_shards=num_shards, symbol_size=ITEM)


def served_stream(backend, cells=96):
    """The exact wire bytes a client would read, and the encoder's cells."""
    return [
        backend.open_stream().next_blocks([cells])[0],
        backend.encoder.cached_block(0, cells),
    ]


def assert_bit_identical(recovered, reference):
    """Recovered state must be indistinguishable from fresh ingest."""
    assert set(recovered.sharded) == set(reference.sharded)
    assert recovered.num_shards == reference.num_shards
    assert served_stream(recovered) == served_stream(reference)
    # Future production must agree too, not just the cached prefix.
    a, b = recovered.open_stream(), reference.open_stream()
    a.next_blocks([64])
    b.next_blocks([64])
    assert a.next_blocks([64]) == b.next_blocks([64])
    ours, theirs = recovered.encoder, reference.encoder
    assert ours.cached_block(0, 192) == theirs.cached_block(0, 192)


# -- recovery is fresh-ingest, bit for bit ---------------------------------


def test_checkpoint_close_reopen_roundtrip(tmp_path):
    items = make_items(0, 300)
    backend = open_durable(tmp_path, items, num_shards=NUM_SHARDS)
    backend.add_many(make_items(300, 360))
    backend.remove_many(make_items(0, 30))
    versions = list(backend.sharded.versions)
    backend.close()

    recovered = open_durable(tmp_path)
    try:
        final = sorted(set(make_items(30, 360)))
        assert sorted(recovered.sharded) == final
        # Journal replay re-applies the same batches, so the mutation
        # clock lands exactly where it was at close (gossip digests
        # compare versions across restarts).
        assert list(recovered.sharded.versions) == versions
        assert_bit_identical(recovered, fresh_backend(final))
    finally:
        recovered.close()


@pytest.mark.parametrize("seed", [1, 7, 2024])
def test_recovery_bit_identical_after_random_churn(tmp_path, seed):
    rng = random.Random(seed)
    live = set(make_items(0, 200))
    backend = open_durable(
        tmp_path,
        sorted(live),
        num_shards=NUM_SHARDS,
        config=DurableConfig(checkpoint_every=97, fsync=False),
    )
    fresh_counter = 1000
    for _ in range(rng.randrange(5, 15)):
        if rng.random() < 0.6 or len(live) < 20:
            batch = [
                b"%08d" % i
                for i in range(fresh_counter, fresh_counter + rng.randrange(1, 40))
            ]
            fresh_counter += len(batch)
            backend.add_many(batch)
            live.update(batch)
        else:
            batch = rng.sample(sorted(live), rng.randrange(1, 20))
            backend.remove_many(batch)
            live.difference_update(batch)
        if rng.random() < 0.2:
            backend.checkpoint()
    versions = list(backend.sharded.versions)
    backend.close()

    recovered = open_durable(tmp_path)
    try:
        assert set(recovered.sharded) == live
        assert list(recovered.sharded.versions) == versions
        assert_bit_identical(recovered, fresh_backend(sorted(live)))
    finally:
        recovered.close()


def test_reopen_with_same_items_validates(tmp_path):
    items = make_items(0, 50)
    open_durable(tmp_path, items, num_shards=2).close()
    # Same items: fine (idempotent cold-start scripts).
    backend = open_durable(tmp_path, items, num_shards=2)
    backend.close()
    # Different items: refusing beats silently serving the wrong set.
    with pytest.raises(DataDirMismatch):
        open_durable(tmp_path, make_items(0, 51), num_shards=2)
    with pytest.raises(DataDirMismatch):
        open_durable(tmp_path, items, num_shards=3)


# -- kill it at every crash point ------------------------------------------


@pytest.mark.parametrize("point", CRASH_POINTS)
def test_crash_point_then_recover_serves_acked_prefix(tmp_path, point):
    """Crash at ``point``; restart serves a clean op-sequence prefix.

    The contract: every *acked* op survives; the single in-flight op
    may or may not (a crash after the journal write but before the ack
    — e.g. during the fsync — legitimately persists it).  Whatever
    state comes back must be bit-identical to fresh ingest of it.
    """
    backend = open_durable(
        tmp_path, make_items(0, 120), num_shards=NUM_SHARDS
    )
    acked = set(make_items(0, 120))
    backend.add_many(make_items(200, 240))
    acked.update(make_items(200, 240))

    # A journal-point crash fires inside a mutation; a snapshot or
    # manifest point fires inside the checkpoint.
    ops = [
        ("add", make_items(300, 330)),
        ("remove", make_items(0, 10)),
        ("checkpoint", None),
    ]
    INJECTOR.arm_crash(point)
    attempted = acked
    try:
        for op, batch in ops:
            if op == "add":
                attempted = acked | set(batch)
                backend.add_many(batch)
            elif op == "remove":
                attempted = acked - set(batch)
                backend.remove_many(batch)
            else:
                attempted = acked
                backend.checkpoint()
            acked = attempted
        pytest.fail(f"crash point {point} never fired")
    except SimulatedCrash as exc:
        assert exc.point == point
    INJECTOR.reset()

    recovered = open_durable(tmp_path)
    try:
        recovered_set = set(recovered.sharded)
        assert recovered_set in (acked, attempted)
        assert_bit_identical(recovered, fresh_backend(sorted(recovered_set)))
    finally:
        recovered.close()


def test_crash_point_env_var_spec():
    injector = FaultInjector(env={"REPRO_CRASH_POINT": "manifest.rename:2"})
    # skip=2: the first two hits pass, the third crashes.
    injector._take_crash("manifest.rename")
    injector._take_crash("manifest.rename")
    with pytest.raises(SimulatedCrash):
        injector.crash("manifest.rename")


def test_unknown_crash_point_rejected():
    with pytest.raises(ValueError):
        INJECTOR.arm_crash("snapshot.nonsense")
    with pytest.raises(ValueError):
        FaultInjector(env={"REPRO_CRASH_POINT": "bogus.point"})


# -- journal pathology ------------------------------------------------------


def test_torn_journal_tail_is_truncated_not_fatal(tmp_path):
    backend = open_durable(tmp_path, make_items(0, 60), num_shards=2)
    backend.add_many(make_items(100, 110))  # acked, journaled
    backend.close()

    journal = tmp_path / JOURNAL_NAME
    intact = journal.read_bytes()
    # A torn write: half of a would-be record, then the crash.
    journal.write_bytes(intact + b"\x40" + b"\xAB" * 17)

    recovered = open_durable(tmp_path)
    try:
        assert set(recovered.sharded) == set(make_items(0, 60) + make_items(100, 110))
        # The tail was physically truncated so the next append extends
        # a valid log, not garbage.
        recovered.add(b"%08d" % 999)
    finally:
        recovered.close()
    reopened = open_durable(tmp_path)
    try:
        assert b"%08d" % 999 in reopened.sharded
    finally:
        reopened.close()


def test_corrupt_journal_record_fails_typed(tmp_path):
    backend = open_durable(tmp_path, make_items(0, 60), num_shards=2)
    backend.add_many(make_items(100, 110))
    backend.close()

    journal = tmp_path / JOURNAL_NAME
    blob = bytearray(journal.read_bytes())
    assert len(blob) > len(JOURNAL_MAGIC) + 8
    blob[-6] ^= 0xFF  # inside the record payload: CRC now lies
    journal.write_bytes(bytes(blob))

    with pytest.raises(CorruptJournal):
        open_durable(tmp_path)


@pytest.mark.parametrize("name", [JOURNAL_NAME, "journal.0.log"])
def test_journal_sequence_gap_fails_typed(tmp_path, name):
    """Every journal file — the base log and a worker segment alike —
    is replayed by one loop, and a hole in its sequence is corruption."""
    from repro.durable.journal import frame_record
    from repro.durable.store import OP_ADD, encode_op

    open_durable(tmp_path, make_items(0, 60), num_shards=2).close()
    records = [
        encode_op(OP_ADD, seq, make_items(100 + seq, 101 + seq)) for seq in (1, 3)
    ]
    (tmp_path / name).write_bytes(
        JOURNAL_MAGIC + b"".join(frame_record(r) for r in records)
    )
    with pytest.raises(CorruptJournal, match="sequence jumped 1 -> 3"):
        open_durable(tmp_path)


def test_corrupt_snapshot_fails_typed(tmp_path):
    backend = open_durable(tmp_path, make_items(0, 60), num_shards=2)
    backend.close()
    (snap,) = tmp_path.glob("*.snap")
    blob = bytearray(snap.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    snap.write_bytes(bytes(blob))
    with pytest.raises(CorruptSnapshot):
        open_durable(tmp_path)


def test_corrupt_manifest_fails_typed(tmp_path):
    from repro.durable import CorruptManifest

    open_durable(tmp_path, make_items(0, 20)).close()
    manifest = tmp_path / MANIFEST_NAME
    manifest.write_text(manifest.read_text()[:-10])
    with pytest.raises(CorruptManifest):
        open_durable(tmp_path)


def test_format_1_manifest_is_refused_typed(tmp_path):
    """A data dir from before the one-encoder snapshot (manifest format 1:
    one snapshot file per shard) is refused with a typed error naming
    its format, not misread."""
    from repro.durable import CorruptManifest

    open_durable(tmp_path, make_items(0, 20), num_shards=2).close()
    manifest = tmp_path / MANIFEST_NAME
    old = json.loads(manifest.read_text())
    old["format"] = 1
    old["shards"] = [
        {"file": f"shard-{s:04d}.g1.snap", "version": v, "count": 0, "cells": 0}
        for s, v in enumerate(old.pop("versions"))
    ]
    del old["snapshot"]
    manifest.write_text(json.dumps(old))
    with pytest.raises(CorruptManifest, match="manifest format 1 is not 2"):
        open_durable(tmp_path)


def test_narrow_checksum_store_reopens_same_shards(tmp_path, lane):
    """With a 4-byte checksum the stored checksum column is not the keyed
    hash, so a reopen re-places the snapshot's members by hashing them
    once: per-shard membership and versions come back as they were, and
    the restored stream is a fresh ingest's."""
    params = dict(symbol_size=ITEM, checksum_size=4)
    backend = open_durable(
        tmp_path, make_items(0, 300), num_shards=NUM_SHARDS, **params
    )
    backend.open_stream().next_blocks([64])
    backend.add_many(make_items(300, 340))
    backend.remove_many(make_items(0, 25))
    backend.checkpoint()
    shards = [set(members) for members in backend.sharded.shards]
    versions = list(backend.sharded.versions)
    backend.close()
    recovered = open_durable(tmp_path)
    try:
        assert [set(m) for m in recovered.sharded.shards] == shards
        assert list(recovered.sharded.versions) == versions
        reference = open_backend(make_items(25, 340), num_shards=NUM_SHARDS, **params)
        assert_bit_identical(recovered, reference)
    finally:
        recovered.close()


# -- injected IO errors (no crash, just a failing disk) ---------------------


def test_journal_io_error_leaves_memory_and_disk_unchanged(tmp_path):
    backend = open_durable(tmp_path, make_items(0, 60), num_shards=2)
    before = set(backend.sharded)
    journal_bytes = (tmp_path / JOURNAL_NAME).read_bytes()

    INJECTOR.arm_io_error("journal.append")
    with pytest.raises(OSError):
        backend.add_many(make_items(100, 105))
    # Write-ahead ordering: the failed batch never reached the bank.
    assert set(backend.sharded) == before
    assert (tmp_path / JOURNAL_NAME).read_bytes() == journal_bytes
    INJECTOR.reset()

    backend.add_many(make_items(100, 105))  # the disk recovered
    backend.close()
    recovered = open_durable(tmp_path)
    try:
        assert set(recovered.sharded) == before | set(make_items(100, 105))
    finally:
        recovered.close()


def test_churn_checks_and_places_each_batch_once(tmp_path, monkeypatch):
    """A churn batch is hashed, validated and placed once, durable or
    not: the write-ahead check's placements are the ones applied (the
    apply used to run ``check_many`` — and ``place_many`` — again), and a
    rejected batch still fails typed before the journal sees it."""
    from repro.service import shard as shard_module

    calls = {"check_many": 0, "place_many": 0, "hash_items": 0}

    def counted(owner, name):
        real = getattr(owner, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)

    counted(shard_module.ShardedSet, "check_many")
    counted(shard_module.ShardedSet, "place_many")
    durable = open_durable(tmp_path, make_items(0, 300), num_shards=NUM_SHARDS)
    warm = open_backend(make_items(0, 300), num_shards=NUM_SHARDS, symbol_size=ITEM)
    for module in ("repro.durable.store", "repro.service.backends"):
        counted(importlib.import_module(module), "hash_items")
    try:
        for backend in (durable, warm):
            for batch, mutate in (
                (make_items(300, 556), backend.add_many),
                (make_items(0, 256), backend.remove_many),
            ):
                calls.update(dict.fromkeys(calls, 0))
                placed = mutate(batch)
                assert calls == {"check_many": 1, "place_many": 1, "hash_items": 1}
                assert placed == backend.sharded.place_many(batch)
        journal = (tmp_path / JOURNAL_NAME).read_bytes()
        with pytest.raises(KeyError, match="duplicate item"):
            durable.add_many(make_items(400, 401))
        assert (tmp_path / JOURNAL_NAME).read_bytes() == journal
        assert set(durable.sharded) == set(warm.sharded) == set(make_items(256, 556))
    finally:
        durable.close()
    recovered = open_durable(tmp_path)
    try:
        assert_bit_identical(recovered, fresh_backend(make_items(256, 556)))
    finally:
        recovered.close()


def test_checkpoint_io_error_keeps_previous_generation(tmp_path):
    backend = open_durable(tmp_path, make_items(0, 60), num_shards=2)
    backend.add_many(make_items(100, 110))
    INJECTOR.arm_io_error("snapshot.write")
    with pytest.raises(OSError):
        backend.checkpoint()
    INJECTOR.reset()
    backend.close()
    # The old snapshot generation plus the journal still replays clean.
    recovered = open_durable(tmp_path)
    try:
        assert set(recovered.sharded) == set(make_items(0, 60) + make_items(100, 110))
    finally:
        recovered.close()


# -- checkpoint policy ------------------------------------------------------


def test_auto_checkpoint_resets_journal(tmp_path):
    backend = open_durable(
        tmp_path,
        make_items(0, 40),
        num_shards=2,
        config=DurableConfig(checkpoint_every=16, fsync=False),
    )
    manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
    gen_before = manifest["gen"]
    backend.add_many(make_items(100, 120))  # 20 >= 16: auto-checkpoint
    manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
    assert manifest["gen"] == gen_before + 1
    assert (tmp_path / JOURNAL_NAME).read_bytes() == JOURNAL_MAGIC
    backend.close()


def test_checkpoint_sweeps_stale_generations(tmp_path):
    backend = open_durable(tmp_path, make_items(0, 40), num_shards=2)
    backend.add(b"%08d" % 500)
    backend.checkpoint()
    backend.add(b"%08d" % 501)
    backend.checkpoint()
    gens = {int(p.name.split(".g")[1].split(".")[0]) for p in tmp_path.glob("*.snap")}
    assert len(gens) == 1  # only the live generation remains
    assert not list(tmp_path.glob("*.tmp"))
    backend.close()


# -- wide symbols: the snapshot format does not know about lanes -----------

# sha256 over the one snapshot's sorted source rows and packed bank
# (row *order* follows set iteration and is not part of the contract).
# Re-pinned when the per-shard snapshots became one: its sorted rows
# were checked to be the union of the two former shard files' rows, and
# its bank the lane XOR of theirs, so the content is what the digest
# recorded before the lane matrix (and before the one encoder) pinned.
_WIDE_SNAPSHOT_SHA256 = (
    "12c409c160af47fac3f242c1b5c240846e62c9288fa33f7d4e5f960ee813eceb"
)


def test_wide_symbol_snapshot_content_pinned_and_recovers(tmp_path):
    import hashlib

    from repro.durable.snapshot import unpack_snapshot

    rng = random.Random(92)
    pool = sorted({rng.randbytes(92) for _ in range(460)})
    params = dict(symbol_size=92, hasher="siphash")
    backend = open_durable(
        tmp_path,
        pool[:400],
        num_shards=2,
        config=DurableConfig(fsync=False),
        **params,
    )
    backend.open_stream().next_blocks([200])
    backend.add_many(pool[400:])
    backend.remove_many(pool[:30])
    backend.checkpoint()
    backend.close()

    codec = get_scheme("riblt", **params).codec
    (path,) = tmp_path.glob("*.snap")
    snap = unpack_snapshot(path.read_bytes(), codec)
    rows = sorted(
        zip(
            map(int, snap.values),
            map(int, snap.checksums),
            map(int, snap.currents),
            map(int, snap.states),
        )
    )
    digest = hashlib.sha256(repr(rows).encode())
    digest.update(snap.bank.pack(codec))
    assert digest.hexdigest() == _WIDE_SNAPSHOT_SHA256

    recovered = open_durable(tmp_path)
    try:
        final = pool[30:]
        assert sorted(recovered.sharded) == final
        assert_bit_identical(recovered, open_backend(final, num_shards=2, **params))
    finally:
        recovered.close()


@pytest.mark.parametrize("size", [8, 92])
@pytest.mark.parametrize("written_on_vector", [True, False], ids=["numpy-to-scalar", "scalar-to-numpy"])
def test_snapshot_crosses_engines_bit_identically(tmp_path, size, written_on_vector):
    """A data dir checkpointed under one engine restores under the other:
    same snapshot bytes either way, and the restored backend serves and
    keeps producing exactly what a fresh ingest of the final set does."""
    rng = random.Random(size)
    pool = sorted({rng.randbytes(size) for _ in range(460)})
    params = dict(symbol_size=size, hasher="siphash")

    def write(path):
        backend = open_durable(
            path, pool[:400], num_shards=2, config=DurableConfig(fsync=False), **params
        )
        backend.open_stream().next_blocks([200])
        backend.add_many(pool[400:])
        backend.remove_many(pool[:30])
        backend.checkpoint()
        backend.close()
        return [p.read_bytes() for p in sorted(path.glob("*.snap"))]

    with engine_lane(written_on_vector):
        written = write(tmp_path / "a")
    with engine_lane(not written_on_vector):
        assert write(tmp_path / "b") == written  # the format has no engine
        recovered = open_durable(tmp_path / "a")
        try:
            final = pool[30:]
            assert sorted(recovered.sharded) == final
            assert_bit_identical(
                recovered, open_backend(final, num_shards=2, **params)
            )
        finally:
            recovered.close()


# -- a PUSH frame is one churn batch ---------------------------------------


def _pushed_responder(tmp_path, body):
    """A durable-backed responder that received HELLO, then one PUSH."""
    from repro.protocol import InitiatorMachine, ResponderMachine
    from repro.service.framing import FrameType, encode_frame

    backend = open_durable(tmp_path, make_items(0, 50), num_shards=1)
    responder = ResponderMachine(backend, backend.handle)
    responder.start()
    hello = InitiatorMachine(backend.handle, [])
    hello.start()
    responder.bytes_received(hello.take_output())
    responder.bytes_received(encode_frame(FrameType.PUSH, body))
    return backend, responder


def test_push_frame_is_one_journal_append(tmp_path):
    """n pushed items cost one journal record (and one fsync), and the
    known and repeated ones among them are skipped, not errors."""
    from repro.service.framing import pack_uvarints

    fresh = make_items(900, 940)
    sent = fresh + [fresh[0]] + make_items(0, 3)
    backend, responder = _pushed_responder(
        tmp_path, pack_uvarints(len(sent)) + b"".join(sent)
    )
    try:
        assert responder.failed is None
        assert responder.pushes_applied == len(fresh)
        assert backend.store.seq == 1
        assert set(backend.sharded) == set(make_items(0, 50)) | set(fresh)
    finally:
        backend.close()


def test_malformed_push_applies_nothing(tmp_path):
    """Trailing garbage after the declared items fails the frame before
    any item reaches the set or the journal."""
    from repro.service.framing import pack_uvarints

    fresh = make_items(900, 910)
    backend, responder = _pushed_responder(
        tmp_path, pack_uvarints(len(fresh)) + b"".join(fresh) + b"\x00"
    )
    try:
        assert responder.finished and responder.failed is not None
        assert responder.pushes_applied == 0
        assert backend.store.seq == 0
        assert set(backend.sharded) == set(make_items(0, 50))
    finally:
        backend.close()
