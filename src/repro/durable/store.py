"""The durable shard store: snapshots + churn journal + recovery.

``repro.durable`` makes the warm state the paper's linearity (§4.1)
earns — one continuously patched coded-symbol bank — survive process
death.  A data dir holds::

    data_dir/
      MANIFEST.json          # commit point: generation, shard versions
      journal.log            # CRC-framed churn since that generation
      encoder.g3.snap        # the encoder snapshot, generation-tagged

**Checkpoint** writes the backend's one encoder snapshot (write-temp +
fsync + rename) under a *new* generation number, commits by atomically
renaming the manifest (which keeps every shard's version), then resets
the journal.  Because snapshot files are generation-tagged, a crash
anywhere in that sequence leaves either the old generation fully intact
(manifest not yet renamed: stray new-gen files are orphans, deleted on
recovery) or the new one fully committed (journal records now
at-or-below the manifest's sequence number are skipped on replay).
There is no instant at which a reader can observe half a checkpoint.

**Mutation** is write-ahead through :class:`DurableBackend`: validate
against the live set (``ShardedSet.check_many``, the same all-or-nothing
test the apply runs, on the batch's one keyed hash pass), append to the
journal, *then* patch the warm bank.  An ``OSError`` on the append
leaves memory and disk unchanged; a replayed journal cannot fail.

**Recovery** (:func:`open_durable` on an existing dir) parses the
manifest, restores the :class:`~repro.core.encoder.RatelessEncoder`
from its snapshot (exact parked walk states — no hashing, no
re-encoding), re-places its rows into per-shard membership with one
:func:`~repro.service.shard.partition_with_hashes` (an 8-byte checksum
*is* the keyed hash; a narrower codec hashes the members once), replays
journal records past the manifest's sequence through the batch
``add_many``/``remove_many`` patch path, and truncates any torn tail.
The restored bank is bit-identical to fresh ingest of the final set —
the durability suite proves it under a sweep of every named crash point
in :mod:`repro.durable.faults`.  A cluster worker's subset open keeps
its owned shards' rows and ingests them into a fresh encoder, seeded by
the stored checksums (masking is idempotent): still no hashing.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Tuple

from repro.api.registry import Scheme, get_scheme
from repro.core.cellbank import to_list
from repro.core.encoder import RatelessEncoder
from repro.core.symbols import SymbolCodec
from repro.core.varint import decode_uvarint, encode_uvarint
from repro.durable.errors import (
    CorruptJournal,
    CorruptManifest,
    CorruptSnapshot,
    DataDirMismatch,
)
from repro.durable.faults import INJECTOR, FaultInjector
from repro.durable.journal import Journal, read_journal
from repro.durable.snapshot import (
    Snapshot,
    pack_snapshot,
    snapshot_items,
    unpack_snapshot,
)
from repro.service.backends import WarmRibltBackend, open_backend
from repro.service.shard import (
    ShardedSet,
    ShardSubsetSet,
    hash_items,
    partition_with_hashes,
)

MANIFEST_NAME = "MANIFEST.json"
JOURNAL_NAME = "journal.log"
MANIFEST_FORMAT = 2

# Cluster workers journal into per-worker segments so N processes can
# share one data dir without a write lock.  Segments use the same
# record framing as journal.log; "journal.log" itself has a single dot
# and never matches the glob.
JOURNAL_SEGMENT_GLOB = "journal.*.log"

OP_ADD = 1
OP_REMOVE = 2


def journal_segment_name(worker: int) -> str:
    """The journal segment of cluster worker ``worker``: journal.<worker>.log"""
    return f"journal.{worker}.log"


def _segment_worker(name: str) -> Optional[int]:
    """Parse a segment file name back to its worker index (None = not one)."""
    parts = name.split(".")
    if len(parts) != 3 or parts[0] != "journal" or parts[2] != "log":
        return None
    try:
        return int(parts[1])
    except ValueError:
        return None


@dataclass
class DurableConfig:
    """Persistence knobs."""

    checkpoint_every: Optional[int] = 4096
    """Auto-checkpoint after this many journaled items (bounds both the
    journal size and recovery replay time); ``None`` = manual only."""

    fsync: bool = True
    """Durability vs speed: tests on tmpfs can turn the fsyncs off."""


# -- journal payloads -------------------------------------------------------


def encode_op(op: int, seq: int, items: List[bytes]) -> bytes:
    """One churn batch: op byte | seq | count | count fixed-width items."""
    return (
        bytes([op])
        + encode_uvarint(seq)
        + encode_uvarint(len(items))
        + b"".join(items)
    )


def decode_op(payload: bytes, symbol_size: int) -> Tuple[int, int, List[bytes]]:
    """Parse a churn record; structural violations raise CorruptJournal."""
    try:
        op = payload[0]
        seq, offset = decode_uvarint(payload, 1)
        count, offset = decode_uvarint(payload, offset)
    except (IndexError, ValueError) as exc:
        raise CorruptJournal("journal record header is malformed") from exc
    if op not in (OP_ADD, OP_REMOVE):
        raise CorruptJournal(f"unknown journal op {op}")
    if len(payload) - offset != count * symbol_size:
        raise CorruptJournal(
            f"journal record body holds {len(payload) - offset} bytes, "
            f"expected {count} x {symbol_size}"
        )
    items = [
        payload[start : start + symbol_size]
        for start in range(offset, len(payload), symbol_size)
    ]
    return op, seq, items


# -- atomic file writes ------------------------------------------------------


def _fsync_dir(path: Path) -> None:
    """Make a rename durable (best-effort where dirs can't be fsynced)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _atomic_write(
    path: Path,
    data: bytes,
    *,
    kind: str,
    fsync: bool,
    injector: FaultInjector,
) -> None:
    """write-temp + fsync + rename, instrumented at ``kind``.* points."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        injector.write(handle, data, f"{kind}.write")
        injector.fsync(handle, f"{kind}.fsync", enabled=fsync)
    injector.crash(f"{kind}.rename")
    os.replace(tmp, path)
    if fsync:
        _fsync_dir(path.parent)


# -- the store ---------------------------------------------------------------


class DurableShardStore:
    """The on-disk side of one durable backend (checkpoint + journal)."""

    def __init__(
        self,
        data_dir: Path,
        handle: Scheme,
        *,
        gen: int,
        seq: int,
        config: DurableConfig,
        injector: FaultInjector,
        journal_name: str = JOURNAL_NAME,
        shard_subset: Optional[Tuple[int, ...]] = None,
    ) -> None:
        self.data_dir = data_dir
        self.handle = handle
        self.gen = gen
        self.seq = seq
        self.config = config
        self.injector = injector
        self.journal_name = journal_name
        self.shard_subset = shard_subset
        self.journal = Journal(
            data_dir / journal_name, fsync=config.fsync, injector=injector
        )
        self.churned_since_checkpoint = 0

    # -- journalling -------------------------------------------------------

    def journal_op(self, op: int, items: List[bytes]) -> None:
        """Durably record one churn batch (write-ahead of the apply)."""
        seq = self.seq + 1
        self.journal.append(encode_op(op, seq, items))
        self.seq = seq

    # -- checkpointing -----------------------------------------------------

    def checkpoint(self, backend: WarmRibltBackend) -> None:
        """Freeze the backend's encoder to a new snapshot generation.

        Crash-safe at every instant: the manifest rename is the single
        commit point, snapshots are generation-tagged so an aborted
        checkpoint never mixes with the live one, and the journal is
        reset only after the commit (a crash in between just means the
        next recovery skips records the new manifest already covers).

        A shard-subset store (cluster worker) must not checkpoint: it
        would write a manifest claiming only its own shards.  The
        supervisor folds worker segments into a full checkpoint on the
        next full open instead.
        """
        if self.shard_subset is not None:
            raise RuntimeError(
                "a shard-subset store cannot checkpoint; the supervisor "
                "folds worker segments on the next full open"
            )
        gen = self.gen + 1
        codec = self.handle.codec
        encoder = backend.encoder
        name = _snap_name(gen)
        _atomic_write(
            self.data_dir / name,
            pack_snapshot(encoder),
            kind="snapshot",
            fsync=self.config.fsync,
            injector=self.injector,
        )
        params = self.handle.params
        manifest = {
            "format": MANIFEST_FORMAT,
            "scheme": self.handle.name,
            "symbol_size": codec.symbol_size,
            "checksum_size": codec.checksum_size,
            "hasher": params.hasher,
            "key": params.key.hex(),
            "num_shards": backend.num_shards,
            "versions": list(backend.sharded.versions),
            "gen": gen,
            "seq": self.seq,
            "snapshot": {
                "file": name,
                "count": len(encoder),
                "cells": encoder.produced_count,
            },
        }
        _atomic_write(
            self.data_dir / MANIFEST_NAME,
            json.dumps(manifest, indent=1).encode(),
            kind="manifest",
            fsync=self.config.fsync,
            injector=self.injector,
        )
        self.gen = gen
        self.injector.crash("journal.reset")
        self.journal.reset()
        self.churned_since_checkpoint = 0
        self._sweep_stale_files(keep_gen=gen, drop_segments=True)

    def note_churn(self, count: int, backend: WarmRibltBackend) -> None:
        """Auto-checkpoint once enough churn accumulated in the journal."""
        self.churned_since_checkpoint += count
        if self.shard_subset is not None:
            return  # workers never checkpoint (see checkpoint's docstring)
        threshold = self.config.checkpoint_every
        if threshold is not None and self.churned_since_checkpoint >= threshold:
            self.checkpoint(backend)

    def _sweep_stale_files(self, keep_gen: int, drop_segments: bool = False) -> None:
        """Drop snapshots of other generations and orphaned temp files.

        Best-effort by design: these files are dead weight, never state —
        a failed unlink costs disk, not correctness.  ``drop_segments``
        (set only by a full checkpoint, which has just folded every
        worker segment into the new generation) also removes the
        ``journal.<worker>.log`` files.
        """
        for path in self.data_dir.glob("*.snap"):
            if _snap_gen(path.name) != keep_gen:
                try:
                    path.unlink()
                except OSError:
                    pass
        if drop_segments:
            for path in self.data_dir.glob(JOURNAL_SEGMENT_GLOB):
                if _segment_worker(path.name) is None:
                    continue
                try:
                    path.unlink()
                except OSError:
                    pass
        for path in self.data_dir.glob("*.tmp"):
            try:
                path.unlink()
            except OSError:
                pass

    def close(self) -> None:
        self.journal.close()


def _snap_name(gen: int) -> str:
    return f"encoder.g{gen}.snap"


def _snap_gen(name: str) -> Optional[int]:
    try:
        return int(name.rsplit(".", 2)[-2].lstrip("g"))
    except (IndexError, ValueError):
        return None


# -- the durable backend -----------------------------------------------------


class DurableBackend(WarmRibltBackend):
    """A :class:`WarmRibltBackend` whose churn is write-ahead journalled.

    Streaming is the warm backend's own; every mutation is validated,
    journalled, then applied — see the module docstring for the
    ordering contract.
    """

    def __init__(
        self,
        handle: Scheme,
        sharded: ShardedSet,
        encoder: RatelessEncoder,
        store: DurableShardStore,
    ) -> None:
        super().__init__(handle, sharded, encoder)
        self.store = store

    # -- write-ahead mutation ----------------------------------------------

    def _churn(self, items: Iterable[bytes], direction: int, hashes=None) -> list[int]:
        items = items if isinstance(items, list) else list(items)
        if not items:
            return []
        # Validate first, with the very test the apply below repeats, so a
        # journalled record can never fail to replay.  The batch's one keyed
        # hash pass serves the test, the apply and the checksums.
        hashes = hash_items(self.handle.hash64, items)
        self.sharded.check_many(items, direction > 0, hashes)
        self.store.journal_op(OP_ADD if direction > 0 else OP_REMOVE, items)
        placed = super()._churn(items, direction, hashes)
        self.store.note_churn(len(items), self)
        return placed

    # -- lifecycle -----------------------------------------------------------

    def checkpoint(self) -> None:
        """Force a snapshot generation now (also runs on churn threshold)."""
        self.store.checkpoint(self)

    def close(self) -> None:
        self.store.close()


# -- open / recover ------------------------------------------------------------


def open_durable(
    data_dir,
    items: Iterable[bytes] = (),
    *,
    scheme: str = "riblt",
    num_shards: int = 0,
    config: Optional[DurableConfig] = None,
    injector: FaultInjector = INJECTOR,
    shard_subset: Optional[Iterable[int]] = None,
    journal_name: Optional[str] = None,
    **params: object,
) -> DurableBackend:
    """Open (or initialise) a durable warm backend at ``data_dir``.

    Fresh directory: builds the warm backend from ``items`` (parameters
    exactly as :class:`~repro.service.server.ReconciliationServer`
    takes them; ``num_shards`` defaults to 1) and writes generation 1.

    Existing directory: recovers — snapshot parsed, journal replayed,
    torn tail truncated — and every explicit parameter is validated
    against the manifest (:class:`DataDirMismatch` on disagreement;
    ``num_shards=0`` and omitted params mean "adopt the store's").
    ``items``, when given alongside an existing store, must equal the
    recovered set exactly: passing the same input file across restarts
    is idempotent, passing a different one is an error, never a merge.

    ``shard_subset`` opens a cluster worker's view: only those global
    shards' members are kept (and encoded, on demand, like a fresh
    server's), churn goes to ``journal_name`` (a per-worker segment, see
    :func:`journal_segment_name`), and the store never checkpoints.
    Requires an existing, checkpointed data dir.  A later *full* open
    folds every segment back into a fresh checkpoint.
    """
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    config = config or DurableConfig()
    materialised = items if isinstance(items, list) else list(items)
    if shard_subset is not None:
        if journal_name is None:
            raise ValueError(
                "a shard-subset open needs its own journal segment "
                "(journal_name=journal_segment_name(worker))"
            )
        if not (data_dir / MANIFEST_NAME).exists():
            raise DataDirMismatch(
                f"{data_dir}: a shard-subset open needs an initialised "
                "store (the supervisor checkpoints before spawning workers)"
            )
        backend = _recover(
            data_dir,
            config,
            injector,
            shard_subset=tuple(shard_subset),
            journal_name=journal_name,
        )
        total = backend.sharded.total_shards
        if num_shards not in (0, total):
            raise DataDirMismatch(
                f"store holds {total} shards, caller asked for {num_shards}"
            )
        _validate_reopen(backend, materialised, scheme, 0, params)
        return backend
    if (data_dir / MANIFEST_NAME).exists():
        backend = _recover(data_dir, config, injector)
        _validate_reopen(backend, materialised, scheme, num_shards, params)
        return backend
    warm = open_backend(
        materialised, scheme=scheme, num_shards=num_shards or 1, **params
    )
    if not isinstance(warm, WarmRibltBackend):
        raise ValueError(
            f"the durable store persists warm riblt banks; scheme "
            f"{warm.scheme!r} is not supported"
        )
    store = DurableShardStore(
        data_dir, warm.handle, gen=0, seq=0, config=config, injector=injector
    )
    store.journal.open()
    backend = DurableBackend(warm.handle, warm.sharded, warm.encoder, store)
    backend.checkpoint()  # generation 1: the store is born consistent
    return backend


def _read_snapshot(data_dir: Path, entry: dict, codec: SymbolCodec) -> Snapshot:
    """Parse and cross-check the manifest's snapshot file."""
    snap_path = data_dir / entry["file"]
    try:
        blob = snap_path.read_bytes()
    except FileNotFoundError as exc:
        raise CorruptSnapshot(f"{snap_path}: missing snapshot file") from exc
    snapshot = unpack_snapshot(blob, codec, name=entry["file"])
    if len(snapshot.values) != entry["count"] or len(snapshot.bank) != entry["cells"]:
        raise CorruptSnapshot(
            f"{snap_path}: snapshot disagrees with the manifest entry"
        )
    return snapshot


def _replay_segment(
    path: Path, base_seq: int, symbol_size: int
) -> Tuple[List[Tuple[int, int, List[bytes]]], Optional[int]]:
    """Decode one journal file's records past ``base_seq``, in order.

    Returns ``(records, torn_at)``: the ``(seq, op, items)`` records, and
    the length of the file's valid prefix when a torn tail follows it
    (``read_journal`` yields only CRC-valid frames; the bytes past them
    were never acknowledged), else ``None``.  Every journal file — the
    base ``journal.log`` and each worker segment — is independently
    contiguous from the manifest's seq (workers initialise their
    counters from the same checkpoint); a gap *within* a file is
    corruption.  Records at or below ``base_seq`` were written before a
    checkpoint whose journal reset did not complete, and are skipped.
    """
    payloads, valid, total = read_journal(path)
    records: List[Tuple[int, int, List[bytes]]] = []
    last_seq = base_seq
    for payload in payloads:
        op, rec_seq, rec_items = decode_op(payload, symbol_size)
        if rec_seq <= base_seq:
            continue
        if rec_seq != last_seq + 1:
            raise CorruptJournal(
                f"{path}: sequence jumped {last_seq} -> {rec_seq}"
            )
        last_seq = rec_seq
        records.append((rec_seq, op, rec_items))
    return records, valid if total > valid else None


def _recover(
    data_dir: Path,
    config: DurableConfig,
    injector: FaultInjector,
    *,
    shard_subset: Optional[Tuple[int, ...]] = None,
    journal_name: str = JOURNAL_NAME,
) -> DurableBackend:
    manifest_path = data_dir / MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_text())
        fmt = manifest["format"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CorruptManifest(f"{manifest_path}: {exc}") from exc
    if fmt != MANIFEST_FORMAT:
        raise CorruptManifest(
            f"{manifest_path}: manifest format {fmt!r} is not {MANIFEST_FORMAT}"
            " (format 1 kept one snapshot per shard and is not migrated)"
        )
    try:
        handle = get_scheme(
            manifest["scheme"],
            symbol_size=manifest["symbol_size"],
            checksum_size=manifest["checksum_size"],
            hasher=manifest["hasher"],
            key=bytes.fromhex(manifest["key"]),
        )
        num_shards = manifest["num_shards"]
        versions = list(manifest["versions"])
        gen = manifest["gen"]
        seq = manifest["seq"]
        entry = manifest["snapshot"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CorruptManifest(f"{manifest_path}: {exc}") from exc
    if len(versions) != num_shards:
        raise CorruptManifest(
            f"{manifest_path}: {len(versions)} shard versions for "
            f"{num_shards} shards"
        )
    codec = handle.codec
    assert codec is not None
    snapshot = _read_snapshot(data_dir, entry, codec)
    # Re-place the rows: an 8-byte checksum is the keyed hash itself.
    items = snapshot_items(snapshot, codec)
    if codec.checksum_size == 8:
        hashes = snapshot.checksums
    else:
        hashes = hash_items(handle.hash64, items)
    parts, part_hashes = partition_with_hashes(items, hashes, num_shards)
    if shard_subset is not None:
        for g in shard_subset:
            if not 0 <= g < num_shards:
                raise DataDirMismatch(
                    f"shard subset names shard {g}, store holds {num_shards}"
                )
        sharded: ShardedSet = ShardSubsetSet(handle.hash64, num_shards, shard_subset)
        sharded.adopt_parts([parts[g] for g in shard_subset])
        sharded.versions = [versions[g] for g in shard_subset]
        encoder = RatelessEncoder(
            codec,
            [item for g in shard_subset for item in parts[g]],
            item_hashes=[h for g in shard_subset for h in to_list(part_hashes[g])],
        )
    else:
        sharded = ShardedSet(handle.hash64, num_shards)
        sharded.adopt_parts(parts)
        sharded.versions = versions
        encoder = snapshot.restore(codec)
    # Replay churn the last checkpoint had not absorbed, oldest first,
    # on the bare warm layer (these records are already journalled).
    # A subset open replays only its *own* segment; a full open replays
    # the base journal, then folds every worker segment (merged by
    # (seq, worker) — workers touch disjoint shards, so the order
    # across segments only needs to be deterministic).
    warm = WarmRibltBackend(handle, sharded, encoder)
    records, torn_at = _replay_segment(
        data_dir / journal_name, seq, codec.symbol_size
    )
    segments_folded = False
    if shard_subset is None:
        merged: List[Tuple[int, int, int, List[bytes]]] = []
        for seg_path in sorted(data_dir.glob(JOURNAL_SEGMENT_GLOB)):
            worker = _segment_worker(seg_path.name)
            if worker is None:
                continue
            segments_folded = True
            for rec_seq, op, rec_items in _replay_segment(
                seg_path, seq, codec.symbol_size
            )[0]:
                merged.append((rec_seq, worker, op, rec_items))
        merged.sort(key=lambda rec: rec[:2])
        records += [(rec_seq, op, items) for rec_seq, _worker, op, items in merged]
    replayed = 0
    last_seq = seq
    for rec_seq, op, rec_items in records:
        if op == OP_ADD:
            warm.add_many(rec_items)
        else:
            warm.remove_many(rec_items)
        last_seq = max(last_seq, rec_seq)
        replayed += len(rec_items)
    store = DurableShardStore(
        data_dir,
        handle,
        gen=gen,
        seq=last_seq,
        config=config,
        injector=injector,
        journal_name=journal_name,
        shard_subset=shard_subset,
    )
    store.journal.open()
    if torn_at is not None:
        store.journal.truncate_to(torn_at)  # torn tail from a crash mid-append
    store.churned_since_checkpoint = replayed
    backend = DurableBackend(handle, sharded, encoder, store)
    if shard_subset is not None:
        # Workers neither sweep (other generations may be mid-fold) nor
        # checkpoint; their state is bounded by the supervisor's fold.
        return backend
    store._sweep_stale_files(keep_gen=gen)
    # Fold a long journal back into a snapshot so replay work is bounded
    # across repeated restarts; worker segments *must* fold (their seq
    # numbers overlap per-segment, so they cannot stay behind a stale
    # manifest seq) — the checkpoint's sweep then deletes them.
    threshold = config.checkpoint_every
    if segments_folded or (threshold is not None and replayed >= threshold):
        backend.checkpoint()
    return backend


def _validate_reopen(
    backend: DurableBackend,
    materialised: List[bytes],
    scheme: str,
    num_shards: int,
    params: dict,
) -> None:
    handle = backend.handle
    if scheme != handle.name:
        raise DataDirMismatch(
            f"store holds scheme {handle.name!r}, caller asked for {scheme!r}"
        )
    if num_shards not in (0, backend.num_shards):
        raise DataDirMismatch(
            f"store holds {backend.num_shards} shards, caller asked for {num_shards}"
        )
    stored = backend.handle.params
    for name, value in params.items():
        if name == "key" and isinstance(value, str):
            value = bytes.fromhex(value)
        if getattr(stored, name, value) != value:
            raise DataDirMismatch(
                f"store was created with {name}={getattr(stored, name)!r}, "
                f"caller asked for {name}={value!r}"
            )
    if materialised and set(materialised) != set(backend.sharded):
        raise DataDirMismatch(
            "items passed to an existing durable store must equal the "
            "recovered set (same input is idempotent; merging is not implied)"
        )
