"""Incremental Rateless IBLT encoder (paper §4 design, §6 optimisations).

The encoder owns a set of source symbols and materialises the infinite
coded-symbol sequence into an array-backed
:class:`~repro.core.cellbank.CodedSymbolBank` prefix.  Two production
paths exist:

* :meth:`RatelessEncoder.produce_next` — the reference path.  Following
  §6, the symbols whose *next* mapped index is smallest sit at the head
  of a binary heap, so producing coded symbol ``i`` touches exactly the
  symbols mapped to ``i`` — O(k·log n) rather than a full scan.
* :meth:`RatelessEncoder.produce_block` — the batch fast path.  One
  linear sweep over the heap collects every symbol mapped into
  ``[frontier, frontier+m)``; their walks are then replayed by the
  :mod:`~repro.core.cellbank` scatter samplers (inlined splitmix64 +
  inverse-CDF arithmetic, vectorised under NumPy when eligible) and the
  heap is rebuilt once with ``heapify``.  The emitted prefix is
  bit-identical to ``m`` reference calls — the golden-equivalence suite
  asserts it.

Set ingestion (the §7 workloads: 10^5–10^6 items per shard) is batched
end to end.  :meth:`RatelessEncoder.add_items` hashes the whole batch
through the codec's keyed batch face (lane-parallel SipHash under
NumPy), then *stages* the symbols in a column pool — a ``(rows, k)``
uint64 value matrix filled straight from the item bytes beside parallel
``checksums/state/idx`` vectors — instead of building one
``_SourceEntry`` + heap tuple per item.  The pool forms for every
regular codec the lanes carry, 8-byte hashes and 92-byte ledger items
alike (``cellbank.numpy_lane_eligible``).  ``produce_block`` hands the
pool's arrays to the vectorised scatter kernel as they are (walk states
advance in place, never touching Python objects), and the pool is
materialised into heap entries only when a per-cell path needs them
(``produce_next``, or the NumPy lane going away).  The per-item heap
path remains for §8 irregular codecs, batches under ``NUMPY_MIN_JOBS``,
symbols past the lane width cut and the scalar engine
(:mod:`repro.engine`); both engines produce bit-identical banks.

Linearity (§4.1) makes the produced prefix *updatable*: adding or
removing a source symbol after ``m`` cells were produced simply XORs
that symbol into the affected cells of the cached bank, which is how a
node maintains one universal stream while its set churns (§7.3: 11 ms to
patch 50M cached symbols per Ethereum block, amortised).  Churn is
batched too: :meth:`add_items` / :meth:`remove_items` patch the cached
prefix with one fused scatter per batch (removals replay each symbol's
mapping from its seed — the checksum — reusing the parked α instead of
re-deriving the mapping per call).

Produced cells are returned as value snapshots; the live, continuously
patched state is the internal bank (read it through :meth:`cached` /
:meth:`cached_block`, which snapshot at call time).
"""

from __future__ import annotations

import heapq
from itertools import count as _counter
from typing import Iterable, Optional, Sequence

from repro import engine
from repro.core.cellbank import (
    NUMPY_MIN_JOBS,
    NUMPY_MIN_SPAN,
    CodedSymbolBank,
    ints_from_lanes,
    lane_count,
    lanes_from_bytes,
    lanes_from_ints,
    numpy_block_eligible,
    numpy_lane_eligible,
    scatter_walk_arrays,
    scatter_walk_scalar,
)
from repro.core.coded import CodedSymbol
from repro.core.mapping import IndexGenerator
from repro.core.params import DEFAULT_ALPHA
from repro.core.symbols import SymbolCodec

# Below this block size the per-call sweep/heapify overhead of the batch
# path exceeds the per-cell heap cost; fall back to produce_next.  (The
# sweep is O(live entries) regardless of m, but so is one produce_next
# call whenever the head of the heap is dense — which it is for any
# young prefix — so the crossover sits low.)
_MIN_BATCH_BLOCK = 4

# Patching a produced prefix through the NumPy lane costs one list→array
# →list round trip of the whole bank; below ~1 batch item per 64 cached
# cells the scalar per-edge patch is cheaper (measured crossover sits
# near 1/90 at both 10^4 and 10^5 cells).  That is for one-lane symbols.
# Re-measured for k lanes at 10^4 cells: the round trip costs 1x, 2.7x
# and ~8x the one-lane one at k = 1, 12 and 64 (crossovers near 1/90,
# 1/24 and 1/8), which (7 + k) / 8 fits, so the cell allowance per item
# shrinks by that factor (see _patch_prefix_batch).
_PATCH_CELLS_PER_ITEM = 64

# Parked index of a removed pool row: past every frontier, so the
# scatter kernel never walks it.
_DEAD_ROW = (1 << 63) - 1


class _SourceEntry:
    """A source symbol plus its live position in the index stream."""

    __slots__ = ("value", "checksum", "gen", "alive")

    def __init__(self, value: int, checksum: int, gen) -> None:
        self.value = value
        self.checksum = checksum
        self.gen = gen
        self.alive = True


class _StagedPool:
    """Bulk-ingested source symbols as a column store (NumPy engine).

    Parallel arrays instead of per-item objects: ``values`` is the
    symbols' ``(rows, k)`` uint64 lane matrix, ``checksums`` their keyed
    hashes, ``idx``/``state`` the parked ``(current, splitmix64 state)``
    walk positions the batch samplers advance in place.  ``rows`` maps a
    symbol's integer value to its row, in row order.  Removal parks the
    row at ``_DEAD_ROW`` so array offsets stay stable; once dead rows
    outnumber live ones the arrays are compacted (amortised O(1) per
    removal), so a churning set's pool stays within 2x its live size.
    """

    __slots__ = ("values", "checksums", "idx", "state", "rows")

    def __init__(self, keys, values, checksums, idx, state) -> None:
        self.values = values
        self.checksums = checksums
        self.idx = idx
        self.state = state
        self.rows: dict[int, int] = dict(zip(keys, range(len(keys))))

    def extend(self, keys, values, checksums, idx, state) -> None:
        """Append a batch of rows (``keys`` are their integer values)."""
        np = engine.np
        base = self.idx.shape[0]
        self.values = np.concatenate([self.values, values])
        self.checksums = np.concatenate([self.checksums, checksums])
        self.idx = np.concatenate([self.idx, idx])
        self.state = np.concatenate([self.state, state])
        self.rows.update(zip(keys, range(base, base + len(keys))))

    def kill(self, key: int) -> int:
        """Drop the symbol ``key``; returns its checksum."""
        row = self.rows.pop(key)
        self.idx[row] = _DEAD_ROW
        return int(self.checksums[row])

    def compact_if_sparse(self) -> None:
        """Squeeze dead rows out once they outnumber the live ones."""
        live = len(self.rows)
        if self.idx.shape[0] <= 2 * live:
            return
        keep = engine.np.nonzero(self.idx != _DEAD_ROW)[0]
        self.values = self.values[keep]
        self.checksums = self.checksums[keep]
        self.idx = self.idx[keep]
        self.state = self.state[keep]
        # ``rows`` is in row order (rows are only appended and popped),
        # so the survivors renumber 0..live-1 as they stand.
        self.rows = dict(zip(self.rows, range(live)))


class RatelessEncoder:
    """Streams the coded-symbol sequence of a mutable set.

    >>> from repro.core.symbols import SymbolCodec
    >>> enc = RatelessEncoder(SymbolCodec(8))
    >>> enc.add_item(b"01234567")
    >>> cell = enc.produce_next()
    >>> cell.count
    1
    """

    def __init__(
        self,
        codec: SymbolCodec,
        items: Optional[Iterable[bytes]] = None,
        *,
        item_hashes: Optional[Sequence[int]] = None,
    ) -> None:
        self.codec = codec
        self._entries: dict[int, _SourceEntry] = {}
        self._heap: list[tuple[int, int, _SourceEntry]] = []
        self._seq = _counter()
        self._bank = CodedSymbolBank()
        self._pool: Optional[_StagedPool] = None
        if items is not None:
            self.add_items(items, item_hashes=item_hashes)

    # -- set mutation ----------------------------------------------------

    def __len__(self) -> int:
        pool = self._pool
        return len(self._entries) + (len(pool.rows) if pool is not None else 0)

    @property
    def set_size(self) -> int:
        """Number of source symbols currently encoded."""
        return len(self)

    @property
    def produced_count(self) -> int:
        """Length of the cached coded-symbol prefix."""
        return len(self._bank)

    def __contains__(self, data: bytes) -> bool:
        value = self.codec.to_int(data)
        pool = self._pool
        return value in self._entries or (
            pool is not None and value in pool.rows
        )

    def add_item(self, data: bytes) -> None:
        """Add an ℓ-byte item to the set being encoded."""
        self.add_value(self.codec.to_int(data))

    def add_items(
        self,
        items: Iterable[bytes],
        *,
        item_hashes: Optional[Sequence[int]] = None,
    ) -> None:
        """Add many items at once (the batch ingestion pipeline).

        The whole batch is hashed through the codec's keyed batch face,
        then staged in the column pool (NumPy lane) or inserted through
        the per-item reference engine (vector engine off, symbols past
        the lane width cut, irregular mappings, tiny batches).  With a
        produced prefix the batch patches the cached bank in one fused
        scatter.  Duplicates anywhere — the set, the pool, or the batch
        itself — raise ``KeyError`` before anything is inserted.

        ``item_hashes``, when given, must be the codec hasher's keyed
        64-bit hash of each item, in order (e.g. the values shard
        placement already computed); checksums are then masked from
        them instead of hashing the items a second time.
        """
        datas = items if isinstance(items, list) else list(items)
        if not datas:
            return
        codec = self.codec
        values = codec.to_int_batch(datas)
        if item_hashes is not None:
            if len(item_hashes) != len(datas):
                raise ValueError(
                    f"{len(datas)} items but {len(item_hashes)} hashes"
                )
            checksums = codec.checksums_from_hash64(item_hashes)
        else:
            checksums = codec.checksum_batch(datas)
        entries = self._entries
        pool = self._pool
        pool_rows = pool.rows if pool is not None else {}
        # One C-speed sweep (set build + keys-view disjointness) replaces
        # the per-item membership loop; the loop only reruns to name the
        # offending item when a duplicate is present.
        unique = set(values)
        if (
            len(unique) != len(values)
            or (entries and not unique.isdisjoint(entries.keys()))
            or (pool_rows and not unique.isdisjoint(pool_rows.keys()))
        ):
            seen: set[int] = set()
            for value in values:
                if value in entries or value in pool_rows or value in seen:
                    raise KeyError(f"duplicate item: {value:#x}")
                seen.add(value)
        if len(values) >= NUMPY_MIN_JOBS and numpy_lane_eligible(codec):
            self._ingest_pooled(datas, values, checksums)
            return
        frontier = len(self._bank)
        new_mapping = codec.new_mapping
        heap = self._heap
        seq = self._seq
        if frontier == 0:
            # Nothing produced yet: every new entry's next index is 0
            # (ρ(0) = 1), and a run of equal keys appended with increasing
            # sequence numbers is already a valid min-heap.
            for value, checksum in zip(values, checksums):
                entry = _SourceEntry(value, checksum, new_mapping(checksum))
                entries[value] = entry
                heap.append((0, next(seq), entry))
            return
        bank = self._bank
        for value, checksum in zip(values, checksums):
            # Patch the already-produced prefix (linearity, §4.1): XOR the
            # symbol into every cached cell it maps to.
            gen = new_mapping(checksum)
            entry = _SourceEntry(value, checksum, gen)
            entries[value] = entry
            bank.apply_batch(value, checksum, 1, gen.indices_below(frontier))
            heapq.heappush(heap, (gen.current, next(seq), entry))

    def _patch_prefix_batch(
        self,
        values: list[int],
        checksums: list[int],
        direction: int,
        alphas: list[float],
        frontier: int,
        lanes=None,
    ):
        """Replay a batch of symbols from their seeds across the produced
        prefix ``[0, frontier)`` — direction +1 folds them in, −1 peels
        them out.  Picks the fused NumPy scatter when the batch amortises
        the lane round trip (the ``_PATCH_CELLS_PER_ITEM`` crossover),
        the in-place scalar walk otherwise.  ``lanes`` is the batch's
        value matrix when the caller already holds it.  Returns the
        parked ``(current, state)`` pair per symbol as NumPy arrays when
        the NumPy lane ran, as lists otherwise.
        """
        n = len(values)
        bank = self._bank
        codec = self.codec
        ssize = codec.symbol_size
        if (
            n >= NUMPY_MIN_JOBS
            and 8 * n * _PATCH_CELLS_PER_ITEM >= frontier * (7 + lane_count(ssize))
            and numpy_block_eligible(codec)
        ):
            np = engine.np
            sums = lanes_from_ints(bank.sums, ssize)
            bank_checksums = np.array(bank.checksums, dtype=np.uint64)
            counts = np.array(bank.counts, dtype=np.int64)
            csums = np.array(checksums, dtype=np.uint64)
            idx, state = scatter_walk_arrays(
                sums,
                bank_checksums,
                counts,
                np.zeros(n, dtype=np.int64),
                csums.copy(),
                lanes if lanes is not None else lanes_from_ints(values, ssize),
                csums,
                np.full(n, direction, dtype=np.int64),
                frontier,
                alphas=(
                    np.array(alphas, dtype=np.float64)
                    if codec.irregular is not None
                    else None
                ),
            )
            bank.sums[:] = ints_from_lanes(sums)
            bank.checksums[:] = bank_checksums.tolist()
            bank.counts[:] = counts.tolist()
            return idx, state
        indices = [0] * n
        states = list(checksums)
        scatter_walk_scalar(
            bank.sums,
            bank.checksums,
            bank.counts,
            indices,
            states,
            values,
            checksums,
            [direction] * n,
            alphas,
            frontier,
        )
        return indices, states

    def _ingest_pooled(
        self, datas: list[bytes], values: list[int], checksums: list[int]
    ) -> None:
        """Stage a validated batch in the column pool, patching any
        produced prefix with one fused scatter."""
        np = engine.np
        n = len(values)
        lanes = lanes_from_bytes(datas, self.codec.symbol_size)
        csums = np.array(checksums, dtype=np.uint64)
        frontier = len(self._bank)
        if frontier:
            idx, state = self._patch_prefix_batch(
                values, checksums, 1, [DEFAULT_ALPHA] * n, frontier, lanes
            )
            idx = np.asarray(idx, dtype=np.int64)
            state = np.asarray(state, dtype=np.uint64)
        else:
            # The §4.2 mapping walk starts at index 0 (ρ(0) = 1) with the
            # splitmix64 stream seeded by the keyed checksum.
            idx = np.zeros(n, dtype=np.int64)
            state = csums.copy()
        if self._pool is None:
            self._pool = _StagedPool(values, lanes, csums, idx, state)
        else:
            self._pool.extend(values, lanes, csums, idx, state)

    def _materialize_pool(self) -> None:
        """Turn staged pool rows into heap entries (the per-cell paths
        need per-symbol generators; the arrays already hold their parked
        walk states, so this is pure bookkeeping)."""
        pool = self._pool
        if pool is None:
            return
        self._pool = None
        entries = self._entries
        heap = self._heap
        seq = self._seq
        idx_list = pool.idx.tolist()
        state_list = pool.state.tolist()
        checksum_list = pool.checksums.tolist()
        restore = IndexGenerator.restore
        for value, row in pool.rows.items():
            gen = restore(state_list[row], idx_list[row], DEFAULT_ALPHA)
            entry = _SourceEntry(value, checksum_list[row], gen)
            entries[value] = entry
            heap.append((gen.current, next(seq), entry))
        heapq.heapify(heap)

    def add_value(self, value: int) -> None:
        """Add an item already packed into integer form."""
        pool = self._pool
        if value in self._entries or (pool is not None and value in pool.rows):
            raise KeyError(f"duplicate item: {value:#x}")
        checksum = self.codec.checksum_int(value)
        gen = self.codec.new_mapping(checksum)
        entry = _SourceEntry(value, checksum, gen)
        self._entries[value] = entry
        frontier = len(self._bank)
        if frontier:
            # Patch the already-produced prefix (linearity, §4.1): XOR the
            # symbol into every cached cell it maps to.
            self._bank.apply_batch(value, checksum, 1, gen.indices_below(frontier))
        heapq.heappush(self._heap, (gen.current, next(self._seq), entry))

    def remove_item(self, data: bytes) -> None:
        """Remove an item; the cached prefix is patched in place."""
        self.remove_value(self.codec.to_int(data))

    def remove_items(self, items: Iterable[bytes]) -> None:
        """Remove many items at once, patching the prefix in one scatter.

        XOR is self-inverse, so each removal replays the symbol's mapping
        from its seed (the stored checksum — no re-hash, and the parked α
        is reused instead of re-deriving the mapping per item); the whole
        batch then lands in one fused scatter.  Items missing from the
        set raise ``KeyError`` before anything is removed.
        """
        datas = items if isinstance(items, list) else list(items)
        if not datas:
            return
        codec = self.codec
        values = codec.to_int_batch(datas)
        entries = self._entries
        pool = self._pool
        pool_rows = pool.rows if pool is not None else {}
        checksums: list[int] = []
        alphas: list[float] = []
        seen: set[int] = set()
        for value in values:
            if value in seen:
                raise KeyError(f"item not in set: {value:#x}")
            seen.add(value)
            entry = entries.get(value)
            if entry is not None:
                checksums.append(entry.checksum)
                alphas.append(entry.gen.alpha)
            elif value in pool_rows:
                checksums.append(int(pool.checksums[pool_rows[value]]))
                alphas.append(DEFAULT_ALPHA)
            else:
                raise KeyError(f"item not in set: {value:#x}")
        for value in values:
            entry = entries.pop(value, None)
            if entry is not None:
                entry.alive = False  # lazily dropped from the heap
            else:
                pool.kill(value)
        if pool is not None:
            pool.compact_if_sparse()
        frontier = len(self._bank)
        if not frontier:
            return
        # Parked (current, state) pairs are discarded: removed symbols
        # have no future in the stream.
        self._patch_prefix_batch(values, checksums, -1, alphas, frontier)

    def remove_value(self, value: int) -> None:
        """Remove an item given in integer form."""
        entry = self._entries.pop(value, None)
        pool = self._pool
        if entry is not None:
            entry.alive = False  # lazily dropped from the heap
            checksum = entry.checksum
            alpha = entry.gen.alpha
        elif pool is not None and value in pool.rows:
            checksum = pool.kill(value)
            pool.compact_if_sparse()
            alpha = DEFAULT_ALPHA
        else:
            raise KeyError(f"item not in set: {value:#x}")
        frontier = len(self._bank)
        if frontier:
            # XOR is self-inverse: replay the mapping to peel the symbol
            # back out of the cached prefix.  The walk restarts from the
            # seed (= checksum) with the entry's parked α — no re-derive.
            gen = IndexGenerator.restore(checksum, 0, alpha)
            self._bank.apply_batch(
                value, checksum, -1, gen.indices_below(frontier)
            )

    # -- persistence hooks -------------------------------------------------

    @property
    def bank(self) -> CodedSymbolBank:
        """The live cached-prefix bank (the durable store packs it verbatim)."""
        return self._bank

    def export_rows(self) -> tuple[list[int], list[int], list[int], list[int]]:
        """Parallel ``(values, checksums, currents, states)`` source rows.

        One row per live source symbol, carrying its parked §4.2 walk
        position — the first mapped index at or past the produced
        frontier, plus the splitmix64 state that resumes the walk
        there.  Together with :attr:`bank` this is the encoder's whole
        state: :meth:`restore` rebuilds a bit-identical stream from it
        with no hashing and no index walking.
        """
        values: list[int] = []
        checksums: list[int] = []
        currents: list[int] = []
        states: list[int] = []
        for value, entry in self._entries.items():
            gen = entry.gen
            values.append(value)
            checksums.append(entry.checksum)
            currents.append(gen.current)
            states.append(gen.state)
        pool = self._pool
        if pool is not None and pool.rows:
            idx_list = pool.idx.tolist()
            state_list = pool.state.tolist()
            checksum_list = pool.checksums.tolist()
            for value, row in pool.rows.items():
                values.append(value)
                checksums.append(checksum_list[row])
                currents.append(idx_list[row])
                states.append(state_list[row])
        return values, checksums, currents, states

    @classmethod
    def restore(
        cls,
        codec: SymbolCodec,
        values,
        checksums,
        currents,
        states,
        bank: CodedSymbolBank,
    ) -> "RatelessEncoder":
        """Rebuild an encoder from :meth:`export_rows` output + its bank.

        Adopts ``bank`` as the produced prefix and re-parks every source
        symbol exactly where it was exported, so the restored encoder's
        future output is bit-identical to the original's.  Rows land in
        the column pool when the NumPy lane is eligible (restore stays
        array-to-array), in reference heap entries otherwise — both
        engines produce the same cells, as everywhere else.
        """
        encoder = cls(codec)
        encoder._bank = bank
        n = len(values)
        if n >= NUMPY_MIN_JOBS and numpy_lane_eligible(codec):
            np = engine.np
            lanes = lanes_from_ints(values, codec.symbol_size)
            encoder._pool = _StagedPool(
                # Python-int keys read back off the lanes (one C-speed
                # tolist() at one lane — much faster than per-element
                # int() casts on a 100k-row restore).
                ints_from_lanes(lanes),
                lanes,
                np.asarray(checksums, dtype=np.uint64),
                # Copies: the kernel advances the walk columns in place.
                np.array(currents, dtype=np.int64),
                np.array(states, dtype=np.uint64),
            )
            return encoder
        entries = encoder._entries
        heap = encoder._heap
        seq = encoder._seq
        restore_gen = IndexGenerator.restore
        alpha_for = codec.alpha_for
        for value, checksum, current, state in zip(values, checksums, currents, states):
            value = int(value)
            checksum = int(checksum)
            gen = restore_gen(int(state), int(current), alpha_for(checksum))
            entry = _SourceEntry(value, checksum, gen)
            entries[value] = entry
            heap.append((gen.current, next(seq), entry))
        heapq.heapify(heap)
        return encoder

    # -- coded symbol production -----------------------------------------

    def produce_next(self) -> CodedSymbol:
        """Produce (and cache) the next coded symbol in the sequence.

        Returns a value snapshot; the cached state (which later set
        mutations patch — universal-stream semantics) lives in the
        internal bank and is re-read by :meth:`cached`.
        """
        if self._pool is not None:
            self._materialize_pool()
        bank = self._bank
        index = len(bank.sums)
        cell_sum = 0
        cell_checksum = 0
        cell_count = 0
        heap = self._heap
        seq = self._seq
        while heap and heap[0][0] == index:
            _, _, entry = heapq.heappop(heap)
            if not entry.alive:
                continue
            cell_sum ^= entry.value
            cell_checksum ^= entry.checksum
            cell_count += 1
            heapq.heappush(heap, (entry.gen.next_index(), next(seq), entry))
        bank.append(cell_sum, cell_checksum, cell_count)
        return CodedSymbol(cell_sum, cell_checksum, cell_count)

    def produce_block(self, m: int) -> CodedSymbolBank:
        """Materialise coded symbols ``[frontier, frontier+m)`` in one pass.

        Returns a value-copy bank of the produced region.  Bit-identical
        to ``m`` :meth:`produce_next` calls, at a fraction of the cost:
        one heap sweep + heapify instead of per-edge heap traffic, the
        mapped-index walks run through the batch scatter samplers, and
        pool-staged symbols feed the kernel straight from their arrays.
        """
        if m <= 0:
            return CodedSymbolBank()
        pool = self._pool
        if pool is not None and not numpy_lane_eligible(self.codec):
            # The NumPy lane went away (kill switch mid-life); fall back
            # to the reference engine for everything staged.
            self._materialize_pool()
            pool = None
        lo = len(self._bank)
        hi = lo + m
        if m < _MIN_BATCH_BLOCK and lo > 0 and pool is None:
            # Tiny extension of an existing prefix: the per-cell heap path
            # is cheaper than a full sweep.  (The first block always takes
            # the batch path — at frontier 0 every entry is due at once.)
            for _ in range(m):
                self.produce_next()
            return self._bank.slice(lo, hi)
        # Sweep: every live entry whose next index lands inside the block
        # becomes a walk job; the rest keep their heap tuples unchanged.
        keep: list[tuple[int, int, _SourceEntry]] = []
        job_indices: list[int] = []
        job_states: list[int] = []
        job_values: list[int] = []
        job_checksums: list[int] = []
        job_entries: list[tuple[int, _SourceEntry]] = []
        job_alphas: list[float] = []
        for key, seq, entry in self._heap:
            if not entry.alive:
                continue
            if key < hi:
                gen = entry.gen
                job_indices.append(key)  # invariant: key == gen.current
                job_states.append(gen.state)
                job_values.append(entry.value)
                job_checksums.append(entry.checksum)
                job_alphas.append(gen.alpha)
                job_entries.append((seq, entry))
            else:
                keep.append((key, seq, entry))
        bank = self._bank
        njobs = len(job_indices)
        codec = self.codec
        heap_lane = (
            njobs >= NUMPY_MIN_JOBS
            and (m >= NUMPY_MIN_SPAN or njobs >= 256)
            and numpy_block_eligible(codec)
        )
        if pool is not None or heap_lane:
            np = engine.np
            ssize = codec.symbol_size
            sums = np.zeros((m, lane_count(ssize)), dtype=np.uint64)
            checksums = np.zeros(m, dtype=np.uint64)
            counts = np.zeros(m, dtype=np.int64)
            if pool is not None:
                # The pool's own columns, advanced in place: dead rows
                # sit at _DEAD_ROW and rows parked past the block are
                # skipped by the kernel, so nothing is gathered here.
                scatter_walk_arrays(
                    sums,
                    checksums,
                    counts,
                    pool.idx,
                    pool.state,
                    pool.values,
                    pool.checksums,
                    np.ones(pool.idx.shape[0], dtype=np.int64),
                    hi,
                    base=lo,
                )
            if heap_lane:
                idx, state = scatter_walk_arrays(
                    sums,
                    checksums,
                    counts,
                    np.array(job_indices, dtype=np.int64),
                    np.array(job_states, dtype=np.uint64),
                    lanes_from_ints(job_values, ssize),
                    np.array(job_checksums, dtype=np.uint64),
                    np.ones(njobs, dtype=np.int64),
                    hi,
                    base=lo,
                    alphas=(
                        np.array(job_alphas, dtype=np.float64)
                        if codec.irregular is not None
                        else None
                    ),
                )
                job_indices[:] = idx.tolist()
                job_states[:] = state.tolist()
            bank.sums.extend(ints_from_lanes(sums))
            bank.checksums.extend(checksums.tolist())
            bank.counts.extend(counts.tolist())
        else:
            bank.extend_zeros(m)
        if not heap_lane:
            scatter_walk_scalar(
                bank.sums,
                bank.checksums,
                bank.counts,
                job_indices,
                job_states,
                job_values,
                job_checksums,
                [1] * njobs,
                job_alphas,
                hi,
            )
        # Check the walked (state, current) pairs back into the generators
        # and rebuild the heap in one O(n) heapify.
        for j, (seq, entry) in enumerate(job_entries):
            gen = entry.gen
            gen.current = job_indices[j]
            gen.state = job_states[j]
            keep.append((job_indices[j], seq, entry))
        heapq.heapify(keep)
        self._heap = keep
        return bank.slice(lo, hi)

    def produce(self, n: int) -> list[CodedSymbol]:
        """Produce the next ``n`` coded symbols (value snapshots)."""
        return self.produce_block(n).cells()

    def prefix(self, m: int) -> list[CodedSymbol]:
        """Frozen copies of coded symbols ``0..m-1``, producing as needed."""
        produced = len(self._bank)
        if produced < m:
            self.produce_block(m - produced)
        return self._bank.slice(0, m).cells()

    def cached(self, index: int) -> CodedSymbol:
        """Snapshot of the cached cell at ``index`` (must be produced)."""
        return self._bank.cell_at(index)

    def cached_block(self, lo: int, hi: int) -> CodedSymbolBank:
        """Value-copy bank of cached cells ``[lo, hi)``, producing on demand."""
        produced = len(self._bank)
        if produced < hi:
            self.produce_block(hi - produced)
        return self._bank.slice(lo, hi)
