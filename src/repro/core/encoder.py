"""Incremental Rateless IBLT encoder (paper §4 design, §6 optimisations).

The encoder's whole state is the one its paper definition names: the
produced coded-symbol prefix, a
:class:`~repro.core.cellbank.CodedSymbolBank` in the lane form (uint64
arrays) under the vector engine and as lists otherwise, and for every
source symbol a parked position in its §4.2 index walk.  The symbols live in
one :class:`SourceStore` — one row per live symbol (``value``,
``checksum``, parked ``(idx, state)``, and its α when the codec maps
some symbol with other than the default α, read from the codec's
``alpha_batch`` face once, at ingest).  Two paths produce cells from it:

* :meth:`RatelessEncoder.produce_block` is one
  :mod:`~repro.core.cellbank` scatter-kernel call on the store's
  columns (one per ``_WALK_ROWS`` rows): NumPy columns advanced in place
  when the codec's symbols fit the lanes, the inlined scalar sampler
  over Python lists otherwise.
* :meth:`RatelessEncoder.produce_next` is the §6 reference: the store's
  binary heap of ``(next index, row)`` yields exactly the rows mapped to
  the next cell, each stepped through ``IndexGenerator`` — O(k·log n)
  (:meth:`SourceStore.fold`, which a decoder's store shares).

Both produce bit-identical cells (the golden-equivalence suite asserts
it); the store's columns and the prefix switch between the NumPy and the
list form, in one O(n) pass, when the next operation wants the other.

Set ingestion (the §7 workloads: 10^5–10^6 items per host) is one array
pass under the vector engine: :meth:`RatelessEncoder.add_items` fills the
store's columns from the batch's ``(n, ℓ)`` row matrix
(:meth:`~repro.core.symbols.SymbolCodec.item_rows`) and its keyed hashes
— one α answer and one duplicate sort per batch, no Python object per
item, no value→row index until asked.

Linearity (§4.1) makes the produced prefix *updatable*: adding or
removing a source symbol after ``m`` cells were produced XORs that
symbol into the affected cells of the cached bank, which is how a node
maintains one universal stream while its set churns (§7.3: 11 ms to
patch 50M cached symbols per Ethereum block, amortised).  Churn is
batched too: :meth:`~RatelessEncoder.add_items` /
:meth:`~RatelessEncoder.remove_items` (and the one-item forms) patch a
whole batch in one :func:`_patch` pass, one walk-kernel call over the
prefix (removals replay each symbol's mapping from its seed — the
checksum — with its stored α); a lane-form prefix is patched in place.
A server holds one such encoder for its whole set (or a cluster
worker's stripe), whatever its shard count.  Produced cells are value
snapshots; the live, patched state is the internal bank
(:meth:`cached` / :meth:`cached_block`, a copied slice of it).
"""

from __future__ import annotations

import heapq
from typing import Iterable, Optional, Sequence

from repro import engine
from repro.core.cellbank import (
    CodedSymbolBank,
    has_duplicates,
    ints_from_lanes,
    lanes_from_bytes,
    lanes_from_ints,
    needs_alphas,
    numpy_block_eligible,
    scatter_walk_arrays,
    scatter_walk_scalar,
    to_list,
)
from repro.core.coded import CodedSymbol
from repro.core.mapping import IndexGenerator
from repro.core.symbols import SymbolCodec

# Parked index of a removed (or not yet used) row: past every frontier,
# so no kernel walks it.
_DEAD_ROW = (1 << 63) - 1

# Rows per walk-kernel call: the kernel holds a few work vectors per live
# row, so a large set's first walk is cut into calls of this many rows.
_WALK_ROWS = 1 << 15

# NumPy dtypes and free-row fillers of the checksum, idx, state, α and
# sign columns, in that order.
_DTYPES = ("uint64", "int64", "uint64", "float64", "int64")
_FILLERS = (0, _DEAD_ROW, 0, 0.0, 0)


def _column(values, spare: int, dtype: str, fill):
    """A NumPy column holding ``values``, then ``spare`` free rows."""
    column = engine.np.full(len(values) + spare, fill, dtype=dtype)
    column[: len(values)] = values
    return column


def _walk_into(bank, lo: int, hi: int, walks, alphas, direction: int) -> None:
    """Fold rows in (``direction`` +1) or peel them out (−1) at every cell
    their walks cross: ``walks`` — the rows' ``(idx, state, values,
    checksums)``, advanced in place, none parked below ``lo`` — over the
    bank's cells ``[lo, hi)``, growing the bank to ``hi``; ``alphas`` is
    their α column or ``None``.  A list bank (list walks) takes the scalar
    kernel, a lane bank (NumPy walks) one kernel call on its own lanes per
    :data:`_WALK_ROWS` rows."""
    bank.extend_zeros(hi - len(bank))
    if not bank.vector:
        scatter_walk_scalar(*bank.lanes, *walks, direction, alphas, hi)
        return
    np = engine.np
    alphas = None if alphas is None else np.asarray(alphas, dtype=np.float64)
    lanes = [lane[lo:] for lane in bank.lanes]
    for start in range(0, len(walks[0]), _WALK_ROWS):
        rows = slice(start, start + _WALK_ROWS)
        scatter_walk_arrays(
            *lanes,
            *(column[rows] for column in walks),
            direction,
            hi,
            base=lo,
            alphas=None if alphas is None else alphas[rows],
        )


def _patch(encoder: "RatelessEncoder", values, checksums, direction, distinct=False):
    """The one patch body of set churn (linearity, §4.1): add
    (``direction`` +1) or remove (−1) ``values`` on ``encoder`` —
    ``checksums`` their keyed checksums, ``None`` when removing.  The
    batch is validated first (``distinct``: known free of repeats); then
    each symbol's walk (from its seed, or replayed from its stored
    checksum and α) is XORed into every cached cell it maps to under one
    :func:`_walk_into` call, and added rows park where their walks
    stopped."""
    removing = direction < 0
    encoder._validate(values, removing, distinct)
    store = encoder._store
    if removing:  # parked walks are discarded: no future in the stream
        checksums, alphas = store.kill(values)
    else:
        alphas = store.alphas_for(checksums)
    parked = None
    if encoder._bank:
        codec = encoder.codec
        if numpy_block_eligible(codec):  # the form the prefix takes below
            np = engine.np
            csums = np.array(checksums, dtype=np.uint64)
            lanes = lanes_from_ints(values, codec.symbol_size)
            walks = (np.zeros(len(csums), dtype=np.int64), csums.copy(), lanes, csums)
        else:
            checksums = to_list(checksums)
            walks = ([0] * len(checksums), list(checksums), to_list(values), checksums)
        bank = encoder._prefix()
        _walk_into(bank, 0, len(bank), walks, alphas, direction)
        parked = walks[:2]
    if not removing:
        store.append(values, checksums, alphas, parked)


def churn(encoder: "RatelessEncoder", items, direction: int, item_hashes=None) -> None:
    """Add (``direction`` +1) or remove (−1) a batch of ``items`` — ℓ-byte
    items or :meth:`SymbolCodec.item_rows`, with ``item_hashes`` as
    :meth:`RatelessEncoder.add_items` takes them — in one :func:`_patch`
    pass."""
    codec = encoder.codec
    datas = items if hasattr(items, "__getitem__") else list(items)
    rows = codec.item_rows(datas) if direction > 0 else list(datas)
    if not len(rows):
        return
    if isinstance(rows, list):
        values = codec.to_int_batch(rows)
    else:  # the value lanes are the rows, zero-padded
        values = lanes_from_bytes(rows, codec.symbol_size)
    distinct = direction > 0 and codec.proven_distinct(rows)
    checksums = None  # a removal's rows hold theirs
    if direction > 0 and item_hashes is None:
        checksums = codec.checksum_batch(datas)
    elif direction > 0 and len(item_hashes) != len(rows):
        raise ValueError(f"{len(rows)} items but {len(item_hashes)} hashes")
    elif direction > 0:
        checksums = codec.checksums_from_hash64(item_hashes)
    _patch(encoder, values, checksums, direction, distinct)


class SourceStore:
    """Every live source symbol of one encoder, one row each.

    A row holds the symbol's ``value``, its keyed ``checksum``, its
    parked walk position ``(idx, state)``, and its α in ``alphas`` — a
    column that exists only once some row's α is not the default the
    kernels inline (``None`` until then); ``live`` counts the live rows.
    A ``signed`` store (a decoder's recovered symbols) adds each row's
    count, ±1, in ``signs``; an encoder's rows all count +1.

    The columns take one of two forms.  NumPy (``vector``): ``values`` is
    the ``(capacity, k)`` uint64 lane matrix, the rest are vectors, and
    the rows past ``size`` are free room for appends, parked at
    ``_DEAD_ROW``.  Lists: Python ints per row, the scalar kernel's and
    the per-cell heap's form.  :meth:`_repack` is the one O(n) pass
    behind a form switch, compaction and growth.  Removal parks a row at
    ``_DEAD_ROW``; the columns never hold more than twice the live rows,
    so appends and removals cost O(1) amortised.  :attr:`rows`, the
    membership index, is built on first use after a NumPy-form load.
    """

    __slots__ = (
        "codec",
        "_rows",
        "live",
        "vector",
        "size",
        "values",
        "checksums",
        "idx",
        "state",
        "alphas",
        "signs",
        "heap",
        "heaped",
    )

    def __init__(self, codec: SymbolCodec, signed: bool = False) -> None:
        self.codec = codec
        self._rows: Optional[dict[int, int]] = {}
        self.live = 0
        self.vector = False
        self.size = 0
        self.values: list = []
        self.checksums: list = []
        self.idx: list = []
        self.state: list = []
        self.alphas: Optional[list] = None
        self.signs: Optional[list] = [] if signed else None
        self.heap: Optional[list[tuple[int, int]]] = None
        self.heaped = 0

    @property
    def rows(self) -> dict[int, int]:
        """Each live value's row, in row order (built on first use)."""
        if self._rows is None:  # a NumPy-form load into an empty store
            keep = (self.idx[: self.size] != _DEAD_ROW).nonzero()[0]
            self._rows = dict(zip(ints_from_lanes(self.values[keep]), keep.tolist()))
        return self._rows

    def _repack(self, vector: bool, spare: int = 0) -> None:
        """Rewrite the columns in the given form with the live rows only,
        renumbered in row order, plus ``spare`` free rows (NumPy form)."""
        live = self.live
        columns = (self.values, self.checksums, self.idx, self.state)
        columns += (self.alphas, self.signs)
        if live == self.size:  # every row keeps its number
            columns = [None if c is None else c[:live] for c in columns]
        elif self.vector:
            keep = (self.idx[: self.size] != _DEAD_ROW).nonzero()[0]
            columns = [None if c is None else c[keep] for c in columns]
        else:
            keep = list(self.rows.values())
            columns = [None if c is None else [c[r] for r in keep] for c in columns]
        if live != self.size and self._rows is not None:
            self._rows = dict(zip(self._rows, range(live)))
        self.size = live
        self.heap = None
        values, *rest = columns
        if vector:
            np = engine.np
            if not self.vector:
                values = lanes_from_ints(values, self.codec.symbol_size)
            free = np.zeros((spare, values.shape[1]), dtype=np.uint64)
            self.values = np.concatenate([values, free])
            if not self.vector:  # the index is rebuilt on first use
                self._rows = None
            rest = [
                None if c is None else _column(c, spare, d, f)
                for c, d, f in zip(rest, _DTYPES, _FILLERS)
            ]
        else:
            self.values = to_list(values)
            rest = [None if c is None else to_list(c) for c in rest]
            if self._rows is None:  # the list form keeps its index
                self._rows = dict(zip(self.values, range(live)))
        self.checksums, self.idx, self.state, self.alphas, self.signs = rest
        self.vector = vector

    def alphas_for(self, checksums) -> Optional[list[float]]:
        """New rows' α, from the codec's batch face: ``None`` while every
        row, held and new, has the default α; the first row that does not
        opens the α column, filled in for the rows already held."""
        alphas = self.codec.alpha_batch(checksums)
        if self.alphas is None:
            if alphas is None or not needs_alphas(alphas):
                return None
            held = self.codec.alpha_batch(self.checksums)
            self.alphas = engine.np.array(held) if self.vector else held
        return alphas

    def append(self, values, checksums, alphas, walks=None, signs=None) -> None:
        """Add validated rows: ``values`` as a lane matrix or ints,
        ``checksums`` as a vector or a list.  ``walks`` is their parked
        ``(idx, state)`` pair of columns, ``None`` for fresh walks
        (index 0, seeded by the checksum); ``signs`` their counts, for a
        signed store."""
        n = len(values)
        if not self.live and self.heap is None:  # empty, and no per-cell heap:
            # take the engine's form, and room for this batch
            self._repack(numpy_block_eligible(self.codec), spare=n)
            self._rows = None if self.vector else {}
        elif self.vector and not numpy_block_eligible(self.codec):
            self._repack(False)  # the vector engine went away mid-life
        lo = self.size
        hi = lo + n
        if self.vector:
            if hi > len(self.idx):
                self._repack(True, spare=n + self.live // 2)
                lo = self.size
                hi = lo + n
            np = engine.np
            if isinstance(values, list):
                values = lanes_from_ints(values, self.codec.symbol_size)
            self.values[lo:hi] = values
            self.checksums[lo:hi] = np.asarray(checksums, dtype=np.uint64)
            if walks is None:
                self.idx[lo:hi] = 0
                self.state[lo:hi] = self.checksums[lo:hi]
            else:
                self.idx[lo:hi] = np.asarray(walks[0], dtype=np.int64)
                self.state[lo:hi] = np.asarray(walks[1], dtype=np.uint64)
            for column, new in ((self.alphas, alphas), (self.signs, signs)):
                if column is not None:
                    column[lo:hi] = new
        else:
            checksums = to_list(checksums)
            self.values += to_list(values)
            self.checksums += checksums
            if walks is None:
                self.idx += [0] * n
                self.state += checksums
            else:
                self.idx += to_list(walks[0])
                self.state += to_list(walks[1])
            for column, new in ((self.alphas, alphas), (self.signs, signs)):
                if column is not None:
                    column += to_list(new)
        if self._rows is not None:
            self._rows.update(zip(to_list(values), range(lo, hi)))
        self.live += n
        self.size = hi

    def kill(self, values) -> tuple[list[int], Optional[list[float]]]:
        """Drop the (present) rows of ``values``; returns their checksums
        and α (``None`` without an α column) for the prefix patch."""
        rows = self.rows
        keep = [rows.pop(value) for value in to_list(values)]
        self.live -= len(keep)
        alphas = self.alphas
        if self.vector:
            checksums = self.checksums[keep].tolist()
            alphas = None if alphas is None else alphas[keep].tolist()
            self.idx[keep] = _DEAD_ROW
        else:
            checksums = [self.checksums[r] for r in keep]
            alphas = None if alphas is None else [alphas[r] for r in keep]
            for row in keep:
                self.idx[row] = _DEAD_ROW
        if len(self.idx) > 2 * self.live:
            self._repack(self.vector, spare=self.live // 2)
        return checksums, alphas

    def walk(self, bank: CodedSymbolBank, hi: int) -> None:
        """Extend ``bank`` to ``hi`` cells: every row XORed into each cell
        its walk reaches below ``hi``, in one :func:`_walk_into` pass."""
        self.heap = None  # the walks move under it
        if bank.vector != self.vector:  # the kernel of the bank's form
            self._repack(bank.vector)
        walks = (self.idx, self.state, self.values, self.checksums)
        _walk_into(bank, len(bank), hi, walks, self.alphas, 1)

    def columns(self) -> tuple:
        """A signed store's ``(values, checksums, signs, idx, state)`` in
        the NumPy form, as views of rows ``[0, size)``."""
        if not self.vector:
            self._repack(True)
        columns = (self.values, self.checksums, self.signs, self.idx, self.state)
        return tuple(column[: self.size] for column in columns)

    def next_heap(self) -> list[tuple[int, int]]:
        """The per-cell path's heap of ``(next index, row)`` over the list
        form, rebuilt lazily: in full after a block walk or a repack moved
        rows under it, topped up with the rows appended since otherwise.
        Removed rows' entries are dropped when they surface."""
        if self.vector:
            self._repack(False)
        idx = self.idx
        if self.heap is None:
            self.heap = [(idx[row], row) for row in self.rows.values()]
            heapq.heapify(self.heap)
        else:
            for row in range(self.heaped, self.size):
                if idx[row] != _DEAD_ROW:
                    heapq.heappush(self.heap, (idx[row], row))
        self.heaped = self.size
        return self.heap

    def fold(self, index: int, walk: IndexGenerator) -> tuple[int, int, int]:
        """The per-cell path's cell ``index``: the XOR and count of the
        rows the heap holds parked there, each stepped once by ``walk``
        (re-parked from, then back into, the row's columns)."""
        heap = self.heap
        if heap is None or self.heaped != self.size:
            heap = self.next_heap()
        if not heap or heap[0][0] != index:
            return 0, 0, 0
        idx, state, values = self.idx, self.state, self.values
        checksums, alphas, signs = self.checksums, self.alphas, self.signs
        cell_sum = cell_checksum = cell_count = 0
        while heap and heap[0][0] == index:
            row = heap[0][1]
            if idx[row] != index:  # a removed row, dropped as it surfaces
                heapq.heappop(heap)
                continue
            cell_sum ^= values[row]
            cell_checksum ^= checksums[row]
            cell_count += 1 if signs is None else signs[row]
            walk.current = index
            walk.state = state[row]
            if alphas is not None:
                walk.alpha = alphas[row]
            nxt = walk.next_index()
            idx[row] = nxt
            state[row] = walk.state
            heapq.heapreplace(heap, (nxt, row))
        return cell_sum, cell_checksum, cell_count

    def export(self) -> tuple[list[int], list[int], list[int], list[int]]:
        """``(values, checksums, idx, state)`` of the live rows, in row order."""
        columns = (self.values, self.checksums, self.idx, self.state)
        if self.vector:  # read past an unbuilt index: live rows are undead
            keep = (self.idx[: self.size] != _DEAD_ROW).nonzero()[0]
            return tuple(to_list(c[keep]) for c in columns)
        return tuple([c[r] for r in self.rows.values()] for c in columns)


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
        self._store = SourceStore(codec)
        self._bank = self._prefix(CodedSymbolBank())
        # produce_next's stepper, re-parked at each row it advances; a
        # store without an α column leaves it at the mapping's default α
        self._walk = IndexGenerator(0)
        if items is not None:
            self.add_items(items, item_hashes=item_hashes)

    # -- set mutation ----------------------------------------------------

    def __len__(self) -> int:
        return self._store.live

    @property
    def set_size(self) -> int:
        """Number of source symbols currently encoded."""
        return len(self)

    @property
    def produced_count(self) -> int:
        """Length of the cached coded-symbol prefix."""
        return len(self._bank)

    def __contains__(self, data: bytes) -> bool:
        return self.codec.to_int(data) in self._store.rows

    def add_item(self, data: bytes) -> None:
        """Add an ℓ-byte item to the set being encoded."""
        self.add_value(self.codec.to_int(data))

    def add_value(self, value: int) -> None:
        """Add an item already packed into integer form."""
        _patch(self, [value], [self.codec.checksum_int(value)], 1)

    def add_items(
        self,
        items: Iterable[bytes],
        *,
        item_hashes: Optional[Sequence[int]] = None,
    ) -> None:
        """Add many items at once, in one :func:`churn` pass.

        ``items`` (ℓ-byte items, or :meth:`SymbolCodec.item_rows`) join
        the source store as columns and patch a produced prefix in one
        scatter; a duplicate (in the set or the batch) raises ``KeyError``
        before anything is inserted.  ``item_hashes``, when given, are the
        codec hasher's keyed 64-bit hashes of the items, in order (e.g.
        from shard placement): checksums are masked from them, not rehashed.
        """
        churn(self, items, 1, item_hashes)

    def remove_item(self, data: bytes) -> None:
        """Remove an item; the cached prefix is patched in place."""
        self.remove_value(self.codec.to_int(data))

    def remove_value(self, value: int) -> None:
        """Remove an item given in integer form."""
        _patch(self, [value], None, -1)

    def remove_items(self, items: Iterable[bytes]) -> None:
        """Remove many items at once, in one :func:`churn` pass.

        XOR is self-inverse, so each removal replays the symbol's mapping
        from its stored checksum and α (no re-hash) in one scatter; an
        item missing from the set raises ``KeyError`` before any removal.
        """
        churn(self, items, -1)

    def _validate(self, values, present: bool, distinct: bool) -> None:
        """Raise ``KeyError`` for the first value named twice in the batch
        or whose membership is not ``present``.  A lane batch loaded into
        an empty store is one sort of its lanes (none when ``distinct``),
        leaving the store's index unbuilt; anything else is one C-speed
        sweep (set build + keys-view test) against the index for the
        common clean batch."""
        store = self._store
        if not (present or store.live or isinstance(values, list)):
            if distinct or not has_duplicates(values):
                return
        values = to_list(values)
        rows = store.rows
        unique = set(values)
        if len(unique) == len(values) and (
            rows.keys() >= unique if present else rows.keys().isdisjoint(unique)
        ):
            return
        seen: set[int] = set()
        for value in values:
            if value in seen or (value in rows) != present:
                what = "item not in set" if present else "duplicate item"
                raise KeyError(f"{what}: {value:#x}")
            seen.add(value)

    def _prefix(self, bank: Optional[CodedSymbolBank] = None) -> CodedSymbolBank:
        """The cached prefix (``bank``, when given, adopted as it) in the
        form the engine runs now — lanes under the vector engine, lists
        otherwise — switched in one pass when the engine flipped."""
        bank = self._bank if bank is None else bank
        codec = self.codec
        self._bank = bank.in_form(numpy_block_eligible(codec), codec.symbol_size)
        return self._bank

    # -- persistence hooks -------------------------------------------------

    @property
    def bank(self) -> CodedSymbolBank:
        """The live cached-prefix bank (the durable store packs it verbatim)."""
        return self._bank

    def export_rows(self) -> tuple[list[int], list[int], list[int], list[int]]:
        """Parallel ``(values, checksums, currents, states)`` source rows.

        One row per live source symbol, in the store's row order (the
        order the symbols were added), with its parked §4.2 walk position
        (first mapped index at or past the produced frontier, and the
        splitmix64 state there).  With :attr:`bank` this is the encoder's
        whole state: :meth:`restore` rebuilds a bit-identical stream.
        """
        return self._store.export()

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

        Adopts ``bank`` as the produced prefix and appends every source
        row to the store parked exactly where it was exported (columns
        may be lists or NumPy vectors), so the restored encoder's future
        output is bit-identical to the original's, on either engine.
        """
        encoder = cls(codec)
        encoder._prefix(bank)
        store = encoder._store
        alphas = store.alphas_for(checksums)
        store.append(to_list(values), checksums, alphas, (currents, states))
        return encoder

    # -- coded symbol production -----------------------------------------

    def produce_next(self) -> CodedSymbol:
        """Produce (and cache) the next coded symbol in the sequence.

        The §6 reference path: the store's heap yields the rows parked at
        this index, each XORed into the cell and stepped once by the
        reference :class:`~repro.core.mapping.IndexGenerator`
        (:meth:`SourceStore.fold`).  Returns a value snapshot; the patched
        state lives in the internal bank (:meth:`cached`), on the list
        form: a lane-form prefix is switched once, not set up per cell.
        """
        cell = self._store.fold(len(self._bank), self._walk)
        self._bank = self._bank.in_form(False)
        self._bank.append(*cell)
        return CodedSymbol(*cell)

    def produce_block(self, m: int) -> CodedSymbolBank:
        """Materialise coded symbols ``[frontier, frontier+m)`` as a
        value-copy bank: bit-identical to ``m`` :meth:`produce_next`
        calls, in one :func:`_walk_into` pass over the source store."""
        if m <= 0:
            return CodedSymbolBank()
        lo = len(self._bank)
        self._store.walk(self._prefix(), lo + m)
        return self._bank.slice(lo, lo + m)

    def produce(self, n: int) -> list[CodedSymbol]:
        """Produce the next ``n`` coded symbols (value snapshots)."""
        return self.produce_block(n).cells()

    def cached(self, index: int) -> CodedSymbol:
        """Snapshot of the cached cell at ``index`` (must be produced)."""
        return self._bank.cell_at(index)

    def cached_block(self, lo: int, hi: int) -> CodedSymbolBank:
        """Value-copy bank of cached cells ``[lo, hi)`` (``0 <= lo <= hi``),
        producing on demand: a copied slice of the prefix, in its form."""
        if not 0 <= lo <= hi:
            raise ValueError(f"bad cell range [{lo}, {hi})")
        produced = len(self._bank)
        if produced < hi:
            self.produce_block(hi - produced)
        return self._bank.slice(lo, hi)
