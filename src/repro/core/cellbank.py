"""Array-backed coded-symbol banks and the batch scatter-walk samplers.

One Python object, method call and heap operation per cell or edge would
drown the paper's computational claims (§7, Figs 8–10) in interpreter
constant factors, so a :class:`CodedSymbolBank` stores a coded-symbol
prefix as three parallel lanes — ``sums``, ``checksums``, ``counts`` —
and the hot loops operate on the lanes directly.

Lane representation
-------------------
A bank's lanes take one of two forms.  The *lane form* is the one the
vector engines read and write in place: sums are a little-endian
``(rows, k)`` uint64 matrix, ``k = ⌈ℓ/8⌉``, the last lane zero-padded
(source values take the same shape); checksums are a ``(rows,)`` uint64
vector and counts ``(rows,)`` int64 — exact-length views of arrays with
spare rows, so a growing prefix is not copied per block.  The encoder's
cached prefix and the decoder's received prefix keep this form under the
vector engine, so a churn patch, a served block and a decode wave touch
no Python int.  The *list form* is plain Python lists of ints, which
carry a symbol of any width: it is the scalar reference engine's and the
per-cell paths' (switched to in one pass), and the form past
:data:`LANE_MAX_SYMBOL_BYTES` (big-int XOR is memcpy-speed there while
lane gathers are not: paper Fig 11's knee, see the constant).  This
module is the only place Python ints meet the arrays, through
:func:`lanes_from_ints` / :func:`ints_from_lanes` and
:func:`lanes_from_bytes` (one zero-padded ``frombuffer`` view of item or
wire bytes); an 8-byte symbol is ``k = 1``, which the kernels view as 1-D.

The record codec
----------------
Every fixed-width byte layout in the package — the packed bank, the §6
stream's single-byte-count cells, a snapshot's source rows, the
count-free cells, a batch of items — is "n records of little-endian
columns", and :func:`pack_records` / :func:`unpack_records` are the one
implementation: a vector body (column views into an ``(n, stride)``
uint8 matrix) and a scalar body (the reference, and the path that raises
``int.to_bytes``' canonical ``OverflowError``).  Callers never choose.

Batch sampling (the §4.2 mapping, many symbols at once)
-------------------------------------------------------
A scatter walk XORs a batch of source symbols into every lane index
they map to below ``hi``, advancing each symbol's splitmix64 state
exactly as :class:`~repro.core.mapping.IndexGenerator.next_index` would:

* :func:`scatter_walk_scalar` — splitmix64 and the α = 0.5 inverse CDF
  inlined as local-variable arithmetic; any symbol width, per-symbol α.
* :func:`scatter_walk_arrays` — vectorised across symbols: splitmix64's
  state is an additive counter, so a batch advances in lock-step rounds
  of in-place uint64/float64 arithmetic, the last few walks finish per
  edge on splitmix draws made in bulk, and the edges fold at once,
  colliding slots by a radix-sorted ``reduceat``.
  Guarded by :func:`numpy_block_eligible`.

Both engines are bit-identical to the reference per-cell path (IEEE-754
double arithmetic in the same order), which the golden-equivalence suite
asserts.  Which one runs is decided by :mod:`repro.engine` alone: every
vector path reads its ``NUMPY_LANE`` at call time.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence

from repro import engine
from repro.core.coded import CodedSymbol
from repro.core.params import DEFAULT_ALPHA, MAX_INDEX
from repro.hashing.prng import GAMMA, INV_2_53, MASK64, MIX1, MIX2, mix64_lanes

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.symbols import SymbolCodec

# Below this many rows the NumPy call overhead outweighs the vector win.
NUMPY_MIN_JOBS = 8

# Live-row count below which a scatter walk finishes its stragglers per
# edge (_walk_tail_scalar): a lock-step round is ~30 NumPy calls however
# few walks remain, a tail edge ~0.3 µs.  Re-measured on both rewritten
# engines: 32-128 tie on 5k-37.5k-row walks, 64 wins only under ~200
# rows, and the traced big_diff client's walks ran 5-35 % slower at 64.
NUMPY_TAIL_JOBS = 32

# Widest symbol (bytes) the uint64 lanes carry; wider codecs run the
# scalar big-int engine.  Selected from an observable input, not tuned
# per workload: in a width sweep of the service's block ramp (N = 1 000
# and 2 500, 1 400 cells) the lane kernel beats the scalar block engine
# x6 at 17 B, x5 at 92 B, x2.4 at 1 KiB and x1.2 at 2 KiB, and loses
# x0.6 at 4 KiB and x0.2 at 32 KiB — CPython's big-int XOR is one
# memcpy-speed pass at that size, the per-round row gathers are not.
# That is the paper's Fig 11 knee; benchmarks/bench_fig11_item_size.py
# commits a row on each side of the cut (BENCH_fig11_item_size.json).
LANE_MAX_SYMBOL_BYTES = 2048

# Below this many records the (n, stride) matrix set-up of the record
# codec's vector body costs more than the per-record ``to_bytes`` loop.
PACK_MIN_CELLS = 16


class CodedSymbolBank:
    """A coded-symbol prefix stored as three parallel lanes.

    Semantically a ``list[CodedSymbol]``; physically three lanes the
    batch producers/consumers address directly, as lists of ints or in
    the lane form (module docstring).  All mutating bank-level
    operations are linear (XOR on sums/checksums, ± on counts),
    mirroring :class:`~repro.core.coded.CodedSymbol`.  Values that leave
    a bank are Python ints, and equality holds across the two forms.
    """

    __slots__ = ("sums", "checksums", "counts", "_room")

    def __init__(self, sums=None, checksums=None, counts=None) -> None:
        self.sums = sums if sums is not None else []
        self.checksums = checksums if checksums is not None else []
        self.counts = counts if counts is not None else []
        if not (len(self.sums) == len(self.checksums) == len(self.counts)):
            raise ValueError("bank lanes must have equal length")
        # lane form: the full-capacity arrays the lanes are views of
        self._room = None if isinstance(self.sums, list) else self.lanes

    # -- construction -----------------------------------------------------

    @classmethod
    def from_cells(cls, cells: Iterable[CodedSymbol]) -> "CodedSymbolBank":
        """Bank holding a value copy of ``cells``."""
        bank = cls()
        for cell in cells:
            bank.append_cell(cell)
        return bank

    @classmethod
    def zeros(cls, size: int) -> "CodedSymbolBank":
        """Bank of ``size`` zero cells (the sketch of the empty set)."""
        return cls([0] * size, [0] * size, [0] * size)

    def copy(self) -> "CodedSymbolBank":
        """Value copy of this bank."""
        return self.slice(0, len(self))

    def slice(self, lo: int, hi: int) -> "CodedSymbolBank":
        """Value copy of cells ``[lo, hi)``, in this bank's form."""
        lanes = [lane[lo:hi] for lane in self.lanes]
        if self._room is not None:  # a slice of an array is a view
            lanes = [lane.copy() for lane in lanes]
        return CodedSymbolBank(*lanes)

    @property
    def vector(self) -> bool:
        """True for the lane form (NumPy arrays), False for lists."""
        return self._room is not None

    @property
    def lanes(self) -> tuple:
        """``(sums, checksums, counts)``."""
        return self.sums, self.checksums, self.counts

    def in_form(self, vector: bool, size: int = 0) -> "CodedSymbolBank":
        """This bank in the lane form (``vector``, for ``size``-byte
        symbols) or as lists: itself when it already is, else a value
        copy made in one pass."""
        if vector == self.vector:
            return self
        if not vector:
            return CodedSymbolBank(*map(to_list, self.lanes))
        np = engine.np
        return CodedSymbolBank(
            lanes_from_ints(self.sums, size),
            np.array(self.checksums, dtype=np.uint64),
            np.array(self.counts, dtype=np.int64),
        )

    def _own(self, other: "CodedSymbolBank") -> tuple:
        """``other``'s lanes in this bank's form (and lane width)."""
        size = 8 * self.sums.shape[1] if self._room is not None else 0
        return other.in_form(self.vector, size).lanes

    # -- container protocol ----------------------------------------------

    def __len__(self) -> int:
        return len(self.sums)

    def __iter__(self) -> Iterator[CodedSymbol]:
        for s, k, c in zip(*self.in_form(False).lanes):
            yield CodedSymbol(s, k, c)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CodedSymbolBank):
            return NotImplemented
        return self.in_form(False).lanes == other.in_form(False).lanes

    def __repr__(self) -> str:
        return f"CodedSymbolBank(size={len(self.sums)})"

    def cell_at(self, index: int) -> CodedSymbol:
        """Value snapshot of cell ``index``."""
        index = range(len(self))[index]
        return next(iter(self.slice(index, index + 1)))

    def cells(self) -> list[CodedSymbol]:
        """Value snapshots of every cell."""
        return list(self)

    def append(self, sum_: int, checksum: int, count: int) -> None:
        """Append one cell given as a lane triple."""
        if self._room is not None:
            self.extend(CodedSymbolBank([sum_], [checksum], [count]))
            return
        self.sums.append(sum_)
        self.checksums.append(checksum)
        self.counts.append(count)

    def append_cell(self, cell: CodedSymbol) -> None:
        """Append a value copy of ``cell``."""
        self.append(cell.sum, cell.checksum, cell.count)

    def extend_zeros(self, size: int) -> None:
        """Grow the bank by ``size`` zero cells: into the lane form's spare
        rows, which regrow by half once used up (one copy)."""
        n = len(self) + size
        if self._room is None:
            for lane in self.lanes:
                lane.extend([0] * size)
        elif size:
            if n > len(self._room[1]):
                np, grown = engine.np, n + n // 2
                room = [np.zeros((grown, *x.shape[1:]), x.dtype) for x in self.lanes]
                for spare, lane in zip(room, self.lanes):
                    spare[: len(lane)] = lane
                self._room = tuple(room)
            self.sums, self.checksums, self.counts = (lane[:n] for lane in self._room)

    def extend(self, other: "CodedSymbolBank") -> None:
        """Append a value copy of every cell of ``other`` (either form)."""
        lo = len(self)
        more = self._own(other)
        self.extend_zeros(len(other))
        for lane, tail in zip(self.lanes, more):
            lane[lo:] = tail

    # -- linear algebra ---------------------------------------------------

    def apply_batch(
        self, value: int, checksum: int, direction: int, indices: Sequence[int]
    ) -> None:
        """XOR one source symbol into many cells at once.

        ``direction`` is +1 to add, −1 to remove — the count bookkeeping,
        exactly as :meth:`CodedSymbol.apply` per index.
        """
        sums, checksums, counts = self.lanes
        for idx in indices:
            sums[idx] ^= value
            checksums[idx] ^= checksum
            counts[idx] += direction

    def subtract(self, other: "CodedSymbolBank") -> "CodedSymbolBank":
        """Cell-wise ``self ⊖ other`` (paper §3 sketch subtraction)."""
        out = self.copy()
        out.subtract_in_place(other)
        return out

    def subtract_in_place(self, other: "CodedSymbolBank") -> None:
        """In-place version of :meth:`subtract`; one XOR per lane in the
        lane form."""
        self._combine(other, -1)

    def add_in_place(self, other: "CodedSymbolBank") -> None:
        """Cell-wise ``self ⊕ other`` in place: the cells of the disjoint
        union of the two banks' sets (linearity, §4)."""
        self._combine(other, 1)

    def _combine(self, other: "CodedSymbolBank", sign: int) -> None:
        if len(other) != len(self):
            raise ValueError(f"bank sizes differ: {len(self)} vs {len(other)}")
        sums, checksums, counts = self.lanes
        other_sums, other_checksums, other_counts = self._own(other)
        if self._room is not None:
            sums ^= other_sums
            checksums ^= other_checksums
            counts += sign * other_counts
            return
        for i, (s, k, c) in enumerate(zip(other_sums, other_checksums, other_counts)):
            sums[i] ^= s
            checksums[i] ^= k
            counts[i] += sign * c

    def is_all_zero(self) -> bool:
        """True when every cell has been reduced to zero."""
        return not any(map(any, self.in_form(False).lanes))

    # -- wire format ------------------------------------------------------
    #
    # The bank's own wire format is the flat fixed-width cell layout, which
    # is also how the table-based schemes ship their banks:
    # ℓ-byte sum | checksum_size-byte checksum | 8-byte signed count, all
    # little-endian.  The §6 compressed-count stream framing lives in
    # ``repro.core.wire`` (``SymbolStreamWriter.write_block`` /
    # ``SymbolStreamReader.feed_into``) and builds on the same lanes.

    COUNT_BYTES = 8

    def pack(self, codec: "SymbolCodec") -> bytes:
        """Serialise the lanes into one contiguous byte string.

        This is the normative packed-bank encoding (``docs/wire-format.md``):
        cells in index order, each occupying exactly ``stride = ℓ +
        checksum_size + 8`` bytes laid out as

        * ``sum`` — ℓ bytes, unsigned little-endian;
        * ``checksum`` — ``checksum_size`` bytes, unsigned little-endian;
        * ``count`` — 8 bytes, **signed** little-endian (two's complement).

        Three columns through :func:`pack_records`, whose two engines
        emit byte-identical blobs at any symbol width, from either form.
        """
        return pack_records(
            self.lanes,
            (codec.symbol_size, codec.checksum_size, self.COUNT_BYTES),
            signed_last=True,
        )

    @classmethod
    def unpack(cls, blob: bytes, codec: "SymbolCodec") -> "CodedSymbolBank":
        """Parse a :meth:`pack`-format byte string back into a bank.

        The exact inverse of :meth:`pack` (see there for the normative
        byte layout), through :func:`unpack_records`.
        """
        return cls(
            *unpack_records(
                blob,
                (codec.symbol_size, codec.checksum_size, cls.COUNT_BYTES),
                signed_last=True,
            )
        )


# -- Python ints ↔ uint64 lanes -------------------------------------------
#
# The only functions in the package that move symbols between the
# list-of-int form and the (rows, k) uint64 lane matrix.


def lane_count(size: int) -> int:
    """k: uint64 lanes per ``size``-byte field."""
    return -(-size // 8)


def check_widths(items: Sequence[bytes], size: int) -> None:
    """The codec's ``ValueError`` unless every item is ``size`` bytes."""
    if items and set(map(len, items)) != {size}:
        bad = next(len(item) for item in items if len(item) != size)
        raise ValueError(f"item must be exactly {size} bytes, got {bad}")


def lanes_from_bytes(rows, size: int):
    """Little-endian ``(n, ⌈size/8⌉)`` uint64 lanes of ``n`` ``size``-byte
    fields, the last lane zero-padded.

    ``rows`` is a sequence of ``size``-byte strings (set items) or an
    ``(n, size)`` uint8 matrix (a field's column slice of a wire or
    packed-bank buffer); a string of any other length raises the
    codec's ``ValueError``.
    """
    np = engine.np
    if not isinstance(rows, np.ndarray):
        check_widths(rows, size)
        rows = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(-1, size)
    padded = np.zeros((rows.shape[0], 8 * lane_count(size)), dtype=np.uint8)
    padded[:, :size] = rows
    return padded.view("<u8")


def has_duplicates(lanes) -> bool:
    """Whether a lane matrix holds a value twice: one sort of the first
    lane, then only rows sharing a first lane are sorted whole."""
    np = engine.np
    first = np.sort(lanes[:, 0])
    repeated = first[1:][first[1:] == first[:-1]]
    if not repeated.size:  # the common clean batch: no isin pass over it
        return False
    shared = lanes[np.isin(lanes[:, 0], repeated)]
    shared = shared[np.lexsort(shared.T)]
    return bool((shared[1:] == shared[:-1]).all(axis=1).any())


def lanes_from_ints(values, size: int):
    """Lanes (see :func:`lanes_from_bytes`) of integers in ``[0, 2^(8·size))``.

    Anything outside that range raises the ``OverflowError``
    ``int.to_bytes`` raises — it *is* that call for multi-lane symbols
    and for a one-lane batch the array conversion rejected.  A lane
    matrix is returned as it is.
    """
    if getattr(values, "ndim", 1) == 2:
        return values
    if size <= 8:
        try:
            lanes = engine.np.asarray(values, dtype="<u8").reshape(-1, 1)
            if size == 8 or not lanes.size or not int(lanes.max()) >> (8 * size):
                return lanes
        except OverflowError:
            pass  # re-raised in canonical form by to_bytes below
    return lanes_from_bytes([int(v).to_bytes(size, "little") for v in values], size)


def ints_from_lanes(lanes) -> list[int]:
    """The Python ints held by an ``(n, k)`` lane matrix, in row order."""
    if lanes.shape[1] == 1:
        return lanes[:, 0].tolist()
    blob = lanes.astype("<u8", copy=False).tobytes()
    width = 8 * lanes.shape[1]
    from_bytes = int.from_bytes
    return [
        from_bytes(blob[offset : offset + width], "little")
        for offset in range(0, len(blob), width)
    ]


def to_list(column) -> list:
    """A list, NumPy vector or lane matrix column as a Python list."""
    if isinstance(column, list):
        return column
    if column.ndim == 2:
        return ints_from_lanes(column)
    return column.tolist()


# -- the record codec -----------------------------------------------------
#
# n records of fixed-width little-endian columns (see the module
# docstring).  ``widths`` are the column widths in bytes, in record
# order; ``signed_last`` marks the last column as the bank's 8-byte
# two's-complement count.  Everything else is unsigned.


def pack_records(columns: Sequence, widths: Sequence[int], signed_last: bool = False) -> bytes:
    """Serialise parallel integer ``columns`` — lists, vectors or lane
    matrices — as ``len(columns[0])`` records of ``sum(widths)`` bytes
    each.

    A value outside its field raises ``OverflowError`` exactly as
    ``int.to_bytes`` words it, on either engine.
    """
    signed = [False] * (len(widths) - 1) + [signed_last]
    if engine.NUMPY_LANE and len(columns[0]) >= PACK_MIN_CELLS:
        np = engine.np
        out = np.empty((len(columns[0]), sum(widths)), dtype=np.uint8)
        lo = 0
        try:
            for column, width, sign in zip(columns, widths, signed):
                if sign:
                    lanes = np.asarray(column, dtype="<i8").reshape(-1, 1)
                else:
                    lanes = lanes_from_ints(column, width)
                out[:, lo : lo + width] = lanes.view(np.uint8)[:, :width]
                lo += width
            return out.tobytes()
        except OverflowError:
            pass  # the reference body below raises it in canonical form
    fields = [
        [int(v).to_bytes(width, "little", signed=sign) for v in to_list(column)]
        for column, width, sign in zip(columns, widths, signed)
    ]
    return b"".join(chain.from_iterable(zip(*fields)))


def unpack_records(
    blob: bytes,
    widths: Sequence[int],
    signed_last: bool = False,
    vectors: bool = False,
) -> list:
    """Parse :func:`pack_records` output back into one list of Python
    ints per column.

    ``vectors`` lets a caller that feeds arrays onward (the durable
    store restoring an encoder's source store) keep a column of at most
    8 bytes as the ``(n,)`` NumPy vector the vector body parsed instead
    of paying for a list it would convert straight back; the scalar
    body returns lists regardless.
    """
    stride = sum(widths)
    if len(blob) % stride:
        raise ValueError(
            f"blob of {len(blob)} bytes is not a multiple of the "
            f"{stride}-byte record stride"
        )
    signed = [False] * (len(widths) - 1) + [signed_last]
    columns: list = []
    lo = 0
    if engine.NUMPY_LANE and len(blob) >= stride * PACK_MIN_CELLS:
        mat = engine.np.frombuffer(blob, dtype=engine.np.uint8).reshape(-1, stride)
        for width, sign in zip(widths, signed):
            lanes = lanes_from_bytes(mat[:, lo : lo + width], width)
            if sign:
                lanes = lanes.view("<i8")
            if vectors and lanes.shape[1] == 1:
                columns.append(lanes[:, 0])
            else:
                columns.append(ints_from_lanes(lanes))
            lo += width
        return columns
    view = memoryview(blob)
    from_bytes = int.from_bytes
    for width, sign in zip(widths, signed):
        columns.append(
            [
                from_bytes(view[offset : offset + width], "little", signed=sign)
                for offset in range(lo, len(blob), stride)
            ]
        )
        lo += width
    return columns


# -- batch scatter-walk samplers ------------------------------------------


def numpy_block_eligible(codec: "SymbolCodec") -> bool:
    """True when ``codec``'s blocks can ride the batch pipeline at all:
    NumPy, and a symbol no wider than :data:`LANE_MAX_SYMBOL_BYTES`
    (checksums are at most 8 bytes by construction).  §8 irregular
    mappings qualify, with a per-symbol α vector."""
    return engine.NUMPY_LANE and codec.symbol_size <= LANE_MAX_SYMBOL_BYTES


def needs_alphas(alphas: list[float]) -> bool:
    """True when some α in ``alphas`` is not the α = 0.5 the kernels
    inline — only then do they need a per-row ``alphas`` column."""
    return alphas.count(DEFAULT_ALPHA) != len(alphas)


def scatter_walk_scalar(
    sums: list[int],
    checksums: list[int],
    counts: list[int],
    indices: list[int],
    states: list[int],
    values: Sequence[int],
    symbol_checksums: Sequence[int],
    direction: int,
    alphas: Optional[Sequence[float]],
    hi: int,
    touched: Optional[list[int]] = None,
) -> None:
    """Walk each symbol ``j`` from ``indices[j]`` to its first index ≥ ``hi``,
    XOR-ing it into every lane index it maps to along the way.

    ``indices``/``states`` are the symbols' (``current``, splitmix64
    ``state``) walk positions, updated in place.  ``direction`` is +1 to
    fold the symbols in, −1 to peel them out; ``alphas`` their per-symbol
    α (``None``: all α = 0.5).  ``touched``, when given, collects every
    lane index written (with multiplicity).  Splitmix64 and the α = 0.5
    inverse CDF are inlined — this loop IS the scalar per-edge hot path,
    bit-identical to ``IndexGenerator.next_index``.
    """
    sqrt = math.sqrt
    collect = touched.append if touched is not None else None
    for j in range(len(indices)):
        idx = indices[j]
        if idx >= hi:
            continue
        state = states[j]
        value = values[j]
        checksum = symbol_checksums[j]
        alpha = DEFAULT_ALPHA if alphas is None else alphas[j]
        regular = alpha == DEFAULT_ALPHA
        while idx < hi:
            sums[idx] ^= value
            checksums[idx] ^= checksum
            counts[idx] += direction
            if collect is not None:
                collect(idx)
            state = (state + GAMMA) & MASK64
            z = (state ^ (state >> 30)) * MIX1 & MASK64
            z = (z ^ (z >> 27)) * MIX2 & MASK64
            r = ((z ^ (z >> 31)) >> 11) * INV_2_53
            if regular:
                half = idx + 1.5
                root = sqrt(half * half + r * (idx + 1.0) * (idx + 2.0) / (1.0 - r))
                gap = root - half
            else:
                gap = (idx + 1.0) * ((1.0 - r) ** -alpha - 1.0)
            step = int(gap)
            if step < gap:
                step += 1
            if step < 1:
                step = 1
            nxt = idx + step
            if nxt > MAX_INDEX:
                nxt = idx + 1
            idx = nxt
        indices[j] = idx
        states[j] = state


def scatter_walk_arrays(
    sums,  # np.ndarray[uint64] (m, k)
    checksums,  # np.ndarray[uint64] (m,)
    counts,  # np.ndarray[int64] (m,)
    idx,  # np.ndarray[int64] (n,), advanced in place
    state,  # np.ndarray[uint64] (n,), advanced in place
    vals,  # np.ndarray[uint64] (n, k)
    csums,  # np.ndarray[uint64] (n,)
    dirs,  # int, or np.ndarray[int64] (n,) — see fold_edges
    hi: int,
    base: int = 0,
    touched: Optional[list] = None,
    alphas=None,  # np.ndarray[float64] | None — per-symbol α (§8)
):
    """Array-native scatter walk.

    The decoder's replay and peel walks, and the batch mapping stage of
    the set-ingestion pipeline: walk every symbol ``j`` from
    ``idx[j]`` to its first index ≥ ``hi``, XOR-ing it into the lane
    arrays (which cover absolute indices ``[base, base + len)``), and
    return the ``(idx, state)`` arrays, advanced in place.  Symbols
    already at or past ``hi`` are not read, so a caller may hand over a
    whole column store and park retired rows at a sentinel index.

    Each lock-step round records one ``(slot, row)`` edge per live walk
    and advances every live walk with in-place ops on work buffers
    allocated once and sliced to the live count; ONE :func:`fold_edges`
    call folds the rounds' and the tail's edges at the end (positions
    never read the lanes, and XOR and add commute), or sooner, before
    they outgrow the call's own arrays (10^5 fresh walks).  Positions are
    float64, exact below 2^53 (``MAX_INDEX`` = 2^48), and the live
    columns are compacted only in rounds where a walk retires.  The
    float64 expression tree is the reference's, op for op.  The
    ``MAX_INDEX`` unit-step clamp can only fire on a step that would
    retire a walk, so it runs on those rows, and a clamped walk landing
    below its ``hi`` stays live.

    ``alphas`` (§8 irregular mappings): generic-α rows take the gap
    ``(i+1)·((1−r)^{−α} − 1)`` element-wise in Python floats, because
    NumPy's SIMD ``pow`` is **not** bit-identical to libm's (~4 % of
    draws differ in the last ulp).  ``touched``, when given, receives
    each fold's edges as a ``(slot, row)`` array pair: the lane slots
    (``index − base``) and the symbol rows (of this call's columns)
    folded there.  Once fewer than :data:`NUMPY_TAIL_JOBS` walks are
    live, :func:`_walk_tail_scalar` finishes them per edge (walks are
    independent, so the hand-off point cannot change the result).
    """
    np = engine.np
    if sums.shape[1] == 1:
        # One lane: fold 1-D vectors (same ufunc calls, no row axis).
        sums = sums[:, 0]
        vals = vals[:, 0]
    rows = (idx < hi).nonzero()[0]
    n = rows.size
    pos = idx[rows].astype(np.float64)
    st = state[rows]
    al = alphas[rows] if alphas is not None else None
    if al is not None and not (al != DEFAULT_ALPHA).any():
        al = None  # all-regular batch: no element-wise pass
    if n >= NUMPY_TAIL_JOBS:  # the rounds' work buffers
        z, t, live = np.empty(n, np.uint64), np.empty(n, np.uint64), np.empty(n, bool)
        a, b, h = np.empty(n), np.empty(n), np.empty(n)
        slot_type = _slot_type(len(checksums))  # slots index the lanes
    edges, held = [], 0
    room = sum(x.nbytes for x in (sums, checksums, counts, idx, state))

    def fold():
        slot, edge_rows = map(np.concatenate, zip(*edges)) if edges[1:] else edges[0]
        fold_edges(sums, checksums, counts, slot, edge_rows, vals, csums, dirs)
        if touched is not None:
            touched.append((slot, edge_rows))
        edges.clear()

    while n >= NUMPY_TAIL_JOBS:
        zz, tt, aa, bb, hh, lv = z[:n], t[:n], a[:n], b[:n], h[:n], live[:n]
        slot = (np.subtract(pos, base, out=hh) if base else pos).astype(slot_type)
        if edges and held + slot.nbytes + rows.nbytes > room:
            fold()
            held = 0
        edges.append((slot, rows))
        held += slot.nbytes + rows.nbytes
        np.add(st, GAMMA, out=st)
        mix64_lanes(st, zz, tt)
        np.right_shift(zz, 11, out=zz)
        np.copyto(aa, zz.view(np.int64), casting="unsafe")
        np.multiply(aa, INV_2_53, out=aa)  # r
        if al is not None:  # generic-α gaps, element-wise
            powed = np.flatnonzero(al != DEFAULT_ALPHA)
            cols = (v[powed].tolist() for v in (aa, pos, al))
            gaps = [(f + 1.0) * ((1.0 - r) ** -x - 1.0) for r, f, x in zip(*cols)]
        if al is None or powed.size < n:
            # sqrt(half² + r·(i+1)·(i+2)/(1−r)) − half, half = i + 1.5
            np.add(pos, 1.0, out=bb)
            np.multiply(aa, bb, out=bb)
            np.add(pos, 2.0, out=hh)
            np.multiply(bb, hh, out=bb)
            np.subtract(1.0, aa, out=aa)
            np.divide(bb, aa, out=bb)
            np.add(pos, 1.5, out=hh)
            np.multiply(hh, hh, out=aa)
            np.add(aa, bb, out=aa)
            np.sqrt(aa, out=aa)
            np.subtract(aa, hh, out=aa)
        if al is not None:
            aa[powed] = gaps
        np.ceil(aa, out=aa)
        np.maximum(aa, 1.0, out=aa)
        np.add(pos, aa, out=aa)  # the next index of every live walk
        np.less(aa, min(hi, MAX_INDEX + 1), out=lv)  # the unit-step limit
        if lv.all():
            pos, a = aa, pos
            continue
        out = np.flatnonzero(~lv)
        far = out[aa[out] > MAX_INDEX]
        aa[far] = pos[far] + 1.0
        lv[far] = aa[far] < hi
        out = out[~lv[out]]
        idx[rows[out]] = aa[out]
        state[rows[out]] = st[out]
        keep = np.flatnonzero(lv)
        rows, pos, st = rows[keep], aa[keep], st[keep]
        al = None if al is None else al[keep]
        n = rows.size
    if n:  # every straggler crosses at least one edge
        tail = _walk_tail_scalar(rows, pos, st, al, hi)
        walked, walked_rows, idx[rows], state[rows] = tail
        edges.append((walked - base, walked_rows))
    if edges:
        fold()
    return idx, state


def _slot_type(span: int):
    """int16 for slots below ``span`` if they fit: NumPy radix-sorts only ≤16-bit ints."""
    return engine.np.int16 if span <= 0x8000 else engine.np.int64


def fold_edges(sums, checksums, counts, slot, rows, vals, csums, dirs) -> None:
    """The fixed-position scatter: XOR/add one batch of edges into the
    lanes.  Edge ``e`` folds source row ``rows[e]`` of ``vals``/``csums``
    into lane slot ``slot[e]`` (``slot`` non-empty) with count ``dirs``:
    one int for every edge (encoder walks, churn patches, table fills) or
    a per-row column (the decoder's mixed-direction jobs).  ``rows`` may
    be a slice, read as a view with no gather.  One scatter walk is one
    call, all its rounds together; so is one hash row of a fixed IBLT
    table (:func:`fold_items`).

    Buffered fancy indexing drops colliding slots, so batches with
    duplicates segment-reduce instead: group equal slots (stable radix
    argsort) and fold each group with ``reduceat`` along the row axis —
    XOR and integer add are commutative, so the fold order inside a
    group cannot change the result, and one int direction folds a
    group's count from its length.  All three forms below are exact (an
    unbuffered ufunc scatter would be too, but runs an order of
    magnitude slower).  ``sums``/``vals`` are ``(·, k)`` matrices, or
    1-D for the one-lane case; every call is shape-agnostic (``axis=0``).
    """
    np = engine.np
    one = isinstance(dirs, int)
    key = slot.astype(_slot_type(len(checksums)), copy=False)
    perm = key.argsort(kind="stable")
    ss = key[perm]
    if ss[0] == ss[-1]:
        # One shared cell (always round 0 of a fresh walk, where every
        # symbol maps to index 0): fold the whole batch.
        cell = int(ss[0])
        sums[cell] ^= np.bitwise_xor.reduce(vals[rows], axis=0)
        checksums[cell] ^= np.bitwise_xor.reduce(csums[rows])
        counts[cell] += dirs * slot.size if one else dirs[rows].sum()
        return
    first = np.empty(ss.size + 1, dtype=bool)  # segment starts, then the end
    first[0] = first[-1] = True
    np.not_equal(ss[1:], ss[:-1], out=first[1:-1])
    if first.all():
        sums[slot] ^= vals[rows]
        checksums[slot] ^= csums[rows]
        counts[slot] += dirs if one else dirs[rows]
        return
    bounds = np.flatnonzero(first)
    seg = bounds[:-1]
    uniq = ss[seg]
    rows = perm + rows.start if isinstance(rows, slice) else rows[perm]
    sums[uniq] ^= np.bitwise_xor.reduceat(vals.take(rows, axis=0), seg, axis=0)
    checksums[uniq] ^= np.bitwise_xor.reduceat(csums[rows], seg)
    if one:
        counts[uniq] += dirs * (bounds[1:] - seg)
    else:
        counts[uniq] += np.add.reduceat(dirs[rows], seg)


def fold_items(
    codec: "SymbolCodec",
    items: Sequence[bytes],
    size: int,
    edge_batches: Callable,
) -> Optional[CodedSymbolBank]:
    """Fold a batch of items into a fresh ``size``-cell bank at fixed
    positions — the table build of the IBLT baselines, on the same
    kernel as the rateless walks.

    ``edge_batches(checksums)`` receives the items' keyed checksums as a
    uint64 vector and yields ``(rows, slots)`` int64 array pairs: item
    ``rows[e]`` lands in cell ``slots[e]``.  Returns ``None`` when the
    vector engine declines (switched off, a symbol past the lane cut,
    fewer than :data:`NUMPY_MIN_JOBS` items); the caller's per-item
    loop is then the engine, and builds the identical table.
    """
    if len(items) < NUMPY_MIN_JOBS or not numpy_block_eligible(codec):
        return None
    np = engine.np
    vals = lanes_from_bytes(items, codec.symbol_size)
    csums = np.array(codec.checksum_batch(items), dtype=np.uint64)
    sums = np.zeros((size, vals.shape[1]), dtype=np.uint64)
    checksums = np.zeros(size, dtype=np.uint64)
    counts = np.zeros(size, dtype=np.int64)
    # One lane folds as 1-D vectors, as in scatter_walk_arrays.
    fold_sums, fold_vals = (sums[:, 0], vals[:, 0]) if vals.shape[1] == 1 else (sums, vals)
    for rows, slots in edge_batches(csums):
        if rows.size:
            fold_edges(fold_sums, checksums, counts, slots, rows, fold_vals, csums, 1)
    return CodedSymbolBank(sums, checksums, counts).in_form(False)


def _unit_draws(seeds, done: int, count: int) -> list[list[float]]:
    """Splitmix64 draws ``done + 1 … done + count`` of each uint64 seed as
    one list of unit floats ``r`` per seed: draw ``s`` of a stream seeded
    ``x`` is the finaliser of ``x + s·GAMMA``, so this is one vector call."""
    np = engine.np
    steps = np.arange(done + 1, done + count + 1, dtype=np.uint64)
    mixed = mix64_lanes(seeds[:, None] + steps * np.uint64(GAMMA))
    return ((mixed >> np.uint64(11)) * INV_2_53).tolist()


def _walk_tail_scalar(rows, pos, st, al, hi: int):
    """Per-edge finisher for :func:`scatter_walk_arrays` stragglers: walk
    symbol ``rows[j]`` from ``(pos[j], st[j])`` to its first index ≥ ``hi``.

    One :func:`_unit_draws` call draws every walk twice the slowest one's
    expected remaining α = 0.5 degree (§4.1.2: about 2·ln((hi+2)/(i+2))
    edges from index ``i``); a walk that outruns its draws (small §8 α)
    doubles them.  Per edge, Python runs only the float inverse-CDF step;
    a walk of ``s`` steps parks at ``state = st[j] + s·GAMMA``.  Returns
    the edges crossed as ``(index, row)`` arrays for one :func:`fold_edges`
    call, and the parked ``(idx, state)`` per symbol.
    """
    np = engine.np
    sqrt, ceil = math.sqrt, math.ceil
    ends = pos.astype(np.int64).tolist()
    chunk = 2 + 2 * ceil(2.0 * math.log((hi + 2.0) / (min(ends) + 2.0)))
    draws = _unit_draws(st, 0, chunk)
    alphas = al.tolist() if al is not None else [DEFAULT_ALPHA] * rows.size
    edge_idx, edge_rows, steps = [], [], []  # steps: draws taken per walk
    walks = zip(rows.tolist(), ends, alphas, draws)
    for j, (row, i, alpha, rs) in enumerate(walks):
        k = 0
        while i < hi:
            edge_idx.append(i)
            if k == len(rs):  # double this walk's draws
                rs += _unit_draws(st[j : j + 1], k, k)[0]
            r = rs[k]
            k += 1
            if alpha == DEFAULT_ALPHA:
                half = i + 1.5
                gap = sqrt(half * half + r * (i + 1.0) * (i + 2.0) / (1.0 - r)) - half
            else:
                gap = (i + 1.0) * ((1.0 - r) ** -alpha - 1.0)
            step = ceil(gap)
            if step < 1:
                step = 1
            nxt = i + step
            i = i + 1 if nxt > MAX_INDEX else nxt
        edge_rows += [row] * k
        ends[j] = i
        steps.append(k)
    edges = np.array([edge_idx, edge_rows], dtype=np.int64)
    parked = st + np.array(steps, dtype=np.uint64) * np.uint64(GAMMA)
    return edges[0], edges[1], ends, parked
