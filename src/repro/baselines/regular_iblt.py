"""Regular (fixed-size) Invertible Bloom Lookup Tables — paper §3.

Each item is hashed into ``k`` cells, one per sub-table (the partitioned
construction guarantees the k cells are distinct).  Tables of identical
geometry subtract cell-wise into the table of the symmetric difference,
which decodes by peeling exactly like the rateless variant.

Regular IBLTs are the *non-rateless* baseline: the table size ``m`` must
be provisioned for the difference size ``d`` in advance.  Appendix A of
the paper proves the two failure modes we also exercise in tests:
``m < d`` decodes nothing (w.h.p.), and decoding from a truncated prefix
fails exponentially fast in the dropped fraction.

Cell layout on the wire follows the paper's evaluation setup: ℓ bytes of
sum + 8 bytes of checksum + 8 bytes of count.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

from repro.core.cellbank import NUMPY_MIN_JOBS, numpy_lane_eligible
from repro.core.coded import CodedSymbol
from repro.core.decoder import DecodeResult
from repro.core.symbols import SymbolCodec
from repro.hashing.prng import mix64

# Fixed wire width of one cell beyond the ℓ-byte sum (§7.1 setup:
# "allocate 8 bytes for the checksum and the count fields, respectively").
CELL_OVERHEAD_BYTES = 16

# Golden-ratio increment, used to derive the k per-row hash functions from
# one 64-bit base hash.
_ROW_SALT = 0x9E3779B97F4A7C15
_MASK = 0xFFFFFFFFFFFFFFFF


class RegularIBLT:
    """A fixed-geometry IBLT with ``m`` cells split into ``k`` sub-tables."""

    def __init__(self, num_cells: int, codec: SymbolCodec, hash_count: int = 3) -> None:
        if hash_count < 2:
            raise ValueError("hash_count must be at least 2")
        if num_cells < hash_count:
            raise ValueError("need at least one cell per sub-table")
        self.codec = codec
        self.hash_count = hash_count
        # Round down to a multiple of k so sub-tables are equal-sized.
        self.subtable_size = num_cells // hash_count
        self.num_cells = self.subtable_size * hash_count
        self.cells = [CodedSymbol() for _ in range(self.num_cells)]

    # -- geometry -----------------------------------------------------------

    def _positions(self, checksum: int) -> list[int]:
        """The k distinct cells an item with this checksum occupies."""
        positions = []
        sub = self.subtable_size
        for row in range(self.hash_count):
            row_hash = mix64((checksum + row * _ROW_SALT) & _MASK)
            positions.append(row * sub + row_hash % sub)
        return positions

    def wire_size(self) -> int:
        """Serialised size in bytes under the §7.1 accounting."""
        return self.num_cells * (self.codec.symbol_size + CELL_OVERHEAD_BYTES)

    def same_geometry(self, other: "RegularIBLT") -> bool:
        """True when two tables can be subtracted."""
        return (
            self.num_cells == other.num_cells
            and self.hash_count == other.hash_count
            and self.codec.compatible_with(other.codec)
        )

    # -- construction ---------------------------------------------------------

    def insert(self, data: bytes) -> None:
        """Add one item to the table."""
        self.insert_value(self.codec.to_int(data))

    def insert_value(self, value: int) -> None:
        """Add one item given in integer form."""
        checksum = self.codec.checksum_int(value)
        for pos in self._positions(checksum):
            self.cells[pos].apply(value, checksum, 1)

    def delete(self, data: bytes) -> None:
        """Remove one item (XOR is self-inverse)."""
        self.delete_value(self.codec.to_int(data))

    def delete_value(self, value: int) -> None:
        """Remove one item (XOR is self-inverse)."""
        checksum = self.codec.checksum_int(value)
        for pos in self._positions(checksum):
            self.cells[pos].apply(value, checksum, -1)

    @classmethod
    def from_items(
        cls,
        items: Iterable[bytes],
        num_cells: int,
        codec: SymbolCodec,
        hash_count: int = 3,
    ) -> "RegularIBLT":
        """Build a table from a batch of items.

        Large batches of narrow symbols ride the vectorised ingestion
        pipeline: one batch keyed-hash call, the k per-row positions as
        ``mix64`` lane arithmetic, and one unbuffered scatter per row —
        bit-identical to the per-item reference loop below.
        """
        table = cls(num_cells, codec, hash_count)
        datas = items if isinstance(items, list) else list(items)
        # One uint64 value vector: narrower than the core's lane matrix.
        if (
            len(datas) >= NUMPY_MIN_JOBS
            and codec.symbol_size <= 8
            and numpy_lane_eligible(codec)
        ):
            import numpy as np

            from repro.hashing.prng import mix64_lanes

            values = np.array(codec.to_int_batch(datas), dtype=np.uint64)
            checksums = np.array(codec.checksum_batch(datas), dtype=np.uint64)
            sums = np.zeros(table.num_cells, dtype=np.uint64)
            cell_checksums = np.zeros(table.num_cells, dtype=np.uint64)
            counts = np.zeros(table.num_cells, dtype=np.int64)
            sub = np.uint64(table.subtable_size)
            with np.errstate(over="ignore"):
                for row in range(hash_count):
                    salted = checksums + np.uint64((row * _ROW_SALT) & _MASK)
                    pos = (
                        np.uint64(row) * sub + mix64_lanes(salted) % sub
                    ).astype(np.int64)
                    np.bitwise_xor.at(sums, pos, values)
                    np.bitwise_xor.at(cell_checksums, pos, checksums)
                    np.add.at(counts, pos, 1)
            table.cells = [
                CodedSymbol(s, k, c)
                for s, k, c in zip(
                    sums.tolist(), cell_checksums.tolist(), counts.tolist()
                )
            ]
            return table
        for item in datas:
            table.insert(item)
        return table

    # -- linearity -------------------------------------------------------------

    def subtract(self, other: "RegularIBLT") -> "RegularIBLT":
        """Cell-wise difference; decodes to the symmetric difference."""
        if not self.same_geometry(other):
            raise ValueError("IBLTs have different geometry and cannot be subtracted")
        out = RegularIBLT(self.num_cells, self.codec, self.hash_count)
        out.cells = [a.subtract(b) for a, b in zip(self.cells, other.cells)]
        return out

    # -- decoding ---------------------------------------------------------------

    def decode(self, prefix_cells: Optional[int] = None) -> DecodeResult:
        """Peel the (already subtracted) table.

        ``prefix_cells`` restricts decoding to the first cells only —
        used to reproduce Theorem A.2's truncation experiment.  The table
        is not mutated.
        """
        limit = (
            self.num_cells
            if prefix_cells is None
            else min(prefix_cells, self.num_cells)
        )
        cells = [cell.copy() for cell in self.cells[:limit]]
        codec = self.codec
        queue = deque(
            idx for idx, cell in enumerate(cells) if cell.count in (1, -1)
        )
        remote: list[int] = []
        local: list[int] = []
        seen: set[int] = set()
        while queue:
            idx = queue.popleft()
            cell = cells[idx]
            direction = cell.count
            if direction != 1 and direction != -1:
                continue
            checksum = cell.checksum
            if codec.checksum_int(cell.sum) != checksum:
                continue
            if checksum in seen:
                continue
            value = cell.sum
            seen.add(checksum)
            if direction == 1:
                remote.append(value)
            else:
                local.append(value)
            for pos in self._positions(checksum):
                if pos >= limit:
                    continue
                target = cells[pos]
                target.apply(value, checksum, -direction)
                if target.count in (1, -1):
                    queue.append(pos)
        success = all(cell.is_zero() for cell in cells)
        return DecodeResult(
            success=success,
            remote=[codec.to_bytes(v) for v in remote],
            local=[codec.to_bytes(v) for v in local],
            symbols_used=limit,
        )


# --- provisioning -------------------------------------------------------------
#
# Overhead multipliers m/d for k = 3 such that the decode failure rate is
# below ~1/3000 (the criterion used for Fig 7), calibrated with
# scripts embedded in benchmarks/bench_fig07_comm_overhead.py.  Small
# differences need proportionally much larger tables — the effect the
# paper reports as 4-10x overhead for small d.

_MULTIPLIER_TABLE: list[tuple[int, float]] = [
    (1, 15.0),
    (2, 10.0),
    (3, 8.0),
    (5, 6.6),
    (10, 5.0),
    (20, 3.6),
    (50, 2.7),
    (100, 2.25),
    (200, 1.95),
    (400, 1.75),
    (1000, 1.6),
    (10000, 1.45),
    (100000, 1.4),
]


def recommended_cells(difference_size: int, hash_count: int = 3) -> int:
    """Table size for a *known* difference size (failure rate ≲ 1/3000).

    Piecewise-geometric interpolation of the calibrated multiplier table.
    """
    if difference_size < 1:
        raise ValueError("difference size must be at least 1")
    d = difference_size
    table = _MULTIPLIER_TABLE
    if d >= table[-1][0]:
        mult = table[-1][1]
    else:
        mult = table[0][1]
        for (d0, m0), (d1, m1) in zip(table, table[1:]):
            if d0 <= d <= d1:
                # interpolate multiplier in log(d)
                import math

                t = (math.log(d) - math.log(d0)) / (math.log(d1) - math.log(d0))
                mult = m0 + t * (m1 - m0)
                break
    cells = max(hash_count * 2, int(round(d * mult)))
    # round up to a multiple of k
    return ((cells + hash_count - 1) // hash_count) * hash_count
