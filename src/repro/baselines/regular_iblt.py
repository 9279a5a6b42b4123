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
sum + 8 bytes of checksum + 8 bytes of count.  Everything but the
geometry — insert/delete, subtraction, the batch build and the peel —
is the shared :class:`~repro.baselines.table.CellTable`.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Optional

from repro import engine
from repro.baselines.table import CellTable
from repro.core.decoder import DecodeResult
from repro.core.symbols import SymbolCodec
from repro.hashing.prng import mix64, mix64_lanes

# Golden-ratio increment, used to derive the k per-row hash functions from
# one 64-bit base hash.
_ROW_SALT = 0x9E3779B97F4A7C15
_MASK = 0xFFFFFFFFFFFFFFFF


class RegularIBLT(CellTable):
    """A fixed-geometry IBLT with ``m`` cells split into ``k`` sub-tables."""

    def __init__(self, num_cells: int, codec: SymbolCodec, hash_count: int = 3) -> None:
        if hash_count < 2:
            raise ValueError("hash_count must be at least 2")
        if num_cells < hash_count:
            raise ValueError("need at least one cell per sub-table")
        self.hash_count = hash_count
        # Round down to a multiple of k so sub-tables are equal-sized.
        self.subtable_size = num_cells // hash_count
        super().__init__(codec, self.subtable_size * hash_count)

    # -- geometry -----------------------------------------------------------

    def positions(self, checksum: int, limit: int) -> list[int]:
        """The k distinct cells (one per sub-table) of an item, below
        ``limit``."""
        sub = self.subtable_size
        positions = []
        for row in range(self.hash_count):
            pos = row * sub + mix64((checksum + row * _ROW_SALT) & _MASK) % sub
            if pos < limit:
                positions.append(pos)
        return positions

    def _edge_batches(self, checksums) -> Iterator[tuple]:
        np = engine.np
        rows = np.arange(checksums.shape[0])
        sub = np.uint64(self.subtable_size)
        for row in range(self.hash_count):
            salted = checksums + np.uint64((row * _ROW_SALT) & _MASK)
            yield rows, (np.uint64(row) * sub + mix64_lanes(salted) % sub).astype(np.int64)

    def _geometry(self) -> object:
        return self.num_cells, self.hash_count

    def wire_size(self) -> int:
        """Serialised size in bytes under the §7.1 accounting."""
        return self._wire_size(self.num_cells)

    @classmethod
    def from_items(
        cls,
        items: Iterable[bytes],
        num_cells: int,
        codec: SymbolCodec,
        hash_count: int = 3,
    ) -> "RegularIBLT":
        """Build a table from a batch of items."""
        return cls(num_cells, codec, hash_count).filled(items)

    def decode(self, prefix_cells: Optional[int] = None) -> DecodeResult:
        """Peel the (already subtracted) table.

        ``prefix_cells`` restricts decoding to the first cells only —
        used to reproduce Theorem A.2's truncation experiment.  The table
        is not mutated.
        """
        if prefix_cells is None:
            return self._peel(self.num_cells)
        return self._peel(min(prefix_cells, self.num_cells))


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
                t = (math.log(d) - math.log(d0)) / (math.log(d1) - math.log(d0))
                mult = m0 + t * (m1 - m0)
                break
    cells = max(hash_count * 2, int(round(d * mult)))
    # round up to a multiple of k
    return ((cells + hash_count - 1) // hash_count) * hash_count
