"""The fixed IBLT cell table the non-rateless baselines share (paper §3).

A Rateless IBLT coded symbol *is* a regular IBLT cell — ``(sum,
checksum, count)``, peeled the same way; only the mapping from an item
to its cells differs (§3–§4).  :class:`CellTable` is everything about a
fixed table that does not depend on that mapping: insert/delete,
cell-wise subtraction, the batch build (on the shared
:func:`~repro.core.cellbank.fold_items` kernel, per-item when it
declines) and the peeling decoder.  A scheme subclasses it with its
geometry: :meth:`CellTable.positions` and its array twin
:meth:`CellTable._edge_batches`.
"""

from __future__ import annotations

import copy
from collections import deque
from typing import Iterable, Iterator

from repro.core.cellbank import CodedSymbolBank, fold_items
from repro.core.coded import CodedSymbol
from repro.core.decoder import DecodeResult
from repro.core.symbols import SymbolCodec

# Fixed wire width of one cell beyond the ℓ-byte sum (§7.1 setup:
# "allocate 8 bytes for the checksum and the count fields, respectively").
CELL_OVERHEAD_BYTES = 16


class CellTable:
    """``num_cells`` IBLT cells plus the item → cells mapping of a scheme."""

    def __init__(self, codec: SymbolCodec, num_cells: int) -> None:
        self.codec = codec
        self.num_cells = num_cells
        self.bank = CodedSymbolBank.zeros(num_cells)

    @property
    def cells(self) -> list[CodedSymbol]:
        """Read-only value snapshot of the cells."""
        return self.bank.cells()

    def with_bank(self, bank: CodedSymbolBank) -> "CellTable":
        """A table of this geometry over ``bank`` (held, not copied)."""
        if len(bank) != self.num_cells:
            raise ValueError(f"expected {self.num_cells} cells, got {len(bank)}")
        out = copy.copy(self)
        out.bank = bank
        return out

    # -- geometry (the subclass contract) ----------------------------------

    def positions(self, checksum: int, limit: int) -> list[int]:
        """The distinct cells below ``limit`` an item with this checksum
        occupies (``limit`` is the decodable prefix in use)."""
        raise NotImplementedError

    def _edge_batches(self, checksums) -> Iterator[tuple]:
        """:meth:`positions` of a whole batch over the full table, for
        :func:`~repro.core.cellbank.fold_items`: ``(rows, slots)`` int64
        array pairs from the uint64 ``checksums`` vector."""
        raise NotImplementedError

    def _geometry(self) -> object:
        """Whatever must be equal for two tables to subtract."""
        raise NotImplementedError

    def same_geometry(self, other: "CellTable") -> bool:
        """True when two tables can be subtracted."""
        return (
            type(self) is type(other)
            and self._geometry() == other._geometry()
            and self.codec.compatible_with(other.codec)
        )

    def _wire_size(self, cells: int) -> int:
        """Bytes for ``cells`` cells under the §7.1 accounting."""
        return cells * (self.codec.symbol_size + CELL_OVERHEAD_BYTES)

    # -- construction ------------------------------------------------------

    def insert(self, data: bytes) -> None:
        """Add one item to the table."""
        self.insert_value(self.codec.to_int(data))

    def insert_value(self, value: int) -> None:
        """Add one item given in integer form."""
        self._apply(value, 1)

    def delete(self, data: bytes) -> None:
        """Remove one item (XOR is self-inverse)."""
        self.delete_value(self.codec.to_int(data))

    def delete_value(self, value: int) -> None:
        """Remove one item given in integer form."""
        self._apply(value, -1)

    def _apply(self, value: int, direction: int) -> None:
        checksum = self.codec.checksum_int(value)
        self.bank.apply_batch(
            value, checksum, direction, self.positions(checksum, self.num_cells)
        )

    def filled(self, items: Iterable[bytes]) -> "CellTable":
        """Fold a batch of items into this (empty) table; returns it.
        Both engines build the identical table."""
        datas = items if isinstance(items, list) else list(items)
        bank = fold_items(self.codec, datas, self.num_cells, self._edge_batches)
        if bank is not None:
            self.bank = bank
        else:
            for item in datas:
                self.insert(item)
        return self

    # -- linearity ---------------------------------------------------------

    def subtract(self, other: "CellTable") -> "CellTable":
        """Cell-wise difference; decodes to the symmetric difference."""
        if not self.same_geometry(other):
            raise ValueError("tables have different geometry and cannot be subtracted")
        return self.with_bank(self.bank.subtract(other.bank))

    # -- decoding ----------------------------------------------------------

    def _peel(self, limit: int) -> DecodeResult:
        """Peel the first ``limit`` cells of the (already subtracted)
        table; the table is not mutated."""
        work = self.bank.slice(0, limit)
        sums, checksums, counts = work.sums, work.checksums, work.counts
        codec = self.codec
        queue = deque(idx for idx, count in enumerate(counts) if count in (1, -1))
        remote: list[int] = []
        local: list[int] = []
        seen: set[int] = set()
        while queue:
            idx = queue.popleft()
            direction = counts[idx]
            if direction != 1 and direction != -1:
                continue
            checksum = checksums[idx]
            value = sums[idx]
            if codec.checksum_int(value) != checksum:
                continue
            if checksum in seen:
                continue
            seen.add(checksum)
            (remote if direction == 1 else local).append(value)
            positions = self.positions(checksum, limit)
            work.apply_batch(value, checksum, -direction, positions)
            queue.extend(pos for pos in positions if counts[pos] in (1, -1))
        return DecodeResult(
            success=work.is_all_zero(),
            remote=[codec.to_bytes(v) for v in remote],
            local=[codec.to_bytes(v) for v in local],
            symbols_used=limit,
        )
