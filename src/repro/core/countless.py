"""Count-free Rateless IBLT decoding (paper §7.1, "Scalability").

The peeling decoder never *needs* the ``count`` field: a cell is pure
exactly when ``checksum == H(sum)`` (up to a negligible collision
probability), and whether a recovered item belongs to Alice or Bob can be
settled by a membership probe against Bob's own set.  Dropping ``count``
from the wire saves its ≈1 byte/cell — material when items are short.

This module provides the count-free decoder plus the slimmer wire codec
(sum ∥ checksum only).  The encoder is unchanged: cells carry counts
internally; they are simply not transmitted.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Optional

from repro.core.cellbank import pack_records, unpack_records
from repro.core.coded import CodedSymbol
from repro.core.decoder import DecodeResult
from repro.core.encoder import SourceStore
from repro.core.mapping import IndexGenerator
from repro.core.symbols import SymbolCodec


class CountlessDecoder:
    """Peels a subtracted stream whose cells carry no ``count`` field.

    ``is_local`` decides the side of a recovered item (e.g. membership in
    Bob's set).  Purity is checked solely via the checksum; peeling XORs
    symbols out without any count bookkeeping.  Recovered symbols are
    :class:`~repro.core.encoder.SourceStore` rows, as the decoder's are.
    """

    def __init__(
        self, codec: SymbolCodec, is_local: Callable[[bytes], bool]
    ) -> None:
        self.codec = codec
        self.is_local = is_local
        self._cells: list[CodedSymbol] = []
        self._store = SourceStore(codec)
        self._walk = IndexGenerator(0)
        self._queue: deque[int] = deque()
        self._remote: list[int] = []
        self._local: list[int] = []
        self._seen: set[int] = set()
        self._nonzero = 0

    @property
    def symbols_received(self) -> int:
        return len(self._cells)

    @property
    def decoded(self) -> bool:
        """All received cells zeroised (count excluded — it is unknown)."""
        return bool(self._cells) and self._nonzero == 0

    @staticmethod
    def _content_zero(cell: CodedSymbol) -> bool:
        return cell.sum == 0 and cell.checksum == 0

    def add_coded_symbol(self, cell: CodedSymbol) -> None:
        """Consume the next subtracted cell (count field ignored)."""
        index = len(self._cells)
        rec_sum, rec_checksum, _ = self._store.fold(index, self._walk)
        cell.sum ^= rec_sum
        cell.checksum ^= rec_checksum
        self._cells.append(cell)
        if not self._content_zero(cell):
            self._nonzero += 1
            self._queue.append(index)
            self._peel()

    def _peel(self) -> None:
        queue = self._queue
        cells = self._cells
        codec = self.codec
        while queue:
            index = queue.popleft()
            cell = cells[index]
            if self._content_zero(cell):
                continue
            checksum = cell.checksum
            if codec.checksum_int(cell.sum) != checksum:
                continue  # not pure yet
            if checksum in self._seen:
                continue
            value = cell.sum
            self._seen.add(checksum)
            if self.is_local(codec.to_bytes(value)):
                self._local.append(value)
            else:
                self._remote.append(value)
            gen = codec.new_mapping(checksum)
            frontier = len(cells)
            idx = 0
            while idx < frontier:
                target = cells[idx]
                was_zero = self._content_zero(target)
                target.sum ^= value
                target.checksum ^= checksum
                now_zero = self._content_zero(target)
                if now_zero and not was_zero:
                    self._nonzero -= 1
                elif not now_zero:
                    if was_zero:
                        self._nonzero += 1
                    queue.append(idx)
                idx = gen.next_index()
            store = self._store
            alphas = store.alphas_for([checksum])
            store.append([value], [checksum], alphas, ([idx], [gen.state]))

    def remote_items(self) -> list[bytes]:
        """Items the sender has and we lack."""
        return [self.codec.to_bytes(v) for v in self._remote]

    def local_items(self) -> list[bytes]:
        """Items we hold exclusively."""
        return [self.codec.to_bytes(v) for v in self._local]

    def result(self) -> DecodeResult:
        return DecodeResult(
            success=self.decoded,
            remote=self.remote_items(),
            local=self.local_items(),
            symbols_used=len(self._cells),
        )


# --- count-free wire codec ------------------------------------------------------


def countless_cell_bytes(codec: SymbolCodec) -> int:
    """Wire size of one count-free cell: ℓ + checksum width."""
    return codec.symbol_size + codec.checksum_size


def encode_countless(codec: SymbolCodec, cells: Iterable[CodedSymbol]) -> bytes:
    """Serialise cells without their count field."""
    cells = list(cells)
    return pack_records(
        ([cell.sum for cell in cells], [cell.checksum for cell in cells]),
        (codec.symbol_size, codec.checksum_size),
    )


def decode_countless(codec: SymbolCodec, data: bytes) -> list[CodedSymbol]:
    """Parse a count-free stream; counts come back as 0 (unknown)."""
    sums, checksums = unpack_records(data, (codec.symbol_size, codec.checksum_size))
    return [CodedSymbol(value, checksum, 0) for value, checksum in zip(sums, checksums)]


def reconcile_countless(
    alice_items: Iterable[bytes],
    bob_items: Iterable[bytes],
    codec: SymbolCodec,
    max_symbols: Optional[int] = None,
) -> DecodeResult:
    """Full count-free reconciliation (Bob probes his own set for sides)."""
    from repro.core.encoder import RatelessEncoder

    bob_set = set(bob_items)
    alice = RatelessEncoder(codec, alice_items)
    bob = RatelessEncoder(codec, bob_set)
    decoder = CountlessDecoder(codec, is_local=bob_set.__contains__)
    while not decoder.decoded:
        if max_symbols is not None and decoder.symbols_received >= max_symbols:
            break
        remote = alice.produce_next()
        local = bob.produce_next()
        cell = CodedSymbol(
            remote.sum ^ local.sum, remote.checksum ^ local.checksum, 0
        )
        decoder.add_coded_symbol(cell)
    return decoder.result()
