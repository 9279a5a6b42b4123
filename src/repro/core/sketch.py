"""Fixed-length sketches: any prefix of the infinite coded sequence.

A :class:`RatelessSketch` of size ``m`` is exactly the first ``m`` coded
symbols of a set, held as a :class:`~repro.core.cellbank.CodedSymbolBank`.
Sketches of equal size under compatible codecs can be subtracted
cell-wise; by linearity (§4.1) the result is the sketch of the symmetric
difference, which decodes with the standard peeling decoder.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.core.cellbank import CodedSymbolBank
from repro.core.coded import CodedSymbol
from repro.core.decoder import DecodeResult, RatelessDecoder
from repro.core.encoder import RatelessEncoder
from repro.core.symbols import SymbolCodec


class RatelessSketch:
    """The first ``m`` coded symbols of a set, with linear subtraction."""

    __slots__ = ("codec", "bank", "set_size")

    def __init__(
        self, codec: SymbolCodec, bank: CodedSymbolBank, set_size: int = 0
    ) -> None:
        self.codec = codec
        self.bank = bank.in_form(False)  # the per-cell add/remove indexes it
        self.set_size = set_size

    @classmethod
    def from_items(
        cls, items: Iterable[bytes], size: int, codec: SymbolCodec
    ) -> "RatelessSketch":
        """Encode ``items`` into the first ``size`` coded symbols: the
        first block a :class:`~repro.core.encoder.RatelessEncoder` of
        the same set produces (distinct items, as any set has).
        """
        datas = items if isinstance(items, list) else list(items)
        bank = RatelessEncoder(codec, datas).produce_block(size)
        return cls(codec, bank, set_size=len(datas))

    @classmethod
    def zero(cls, size: int, codec: SymbolCodec) -> "RatelessSketch":
        """The sketch of the empty set."""
        return cls(codec, CodedSymbolBank.zeros(size), set_size=0)

    # -- linear algebra ----------------------------------------------------

    def subtract(self, other: "RatelessSketch") -> "RatelessSketch":
        """Cell-wise ``self ⊖ other`` → sketch of the symmetric difference."""
        if not self.codec.compatible_with(other.codec):
            raise ValueError("sketches built with incompatible codecs")
        return RatelessSketch(self.codec, self.bank.subtract(other.bank), set_size=0)

    def _apply(self, data: bytes, direction: int) -> None:
        value = self.codec.to_int(data)
        checksum = self.codec.checksum_int(value)
        indices = self.codec.new_mapping(checksum).indices_below(len(self.bank))
        self.bank.apply_batch(value, checksum, direction, indices)
        self.set_size += direction

    def add_item(self, data: bytes) -> None:
        """Fold one more item into this sketch in place (linearity)."""
        self._apply(data, 1)

    def remove_item(self, data: bytes) -> None:
        """Peel one item back out of this sketch in place."""
        self._apply(data, -1)

    def truncated(self, size: int) -> "RatelessSketch":
        """A shorter prefix of this sketch (prefixes nest, Fig 3)."""
        if size > len(self.bank):
            raise ValueError(
                f"cannot truncate a {len(self.bank)}-cell sketch to {size} cells"
            )
        return RatelessSketch(self.codec, self.bank.slice(0, size), self.set_size)

    # -- decoding ------------------------------------------------------------

    def decode(self) -> DecodeResult:
        """Peel this (already subtracted) sketch; cells are not mutated.

        Fed cell by cell and stopped at the first cell that completes
        decoding, so ``symbols_used`` reports the consumed prefix exactly.
        """
        decoder = RatelessDecoder(self.codec)
        for cell in self.bank:
            decoder.add_coded_symbol(cell)
            if decoder.decoded:
                break
        return decoder.result()

    # -- container protocol ---------------------------------------------------

    @property
    def cells(self) -> list[CodedSymbol]:
        """Read-only value snapshot of the cells."""
        return self.bank.cells()

    def __len__(self) -> int:
        return len(self.bank)

    def __iter__(self) -> Iterator[CodedSymbol]:
        return iter(self.bank)

    def __getitem__(self, index: int) -> CodedSymbol:
        return self.bank.cell_at(index)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatelessSketch):
            return NotImplemented
        return self.bank == other.bank

    def __repr__(self) -> str:
        return f"RatelessSketch(size={len(self.bank)}, set_size={self.set_size})"
