"""Shared plumbing for the IBLT-family adapters.

*Parameters*: every scheme built on :class:`~repro.core.symbols.SymbolCodec`
shares the same three knobs, so :class:`CodecParams` holds them once and
:func:`codec_for` is the one place a codec is constructed.

*Wire format*: regular IBLT and MET-IBLT tables are one
:class:`~repro.core.cellbank.CodedSymbolBank` of cells with a geometry
both sides already agree on, so the wire format is the packed bank
(:meth:`~repro.core.cellbank.CodedSymbolBank.pack`): ℓ-byte sum,
``checksum_size``-byte checksum, 8-byte signed count, all little-endian.
(This is a faithful codec; the *accounting* size used in benchmarks
stays the paper's §7.1 ℓ+16 figure, see the adapters.)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from repro.api.base import SchemeParams
from repro.baselines.table import CellTable
from repro.core.cellbank import CodedSymbolBank
from repro.core.params import CHECKSUM_BYTES
from repro.core.symbols import SymbolCodec
from repro.hashing.keyed import DEFAULT_KEY, make_hasher


@dataclass(frozen=True)
class CodecParams(SchemeParams):
    """The knobs every ``SymbolCodec``-based scheme shares."""

    checksum_size: int = CHECKSUM_BYTES
    hasher: str = "blake2b"
    key: bytes = DEFAULT_KEY


def codec_for(params: CodecParams) -> SymbolCodec:
    assert params.symbol_size is not None
    return _codec(params.symbol_size, params.hasher, params.key, params.checksum_size)


@lru_cache(maxsize=None)  # one codec per configuration: decoder waves group by it
def _codec(size: int, hasher: str, key: bytes, checksum_size: int) -> SymbolCodec:
    return SymbolCodec(size, make_hasher(hasher, key), checksum_size=checksum_size)


class CellTableFace:
    """The table plumbing the IBLT table adapters share.

    Mixed into :class:`~repro.api.base.SetReconciler` subclasses whose
    sketch is a :class:`~repro.baselines.table.CellTable` held as
    ``_table`` (regular IBLT, MET-IBLT): build, mutate, pack and
    subtract the table; each adapter supplies its own ``decode``.
    Tables run the protocol's SKETCH mode only — a fixed table's prefix
    does not decode, and MET's rate-compatible prefixes are decoded by
    ``decode_smallest_prefix`` on the whole received table.
    """

    def __init__(self, params: CodecParams, table: CellTable) -> None:
        self.params = params
        self._table = table

    # -- adapter contract --------------------------------------------------

    @classmethod
    def _empty_table(cls, params: CodecParams) -> CellTable:
        """The scheme's table for ``params``, holding no items."""
        raise NotImplementedError

    # -- the table ---------------------------------------------------------

    @classmethod
    def from_items(
        cls, items: Sequence[bytes], params: CodecParams
    ) -> "CellTableFace":
        return cls(params, cls._empty_table(params).filled(items))

    @classmethod
    def deserialize(cls, blob: bytes, params: CodecParams) -> "CellTableFace":
        table = cls._empty_table(params)
        return cls(params, table.with_bank(CodedSymbolBank.unpack(blob, table.codec)))

    def add(self, item: bytes) -> None:
        self._table.insert(item)

    def remove(self, item: bytes) -> None:
        self._table.delete(item)

    def serialize(self) -> bytes:
        return self._table.bank.pack(self._table.codec)

    def wire_size(self) -> int:
        """§7.1 accounting: ℓ + 8 B checksum + 8 B count per cell."""
        return self._table.wire_size()

    def subtract(self, other: "CellTableFace") -> "CellTableFace":
        return type(self)(self.params, self._table.subtract(other._table))
