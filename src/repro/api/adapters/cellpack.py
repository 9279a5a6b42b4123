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
from typing import Optional, Sequence

from repro.api.base import ReconcileError, SchemeParams
from repro.baselines.table import CellTable
from repro.core.cellbank import CodedSymbolBank
from repro.core.decoder import DecodeResult
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


class CellStreamFace:
    """The table plumbing and streaming face the IBLT table adapters share.

    Mixed into :class:`~repro.api.base.StreamingReconciler` subclasses
    whose sketch is a :class:`~repro.baselines.table.CellTable` held as
    ``_table`` (regular IBLT, MET-IBLT): the sender streams the table's
    bank in index order; the receiver subtracts its own cells at the
    same indices lane-wise and asks the adapter
    (``_try_stream_decode``) whether the diff prefix decodes — at the
    full table for a fixed-capacity scheme, at every preset block
    boundary for a rate-compatible one.

    ``produce_block`` packs the whole cell slice in one pass, and
    ``symbols_absorbed`` is a plain O(1) counter instead of the base
    class's ``stream_result()`` materialised per frame.

    Arbitrary payload fragmentation is fine: partial cells are buffered
    until a whole cell is available.  These streams are *finite* —
    producing past the table's last cell raises ``ReconcileError``
    (an undersized table cannot be extended; pick a bigger one).
    """

    def __init__(self, params: CodecParams, table: CellTable) -> None:
        self.params = params
        self._table = table
        self._stream_produced = 0
        self._stream_absorbed = 0
        self._stream_buf = bytearray()
        self._stream_diff = CodedSymbolBank()
        self._stream_result = DecodeResult(success=False)

    # -- adapter contract --------------------------------------------------

    @classmethod
    def _empty_table(cls, params: CodecParams) -> CellTable:
        """The scheme's table for ``params``, holding no items."""
        raise NotImplementedError

    def _try_stream_decode(
        self, diff: CodedSymbolBank, absorbed: int
    ) -> Optional[DecodeResult]:
        """Attempt a decode of the ``absorbed``-cell diff prefix."""
        raise NotImplementedError

    # -- the table ---------------------------------------------------------

    @classmethod
    def from_items(
        cls, items: Sequence[bytes], params: CodecParams
    ) -> "CellStreamFace":
        return cls(params, cls._empty_table(params).filled(items))

    @classmethod
    def deserialize(cls, blob: bytes, params: CodecParams) -> "CellStreamFace":
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

    def subtract(self, other: "CellStreamFace") -> "CellStreamFace":
        return type(self)(self.params, self._table.subtract(other._table))

    # -- streaming face ----------------------------------------------------

    def produce_block(self, block_size: int) -> bytes:
        bank = self._table.bank
        lo = self._stream_produced
        if lo >= len(bank):
            raise ReconcileError(
                f"{type(self).__name__}: cell stream exhausted after "
                f"{len(bank)} cells (fixed tables cannot be extended)"
            )
        hi = min(lo + block_size, len(bank))
        self._stream_produced = hi
        return bank.slice(lo, hi).pack(self._table.codec)

    def absorb(self, payload: bytes) -> bool:
        if self.decoded:
            return True
        buf = self._stream_buf
        buf.extend(payload)
        codec = self._table.codec
        stride = codec.symbol_size + codec.checksum_size + CodedSymbolBank.COUNT_BYTES
        usable = len(buf) - len(buf) % stride
        if not usable:
            return False
        incoming = CodedSymbolBank.unpack(bytes(buf[:usable]), codec)
        del buf[:usable]
        own = self._table.bank
        base = self._stream_absorbed
        if base + len(incoming) > len(own):
            raise ReconcileError(
                f"{type(self).__name__}: peer streamed more cells than the "
                f"table holds ({len(own)})"
            )
        self._stream_absorbed = base + len(incoming)
        incoming.subtract_in_place(own.slice(base, self._stream_absorbed))
        self._stream_diff.extend(incoming)
        result = self._try_stream_decode(self._stream_diff, self._stream_absorbed)
        if result is not None and result.success:
            self._stream_result = result
        return self.decoded

    @property
    def symbols_absorbed(self) -> int:
        return self._stream_absorbed

    @property
    def decoded(self) -> bool:
        return self._stream_result.success

    def stream_result(self) -> DecodeResult:
        return self._stream_result
