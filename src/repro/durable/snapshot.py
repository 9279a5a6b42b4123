"""Atomic encoder snapshot files: a backend's warm encoder frozen to bytes.

A snapshot captures *everything* the backend's one warm encoder is: the
source rows (value, keyed checksum, and the parked ``(current,
splitmix64 state)`` §4.2 walk position of each symbol) plus the produced
:class:`~repro.core.cellbank.CodedSymbolBank` prefix verbatim.  Because
the walk positions are persisted exactly, restore does no hashing and
no index walking — it is pure parsing — and the restored bank is
bit-identical to the one that was saved, which the recovery suite then
proves equal to fresh ingest.  Shard membership is not stored: the
store re-places the rows (:func:`snapshot_items`) on open.

Layout (all integers little-endian)::

    magic "RPSNAP1\\n"
    uvarints: format=2, n_rows, n_cells, symbol_size, checksum_size
    n_rows   x ( value[ssize] | checksum[csize] | current[8] | state[8] )
    n_cells  x ( sum[ssize] | checksum[csize] | count[8 signed] )
    crc32 of everything above, 4 bytes

Both sections are fixed-width records, written and parsed by the one
record codec (:func:`repro.core.cellbank.pack_records` /
:func:`~repro.core.cellbank.unpack_records`) at every symbol width; this
module only frames them.  Parsing whole sections at once is what makes
warm restart beat cold re-ingest by the benched margin.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Sequence

from repro.core.cellbank import CodedSymbolBank, pack_records, unpack_records
from repro.core.encoder import RatelessEncoder
from repro.core.symbols import SymbolCodec
from repro.core.varint import decode_uvarint, encode_uvarint
from repro.durable.errors import CorruptSnapshot, DataDirMismatch

MAGIC = b"RPSNAP1\n"
FORMAT = 2
_CRC_BYTES = 4
_WALK_BYTES = 8  # current and state are 8 bytes each


@dataclass
class Snapshot:
    """A frozen encoder's source rows and bank (see module docstring)."""

    values: Sequence[int]
    checksums: Sequence[int]
    currents: Sequence[int]
    states: Sequence[int]
    bank: CodedSymbolBank

    def restore(self, codec: SymbolCodec) -> RatelessEncoder:
        """The encoder exactly as it was frozen: no hashing, no walk."""
        return RatelessEncoder.restore(
            codec, self.values, self.checksums, self.currents, self.states, self.bank
        )


def pack_snapshot(encoder: RatelessEncoder) -> bytes:
    """Serialise an encoder's whole state into the snapshot format."""
    codec = encoder.codec
    ssize = codec.symbol_size
    csize = codec.checksum_size
    rows = encoder.export_rows()
    head = bytearray(MAGIC)
    for field in (FORMAT, len(rows[0]), encoder.produced_count, ssize, csize):
        head += encode_uvarint(field)
    body = pack_records(rows, (ssize, csize, _WALK_BYTES, _WALK_BYTES))
    blob = bytes(head) + body + encoder.bank.pack(codec)
    crc = zlib.crc32(blob) & 0xFFFFFFFF
    return blob + crc.to_bytes(_CRC_BYTES, "little")


def unpack_snapshot(
    blob: bytes, codec: SymbolCodec, name: str = "snapshot"
) -> Snapshot:
    """Parse and CRC-verify a snapshot blob back into encoder state.

    Any framing violation — short file, bad magic, wrong CRC, truncated
    sections — raises :class:`CorruptSnapshot`; a codec that disagrees
    with the persisted widths raises :class:`DataDirMismatch`.
    """
    if len(blob) < len(MAGIC) + _CRC_BYTES or blob[: len(MAGIC)] != MAGIC:
        raise CorruptSnapshot(f"{name}: bad snapshot magic")
    stored = int.from_bytes(blob[-_CRC_BYTES:], "little")
    payload = blob[:-_CRC_BYTES]
    if (zlib.crc32(payload) & 0xFFFFFFFF) != stored:
        raise CorruptSnapshot(f"{name}: CRC mismatch")
    try:
        offset = len(MAGIC)
        fmt, offset = decode_uvarint(payload, offset)
        n_rows, offset = decode_uvarint(payload, offset)
        n_cells, offset = decode_uvarint(payload, offset)
        ssize, offset = decode_uvarint(payload, offset)
        csize, offset = decode_uvarint(payload, offset)
    except ValueError as exc:
        raise CorruptSnapshot(f"{name}: truncated header") from exc
    if fmt != FORMAT:
        raise CorruptSnapshot(f"{name}: unknown snapshot format {fmt}")
    if ssize != codec.symbol_size or csize != codec.checksum_size:
        raise DataDirMismatch(
            f"{name}: snapshot holds {ssize}/{csize}-byte symbols/checksums, "
            f"codec expects {codec.symbol_size}/{codec.checksum_size}"
        )
    row_stride = ssize + csize + 2 * _WALK_BYTES
    cell_stride = ssize + csize + CodedSymbolBank.COUNT_BYTES
    rows_end = offset + n_rows * row_stride
    cells_end = rows_end + n_cells * cell_stride
    if cells_end != len(payload):
        raise CorruptSnapshot(f"{name}: body length does not match header")
    values, checksums, currents, states = unpack_records(
        payload[offset:rows_end],
        (ssize, csize, _WALK_BYTES, _WALK_BYTES),
        vectors=True,  # the rows feed RatelessEncoder.restore's column pool
    )
    bank = CodedSymbolBank.unpack(payload[rows_end:cells_end], codec)
    return Snapshot(values, checksums, currents, states, bank)


def snapshot_items(snapshot: Snapshot, codec: SymbolCodec) -> list[bytes]:
    """The snapshot's members, in row order, as ℓ-byte items (the
    little-endian integer form of the values): one column of records,
    sliced back into items."""
    ssize = codec.symbol_size
    blob = pack_records((snapshot.values,), (ssize,))
    return [blob[o : o + ssize] for o in range(0, len(blob), ssize)]
