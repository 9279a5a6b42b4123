"""Wire format for coded-symbol streams (paper §6).

Layout::

    header  :=  magic "RIB1" | uvarint symbol_size | uvarint checksum_bytes
              | uvarint set_size | uvarint start_index
    cell    :=  sum (ℓ bytes, little endian)
              | checksum (checksum_bytes, little endian)
              | svarint(count − expected_count)

The §6 trick: the ``count`` of the ``i``-th coded symbol of an ``n``-item
set concentrates around ``n·ρ(i)``, so we transmit only the (small, signed)
difference from that expectation as a variable-length integer — ≈1 byte per
cell instead of a fixed 8, given that the receiver learns ``n`` from the
header and knows ``i`` from stream position.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro import engine
from repro.core import varint
from repro.core.cellbank import (
    PACK_MIN_CELLS,
    CodedSymbolBank,
    lanes_from_bytes,
    numpy_block_eligible,
    pack_records,
)
from repro.core.coded import CodedSymbol
from repro.core.symbols import SymbolCodec

MAGIC = b"RIB1"

# Above this the float64 products in the vectorised expected-count
# computation could round differently from exact integer arithmetic, so
# such (absurd) set sizes stay on the scalar engine.
_MAX_VECTOR_SET_SIZE = 1 << 53

# LEB128 never legitimately needs more than 10 bytes for a 64-bit value;
# a count varint that is still "incomplete" with this many bytes buffered
# is corruption, not truncation.
_MAX_VARINT_BYTES = 10


def expected_count(codec: SymbolCodec, set_size: int, index: int) -> int:
    """E[count] of coded cell ``index`` for a ``set_size``-item set:
    ``n·ρ(i)``, subset-averaged in the irregular case (§8)."""
    if codec.irregular is None:
        rho = 1.0 / (1.0 + 0.5 * index)
    else:
        rho = codec.irregular.mean_rho(index)
    return round(set_size * rho)


def _count_vector_applies(codec: SymbolCodec, set_size: int, cells: int) -> bool:
    """True when a block of ``cells`` cells is worth (and safe for) the
    vectorised expected-count arithmetic; the scalar loops serve the rest."""
    return (
        cells >= PACK_MIN_CELLS
        and numpy_block_eligible(codec)
        and set_size < _MAX_VECTOR_SET_SIZE
    )


def _expected_counts_vector(codec: SymbolCodec, set_size: int, start: int, n: int):
    """``expected_count`` for indices ``[start, start+n)`` as an int64 array.

    Element-for-element identical to the scalar function: the regular-codec
    branch evaluates the same ``rho`` expression per lane (``np.rint``
    matches Python ``round``'s half-to-even on these magnitudes), and the
    irregular branch simply calls the scalar function per index.
    """
    np = engine.np
    if codec.irregular is None:
        idx = np.arange(start, start + n, dtype=np.float64)
        rho = 1.0 / (1.0 + 0.5 * idx)
        return np.rint(float(set_size) * rho).astype(np.int64)
    return np.array(
        [expected_count(codec, set_size, start + i) for i in range(n)],
        dtype=np.int64,
    )


class SymbolStreamWriter:
    """Serialises a coded-symbol stream incrementally."""

    def __init__(self, codec: SymbolCodec, set_size: int, start_index: int = 0) -> None:
        self.codec = codec
        self.set_size = set_size
        self.index = start_index
        self.start_index = start_index
        self.bytes_written = 0
        self.count_bytes_written = 0
        self.cells_written = 0

    def header(self) -> bytes:
        """The stream header (send once, before any cell)."""
        blob = (
            MAGIC
            + varint.encode_uvarint(self.codec.symbol_size)
            + varint.encode_uvarint(self.codec.checksum_size)
            + varint.encode_uvarint(self.set_size)
            + varint.encode_uvarint(self.start_index)
        )
        self.bytes_written += len(blob)
        return blob

    def write(self, cell: CodedSymbol) -> bytes:
        """Serialise the next cell; the index advances implicitly."""
        return self.write_block(CodedSymbolBank.from_cells((cell,)))

    def write_block(self, bank: CodedSymbolBank, cuts: Optional[list] = None) -> bytes:
        """Serialise a whole bank of cells; byte-identical to per-cell
        :meth:`write` calls, without materialising cell objects.

        A sizeable block is serialised in one vector pass (straight from
        a lane-form bank's columns); a small block or an ineligible codec
        takes the scalar loop for the whole block.  ``cuts`` (increasing
        cell counts ≥ 1, block ends in ``bank``) is rewritten to the byte
        offsets those cells end at, so one pass serves a run of blocks.
        """
        blob, ends = self._write_block_records(bank) or self._write_block_scalar(bank)
        n, fixed = len(bank), self.codec.symbol_size + self.codec.checksum_size
        self.index += n
        self.cells_written += n
        self.bytes_written += len(blob)
        self.count_bytes_written += len(blob) - n * fixed
        if cuts:  # ends[i]: count bytes through cell i (None: one each)
            cuts[:] = [c * fixed + (c if ends is None else ends[c - 1]) for c in cuts]
        return blob

    def _write_block_scalar(self, bank: CodedSymbolBank) -> tuple[bytes, list]:
        """The reference loop: the blob and the count bytes through each cell."""
        codec = self.codec
        symbol_size = codec.symbol_size
        checksum_size = codec.checksum_size
        set_size = self.set_size
        encode_svarint = varint.encode_svarint
        index = self.index
        ends = [0]
        parts = []
        for cell_sum, cell_checksum, cell_count in zip(*bank.in_form(False).lanes):
            count_blob = encode_svarint(
                cell_count - expected_count(codec, set_size, index)
            )
            parts.append(cell_sum.to_bytes(symbol_size, "little"))
            parts.append(cell_checksum.to_bytes(checksum_size, "little"))
            parts.append(count_blob)
            ends.append(ends[-1] + len(count_blob))
            index += 1
        return b"".join(parts), ends[1:]

    def _write_block_records(self, bank: CodedSymbolBank) -> Optional[tuple]:
        """:meth:`write_block` as ``sum ∥ checksum ∥ varint`` records: one
        zigzag byte per cell in the §6 common case, else the varints'
        7-bit groups padded to the widest, the padding dropped by a mask;
        with the count bytes through each cell (``None``: one each).

        Returns ``None`` when the §6 expected-count vector is not
        available (vector engine off, small block, absurd set size) —
        the scalar loop then serialises the block.
        """
        codec = self.codec
        n = len(bank)
        if not _count_vector_applies(codec, self.set_size, n):
            return None
        np = engine.np
        try:
            counts = np.array(bank.counts, dtype=np.int64)
        except OverflowError:
            return None
        delta = counts - _expected_counts_vector(codec, self.set_size, self.index, n)
        zigzag = np.where(delta >= 0, delta * 2, (-delta) * 2 - 1).astype(np.uint64)
        widths = (codec.symbol_size, codec.checksum_size)
        width = -(-int(zigzag.max()).bit_length() // 7) or 1  # the widest varint
        if width == 1:
            return pack_records((bank.sums, bank.checksums, zigzag), (*widths, 1)), None
        groups = zigzag[:, None] >> np.arange(0, 7 * width, 7, dtype=np.uint64)
        length = np.maximum((groups != 0).sum(axis=1), 1)  # varint bytes per cell
        fixed = sum(widths)
        cells = np.empty((n, fixed + width), dtype=np.uint8)
        head = pack_records((bank.sums, bank.checksums), widths)
        cells[:, :fixed] = np.frombuffer(head, np.uint8).reshape(n, fixed)
        cells[:, fixed:] = groups & 0x7F
        cells[:, fixed:][np.arange(width) < length[:, None] - 1] |= 0x80
        blob = cells[np.arange(fixed + width) < fixed + length[:, None]].tobytes()
        return blob, np.cumsum(length).tolist()

    @property
    def mean_count_bytes(self) -> float:
        """Average bytes spent on the compressed count field per cell
        (the §6 claim: ≈1.05 bytes for 10⁶ items / 10⁴ cells)."""
        if self.cells_written == 0:
            return 0.0
        return self.count_bytes_written / self.cells_written


class SymbolStreamReader:
    """Parses a byte stream produced by :class:`SymbolStreamWriter`."""

    def __init__(self, codec: SymbolCodec) -> None:
        self.codec = codec
        self._buffer = bytearray()
        self._header_parsed = False
        self.set_size: Optional[int] = None
        self.index = 0

    def feed(self, data: bytes) -> list[CodedSymbol]:
        """Append bytes; return every cell that became complete."""
        bank = CodedSymbolBank()
        self.feed_into(bank, data)
        return bank.cells()

    def feed_into(self, bank: CodedSymbolBank, data: bytes) -> int:
        """Append bytes; parse every completed cell straight into ``bank``'s
        lanes (no cell objects), in either form.  Returns the number of
        cells appended.

        The maximal prefix of whole cells whose count varint is a single
        byte (§6: deltas concentrate near zero) is parsed as fixed-width
        records; the scalar loop then handles any multibyte-varint,
        partial, or corrupt tail (into a lane-form ``bank`` in one
        extend).
        """
        self._buffer.extend(data)
        if not self._header_parsed and not self._try_parse_header():
            return 0
        codec = self.codec
        symbol_size = codec.symbol_size
        fixed = symbol_size + codec.checksum_size
        decode_svarint = varint.decode_svarint
        from_bytes = int.from_bytes
        tail = CodedSymbolBank() if bank.vector else bank  # the loop appends ints
        sums, checksums, counts = tail.lanes
        set_size = self.set_size
        assert set_size is not None
        buf = bytes(self._buffer)
        end = len(buf)
        appended, pos = self._feed_records(bank, buf)
        corrupt = False
        while end - pos >= fixed + 1:
            try:
                delta, after = decode_svarint(buf, pos + fixed)
            except ValueError:
                # Distinguish truncation (wait for more bytes) from a
                # corrupted varint that no amount of further data can
                # complete — the latter must fail loudly (below), not stall
                # the stream while the buffer grows without bound.
                corrupt = end - (pos + fixed) >= _MAX_VARINT_BYTES
                break
            sums.append(from_bytes(buf[pos : pos + symbol_size], "little"))
            checksums.append(from_bytes(buf[pos + symbol_size : pos + fixed], "little"))
            counts.append(delta + expected_count(codec, set_size, self.index))
            self.index += 1
            appended += 1
            pos = after
        # The cells parsed so far are committed, even before a corrupt varint.
        if tail is not bank:
            bank.extend(tail)
        del self._buffer[:pos]
        if corrupt:
            raise ValueError(f"corrupt count varint at cell {self.index}")
        return appended

    def _feed_records(self, bank: CodedSymbolBank, buf: bytes) -> tuple[int, int]:
        """Parse the maximal aligned prefix of single-byte-varint cells
        of ``buf`` as ``sum ∥ checksum ∥ zigzag byte`` records.  Returns
        ``(cells_appended, bytes_consumed)``; ``(0, 0)`` when the §6
        expected-count vector is not available or the prefix is too
        short to beat the scalar loop.

        Only cells up to (but not including) the first count byte with
        the continuation bit set are taken, so multibyte varints — and any
        corrupt ones — are always left to the scalar reference parser.
        """
        codec = self.codec
        ssize = codec.symbol_size
        csize = codec.checksum_size
        stride = ssize + csize + 1
        nmax = len(buf) // stride
        assert self.set_size is not None
        if not _count_vector_applies(codec, self.set_size, nmax):
            return 0, 0
        np = engine.np
        count_bytes = np.frombuffer(buf, dtype=np.uint8)[stride - 1 :: stride][:nmax]
        multibyte = np.nonzero(count_bytes & 0x80)[0]
        limit = int(multibyte[0]) if multibyte.size else nmax
        if limit < PACK_MIN_CELLS:
            return 0, 0
        records = np.frombuffer(buf, np.uint8, limit * stride).reshape(limit, stride)
        zigzag = count_bytes[:limit].astype(np.int64)
        delta = np.where(zigzag & 1, -((zigzag + 1) >> 1), zigzag >> 1)
        expected = _expected_counts_vector(codec, self.set_size, self.index, limit)
        bank.extend(
            CodedSymbolBank(
                lanes_from_bytes(records[:, :ssize], ssize),
                lanes_from_bytes(records[:, ssize : ssize + csize], csize)[:, 0],
                delta + expected,
            )
        )
        self.index += limit
        return limit, limit * stride

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered that do not yet form a complete cell (or header)."""
        return len(self._buffer)

    def finish(self) -> None:
        """Assert the stream ended on a cell boundary.

        Call when the byte source is exhausted (EOF, peer disconnect): a
        stream cut mid-header or mid-cell raises ``ValueError`` instead of
        silently dropping the partial tail.
        """
        if not self._header_parsed:
            raise ValueError("truncated stream: header incomplete")
        if self._buffer:
            raise ValueError(
                f"truncated stream: {len(self._buffer)} bytes of a partial "
                f"cell after cell {self.index - 1}"
            )

    def _try_parse_header(self) -> bool:
        buf = bytes(self._buffer)
        if len(buf) < len(MAGIC):
            return False
        if buf[: len(MAGIC)] != MAGIC:
            raise ValueError("bad stream magic")
        try:
            pos = len(MAGIC)
            symbol_size, pos = varint.decode_uvarint(buf, pos)
            checksum_size, pos = varint.decode_uvarint(buf, pos)
            set_size, pos = varint.decode_uvarint(buf, pos)
            start_index, pos = varint.decode_uvarint(buf, pos)
        except ValueError:
            return False  # header still incomplete
        for what, got in (("symbol", symbol_size), ("checksum", checksum_size)):
            want = getattr(self.codec, f"{what}_size")
            if got != want:
                raise ValueError(f"{what} size mismatch: stream={got}, codec={want}")
        self.set_size = set_size
        self.index = start_index
        del self._buffer[:pos]
        self._header_parsed = True
        return True


def encode_stream(
    codec: SymbolCodec,
    set_size: int,
    cells: "Iterable[CodedSymbol] | CodedSymbolBank",
    start_index: int = 0,
) -> bytes:
    """One-shot serialisation: header followed by every cell of a
    :class:`CodedSymbolBank` (or, for the per-cell API, any iterable of
    cells)."""
    writer = SymbolStreamWriter(codec, set_size, start_index)
    if not isinstance(cells, CodedSymbolBank):
        cells = CodedSymbolBank.from_cells(cells)
    return writer.header() + writer.write_block(cells)


def decode_stream(codec: SymbolCodec, data: bytes) -> tuple[CodedSymbolBank, int]:
    """One-shot parse; returns ``(bank, set_size)``."""
    reader = SymbolStreamReader(codec)
    bank = CodedSymbolBank()
    reader.feed_into(bank, data)
    reader.finish()
    assert reader.set_size is not None
    return bank, reader.set_size


def cell_wire_size(codec: SymbolCodec, count_delta: int = 0) -> int:
    """Bytes one cell occupies on the wire given its count delta."""
    return (
        codec.symbol_size
        + codec.checksum_size
        + len(varint.encode_svarint(count_delta))
    )
