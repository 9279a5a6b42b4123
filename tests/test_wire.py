"""Wire format: round-trips, count compression, streaming parse (§6)."""

import random
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import engine
from repro.core.cellbank import CodedSymbolBank

from repro.core.encoder import RatelessEncoder
from repro.core.irregular import PAPER_IRREGULAR
from repro.core.symbols import SymbolCodec
from repro.core.wire import (
    SymbolStreamReader,
    SymbolStreamWriter,
    cell_wire_size,
    decode_stream,
    encode_stream,
    expected_count,
)

from helpers import engine_lane, make_items


def test_roundtrip(codec8, rng):
    items = make_items(rng, 100)
    enc = RatelessEncoder(codec8, items)
    cells = [cell.copy() for cell in enc.produce(50)]
    blob = encode_stream(codec8, len(items), cells)
    decoded, set_size = decode_stream(codec8, blob)
    assert decoded.cells() == cells
    assert set_size == 100


def test_roundtrip_with_start_index(codec8, rng):
    """Resuming a stream mid-way (rateless extension) round-trips."""
    items = make_items(rng, 64)
    enc = RatelessEncoder(codec8, items)
    enc.produce(32)
    tail = [cell.copy() for cell in enc.produce(16)]
    blob = encode_stream(codec8, 64, tail, start_index=32)
    decoded, _ = decode_stream(codec8, blob)
    assert decoded.cells() == tail


def test_expected_count_regular(codec8):
    assert expected_count(codec8, 1000, 0) == 1000
    assert expected_count(codec8, 1000, 2) == 500
    assert expected_count(codec8, 1000, 18) == 100


def test_expected_count_irregular():
    codec = SymbolCodec(8, irregular=PAPER_IRREGULAR)
    mean_rho_2 = PAPER_IRREGULAR.mean_rho(2)
    assert expected_count(codec, 1000, 2) == round(1000 * mean_rho_2)


def test_count_compression_near_one_byte(codec8, rng):
    """§6: counts cost ≈1 byte/cell on average once deltas are small."""
    items = make_items(rng, 4000)
    enc = RatelessEncoder(codec8, items)
    writer = SymbolStreamWriter(codec8, set_size=4000)
    writer.header()
    for cell in enc.produce(400):
        writer.write(cell)
    assert writer.mean_count_bytes < 1.6


def test_incremental_reader_chunked(codec8, rng):
    """Feeding one byte at a time parses the identical cell stream."""
    items = make_items(rng, 30)
    enc = RatelessEncoder(codec8, items)
    cells = [cell.copy() for cell in enc.produce(20)]
    blob = encode_stream(codec8, 30, cells)
    reader = SymbolStreamReader(codec8)
    out = []
    for i in range(len(blob)):
        out.extend(reader.feed(blob[i : i + 1]))
    assert out == cells
    assert reader.set_size == 30


def test_reader_rejects_bad_magic(codec8):
    reader = SymbolStreamReader(codec8)
    with pytest.raises(ValueError):
        reader.feed(b"XXXX" + bytes(20))


def test_reader_rejects_size_mismatch(codec8, rng):
    items = make_items(rng, 10)
    enc = RatelessEncoder(codec8, items)
    blob = encode_stream(codec8, 10, [c.copy() for c in enc.produce(4)])
    other = SymbolCodec(16)
    reader = SymbolStreamReader(other)
    with pytest.raises(ValueError):
        reader.feed(blob)


def test_reader_rejects_checksum_width_mismatch(rng):
    codec_full = SymbolCodec(8)
    codec_short = SymbolCodec(8, checksum_size=4)
    enc = RatelessEncoder(codec_full, make_items(rng, 10))
    blob = encode_stream(codec_full, 10, [c.copy() for c in enc.produce(4)])
    with pytest.raises(ValueError):
        SymbolStreamReader(codec_short).feed(blob)


def test_decode_stream_trailing_garbage(codec8, rng):
    enc = RatelessEncoder(codec8, make_items(rng, 10))
    blob = encode_stream(codec8, 10, [c.copy() for c in enc.produce(4)])
    with pytest.raises(ValueError):
        decode_stream(codec8, blob + b"\x01\x02\x03")


def test_truncated_checksum_wire_size(rng):
    """4-byte checksums shrink every cell by 4 bytes on the wire."""
    codec_full = SymbolCodec(8)
    codec_short = SymbolCodec(8, checksum_size=4)
    assert cell_wire_size(codec_short) == cell_wire_size(codec_full) - 4


def test_wire_size_helper(codec8):
    assert cell_wire_size(codec8, count_delta=0) == 8 + 8 + 1
    assert cell_wire_size(codec8, count_delta=1000) == 8 + 8 + 2


def test_end_to_end_over_wire(codec8, rng):
    """Serialise Alice's cells, parse at Bob, decode — full pipeline."""
    from repro.core.decoder import RatelessDecoder

    items = make_items(rng, 120)
    a = set(items)
    b = set(items[10:]) | set(make_items(rng, 10))
    alice = RatelessEncoder(codec8, a)
    blob = encode_stream(codec8, len(a), [c.copy() for c in alice.produce(80)])
    cells, _ = decode_stream(codec8, blob)
    bob = RatelessEncoder(codec8, b)
    decoder = RatelessDecoder(codec8)
    for cell in cells:
        decoder.add_subtracted(cell, bob.produce_next())
        if decoder.decoded:
            break
    assert decoder.decoded
    assert set(decoder.remote_items()) == a - b
    assert set(decoder.local_items()) == b - a


# -- robustness: truncation, corruption, disconnects ------------------------


def test_reader_finish_clean_boundary(codec8, rng):
    items = make_items(rng, 20)
    enc = RatelessEncoder(codec8, items)
    blob = encode_stream(codec8, 20, [c.copy() for c in enc.produce(6)])
    reader = SymbolStreamReader(codec8)
    cells = reader.feed(blob)
    assert len(cells) == 6
    reader.finish()  # exact boundary: no error
    assert reader.pending_bytes == 0


def test_reader_finish_mid_cell_raises(codec8, rng):
    """A disconnect mid-cell is a typed truncation, not silent loss."""
    items = make_items(rng, 20)
    enc = RatelessEncoder(codec8, items)
    blob = encode_stream(codec8, 20, [c.copy() for c in enc.produce(6)])
    reader = SymbolStreamReader(codec8)
    reader.feed(blob[:-3])
    assert reader.pending_bytes > 0
    with pytest.raises(ValueError):
        reader.finish()


@pytest.mark.parametrize("vector", [False, True])
def test_reader_corrupt_varint_commits_parsed_cells(lane, codec8, rng, vector):
    """A corrupt count varint after 20 good cells raises with those cells
    committed: the bank holds them, ``index`` has passed them and the
    buffer holds only the corrupt tail — so a retry appends nothing and
    raises at cell 20 again, and ``finish`` reports the tail's length."""
    from repro.core.cellbank import CodedSymbolBank, numpy_block_eligible

    if vector and not numpy_block_eligible(codec8):
        pytest.skip("the lane form needs the vector engine")
    enc = RatelessEncoder(codec8, make_items(rng, 30))
    good = encode_stream(codec8, 30, enc.produce_block(20))
    corrupt = bytes(codec8.symbol_size + codec8.checksum_size) + b"\xff" * 10
    reader = SymbolStreamReader(codec8)
    bank = CodedSymbolBank().in_form(vector, codec8.symbol_size)
    with pytest.raises(ValueError, match="at cell 20"):
        reader.feed_into(bank, good + corrupt)
    assert bank == enc.cached_block(0, 20) and bank.vector is vector
    assert reader.index == 20
    assert reader.pending_bytes == len(corrupt)
    with pytest.raises(ValueError, match="at cell 20"):
        reader.feed_into(bank, b"")
    assert len(bank) == 20 and reader.pending_bytes == len(corrupt)
    with pytest.raises(ValueError, match=f"{len(corrupt)} bytes"):
        reader.finish()


def test_reader_finish_mid_header_raises(codec8):
    reader = SymbolStreamReader(codec8)
    reader.feed(b"RIB1\x08")  # header cut short
    with pytest.raises(ValueError):
        reader.finish()


def test_corrupt_count_varint_raises_not_stalls(codec8, rng):
    """A count varint of endless continuation bytes must raise; before
    the guard it parked the reader waiting for bytes that never come."""
    from repro.core.cellbank import CodedSymbolBank

    items = make_items(rng, 30)
    enc = RatelessEncoder(codec8, items)
    blob = encode_stream(codec8, 30, [c.copy() for c in enc.produce(2)])
    reader = SymbolStreamReader(codec8)
    reader.feed(blob)
    bank = CodedSymbolBank()
    with pytest.raises(ValueError):
        # fixed part of one cell, then a hostile varint
        reader.feed_into(bank, b"\x00" * 16 + b"\xff" * 16)


def test_header_size_mismatch_raises(codec8, rng):
    items = make_items(rng, 10)
    enc = RatelessEncoder(codec8, items)
    blob = encode_stream(codec8, 10, [c.copy() for c in enc.produce(2)])
    wrong = SymbolCodec(4)
    with pytest.raises(ValueError):
        SymbolStreamReader(wrong).feed(blob)


def test_feed_into_byte_by_byte_matches_bulk(codec8, rng):
    """Chunking must never change what parses (mid-stream reconnects)."""
    from repro.core.cellbank import CodedSymbolBank

    items = make_items(rng, 50)
    enc = RatelessEncoder(codec8, items)
    blob = encode_stream(codec8, 50, [c.copy() for c in enc.produce(20)])
    bulk = SymbolStreamReader(codec8)
    bank_bulk = CodedSymbolBank()
    bulk.feed_into(bank_bulk, blob)
    trickle = SymbolStreamReader(codec8)
    bank_trickle = CodedSymbolBank()
    for i in range(len(blob)):
        trickle.feed_into(bank_trickle, blob[i : i + 1])
    assert bank_bulk == bank_trickle
    trickle.finish()


def _served_sizes(ramp, budget):
    """Block sizes as a responder decides them: ``ramp`` in turn, the
    last one cut short where ``budget`` cells run out."""
    sizes, top = [], 0
    for cells in ramp:
        if top >= budget:
            break
        sizes.append(min(cells, budget - top))
        top += sizes[-1]
    return sizes


@settings(max_examples=80, deadline=None)
@given(
    symbol_size=st.sampled_from([8, 92]),
    set_size=st.integers(0, 60_000),
    start=st.integers(0, 5_000),
    ramp=st.lists(st.integers(1, 80), min_size=1, max_size=8),
    budget=st.integers(1, 400),
    varint_bytes=st.lists(st.integers(1, 3), min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_burst_write_cuts_into_the_per_block_writes(
    symbol_size, set_size, start, ramp, budget, varint_bytes, seed
):
    """One ``write_block`` over a run of blocks, cut at the offsets it
    writes into ``cuts``, is byte for byte the per-block calls: 1- and
    12-lane symbols, count deltas of 1–3 varint bytes, blocks below
    ``PACK_MIN_CELLS`` and a last block cut short by a budget, on both
    engines and from either bank form.  The writers' counters agree."""
    codec = SymbolCodec(symbol_size)
    sizes = _served_sizes(ramp, budget)
    ends = list(accumulate(sizes))
    rng = random.Random(seed)
    counts = []
    for i in range(ends[-1]):
        width = varint_bytes[i % len(varint_bytes)]
        zigzag = rng.randrange(128 ** (width - 1) if width > 1 else 0, 128**width)
        delta = zigzag >> 1 if zigzag % 2 == 0 else -((zigzag + 1) >> 1)
        counts.append(expected_count(codec, set_size, start + i) + delta)
    cells = CodedSymbolBank(
        [rng.getrandbits(8 * symbol_size) for _ in counts],
        [rng.getrandbits(64) for _ in counts],
        counts,
    )
    for vector in (True, False) if engine.np is not None else (False,):
        with engine_lane(vector):
            bank = cells.in_form(vector, symbol_size)
            burst = SymbolStreamWriter(codec, set_size, start)
            per_block = SymbolStreamWriter(codec, set_size, start)
            cuts = list(ends)
            blob = burst.write_block(bank, cuts)
            blocks = [
                per_block.write_block(bank.slice(lo, hi))
                for lo, hi in zip([0, *ends], ends)
            ]
            assert [blob[lo:hi] for lo, hi in zip([0, *cuts], cuts)] == blocks
            assert cuts[-1] == len(blob)

            def counters(writer):
                return (
                    writer.index,
                    writer.cells_written,
                    writer.bytes_written,
                    writer.count_bytes_written,
                )

            assert counters(burst) == counters(per_block)
