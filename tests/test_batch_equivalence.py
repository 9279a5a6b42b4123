"""Golden equivalence: the batch fast paths emit bit-identical results
to the reference per-cell paths.

Covers both scatter engines (NumPy lane on and off), regular and
irregular (§8) codecs, wide symbols (2, 3 and 12 uint64 lanes, and one
width past the lane cut that stays on the scalar engine), truncated
checksums, mid-stream add/remove patching of a bank-backed
prefix, block wire framing, and session-level block stepping.
"""


import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import engine
from repro.analysis.montecarlo import IntSymbolCodec
from repro.core import cellbank
from repro.core.cellbank import CodedSymbolBank, to_list
from repro.core.decoder import RatelessDecoder
from repro.core.encoder import RatelessEncoder
from repro.core.irregular import PAPER_IRREGULAR, IrregularConfig
from repro.core.params import DEFAULT_ALPHA
from repro.core.symbols import SymbolCodec
from repro.core.wire import SymbolStreamReader, SymbolStreamWriter

from helpers import engine_lane, make_items, split_sets, stream_reconcile


CODECS = {
    "regular8": lambda: SymbolCodec(8),
    "irregular8": lambda: SymbolCodec(8, irregular=PAPER_IRREGULAR),
    "wide16": lambda: SymbolCodec(16),
    "truncated4": lambda: SymbolCodec(8, checksum_size=4),
    # the (rows, k) uint64 lane matrix: a padded last lane, the §7.3
    # ledger shape, the same with truncated checksums, and one symbol
    # just past the width cut (scalar big-int engine on both params)
    "wide20": lambda: SymbolCodec(20),
    "wide92": lambda: SymbolCodec(92),
    "wide92_trunc4": lambda: SymbolCodec(92, checksum_size=4),
    "past_cut": lambda: SymbolCodec(cellbank.LANE_MAX_SYMBOL_BYTES + 1),
}


def codec_items(name, rng, n):
    codec = CODECS[name]()
    return codec, make_items(rng, n, size=codec.symbol_size)


# -- encoder ---------------------------------------------------------------


@pytest.mark.parametrize("codec_name", sorted(CODECS))
def test_produce_block_equals_produce_next(lane, codec_name, rng):
    codec, items = codec_items(codec_name, rng, 150)
    m = 260
    reference = RatelessEncoder(codec, items)
    expected = [reference.produce_next() for _ in range(m)]
    batch = RatelessEncoder(codec, items)
    bank = batch.produce_block(m)
    assert bank.cells() == expected
    # the cached prefix is the same object stream
    assert [batch.cached(i) for i in range(m)] == expected


@pytest.mark.parametrize("codec_name", ["regular8", "irregular8"])
def test_produce_block_split_points_agree(lane, codec_name, rng):
    """Any split of the stream into blocks yields the same prefix."""
    codec, items = codec_items(codec_name, rng, 80)
    reference = RatelessEncoder(codec, items)
    expected = [reference.produce_next() for _ in range(160)]
    batch = RatelessEncoder(codec, items)
    out = []
    for size in (1, 2, 3, 5, 19, 40, 80, 10):  # sums to 160
        out.extend(batch.produce_block(size).cells())
    assert out == expected


@pytest.mark.parametrize("codec_name", ["regular8", "irregular8", "wide92"])
def test_per_cell_and_block_production_interleave(lane, codec_name, rng):
    """Per-cell production (the store's heap), block walks, churn that
    compacts the store under a live heap, and one-row appends into it:
    every produced prefix is the cold encoder's."""
    codec, items = codec_items(codec_name, rng, 160)
    live = list(items[:100])
    enc = RatelessEncoder(codec, live)

    def check():
        produced = enc.produced_count
        cold = RatelessEncoder(codec, live)
        assert enc.cached_block(0, produced) == cold.produce_block(produced)

    steps = ("next", "block", "next", "remove", "next", "add", "next", "block", "next")
    for step in steps:
        if step == "next":
            for _ in range(3):
                enc.produce_next()
        elif step == "block":
            enc.produce_block(5)
        elif step == "remove":  # more than half: the store compacts
            stale, live = live[:60], live[60:]
            for item in stale[:10]:
                enc.remove_item(item)
            enc.remove_items(stale[10:])
        else:
            fresh = items[100:130]
            live += fresh
            for item in fresh[:5]:
                enc.add_item(item)
            enc.add_items(fresh[5:])
        check()


@pytest.mark.parametrize("codec_name", sorted(CODECS))
def test_midstream_churn_patches_bank_prefix(lane, codec_name, rng):
    """add/remove after block production patches the cached bank so it
    matches a fresh encode of the final set (§4.1 linearity)."""
    codec, items = codec_items(codec_name, rng, 90)
    enc = RatelessEncoder(codec, items[:70])
    enc.produce_block(120)
    for item in items[70:]:
        enc.add_item(item)
    for item in items[:15]:
        enc.remove_item(item)
    enc.produce_block(40)
    final_set = items[15:]
    fresh = RatelessEncoder(codec, final_set)
    assert fresh.produce_block(160).cells() == [enc.cached(i) for i in range(160)]


def test_add_items_batch_equals_singles(lane, rng):
    codec = SymbolCodec(8)
    items = make_items(rng, 60)
    batch = RatelessEncoder(codec, items)  # add_items fast path
    singles = RatelessEncoder(codec)
    for item in items:
        singles.add_item(item)
    assert batch.produce_block(100).cells() == singles.produce_block(100).cells()


# -- vectorised ingestion ---------------------------------------------------


@pytest.mark.parametrize("codec_name", sorted(CODECS))
def test_bulk_ingest_bit_identical_across_engines(codec_name, rng):
    """items → bank through the source store's NumPy columns vs its
    list form and the scalar engine: identical lanes, identical
    follow-on stream."""
    codec_factory = CODECS[codec_name]
    items = make_items(rng, 300, size=codec_factory().symbol_size)
    banks = {}
    for flag in (True, False):
        with engine_lane(flag):
            enc = RatelessEncoder(codec_factory(), items)
            enc.produce_block(200)
            # per-cell production after the bulk block (repacks the
            # store's columns as lists) must continue the same stream
            tail = [enc.produce_next() for _ in range(20)]
            banks[flag] = ([enc.cached(i) for i in range(220)], tail)
    assert banks[True] == banks[False]


@pytest.mark.parametrize("codec_name", sorted(CODECS))
def test_batch_churn_bit_identical_across_engines(codec_name, rng):
    """add_items/remove_items against a produced prefix: the fused batch
    patch equals the per-item reference patch equals a fresh encode."""
    codec_factory = CODECS[codec_name]
    items = make_items(rng, 260, size=codec_factory().symbol_size)
    base, fresh = items[:200], items[200:]
    stale = items[:40]
    banks = {}
    for flag in (True, False):
        with engine_lane(flag):
            enc = RatelessEncoder(codec_factory(), base)
            enc.produce_block(150)
            enc.add_items(fresh)
            enc.remove_items(stale)
            enc.produce_block(50)
            banks[flag] = [enc.cached(i) for i in range(200)]
    assert banks[True] == banks[False]
    reference = RatelessEncoder(codec_factory(), items[40:])
    assert banks[True] == reference.produce_block(200).cells()


@pytest.mark.parametrize("codec_name", sorted(CODECS))
def test_walk_cut_into_row_slices_is_one_walk(codec_name, rng, monkeypatch):
    """A lane walk over more rows than ``_WALK_ROWS`` is cut into one
    kernel call per slice of rows, on the same lanes: a first walk, a
    grown prefix and a churn patch leave the bank and the parked walks
    exactly as one call per walk does."""
    from repro.core import encoder as encoder_module

    codec_factory = CODECS[codec_name]
    items = make_items(rng, 260, size=codec_factory().symbol_size)

    def walked():
        with engine_lane(True):
            enc = RatelessEncoder(codec_factory(), items[:200])
            enc.produce_block(60)
            enc.produce_block(90)
            enc.add_items(items[200:])
            enc.remove_items(items[:40])
            return enc.bank.pack(enc.codec), enc.export_rows()

    whole = walked()
    monkeypatch.setattr(encoder_module, "_WALK_ROWS", 7)
    assert walked() == whole


class BulkIntCodec(IntSymbolCodec):
    """The Monte Carlo harness's u64 codec plus the batch faces
    ``add_items`` reads, so its rows can arrive in bulk too."""

    __slots__ = ()

    item_rows = SymbolCodec.item_rows

    def to_int_batch(self, datas):
        return [self.to_int(data) for data in datas]

    def checksum_batch(self, datas):
        return [self.checksum_data(data) for data in datas]


ALPHA_CODECS = {
    # Fig 4's α sweep and the α ablation: regular, but not α = 0.5
    "alpha064": lambda: BulkIntCodec(alpha=0.64),
    "irregular8": CODECS["irregular8"],
    # half the rows at the default α: the α column opens mid-life
    "half_default": lambda: SymbolCodec(
        8, irregular=IrregularConfig((0.5, 0.5), (0.5, 0.82))
    ),
}


@pytest.mark.parametrize("codec_name", sorted(ALPHA_CODECS))
def test_every_path_reads_alpha_from_the_codec(lane, codec_name, rng):
    """Block walks, per-cell production, removal patches and a restore
    all map a symbol with the α its codec gives it — none assumes the
    default (the bulk paths once hard-coded α = 0.5)."""
    codec = ALPHA_CODECS[codec_name]()
    items = make_items(rng, 300)
    # default-α rows first, so a mixed codec opens its α column mid-life
    items.sort(key=lambda i: codec.alpha_for(codec.checksum_data(i)) != DEFAULT_ALPHA)
    values = [codec.to_int(item) for item in items]
    singles = RatelessEncoder(codec)
    for value in values:
        singles.add_value(value)
    expected = [singles.produce_next() for _ in range(200)]
    bulk = RatelessEncoder(codec, items)
    assert bulk.produce_block(200).cells() == expected
    one_by_one = RatelessEncoder(codec)
    for value in values:
        one_by_one.add_value(value)
    assert one_by_one.produce_block(200).cells() == expected
    # remove bulk-ingested rows behind the produced prefix
    for value in values[:60]:
        bulk.remove_value(value)
    cold = RatelessEncoder(codec, items[60:])
    assert bulk.cached_block(0, 200) == cold.produce_block(200)
    # a restored encoder continues the same stream, per block and per cell
    restored = RatelessEncoder.restore(codec, *bulk.export_rows(), bulk.bank.copy())
    assert restored.produce_block(100) == cold.produce_block(100)
    assert [restored.produce_next() for _ in range(20)] == [
        cold.produce_next() for _ in range(20)
    ]


def test_pool_and_heap_entries_mix(lane, rng):
    """Singles (one-row appends) and bulk batches interleave on one
    encoder — across both store forms and per-cell production — without
    disturbing the stream."""
    codec = SymbolCodec(8)
    items = make_items(rng, 120)
    mixed = RatelessEncoder(codec)
    mixed.add_items(items[:50])  # NumPy columns (vector engine) or lists
    for item in items[50:60]:
        mixed.add_item(item)  # one-row appends to the same columns
    mixed.produce_block(80)
    mixed.add_items(items[60:110])  # patched against a produced prefix
    mixed.produce_next()  # list form, heap built
    for item in items[110:]:
        mixed.add_item(item)  # topped up into the live heap
    mixed.remove_items(items[:10] + items[55:65])  # bulk and single rows
    mixed.produce_next()
    mixed.produce_block(38)
    reference = RatelessEncoder(codec, items[10:55] + items[65:])
    assert reference.produce_block(120).cells() == [
        mixed.cached(i) for i in range(120)
    ]


def test_sketch_from_items_bit_identical_across_engines(rng):
    from repro.core.sketch import RatelessSketch

    for codec_name in sorted(CODECS):
        codec_factory = CODECS[codec_name]
        items = make_items(rng, 150, size=codec_factory().symbol_size)
        sketches = {}
        for flag in (True, False):
            with engine_lane(flag):
                sketches[flag] = RatelessSketch.from_items(
                    items, 120, codec_factory()
                )
        assert sketches[True].cells == sketches[False].cells
        assert sketches[True].set_size == sketches[False].set_size


def test_iblt_fills_bit_identical_across_engines(rng):
    """The baselines' batch build rides the shared fold kernel at every
    width the lanes carry; either engine builds the per-item table."""
    from repro.baselines.met_iblt import MetIBLT
    from repro.baselines.regular_iblt import RegularIBLT

    for codec_name in sorted(CODECS):
        codec, items = codec_items(codec_name, rng, 400)
        tables = {}
        for flag in (True, False):
            with engine_lane(flag):
                tables[flag] = (
                    RegularIBLT.from_items(items, 300, codec).cells,
                    MetIBLT.from_items(items, codec).cells,
                )
        assert tables[True] == tables[False], codec_name
        reference = RegularIBLT(300, codec)
        for item in items:
            reference.insert(item)
        assert tables[True][0] == reference.cells, codec_name


# -- decoder ---------------------------------------------------------------


def subtracted_stream(codec, set_a, set_b, m):
    alice = RatelessEncoder(codec, set_a)
    bank = alice.produce_block(m)
    bank.subtract_in_place(RatelessEncoder(codec, set_b).produce_block(m))
    return bank


@pytest.mark.parametrize("codec_name", sorted(CODECS))
def test_add_coded_block_equals_per_cell(lane, codec_name, rng):
    codec = CODECS[codec_name]()
    a, b = split_sets(rng, shared=120, only_a=30, only_b=25, size=codec.symbol_size)
    stream = subtracted_stream(codec, a, b, 200)
    reference = RatelessDecoder(codec)
    for cell in stream.cells():
        reference.add_coded_symbol(cell)
    batch = RatelessDecoder(codec)
    consumed = batch.add_coded_block(stream)
    assert consumed == len(stream)
    assert batch.decoded == reference.decoded
    assert sorted(batch.remote_values()) == sorted(reference.remote_values())
    assert sorted(batch.local_values()) == sorted(reference.local_values())
    # the peeled lane state reaches the same fixed point
    assert batch._bank == reference._bank
    assert batch._nonzero == reference._nonzero


@pytest.mark.parametrize("codec_name", ["regular8", "irregular8"])
def test_add_coded_block_chunked_split_points_agree(lane, codec_name, rng):
    """Feeding the same stream in arbitrary block sizes converges to the
    same state, including continued ingestion after decode completes."""
    codec = CODECS[codec_name]()
    a, b = split_sets(rng, shared=100, only_a=20, only_b=20, size=codec.symbol_size)
    stream = subtracted_stream(codec, a, b, 180)
    reference = RatelessDecoder(codec)
    for cell in stream.cells():
        reference.add_coded_symbol(cell)
    chunked = RatelessDecoder(codec)
    lo = 0
    for size in (1, 7, 64, 3, 80, 25):  # sums to 180
        chunked.add_coded_block(stream.slice(lo, lo + size))
        lo += size
    assert chunked._bank == reference._bank
    assert sorted(chunked.remote_values()) == sorted(reference.remote_values())
    assert sorted(chunked.local_values()) == sorted(reference.local_values())


def test_add_coded_block_stop_when_decoded_cell_exact(lane, rng):
    """A stop at every cell reproduces per-cell early-stop accounting on
    both engines."""
    codec = SymbolCodec(8)
    a, b = split_sets(rng, shared=80, only_a=8, only_b=8)
    stream = subtracted_stream(codec, a, b, 120)
    reference = RatelessDecoder(codec)
    used_reference = 0
    for cell in stream.cells():
        reference.add_coded_symbol(cell)
        used_reference += 1
        if reference.decoded:
            break
    batch = RatelessDecoder(codec)
    used_batch = batch.add_coded_block(stream, range(1, len(stream) + 1))
    assert used_batch == used_reference
    assert batch.decoded
    assert batch._bank == reference._bank


def test_add_coded_block_rejects_bad_stops(rng):
    """Stops outside the bank or out of order are rejected before any
    cell is taken, on either engine — also when nothing is left to do:
    an empty bank, or a decoder that has already decoded."""
    codec = SymbolCodec(8)
    for vector in (True, False) if engine.np is not None else (False,):
        with engine_lane(vector):
            with pytest.raises(ValueError):
                RatelessDecoder(codec).add_coded_block(CodedSymbolBank.zeros(4), [0, 5])
            done = RatelessDecoder(codec)
            done.add_coded_block(CodedSymbolBank.zeros(4))
            assert done.decoded
            for stops in ([-1, 2], [3, 2], [1]):
                with pytest.raises(ValueError):
                    RatelessDecoder(codec).add_coded_block(CodedSymbolBank(), stops)
                with pytest.raises(ValueError):
                    done.add_coded_block(CodedSymbolBank.zeros(4), stops[:1] + [9])
            assert done.symbols_received == 4  # nothing was consumed
            assert done.add_coded_block(CodedSymbolBank.zeros(4), [2, 2, 4]) == 0


def test_scalar_and_numpy_decoders_agree(rng):
    codec = SymbolCodec(8)
    a, b = split_sets(rng, shared=200, only_a=40, only_b=40)
    stream = subtracted_stream(codec, a, b, 300)
    results = {}
    for flag in (True, False):
        with engine_lane(flag):
            decoder = RatelessDecoder(codec)
            decoder.add_coded_block(stream)
            results[flag] = (
                decoder.symbols_received,
                sorted(decoder.remote_values()),
                sorted(decoder.local_values()),
                decoder._bank.copy(),
            )
    assert results[True] == results[False]


@given(
    st.sets(st.binary(min_size=8, max_size=8), min_size=0, max_size=50),
    st.sets(st.binary(min_size=8, max_size=8), min_size=0, max_size=50),
)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_property_block_paths_reconcile_exactly(set_a, set_b):
    """Whatever the sets, the all-batch pipeline recovers exactly A △ B."""
    codec = SymbolCodec(8)
    m = 24 * (len(set_a ^ set_b) + 2)
    stream = subtracted_stream(codec, set_a, set_b, m)
    decoder = RatelessDecoder(codec)
    decoder.add_coded_block(stream)
    assert decoder.decoded
    assert set(decoder.remote_items()) == set_a - set_b
    assert set(decoder.local_items()) == set_b - set_a


def decoder_state(decoder):
    """Everything a decoder holds: recovered values in order, bank lanes,
    the nonzero count and the recovered store's rows, each with its sign
    and parked ``(idx, state)`` walk."""
    store = decoder._store
    columns = (store.values, store.checksums, store.signs, store.idx, store.state)
    rows = list(zip(*(to_list(column[: store.size]) for column in columns)))
    return (
        decoder.remote_values(),
        decoder.local_values(),
        decoder._bank,
        decoder._nonzero,
        rows,
    )


def block_schedule(data, rng):
    """Block sizes of one stream: the service's 8/16/32/64 slow-start
    ramp, or irregular sizes (some below the NumPy engine's minimum)."""
    if data.draw(st.booleans()):
        return [min(8 << k, 64) for k in range(data.draw(st.integers(1, 9)))]
    return [rng.choice((1, 5, 40, 63, 64, 100, 200)) for _ in range(rng.randint(1, 6))]


@pytest.mark.parametrize("codec_name", sorted(CODECS))
@given(data=st.data())
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
def test_ingest_wave_equals_one_block_at_a_time(lane, codec_name, data):
    """One ``add_coded_block`` over a run of blocks, its stops at the
    blocks' ends, leaves the decoder exactly as feeding it the blocks one
    call at a time and stopping after the block that decodes — the
    machine's waves rely on it — over random set pairs and block
    schedules, with and without stops every ``chunk`` cells inside the
    blocks."""
    codec = CODECS[codec_name]()
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    chunk = data.draw(st.sampled_from([None, 1, 16, 64]))
    sizes = block_schedule(data, rng)
    a, b = split_sets(
        rng, rng.randint(0, 60), rng.randint(0, 40), rng.randint(0, 40),
        size=codec.symbol_size,
    )
    stream = subtracted_stream(codec, a, b, sum(sizes))
    ends = [sum(sizes[: k + 1]) for k in range(len(sizes))]
    inside = set(range(chunk, ends[-1], chunk)) if chunk else set()
    one = RatelessDecoder(codec)
    used_one = 0
    for lo, hi in zip([0, *ends], ends):
        stops = sorted(e - lo for e in inside | {hi} if lo < e <= hi)
        used_one += one.add_coded_block(stream.slice(lo, hi), stops)
        if one.decoded:
            break
    wave = RatelessDecoder(codec)
    used_wave = wave.add_coded_block(stream, sorted(inside | set(ends)))
    assert used_wave == used_one
    # A wave recovers in its own breadth-first order: rows compare as sets.
    (*values, bank, nonzero, rows), expected = decoder_state(wave), decoder_state(one)
    assert [sorted(v) for v in values] == [sorted(v) for v in expected[:2]]
    assert (bank, nonzero) == expected[2:4]
    assert sorted(rows) == sorted(expected[4])


# -- wire + session --------------------------------------------------------


def test_write_block_bytes_identical_to_per_cell(lane, rng):
    codec = SymbolCodec(8)
    items = make_items(rng, 64)
    bank = RatelessEncoder(codec, items).produce_block(90)
    one = SymbolStreamWriter(codec, set_size=64)
    per_cell = one.header() + b"".join(one.write(cell) for cell in bank.cells())
    two = SymbolStreamWriter(codec, set_size=64)
    blocked = two.header() + two.write_block(bank)
    assert blocked == per_cell
    assert one.bytes_written == two.bytes_written
    assert one.count_bytes_written == two.count_bytes_written


def test_feed_into_matches_feed(rng):
    codec = SymbolCodec(8)
    items = make_items(rng, 40)
    bank = RatelessEncoder(codec, items).produce_block(50)
    writer = SymbolStreamWriter(codec, set_size=40)
    blob = writer.header() + writer.write_block(bank)
    reader_a = SymbolStreamReader(codec)
    cells = []
    # dribble bytes to exercise partial-cell buffering
    for i in range(0, len(blob), 7):
        cells.extend(reader_a.feed(blob[i : i + 7]))
    assert cells == bank.cells()
    reader_b = SymbolStreamReader(codec)
    parsed = CodedSymbolBank()
    for i in range(0, len(blob), 11):
        reader_b.feed_into(parsed, blob[i : i + 11])
    assert parsed == bank


@pytest.mark.parametrize("codec_name", sorted(CODECS))
def test_wire_block_round_trip_every_codec(lane, codec_name, rng):
    """write_block == per-cell write, and feed_into parses it back, at
    every symbol width (dribbled so partial cells are buffered)."""
    codec, items = codec_items(codec_name, rng, 64)
    bank = RatelessEncoder(codec, items).produce_block(90)
    one = SymbolStreamWriter(codec, set_size=64)
    per_cell = one.header() + b"".join(one.write(cell) for cell in bank.cells())
    two = SymbolStreamWriter(codec, set_size=64)
    blob = two.header() + two.write_block(bank)
    assert blob == per_cell
    assert one.count_bytes_written == two.count_bytes_written
    step = 3 * (codec.symbol_size + codec.checksum_size + 1) + 5
    reader = SymbolStreamReader(codec)
    parsed = CodedSymbolBank()
    for i in range(0, len(blob), step * 7):
        reader.feed_into(parsed, blob[i : i + step * 7])
    assert parsed == bank


def test_session_block_run_matches_outcome(lane, rng):
    a, b = split_sets(rng, shared=150, only_a=12, only_b=12)
    exact = stream_reconcile(SymbolCodec(8), a, b)
    blocked = stream_reconcile(SymbolCodec(8), a, b, block_size=32)
    assert set(blocked.remote_items()) == set(exact.remote_items()) == a - b
    assert set(blocked.local_items()) == set(exact.local_items()) == b - a
    # block granularity: within one block of the exact count
    exact_used, blocked_used = exact.symbols_received, blocked.symbols_received
    assert exact_used <= blocked_used < exact_used + 32


def test_api_session_block_run_matches(lane, rng):
    from repro.api import Session

    a, b = split_sets(rng, shared=120, only_a=10, only_b=10)
    exact = Session(sorted(a), sorted(b), "riblt").run()
    blocked = Session(sorted(a), sorted(b), "riblt").run(block_size=16)
    assert blocked.only_in_a == exact.only_in_a
    assert blocked.only_in_b == exact.only_in_b
    assert exact.symbols_used <= blocked.symbols_used < exact.symbols_used + 16


def test_riblt_adapter_block_payload_bytes_identical(lane, rng):
    """A riblt stream's §6 payload is byte-identical however it is cut
    into blocks.  The stream is served by the warm backend's cursor (the
    adapter keeps only the sketch face), so the cut is made there."""
    from repro.service.backends import open_backend

    items = make_items(rng, 60)
    singles = open_backend(items).open_stream()
    payload_singles = b"".join(singles.next_block(1) for _ in range(40))
    blocks = open_backend(items).open_stream()
    payload_blocks = blocks.next_block(25) + blocks.next_block(15)
    assert payload_blocks == payload_singles

# -- packed bank (zero-copy pack/unpack) ------------------------------------


@pytest.mark.parametrize("codec_name", sorted(CODECS))
def test_pack_unpack_round_trip(lane, codec_name, rng):
    """pack → unpack is the identity on every codec shape, including a
    subtracted bank whose counts are negative (signed count field)."""
    codec, items = codec_items(codec_name, rng, 120)
    bank = RatelessEncoder(codec, items).produce_block(90)
    stride = codec.symbol_size + codec.checksum_size + CodedSymbolBank.COUNT_BYTES
    blob = bank.pack(codec)
    assert len(blob) == 90 * stride
    assert CodedSymbolBank.unpack(blob, codec) == bank
    other = RatelessEncoder(codec, items[:40]).produce_block(90)
    diff = other.subtract(bank)  # 40-item minus 120-item: counts go negative
    assert any(c < 0 for c in diff.counts)  # the signed field is exercised
    assert CodedSymbolBank.unpack(diff.pack(codec), codec) == diff


@pytest.mark.parametrize("codec_name", sorted(CODECS))
def test_pack_bytes_identical_across_engines(codec_name, rng):
    """The vectorised pack/unpack engines are byte-for-byte the scalar
    reference: same blob out, same lanes back."""
    codec_factory = CODECS[codec_name]
    items = make_items(rng, 80, size=codec_factory().symbol_size)
    codec = codec_factory()
    bank = RatelessEncoder(codec, items).produce_block(64)
    blobs = {}
    parsed = {}
    for flag in (True, False):
        with engine_lane(flag):
            blobs[flag] = bank.pack(codec)
            parsed[flag] = CodedSymbolBank.unpack(blobs[True], codec)
    assert blobs[True] == blobs[False]
    assert parsed[True] == parsed[False] == bank


def test_pack_small_bank_skips_vector_engine(lane, rng):
    """Banks below PACK_MIN_CELLS stay on the scalar engine and still
    round-trip (the threshold is a performance gate, not a format one)."""
    codec = SymbolCodec(8)
    items = make_items(rng, 20)
    bank = RatelessEncoder(codec, items).produce_block(
        cellbank.PACK_MIN_CELLS - 1
    )
    assert CodedSymbolBank.unpack(bank.pack(codec), codec) == bank


def test_unpack_rejects_misaligned_blob(lane):
    codec = SymbolCodec(8)
    with pytest.raises(ValueError, match="stride"):
        CodedSymbolBank.unpack(b"\x00" * 17, codec)


# -- integer-direct batched hashing (decoder peel verification) -------------


def test_siphash_int_batch_matches_bytes_path(rng):
    """siphash24_int_batch == siphash24 over the equivalent byte message
    for every size 1..8, on both the scalar and lane engines."""
    from repro.hashing import siphash as sh

    key = bytes(range(16))
    for size in (1, 3, 7, 8):
        hi = (1 << (8 * size)) - 1
        values = [0, 1, hi] + [rng.getrandbits(8 * size) for _ in range(60)]
        expected = [
            sh.siphash24(key, v.to_bytes(size, "little")) for v in values
        ]
        for flag in (True, False) if engine.np is not None else (False,):
            with engine_lane(flag):
                assert sh.siphash24_int_batch(key, values, size) == expected
                # below NUMPY_MIN_BATCH the packed kernel runs
                assert sh.siphash24_int_batch(key, values[:3], size) == expected[:3]


def test_siphash_int_batch_contract():
    """Same contract as int.to_bytes: out-of-range values raise, on
    either engine, before anything is hashed."""
    from repro.hashing import siphash as sh

    key = bytes(16)
    assert sh.siphash24_int_batch(key, [], 8) == []
    with pytest.raises(OverflowError):
        sh.siphash24_int_batch(key, [1 << 16], 2)
    with pytest.raises(OverflowError):
        sh.siphash24_int_batch(key, [5, -1], 4)
    with pytest.raises(ValueError):
        sh.siphash24_int_batch(key, [1], 9)
    with pytest.raises(ValueError):
        sh.siphash24_int_batch(b"short", [1], 8)


@pytest.mark.parametrize("codec_name", sorted(CODECS))
def test_checksum_int_batch_matches_per_value(codec_name, rng):
    """The decoder's peel-round verification hash — checksum_int_batch —
    equals per-value checksum_int on every codec, for both the SipHash
    integer fast path and the wide-symbol bytes fallback."""
    from repro.hashing.keyed import SipHasher

    for hasher in (None, SipHasher(key=bytes(range(16)))):
        codec = SymbolCodec(
            CODECS[codec_name]().symbol_size,
            hasher=hasher,
            checksum_size=CODECS[codec_name]().checksum_size,
            irregular=CODECS[codec_name]().irregular,
        )
        values = [
            rng.getrandbits(8 * codec.symbol_size) for _ in range(50)
        ]
        expected = [codec.checksum_int(v) for v in values]
        assert codec.checksum_int_batch(values) == expected


@pytest.mark.parametrize("size", [1, 7, 8, 9, 16, 92, 96])
def test_checksum_int_batch_from_lanes_matches_per_value(size, rng):
    """The decoder's candidates arrive as their ``(n, k)`` uint64 lanes;
    SipHash takes their words as they are (the final block is the last
    lane with the length byte, or the length byte alone at a multiple of
    8 bytes), on either side of the packed/lane crossover and with a
    truncated checksum, and equals per-value checksum_int."""
    np = pytest.importorskip("numpy")
    from repro.hashing import siphash
    from repro.hashing.keyed import SipHasher

    hasher = SipHasher(key=bytes(range(16)))
    for checksum_size in (8, 4):
        codec = SymbolCodec(size, hasher=hasher, checksum_size=checksum_size)
        for count in (1, 5, siphash.NUMPY_MIN_BATCH + 3):
            values = [rng.getrandbits(8 * size) for _ in range(count - 1)]
            values.append((1 << (8 * size)) - 1)  # every message byte set
            lanes = cellbank.lanes_from_ints(values, size)
            with engine_lane(True):
                got = codec.checksum_int_batch(lanes)
            assert isinstance(got, np.ndarray) and got.dtype == np.uint64
            assert got.tolist() == [codec.checksum_int(v) for v in values]
