"""Hypothesis property tests for the core invariants (DESIGN.md §7)."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import engine
from repro.core.cellbank import CodedSymbolBank
from repro.core.decoder import RatelessDecoder
from repro.core.encoder import RatelessEncoder
from repro.core.sketch import RatelessSketch
from repro.core.symbols import SymbolCodec
from repro.core.wire import SymbolStreamReader, SymbolStreamWriter
from repro.hashing.keyed import SipHasher

from helpers import engine_lane

CODEC = SymbolCodec(8)

# Strategy: small universes of distinct 8-byte items.
items_strategy = st.sets(
    st.binary(min_size=8, max_size=8), min_size=0, max_size=60
)


@given(items_strategy, items_strategy)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_reconciliation_always_exact(set_a, set_b):
    """Whatever the sets, subtract-and-peel recovers exactly A △ B."""
    alice = RatelessEncoder(CODEC, set_a)
    bob = RatelessEncoder(CODEC, set_b)
    decoder = RatelessDecoder(CODEC)
    budget = 40 * (len(set_a ^ set_b) + 2)
    while not decoder.decoded and decoder.symbols_received < budget:
        decoder.add_subtracted(alice.produce_next(), bob.produce_next())
    assert decoder.decoded, "decoder failed within generous budget"
    assert set(decoder.remote_items()) == set_a - set_b
    assert set(decoder.local_items()) == set_b - set_a


@given(items_strategy, items_strategy, st.integers(min_value=1, max_value=80))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_linearity_every_prefix(set_a, set_b, size):
    """sketch(A) ⊖ sketch(B) equals sketch(A △ B) in sum/checksum for any
    prefix length."""
    sk_a = RatelessSketch.from_items(set_a, size, CODEC)
    sk_b = RatelessSketch.from_items(set_b, size, CODEC)
    sk_d = RatelessSketch.from_items(set_a ^ set_b, size, CODEC)
    for got, expected in zip(sk_a.subtract(sk_b).cells, sk_d.cells):
        assert got.sum == expected.sum
        assert got.checksum == expected.checksum


@given(items_strategy, st.integers(min_value=1, max_value=64))
@settings(max_examples=40, deadline=None)
def test_encoder_prefix_stable_under_extension(items, size):
    """Producing more symbols never rewrites earlier ones (Fig 3)."""
    enc = RatelessEncoder(CODEC, items)
    prefix = [cell.copy() for cell in enc.produce(size)]
    enc.produce(size)
    assert [enc.cached(i) for i in range(size)] == prefix


@given(items_strategy)
@settings(max_examples=30, deadline=None)
def test_incremental_update_equals_rebuild(items):
    """Add-then-remove churn leaves the cached prefix identical to a fresh
    encoder over the same final set."""
    items = list(items)
    rng = random.Random(42)
    enc = RatelessEncoder(CODEC, items)
    enc.produce(32)
    removed = [item for item in items if rng.random() < 0.3]
    for item in removed:
        enc.remove_item(item)
    final = [item for item in items if item not in set(removed)]
    fresh = RatelessEncoder(CODEC, final)
    assert [enc.cached(i) for i in range(32)] == fresh.produce(32)


@given(items_strategy, items_strategy)
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_decoder_partial_results_always_correct(set_a, set_b):
    """Even before success, everything recovered is a true difference."""
    alice = RatelessEncoder(CODEC, set_a)
    bob = RatelessEncoder(CODEC, set_b)
    decoder = RatelessDecoder(CODEC)
    for _ in range(max(4, len(set_a ^ set_b))):  # deliberately too few
        decoder.add_subtracted(alice.produce_next(), bob.produce_next())
    assert set(decoder.remote_items()) <= set_a - set_b
    assert set(decoder.local_items()) <= set_b - set_a


@given(
    st.sets(st.binary(min_size=8, max_size=8), min_size=1, max_size=40),
    st.integers(min_value=1, max_value=48),
)
@settings(max_examples=30, deadline=None)
def test_sketch_insertion_order_irrelevant(items, size):
    """Sketches are set functions: item order must not matter."""
    forward = RatelessSketch.from_items(sorted(items), size, CODEC)
    backward = RatelessSketch.from_items(sorted(items, reverse=True), size, CODEC)
    assert forward == backward


@st.composite
def any_width_case(draw):
    """Two sets of ``size``-byte items (1..40 bytes: one lane, a padded
    last lane, several lanes) and the block sizes the stream is cut into."""
    size = draw(st.integers(min_value=1, max_value=40))
    items = st.binary(min_size=size, max_size=size)
    set_a = draw(st.sets(items, min_size=0, max_size=70))
    set_b = draw(st.sets(items, min_size=0, max_size=70))
    blocks = draw(
        st.lists(st.integers(min_value=1, max_value=96), min_size=1, max_size=6)
    )
    return size, set_a, set_b, blocks


def _reconcile_over_the_wire(size, set_a, set_b, blocks):
    """encode → write_block → feed_into → subtract → add_coded_block, the
    stream cut into ``blocks`` (cycled); returns (wire bytes, decoder)."""
    codec = SymbolCodec(size, hasher=SipHasher())
    alice = RatelessEncoder(codec, sorted(set_a))
    bob = RatelessEncoder(codec, sorted(set_b))
    writer = SymbolStreamWriter(codec, set_size=len(set_a))
    reader = SymbolStreamReader(codec)
    decoder = RatelessDecoder(codec)
    stream = bytearray(writer.header())
    assert reader.feed_into(CodedSymbolBank(), bytes(stream)) == 0
    budget = 40 * (len(set_a ^ set_b) + 2)
    turn = 0
    while not decoder.decoded and decoder.symbols_received < budget:
        m = blocks[turn % len(blocks)]
        turn += 1
        blob = writer.write_block(alice.produce_block(m))
        stream += blob
        received = CodedSymbolBank()
        assert reader.feed_into(received, blob) == m
        received.subtract_in_place(bob.produce_block(m))
        assert decoder.add_coded_block(received) == m
    return bytes(stream), decoder


@given(any_width_case())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_any_width_block_pipeline_exact_and_engine_identical(case):
    """At every symbol width and any block split the block pipeline
    recovers exactly A △ B, and the NumPy and scalar engines put the
    same bytes on the wire."""
    size, set_a, set_b, blocks = case
    streams = {}
    for flag in (True, False) if engine.np is not None else (False,):
        with engine_lane(flag):
            streams[flag], decoder = _reconcile_over_the_wire(
                size, set_a, set_b, blocks
            )
        assert decoder.decoded, "decoder failed within generous budget"
        assert set(decoder.remote_items()) == set_a - set_b
        assert set(decoder.local_items()) == set_b - set_a
    assert len(set(streams.values())) == 1
