"""Incremental encoder: heap scheduling, prefix stability, live updates."""

import pytest

from repro.core.encoder import RatelessEncoder
from repro.core.sketch import RatelessSketch
from repro.core.symbols import SymbolCodec

from helpers import make_items


def test_add_and_contains(codec8, rng):
    enc = RatelessEncoder(codec8)
    item = rng.randbytes(8)
    enc.add_item(item)
    assert item in enc
    assert len(enc) == 1


def test_duplicate_add_rejected(codec8, rng):
    enc = RatelessEncoder(codec8)
    item = rng.randbytes(8)
    enc.add_item(item)
    with pytest.raises(KeyError):
        enc.add_item(item)


def test_remove_missing_rejected(codec8, rng):
    enc = RatelessEncoder(codec8)
    with pytest.raises(KeyError):
        enc.remove_item(rng.randbytes(8))


def test_first_cell_contains_all(codec8, rng):
    """ρ(0) = 1: coded symbol 0 sums the entire set."""
    items = make_items(rng, 50)
    enc = RatelessEncoder(codec8, items)
    cell = enc.produce_next()
    assert cell.count == 50
    expected_sum = 0
    for item in items:
        expected_sum ^= codec8.to_int(item)
    assert cell.sum == expected_sum


def test_matches_one_shot_sketch(codec8, rng):
    """Heap-incremental production equals the direct-walk sketch builder."""
    items = make_items(rng, 200)
    enc = RatelessEncoder(codec8, items)
    incremental = enc.produce(150)
    direct = RatelessSketch.from_items(items, 150, codec8)
    assert incremental == list(direct.cells)


def test_prefix_stability(codec8, rng):
    """Fig 3's rateless property: extending the stream never changes
    already-produced symbols."""
    items = make_items(rng, 64)
    enc = RatelessEncoder(codec8, items)
    first_10 = [cell.copy() for cell in enc.produce(10)]
    enc.produce(90)
    assert [enc.cached(i) for i in range(10)] == first_10


def test_empty_set_produces_zero_cells(codec8):
    enc = RatelessEncoder(codec8)
    cells = enc.produce(5)
    assert all(cell.is_zero() for cell in cells)


def test_late_add_patches_prefix(codec8, rng):
    """Adding an item after production updates the cached prefix so it
    equals a fresh encode of the larger set (§4.1 linearity)."""
    items = make_items(rng, 40)
    enc = RatelessEncoder(codec8, items[:30])
    enc.produce(64)
    for item in items[30:]:
        enc.add_item(item)
    fresh = RatelessEncoder(codec8, items)
    assert [enc.cached(i) for i in range(64)] == fresh.produce(64)


def test_remove_patches_prefix(codec8, rng):
    items = make_items(rng, 40)
    enc = RatelessEncoder(codec8, items)
    enc.produce(64)
    for item in items[35:]:
        enc.remove_item(item)
    fresh = RatelessEncoder(codec8, items[:35])
    assert [enc.cached(i) for i in range(64)] == fresh.produce(64)


def test_removed_item_not_in_future_symbols(codec8, rng):
    """A removed item must not appear in symbols produced later either."""
    items = make_items(rng, 20)
    enc = RatelessEncoder(codec8, items)
    enc.produce(8)
    enc.remove_item(items[0])
    fresh = RatelessEncoder(codec8, items[1:])
    fresh.produce(8)
    for _ in range(56):
        assert enc.produce_next() == fresh.produce_next()


def test_add_remove_churn(codec8, rng):
    """Interleaved add/remove/produce stays consistent with a fresh encode."""
    items = make_items(rng, 60)
    enc = RatelessEncoder(codec8, items[:40])
    enc.produce(16)
    for item in items[40:50]:
        enc.add_item(item)
    enc.produce(16)
    for item in items[:10]:
        enc.remove_item(item)
    enc.produce(16)
    final_set = items[10:50]
    fresh = RatelessEncoder(codec8, final_set)
    assert [enc.cached(i) for i in range(48)] == fresh.produce(48)


def test_produce_counts(codec8, rng):
    enc = RatelessEncoder(codec8, make_items(rng, 10))
    assert enc.produced_count == 0
    enc.produce(7)
    assert enc.produced_count == 7
    assert enc.set_size == 10


def test_prefix_produces_on_demand(codec8, rng):
    enc = RatelessEncoder(codec8, make_items(rng, 10))
    cells = enc.cached_block(0, 12).cells()
    assert len(cells) == 12
    assert enc.produced_count == 12
    # cached_block returns value copies
    cells[0].apply(1, 1, 1)
    assert enc.cached(0) != cells[0]


def test_one_byte_symbols(rng):
    """ℓ = 1 byte works (the paper spans 'a few bytes to megabytes')."""
    codec = SymbolCodec(1)
    enc = RatelessEncoder(codec, [bytes([i]) for i in range(30)])
    cell = enc.produce_next()
    assert cell.count == 30


def test_cached_block_refuses_inverted_ranges(codec8, rng):
    """``cached_block(lo, hi)`` needs ``0 <= lo <= hi``: a negative or
    inverted range used to return an empty bank (after producing up to
    ``hi`` on a fresh encoder) instead of failing."""
    enc = RatelessEncoder(codec8, make_items(rng, 30))
    enc.produce_block(40)
    for lo, hi in ((-5, 2), (5, 3), (41, 40)):
        with pytest.raises(ValueError, match="cell range"):
            enc.cached_block(lo, hi)
    fresh = RatelessEncoder(codec8, make_items(rng, 30))
    with pytest.raises(ValueError, match="cell range"):
        fresh.cached_block(5, 3)
    assert fresh.produced_count == 0
    assert len(enc.cached_block(7, 7)) == 0
    assert len(enc.cached_block(40, 40)) == 0 and enc.produced_count == 40
    assert enc.cached_block(38, 42).cells() == [enc.cached(i) for i in range(38, 42)]
