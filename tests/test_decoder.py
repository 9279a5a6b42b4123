"""Incremental peeling decoder: recovery, orientation, termination."""

import pytest

from repro.core.cellbank import CodedSymbolBank
from repro.core.decoder import RatelessDecoder, decode_sketch_cells
from repro.core.encoder import RatelessEncoder
from repro.core.symbols import SymbolCodec

from helpers import make_items, split_sets, stream_reconcile


def test_identical_sets_decode_immediately(codec8, rng):
    items = make_items(rng, 100)
    decoder = stream_reconcile(codec8, set(items), set(items))
    assert decoder.symbols_received == 1
    assert decoder.remote_items() == []
    assert decoder.local_items() == []


def test_single_difference(codec8, rng):
    a, b = split_sets(rng, shared=100, only_a=1, only_b=0)
    decoder = stream_reconcile(codec8, a, b)
    assert set(decoder.remote_items()) == a - b
    assert decoder.local_items() == []


def test_single_local_difference(codec8, rng):
    a, b = split_sets(rng, shared=100, only_a=0, only_b=1)
    decoder = stream_reconcile(codec8, a, b)
    assert set(decoder.local_items()) == b - a
    assert decoder.remote_items() == []


@pytest.mark.parametrize("d", [2, 8, 32, 128])
def test_two_sided_difference(codec8, rng, d):
    a, b = split_sets(rng, shared=300, only_a=d // 2, only_b=d - d // 2)
    decoder = stream_reconcile(codec8, a, b)
    assert set(decoder.remote_items()) == a - b
    assert set(decoder.local_items()) == b - a


def test_disjoint_sets(codec8, rng):
    a, b = split_sets(rng, shared=0, only_a=40, only_b=40)
    decoder = stream_reconcile(codec8, a, b)
    assert set(decoder.remote_items()) == a
    assert set(decoder.local_items()) == b


def test_empty_vs_nonempty(codec8, rng):
    items = set(make_items(rng, 25))
    decoder = stream_reconcile(codec8, items, set())
    assert set(decoder.remote_items()) == items


def test_overhead_reasonable(codec8, rng):
    """m/d stays within the paper's finite-d envelope (≤ ~2.3 w.h.p.)."""
    a, b = split_sets(rng, shared=500, only_a=50, only_b=50)
    decoder = stream_reconcile(codec8, a, b)
    assert decoder.symbols_received <= 2.5 * 100


def test_not_decoded_prematurely(codec8, rng):
    """decoded must not fire while differences remain unrecovered."""
    a, b = split_sets(rng, shared=50, only_a=10, only_b=10)
    alice = RatelessEncoder(codec8, a)
    bob = RatelessEncoder(codec8, b)
    decoder = RatelessDecoder(codec8)
    while not decoder.decoded:
        recovered = len(decoder.remote_items()) + len(decoder.local_items())
        assert recovered < 20
        decoder.add_subtracted(alice.produce_next(), bob.produce_next())
    assert len(decoder.remote_items()) + len(decoder.local_items()) == 20


def test_decoded_requires_at_least_one_symbol(codec8):
    decoder = RatelessDecoder(codec8)
    assert not decoder.decoded


def test_result_snapshot(codec8, rng):
    a, b = split_sets(rng, shared=60, only_a=3, only_b=4)
    decoder = stream_reconcile(codec8, a, b)
    result = decoder.result()
    assert result.success
    assert result.difference_size == 7
    assert result.symbols_used == decoder.symbols_received
    assert result.overhead == result.symbols_used / 7


def test_decode_sketch_cells_one_shot(codec8, rng):
    a, b = split_sets(rng, shared=80, only_a=5, only_b=5)
    alice = RatelessEncoder(codec8, a)
    bob = RatelessEncoder(codec8, b)
    cells = [
        alice.produce_next().subtract(bob.produce_next()) for _ in range(60)
    ]
    result = decode_sketch_cells(cells, codec8)
    assert result.success
    assert set(result.remote) == a - b
    assert set(result.local) == b - a


def test_decode_does_not_mutate_with_copy(codec8, rng):
    a, b = split_sets(rng, shared=30, only_a=2, only_b=2)
    alice = RatelessEncoder(codec8, a)
    bob = RatelessEncoder(codec8, b)
    cells = [
        alice.produce_next().subtract(bob.produce_next()) for _ in range(30)
    ]
    snapshot = [cell.copy() for cell in cells]
    decode_sketch_cells(cells, codec8)
    assert cells == snapshot


def test_large_difference(codec8, rng):
    a, b = split_sets(rng, shared=200, only_a=400, only_b=400)
    decoder = stream_reconcile(codec8, a, b)
    assert set(decoder.remote_items()) == a - b
    assert set(decoder.local_items()) == b - a
    assert decoder.symbols_received < 2.0 * 800


def test_values_and_items_agree(codec8, rng):
    a, b = split_sets(rng, shared=40, only_a=4, only_b=0)
    decoder = stream_reconcile(codec8, a, b)
    assert [
        codec8.to_bytes(v) for v in decoder.remote_values()
    ] == decoder.remote_items()


def test_32_byte_items(rng):
    codec = SymbolCodec(32)
    a, b = split_sets(rng, shared=100, only_a=10, only_b=10, size=32)
    decoder = stream_reconcile(codec, a, b)
    assert set(decoder.remote_items()) == a - b
    assert set(decoder.local_items()) == b - a


def test_truncated_checksum_still_decodes(rng):
    """4-byte checksums reconcile small differences fine (§7.1)."""
    codec = SymbolCodec(8, checksum_size=4)
    a, b = split_sets(rng, shared=200, only_a=20, only_b=20)
    decoder = stream_reconcile(codec, a, b)
    assert set(decoder.remote_items()) == a - b
    assert set(decoder.local_items()) == b - a


def test_add_coded_block_stops_on_decode(codec8, rng):
    a, b = split_sets(rng, shared=50, only_a=2, only_b=2)
    alice = RatelessEncoder(codec8, a)
    bob = RatelessEncoder(codec8, b)
    cells = [
        alice.produce_next().subtract(bob.produce_next()) for _ in range(64)
    ]
    decoder = RatelessDecoder(codec8)
    used = decoder.add_coded_block(CodedSymbolBank.from_cells(cells), range(1, 65))
    assert decoder.decoded
    assert used < 64
    assert decoder.symbols_received == used


def _per_cell_stop(codec, cells, old, stops):
    """The reference for ``add_coded_block``'s ``stops``: a decoder fed
    ``cells[:old]``, then cell by cell until the first of ``stops``
    (counts past ``old``) at which it reports decoded, else every cell.
    Returns it and the cells it consumed past ``old``."""
    decoder = RatelessDecoder(codec)
    for cell in cells[:old]:
        decoder.add_coded_symbol(cell)
    used = 0
    for cell in cells[old:]:
        decoder.add_coded_symbol(cell)
        used += 1
        if used in stops and decoder.decoded:
            break
    return decoder, used


def _stops_for(case, rng, point):
    """Stop lists (ascending, past ``old``) placing the per-cell decode
    point ``point`` at the first stop, the last, on one, between two, or
    past them all."""
    below = sorted(rng.sample(range(1, point), 3))
    above = sorted(rng.sample(range(point + 1, point + 40), 3))
    return {
        "first": sorted({point + rng.randint(0, 3), *above}),
        "last": below + [point + rng.randint(0, 3)],
        "on": below + [point] + above,
        "between": below + above,
        "never": below,
    }[case]


def test_ingest_stops_at_the_first_decoding_end(lane, rng):
    """``add_coded_block(bank, stops)`` peels its bank whole in one wave,
    yet returns — and rolls its decoder back to — the first of its stops
    at which per-cell ``add_coded_symbol`` ingestion of the same cells
    reports decoded: a decode at the first stop, at the last, on a stop,
    between two, and never, over differences of both signs and decoders
    that already hold rows.  The rolled-back decoder is the per-cell one:
    its cells, its recoveries and where each recovered walk is parked."""
    codec = SymbolCodec(8)
    for _ in range(3):
        jobs, refs = [], []
        for case in ("first", "last", "on", "between", "never"):
            d = rng.randint(60, 240)
            a, b = split_sets(rng, shared=100, only_a=d // 3, only_b=d - d // 3)
            m = 3 * d + 64
            cells = RatelessEncoder(codec, a).produce_block(m)
            cells = cells.subtract(RatelessEncoder(codec, b).produce_block(m)).cells()
            point = _per_cell_stop(codec, cells, 0, range(m + 1))[1]
            old = rng.choice([0, rng.randint(32, point // 2)])
            at = _stops_for(case, rng, point - old)
            decoder = RatelessDecoder(codec)
            if old:
                decoder.add_coded_block(CodedSymbolBank.from_cells(cells[:old]))
            bank = CodedSymbolBank.from_cells(cells[old : old + at[-1]])
            jobs.append((decoder, bank, at))
            refs.append(_per_cell_stop(codec, cells[: old + at[-1]], old, set(at)))
        used = [decoder.add_coded_block(bank, at) for decoder, bank, at in jobs]
        cases = ("first", "last", "on", "between", "never")
        for (decoder, _, _), (ref, ref_used), got, case in zip(jobs, refs, used, cases):
            assert got == ref_used, case
            assert decoder.decoded == ref.decoded == (case != "never")
            assert decoder.symbols_received == ref.symbols_received
            assert decoder._bank == ref._bank
            assert sorted(decoder.remote_values()) == sorted(ref.remote_values())
            assert sorted(decoder.local_values()) == sorted(ref.local_values())
            assert sorted(zip(*decoder._store.export())) == sorted(
                zip(*ref._store.export())
            )
