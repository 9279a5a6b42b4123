"""Count-free decoding (§7.1): same recovery, ~1 byte/cell cheaper."""

import pytest

from repro.core.coded import CodedSymbol
from repro.core.countless import (
    CountlessDecoder,
    countless_cell_bytes,
    decode_countless,
    encode_countless,
    reconcile_countless,
)
from repro.core.encoder import RatelessEncoder
from repro.core.wire import cell_wire_size

from helpers import split_sets


def test_reconcile_countless_exact(codec8, rng):
    a, b = split_sets(rng, shared=300, only_a=20, only_b=20)
    result = reconcile_countless(a, b, codec8)
    assert result.success
    assert set(result.remote) == a - b
    assert set(result.local) == b - a


def test_countless_identical_sets(codec8, rng):
    a, _ = split_sets(rng, shared=100, only_a=0, only_b=0)
    result = reconcile_countless(a, a, codec8)
    assert result.success
    assert result.symbols_used == 1


def test_countless_one_sided(codec8, rng):
    a, b = split_sets(rng, shared=150, only_a=12, only_b=0)
    result = reconcile_countless(a, b, codec8)
    assert result.success
    assert set(result.remote) == a - b and result.local == []


def test_countless_overhead_unchanged(codec8, rng):
    """Dropping count must not change *how many* symbols decoding needs
    (the peeling graph is identical)."""
    from repro.api import reconcile

    a, b = split_sets(rng, shared=400, only_a=25, only_b=25)
    with_count = reconcile(a, b, symbol_size=8)
    without = reconcile_countless(a, b, codec8)
    assert without.symbols_used == with_count.symbols_used


def test_countless_wire_savings(codec8):
    """Cells shrink by exactly the count var-int (≥1 byte each)."""
    assert countless_cell_bytes(codec8) == cell_wire_size(codec8) - 1


def test_countless_wire_roundtrip(codec8, rng):
    items = [rng.randbytes(8) for _ in range(50)]
    enc = RatelessEncoder(codec8, items)
    cells = [enc.produce_next().copy() for _ in range(30)]
    blob = encode_countless(codec8, cells)
    assert len(blob) == 30 * countless_cell_bytes(codec8)
    back = decode_countless(codec8, blob)
    for original, parsed in zip(cells, back):
        assert parsed.sum == original.sum
        assert parsed.checksum == original.checksum
        assert parsed.count == 0  # unknown by design


def test_countless_wire_length_validation(codec8):
    with pytest.raises(ValueError):
        decode_countless(codec8, b"\x00" * 17)


def test_countless_partial_results_correct(codec8, rng):
    """Starved decoder: partial recoveries are still true differences."""
    a, b = split_sets(rng, shared=50, only_a=30, only_b=30)
    result = reconcile_countless(a, b, codec8, max_symbols=20)
    assert not result.success
    assert set(result.remote) <= a - b
    assert set(result.local) <= b - a


def test_countless_end_to_end_over_wire(codec8, rng):
    """Alice serialises count-free; Bob subtracts his own cells and peels
    with membership probes."""
    a, b = split_sets(rng, shared=120, only_a=6, only_b=6)
    alice = RatelessEncoder(codec8, a)
    blob = encode_countless(
        codec8, [alice.produce_next().copy() for _ in range(60)]
    )
    received = decode_countless(codec8, blob)
    bob_enc = RatelessEncoder(codec8, b)
    decoder = CountlessDecoder(codec8, is_local=set(b).__contains__)
    for remote in received:
        local = bob_enc.produce_next()
        decoder.add_coded_symbol(
            CodedSymbol(remote.sum ^ local.sum, remote.checksum ^ local.checksum, 0)
        )
        if decoder.decoded:
            break
    assert decoder.decoded
    assert set(decoder.remote_items()) == a - b
    assert set(decoder.local_items()) == b - a
