"""Regular IBLT: peel correctness, provisioning, and the Appendix A
inflexibility theorems."""

import random

import pytest

from repro.baselines.regular_iblt import RegularIBLT, recommended_cells
from repro.baselines.table import CELL_OVERHEAD_BYTES
from helpers import make_items, split_sets


def test_insert_delete_roundtrip(codec8, rng):
    table = RegularIBLT(30, codec8)
    item = rng.randbytes(8)
    table.insert(item)
    table.delete_value(codec8.to_int(item))
    assert all(cell.is_zero() for cell in table.cells)


def test_positions_distinct(codec8, rng):
    table = RegularIBLT(30, codec8, hash_count=3)
    for _ in range(100):
        positions = table.positions(rng.getrandbits(64), table.num_cells)
        assert len(set(positions)) == 3
        # one per sub-table
        assert sorted(p // table.subtable_size for p in positions) == [0, 1, 2]


def test_geometry_validation(codec8):
    with pytest.raises(ValueError):
        RegularIBLT(30, codec8, hash_count=1)
    with pytest.raises(ValueError):
        RegularIBLT(2, codec8, hash_count=3)


def test_subtract_requires_same_geometry(codec8, rng):
    a = RegularIBLT(30, codec8)
    b = RegularIBLT(33, codec8)
    with pytest.raises(ValueError):
        a.subtract(b)


def test_reconciliation(codec8, rng):
    a, b = split_sets(rng, shared=400, only_a=25, only_b=25)
    m = recommended_cells(50)
    ta = RegularIBLT.from_items(a, m, codec8)
    tb = RegularIBLT.from_items(b, m, codec8)
    result = ta.subtract(tb).decode()
    assert result.success
    assert set(result.remote) == a - b
    assert set(result.local) == b - a


def test_decode_never_wrong_even_when_failing(codec8, rng):
    a, b = split_sets(rng, shared=50, only_a=60, only_b=60)
    table = RegularIBLT.from_items(a, 60, codec8).subtract(
        RegularIBLT.from_items(b, 60, codec8)
    )
    result = table.decode()
    assert not result.success
    assert set(result.remote) <= a - b
    assert set(result.local) <= b - a


def test_recommended_cells_monotone():
    values = [recommended_cells(d) for d in (1, 2, 5, 10, 50, 100, 1000)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_recommended_cells_multiplier_shrinks():
    """Small d needs a much larger multiplier (the Fig 7 penalty)."""
    assert recommended_cells(1) / 1 >= 10
    assert recommended_cells(1000) / 1000 < 2.0


def test_recommended_cells_rejects_zero():
    with pytest.raises(ValueError):
        recommended_cells(0)


def test_recommended_cells_high_success_rate(codec8):
    """The calibrated table must actually decode ≥ 95% of the time
    (the Fig 7 criterion is stricter; full calibration runs in the bench)."""
    rng = random.Random(7)
    for d in (10, 100):
        m = recommended_cells(d)
        failures = 0
        trials = 40
        for _ in range(trials):
            a, b = split_sets(rng, shared=50, only_a=d // 2, only_b=d - d // 2)
            diff = RegularIBLT.from_items(a, m, codec8).subtract(
                RegularIBLT.from_items(b, m, codec8)
            )
            if not diff.decode().success:
                failures += 1
        assert failures <= 2, f"d={d}: {failures}/{trials} failures at m={m}"


def test_wire_size_accounting(codec32):
    table = RegularIBLT(90, codec32)
    assert table.wire_size() == 90 * (32 + CELL_OVERHEAD_BYTES)


# --- Appendix A: inflexibility of regular IBLTs -------------------------------


def test_theorem_a1_undersized_recovers_nothing(codec8):
    """Thm A.1: with n source symbols ≫ m cells, peeling cannot even start
    (w.h.p.) — undersized IBLTs are useless, unlike rateless prefixes."""
    rng = random.Random(99)
    recovered_total = 0
    trials = 20
    for _ in range(trials):
        items = make_items(rng, 150)  # n = 150, m = 30
        table = RegularIBLT.from_items(items, 30, codec8)
        result = table.decode()
        assert not result.success
        recovered_total += result.difference_size
    assert recovered_total <= trials  # ~0 recoveries on average


def test_theorem_a2_truncated_prefix_fails(codec8):
    """Thm A.2: decoding from a truncated prefix of a regular IBLT fails
    with probability → 1 as the dropped fraction grows."""
    rng = random.Random(17)
    n = 60
    m = recommended_cells(n)
    failures_half = 0
    trials = 15
    for _ in range(trials):
        items = make_items(rng, n)
        table = RegularIBLT.from_items(items, m, codec8)
        assert table.decode().success
        if not table.decode(prefix_cells=m // 2).success:
            failures_half += 1
    assert failures_half == trials  # dropping half the cells is fatal


def test_contrast_rateless_prefix_succeeds(codec8):
    """The same truncation scenario with Rateless IBLT: a prefix sized to
    the *actual* difference succeeds — the whole point of the paper."""
    from repro.core.sketch import RatelessSketch

    rng = random.Random(23)
    items = make_items(rng, 60)
    sketch = RatelessSketch.from_items(items, 1024, codec8)
    # use only a 2·n prefix of the long sketch
    result = sketch.truncated(120).decode()
    assert result.success
    assert set(result.remote) == set(items)
