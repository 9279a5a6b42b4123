"""Irregular Rateless IBLT (§8): config validation and decode behaviour."""

import pytest

from repro.core.irregular import PAPER_IRREGULAR, IrregularConfig
from repro.core.symbols import SymbolCodec

from helpers import split_sets, stream_reconcile


def test_paper_config_values():
    assert PAPER_IRREGULAR.subsets == 3
    assert PAPER_IRREGULAR.weights == (0.18, 0.56, 0.26)
    assert PAPER_IRREGULAR.alphas == (0.11, 0.68, 0.82)


def test_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        IrregularConfig(weights=(0.5, 0.4), alphas=(0.5, 0.5))


def test_lengths_must_match():
    with pytest.raises(ValueError):
        IrregularConfig(weights=(1.0,), alphas=(0.5, 0.5))


def test_positive_parameters():
    with pytest.raises(ValueError):
        IrregularConfig(weights=(1.0,), alphas=(0.0,))
    with pytest.raises(ValueError):
        IrregularConfig(weights=(-1.0, 2.0), alphas=(0.5, 0.5))


def test_subset_boundaries():
    config = IrregularConfig(weights=(0.25, 0.75), alphas=(0.3, 0.7))
    assert config.subset_for(0.0) == 0
    assert config.subset_for(0.249) == 0
    assert config.subset_for(0.25) == 1
    assert config.subset_for(0.999999) == 1
    assert config.alpha_for(0.1) == 0.3


def test_mean_rho_at_zero_is_one():
    """Every subset has ρ_j(0) = 1, so the weighted mean is 1: the first
    coded symbol still contains every source symbol."""
    assert PAPER_IRREGULAR.mean_rho(0) == pytest.approx(1.0)


def test_mean_rho_decreasing():
    values = [PAPER_IRREGULAR.mean_rho(i) for i in range(64)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_irregular_reconciliation_roundtrip(rng):
    codec = SymbolCodec(8, irregular=PAPER_IRREGULAR)
    a, b = split_sets(rng, shared=300, only_a=30, only_b=30)
    decoder = stream_reconcile(codec, a, b)
    assert set(decoder.remote_items()) == a - b
    assert set(decoder.local_items()) == b - a


def test_irregular_overhead_beats_regular_at_scale(rng):
    """§8's headline: irregular ≈1.10 vs regular ≈1.35 for large d.

    A single moderate-d run has noise, so compare averages of a few runs
    and require a clear ordering rather than the exact constants.
    """
    from repro.analysis.montecarlo import overhead_stats

    regular = overhead_stats(1500, runs=6, seed=1)
    irregular = overhead_stats(1500, runs=6, irregular=PAPER_IRREGULAR, seed=1)
    assert irregular.mean < regular.mean - 0.08
    assert irregular.mean < 1.30


def test_single_subset_equals_regular():
    """c = 1 with α = 0.5 must be byte-identical to the regular codec."""
    config = IrregularConfig(weights=(1.0,), alphas=(0.5,))
    regular = SymbolCodec(8)
    degenerate = SymbolCodec(8, irregular=config)
    item = b"ABCDEFGH"
    checksum = regular.checksum_data(item)
    gen_a = regular.new_mapping(checksum)
    gen_b = degenerate.new_mapping(checksum)
    assert [gen_a.next_index() for _ in range(64)] == [
        gen_b.next_index() for _ in range(64)
    ]
