"""Shared fixtures: deterministic RNGs, codecs, and item factories.

Plain helper functions (``make_items``, ``split_sets``) live in
``tests/helpers.py`` so test modules never import from a module named
``conftest`` — that name is claimed by every test directory and is
shadowed as soon as two of them land on ``sys.path`` together.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import settings

from helpers import engine_lane, make_items, split_sets  # noqa: F401  (re-export)
from repro.core.symbols import SymbolCodec

# Deterministic property testing: examples are derived from the test
# body, so a run that passed keeps passing (no fresh-seed flakiness).
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG, fresh per test."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def codec8() -> SymbolCodec:
    """Codec for 8-byte items (the paper's computation benchmarks)."""
    return SymbolCodec(8)


@pytest.fixture
def codec32() -> SymbolCodec:
    """Codec for 32-byte items (the paper's communication benchmarks)."""
    return SymbolCodec(32)


@pytest.fixture(params=[True, False], ids=["numpy", "scalar"])
def lane(request):
    """Run the test once per engine (see ``helpers.engine_lane``)."""
    with engine_lane(request.param):
        yield request.param
