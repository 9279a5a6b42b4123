"""Shared test helpers (imported as ``from helpers import ...``).

Deliberately *not* named ``conftest``: test modules used to import
helpers from ``conftest``, which breaks the moment another directory's
``conftest.py`` (e.g. ``benchmarks/``) lands earlier on ``sys.path`` and
shadows it.  Fixtures stay in ``tests/conftest.py``; plain functions
live here under a collision-free module name.
"""

from __future__ import annotations

import random
from contextlib import contextmanager

import pytest

from repro import engine
from repro.core.decoder import RatelessDecoder
from repro.core.encoder import RatelessEncoder


def make_items(rng: random.Random, count: int, size: int = 8) -> list[bytes]:
    """``count`` distinct random items of ``size`` bytes.

    Sorted so the workload is identical across processes — ``list(set)``
    order would depend on the interpreter's randomised string hashing.
    """
    items: set[bytes] = set()
    while len(items) < count:
        items.add(rng.randbytes(size))
    return sorted(items)


def split_sets(
    rng: random.Random, shared: int, only_a: int, only_b: int, size: int = 8
) -> tuple[set[bytes], set[bytes]]:
    """Two sets with the given shared/exclusive cardinalities."""
    items = make_items(rng, shared + only_a + only_b, size)
    common = items[:shared]
    a_extra = items[shared : shared + only_a]
    b_extra = items[shared + only_a :]
    return set(common) | set(a_extra), set(common) | set(b_extra)


def stream_reconcile(
    codec, set_a, set_b, block_size=1, writer=None, max_symbols=100_000
):
    """The bare §4.1 loop over the core codec, with no protocol machine.

    Alice streams coded symbols (through ``writer``, when given, for §6
    byte accounting); Bob subtracts his own and peels until decoded.
    ``block_size=1`` moves cells one at a time (cell-exact termination);
    larger blocks ride the bank paths.  Returns Bob's decoder.
    """
    alice = RatelessEncoder(codec, set_a)
    bob = RatelessEncoder(codec, set_b)
    decoder = RatelessDecoder(codec)
    while not decoder.decoded:
        if decoder.symbols_received >= max_symbols:
            raise AssertionError("did not decode in time")
        if block_size == 1:
            remote = alice.produce_next()
            if writer is not None:
                writer.write(remote)
            decoder.add_subtracted(remote, bob.produce_next())
        else:
            remote = alice.produce_block(block_size)
            if writer is not None:
                writer.write_block(remote)
            remote.subtract_in_place(bob.produce_block(block_size))
            decoder.add_coded_block(remote)
    return decoder


@contextmanager
def engine_lane(vector: bool):
    """Run the enclosed block on one engine — the NumPy lanes when
    ``vector``, the scalar reference otherwise — by flipping the one
    switch, :data:`repro.engine.NUMPY_LANE`.  Skips the calling test
    when the vector engine is asked for and NumPy is absent.
    """
    if vector and engine.np is None:
        pytest.skip("NumPy not available")
    saved = engine.NUMPY_LANE
    engine.NUMPY_LANE = vector
    try:
        yield
    finally:
        engine.NUMPY_LANE = saved
