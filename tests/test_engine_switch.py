"""One switch, observed: ``repro.engine.NUMPY_LANE`` is the only thing
that decides which engine a vector path takes.

Every consumer reaches NumPy through ``engine.np`` at call time, so the
test watches that door instead of trusting the flag: with the switch on
a spy records that the call went through it; with the switch off a
tripwire in its place fails the call on first touch.  Both sides must
return the same bytes / values.  (Needs the vector engine, so the whole
module skips without NumPy.)
"""

import random

import pytest

from repro import engine
from repro.baselines.met_iblt import MetIBLT
from repro.baselines.regular_iblt import RegularIBLT
from repro.core.cellbank import CodedSymbolBank
from repro.core.encoder import RatelessEncoder
from repro.core.sketch import RatelessSketch
from repro.core.symbols import SymbolCodec
from repro.core.wire import SymbolStreamReader, SymbolStreamWriter
from repro.durable.snapshot import pack_snapshot, unpack_snapshot
from repro.hashing.keyed import SipHasher
from repro.hashing.siphash import siphash24_batch
from repro.service.shard import placements_from_hashes

from helpers import engine_lane, make_items

pytestmark = pytest.mark.skipif(engine.np is None, reason="NumPy not available")

KEY = bytes(range(16))


class _Spy:
    """``engine.np`` stand-in that notes being used."""

    def __init__(self, real):
        self._real = real
        self.touched = False

    def __getattr__(self, name):
        self.touched = True
        return getattr(self._real, name)


class _Tripwire:
    """``engine.np`` stand-in for the scalar side: any use is a failure."""

    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} reached with the engine switch off")


def on_both_engines(monkeypatch, call):
    """``call()`` under each setting of the switch; returns both results
    after checking which engine each one took."""
    spy = _Spy(engine.np)
    with engine_lane(True):
        monkeypatch.setattr(engine, "np", spy)
        vector = call()
        monkeypatch.undo()
    assert spy.touched, "switch on, but the call never reached NumPy"
    with engine_lane(False):
        monkeypatch.setattr(engine, "np", _Tripwire())
        scalar = call()
        monkeypatch.undo()
    return vector, scalar


def fixture_for(size):
    """Codec, items, a produced bank and its packed snapshot at ℓ = size."""
    rng = random.Random(size)
    codec = SymbolCodec(size, hasher=SipHasher(KEY))
    items = make_items(rng, 120, size)
    encoder = RatelessEncoder(codec, items)
    bank = encoder.produce_block(80)
    snapshot = pack_snapshot(encoder)
    return codec, items, bank, snapshot


def snapshot_state(blob, codec):
    snap = unpack_snapshot(blob, codec)
    rows = [list(map(int, column)) for column in
            (snap.values, snap.checksums, snap.currents, snap.states)]
    return rows, snap.bank


def stream_round_trip(codec, bank):
    writer = SymbolStreamWriter(codec, set_size=120)
    blob = writer.header() + writer.write_block(bank)
    parsed = CodedSymbolBank()
    SymbolStreamReader(codec).feed_into(parsed, blob)
    return blob, parsed


CALLS = {
    # twice the items: a batch at or above NUMPY_MIN_BATCH, so on the lanes
    # (below it both engines run the packed kernel)
    "siphash24_batch": lambda c, items, bank, snap: list(
        map(int, siphash24_batch(KEY, items * 2))
    ),
    "placements_from_hashes": lambda c, items, bank, snap: placements_from_hashes(
        [int.from_bytes(item[:8], "little") for item in items], 5
    ),
    "to_int_batch": lambda c, items, bank, snap: c.to_int_batch(items),
    "bank_pack": lambda c, items, bank, snap: bank.pack(c),
    "bank_unpack": lambda c, items, bank, snap: CodedSymbolBank.unpack(bank.pack(c), c),
    "write_block_feed_into": lambda c, items, bank, snap: stream_round_trip(c, bank),
    "unpack_snapshot": lambda c, items, bank, snap: snapshot_state(snap, c),
    "regular_iblt": lambda c, items, bank, snap: RegularIBLT.from_items(items, 90, c).cells,
    "met_iblt": lambda c, items, bank, snap: MetIBLT.from_items(items, c).cells,
    "sketch": lambda c, items, bank, snap: RatelessSketch.from_items(items, 70, c).cells,
}


@pytest.mark.parametrize("size", [8, 92])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_switch_flips_the_engine_taken(monkeypatch, name, size):
    state = fixture_for(size)
    vector, scalar = on_both_engines(monkeypatch, lambda: CALLS[name](*state))
    assert vector == scalar



@pytest.mark.parametrize("size", [8, 92])
def test_lane_prefix_follows_mid_life_flips(size):
    """An encoder's cached prefix takes the form of the engine running:
    lane form under the vector engine, lists once the switch goes off
    mid-life, lanes again when it comes back.  Churn and serving through
    every flip stream the same bytes as an encoder that never flips."""
    rng = random.Random(size)
    codec = SymbolCodec(size, hasher=SipHasher(KEY))
    items = make_items(rng, 480, size)

    def stream(engines):
        with engine_lane(engines[0]):
            encoder = RatelessEncoder(codec, items[:200])
            writer = SymbolStreamWriter(codec, set_size=len(encoder))
            blobs = [writer.header() + writer.write_block(encoder.cached_block(0, 90))]
        for phase, vector in enumerate(engines[1:]):
            fresh = items[200 + 70 * phase : 270 + 70 * phase]
            with engine_lane(vector):
                encoder.add_items(fresh)
                encoder.remove_items(fresh[::3])
                lo = writer.index
                blobs.append(writer.write_block(encoder.cached_block(lo, lo + 60)))
                assert encoder.bank.vector is vector
        return blobs

    flipping = stream([True, False, True, False, True])
    assert flipping == stream([True] * 5) == stream([False] * 5)
