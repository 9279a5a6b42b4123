"""The encoder against a model: a plain ``set``.

A hypothesis state machine drives one warm ``RatelessEncoder`` through
any interleaving of single and bulk churn (batches of 1–40, so both
list-form and NumPy-column ingestion), rejected batches, per-cell and
block production, an ``export_rows`` → ``restore`` round trip, a cold
bulk rebuild (whose store leaves its membership index unbuilt until a
membership test, removal or add asks for it), membership probes and an
engine flip.  After every step the encoder holds exactly the model's
members and its cached prefix is what a cold encoder of the model's set
produces (§4.1 linearity: the stream is a function of the set alone).
"""

from __future__ import annotations

import random
from contextlib import ExitStack

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro import engine
from repro.core.encoder import RatelessEncoder
from repro.core.irregular import PAPER_IRREGULAR
from repro.core.symbols import SymbolCodec

from helpers import engine_lane, make_items

CODECS = {
    "regular8": lambda: SymbolCodec(8),
    "wide92": lambda: SymbolCodec(92),
    "irregular8": lambda: SymbolCodec(8, irregular=PAPER_IRREGULAR),
}

UNIVERSE = 90  # distinct items a run draws from
MAX_PREFIX = 320  # production stops here, to bound the per-step cold encode

index = st.integers(0, UNIVERSE - 1)
picks = st.lists(index, min_size=1, max_size=40, unique=True)


def machine_for(codec_name: str):
    codec = CODECS[codec_name]()
    universe = make_items(random.Random(codec_name), UNIVERSE, codec.symbol_size)

    class EncoderModel(RuleBasedStateMachine):
        def __init__(self) -> None:
            super().__init__()
            self.encoder = RatelessEncoder(codec)
            self.model: set[bytes] = set()
            self.engines = ExitStack()

        def teardown(self) -> None:
            self.engines.close()

        @initialize(vector=st.booleans(), chosen=picks)
        def populate(self, vector, chosen):
            if engine.np is not None:
                self.engines.enter_context(engine_lane(vector))
            self._churn(chosen, add=True)

        def _churn(self, chosen: list[int], add: bool) -> None:
            """Add (remove) the distinct items ``chosen`` indexes among
            those out of (in) the set — one at a time through the
            single-item form when only one is picked."""
            pool = [item for item in universe if (item in self.model) != add]
            if not pool:
                return
            items = list(dict.fromkeys(pool[i % len(pool)] for i in chosen))
            if len(items) == 1:
                (self.encoder.add_item if add else self.encoder.remove_item)(items[0])
            else:
                (self.encoder.add_items if add else self.encoder.remove_items)(items)
            if add:
                self.model.update(items)
            else:
                self.model.difference_update(items)

        @rule(i=index)
        def add_item(self, i):
            self._churn([i], add=True)

        @rule(chosen=picks)
        def add_items(self, chosen):
            self._churn(chosen, add=True)

        @rule(i=index)
        def remove_item(self, i):
            self._churn([i], add=False)

        @rule(chosen=picks)
        def remove_items(self, chosen):
            self._churn(chosen, add=False)

        @rule(chosen=picks, add=st.booleans())
        def refused_batch(self, chosen, add):
            """A batch naming an item already in (add) or missing from
            (remove) the set, or one item twice, is refused whole."""
            items = [universe[i] for i in chosen]
            if all((item in self.model) != add for item in items):
                items.append(items[0])
            with pytest.raises(KeyError):
                (self.encoder.add_items if add else self.encoder.remove_items)(items)

        @precondition(lambda self: self.encoder.produced_count < MAX_PREFIX)
        @rule()
        def produce_next(self):
            self.encoder.produce_next()

        @precondition(lambda self: self.encoder.produced_count < MAX_PREFIX)
        @rule(m=st.integers(1, 80))
        def produce_block(self, m):
            self.encoder.produce_block(m)

        @rule()
        def round_trip(self):
            encoder = self.encoder
            self.encoder = RatelessEncoder.restore(
                codec, *encoder.export_rows(), encoder.bank
            )

        @rule(rows=st.booleans())
        def bulk_rebuild(self, rows):
            """A cold bulk load of the model's set, as an item list or as
            its row matrix (the ingest pipeline's form)."""
            members = sorted(self.model)
            self.encoder = RatelessEncoder(
                codec, codec.item_rows(members) if rows else members
            )

        @rule()
        def membership(self):
            encoder = self.encoder
            assert all((item in encoder) == (item in self.model) for item in universe)

        @precondition(lambda self: engine.np is not None)
        @rule()
        def flip_engine(self):
            vector = not engine.NUMPY_LANE
            self.engines.close()
            self.engines.enter_context(engine_lane(vector))

        @invariant()
        def holds_the_model(self):
            encoder = self.encoder
            assert len(encoder) == len(self.model)
            # read through the rows, not membership, so an unbuilt index
            # stays unbuilt into the next step
            values = sorted(encoder.export_rows()[0])
            assert values == sorted(int.from_bytes(i, "little") for i in self.model)
            produced = encoder.produced_count
            cold = RatelessEncoder(codec, sorted(self.model))
            assert encoder.cached_block(0, produced) == cold.produce_block(produced)

    return EncoderModel


@pytest.mark.parametrize("codec_name", sorted(CODECS))
def test_encoder_matches_set_model(codec_name):
    run_state_machine_as_test(
        machine_for(codec_name),
        settings=settings(
            max_examples=40,
            stateful_step_count=30,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        ),
    )
