"""Sync scenarios: "Bob went offline at height h, Alice is at head" (§7.3).

A scenario packages everything both protocols need: the two item sets for
set reconciliation, and the two tries (plus Bob's private node store) for
state heal.  ``measure_riblt_plan`` runs the *real* codec on the scenario
(an in-memory :class:`~repro.api.Session`) and measures per-symbol CPU
costs, producing the plan the §7.3 network model
(``repro.net.protocols.riblt_sync``) replays.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.api import Session
from repro.baselines.merkle.trie import NodeStore, Trie
from repro.core.symbols import SymbolCodec
from repro.ledger.account import ITEM_BYTES
from repro.ledger.chain import Chain
from repro.net.protocols.riblt_sync import SyncPlan


@dataclass
class SyncScenario:
    """One staleness experiment: Bob at ``bob_height``, Alice at head."""

    staleness_blocks: int
    alice_items: set[bytes]
    bob_items: set[bytes]
    alice_trie: Trie
    bob_trie: Trie
    bob_store: NodeStore
    difference_size: int

    @property
    def staleness_seconds(self) -> int:
        from repro.ledger.chain import BLOCK_SECONDS

        return self.staleness_blocks * BLOCK_SECONDS


def build_scenario(chain: Chain, staleness_blocks: int) -> SyncScenario:
    """Materialise the sync problem for a given staleness."""
    if staleness_blocks > chain.head:
        raise ValueError(
            f"staleness {staleness_blocks} exceeds chain height {chain.head}"
        )
    bob_height = chain.head - staleness_blocks
    alice_trie = chain.trie_at(chain.head)
    bob_trie = chain.trie_at(bob_height)
    return SyncScenario(
        staleness_blocks=staleness_blocks,
        alice_items=chain.items_at(chain.head),
        bob_items=chain.items_at(bob_height),
        alice_trie=alice_trie,
        bob_trie=bob_trie,
        bob_store=bob_trie.reachable_store(),
        difference_size=chain.difference_size(chain.head, bob_height),
    )


def measure_riblt_plan(
    scenario: SyncScenario,
    codec: SymbolCodec | None = None,
    chunk_symbols: int = 256,
    calibrated_line_rate_bps: float | None = None,
    block_symbols: int = 1,
) -> SyncPlan:
    """Run the real reconciliation once, measuring symbols and CPU costs.

    Returns the :class:`SyncPlan` that ``simulate_riblt_sync`` replays.
    Encoding cost is *not* charged to the timeline: §7.3's
    Alice maintains a universal stream incrementally across peers, so
    coded symbols are read, not computed, at request time.

    ``calibrated_line_rate_bps`` replaces the measured (interpreter-speed)
    per-symbol decode cost with the rate the paper measured for its Go
    implementation — "Rateless IBLT … can saturate a 170 Mbps link using
    one CPU core" (§7.3).  The §7.3 benches use this so the network
    experiment reproduces the *protocol* dynamics rather than the Python
    constant factor (a documented substitution).

    ``codec`` fixes the item and checksum widths; the hash is the riblt
    scheme's default.
    """
    if codec is None:
        codec = SymbolCodec(ITEM_BYTES)
    session = Session(
        scenario.alice_items,
        scenario.bob_items,
        "riblt",
        symbol_size=codec.symbol_size,
        checksum_size=codec.checksum_size,
    )
    t0 = time.perf_counter()
    # block_symbols > 1 rides the bank-backed block path (at most
    # ``block_symbols − 1`` symbols of overshoot past the decode point).
    session.run(block_size=block_symbols)
    stream_seconds = time.perf_counter() - t0
    symbols = session.steps
    bytes_per_symbol = session.bytes_sent / symbols
    if calibrated_line_rate_bps is not None:
        decode_per_symbol = bytes_per_symbol * 8.0 / calibrated_line_rate_bps
    else:
        # The measured pump runs Alice's encoder and Bob's encoder +
        # decoder; Bob's online cost is approximately 2/3 of it.
        decode_per_symbol = stream_seconds * (2.0 / 3.0) / symbols
    return SyncPlan(
        symbols_needed=symbols,
        bytes_per_symbol=bytes_per_symbol,
        decode_seconds_per_symbol=decode_per_symbol,
        chunk_symbols=chunk_symbols,
    )
