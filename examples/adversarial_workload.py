#!/usr/bin/env python3
"""Adversarial workloads and keyed checksums (§4.3).

In an open system, a rogue user can *choose* the items that enter a
victim's set.  If the checksum hash is public, the attacker can mine an
item whose checksum collides with a target item and corrupt decoding for
everyone.  With a keyed hash (SipHash under a secret per-session key) the
attacker cannot aim, and the same mined pair is harmless.

The demo mines a real collision against a truncated *public* hash (16
bits, so mining takes milliseconds), shows decoding break, then shows the
keyed defence.

Run:  python examples/adversarial_workload.py
"""

import os
import random

from repro.api import SymbolBudgetExceeded, reconcile
from repro.core.symbols import SymbolCodec
from repro.hashing.keyed import SipHasher

ITEM = 16
PUBLIC_KEY = bytes(16)  # "public" = known to the attacker


def mine_collision(codec, target_item):
    """Find a different item whose (truncated) checksum equals target's."""
    target_sum = codec.checksum_data(target_item)
    attempt = 0
    while True:
        candidate = attempt.to_bytes(ITEM, "little")
        if candidate != target_item and codec.checksum_data(candidate) == target_sum:
            return candidate
        attempt += 1


def run_session(key, checksum_size, alice_items, bob_items, budget):
    try:
        outcome = reconcile(
            alice_items,
            bob_items,
            symbol_size=ITEM,
            checksum_size=checksum_size,
            hasher="siphash",
            key=key,
            max_symbols=budget,
        )
        return True, outcome
    except SymbolBudgetExceeded:
        return False, None


def main() -> None:
    rng = random.Random(5)
    shared = {rng.randbytes(ITEM) for _ in range(500)}
    target = rng.randbytes(ITEM)  # an item only Alice has

    # 16-bit public checksum: weak enough to mine a collision quickly.
    public_codec = SymbolCodec(ITEM, SipHasher(PUBLIC_KEY), checksum_size=2)
    evil = mine_collision(public_codec, target)
    print(f"attacker mined a colliding item after knowing the public key:")
    print(f"  target   checksum: {public_codec.checksum_data(target):#06x}")
    print(f"  injected checksum: {public_codec.checksum_data(evil):#06x}")

    alice = shared | {target}
    bob = shared | {evil}  # attacker injected the collision into Bob

    ok, _ = run_session(PUBLIC_KEY, 2, alice, bob, budget=2_000)
    print(f"\npublic 16-bit checksum: reconciliation "
          f"{'completed (lucky)' if ok else 'FAILED to terminate (attack works)'}")

    # Same sets, but the checksum is keyed with a secret session key.
    ok, outcome = run_session(os.urandom(16), 8, alice, bob, budget=2_000)
    assert ok
    print(f"keyed 64-bit checksum : reconciliation completed in "
          f"{outcome.symbols_used} symbols; recovered "
          f"{outcome.difference_size} true differences")
    assert target in outcome.only_in_a and evil in outcome.only_in_b
    print("\nthe mined pair decodes as two ordinary differences under the "
          "secret key — the attacker cannot target what it cannot compute")


if __name__ == "__main__":
    main()
