#!/usr/bin/env python3
"""Quickstart: reconcile two sets — with any scheme — in a dozen lines.

Alice and Bob each hold ~10,000 32-byte items that differ in 40 places.
Neither knows the difference size.  The unified API runs the paper's
Rateless IBLT by default; the same call, pointed at any registry entry,
runs the baselines it is compared against.

Run:  python examples/quickstart.py
"""

import random

from repro.api import available_schemes, reconcile


def main() -> None:
    rng = random.Random(1)
    shared = [rng.randbytes(32) for _ in range(10_000)]
    alice = set(shared) | {rng.randbytes(32) for _ in range(20)}
    bob = set(shared) | {rng.randbytes(32) for _ in range(20)}

    outcome = reconcile(alice, bob)  # scheme="riblt" is the default

    assert outcome.only_in_a == alice - bob
    assert outcome.only_in_b == bob - alice
    print(f"set sizes        : |A| = {len(alice)}, |B| = {len(bob)}")
    print(f"difference       : {outcome.difference_size} items")
    print(f"coded symbols    : {outcome.symbols_used}")
    print(f"overhead         : {outcome.overhead:.2f} symbols/difference "
          "(paper: 1.35-1.72)")
    print(f"bytes on wire    : {outcome.bytes_on_wire:,} "
          f"(vs {len(alice) * 32:,} to send the whole set)")
    saving = len(alice) * 32 / outcome.bytes_on_wire
    print(f"saving           : {saving:,.0f}x less traffic than a full transfer")

    # Same workload shape, every baseline the paper compares against
    # (Fig 7).  7-byte items: PinSketch's largest built-in field is
    # GF(2^64), so that width is one every scheme can represent.
    small_shared = [rng.randbytes(7) for _ in range(2_000)]
    small_a = set(small_shared) | {rng.randbytes(7) for _ in range(20)}
    small_b = set(small_shared) | {rng.randbytes(7) for _ in range(20)}
    print("\nsame 40-item difference, every registered scheme:")
    for scheme in available_schemes():
        result = reconcile(small_a, small_b, scheme=scheme)
        assert result.only_in_a == small_a - small_b
        assert result.only_in_b == small_b - small_a
        print(f"  {scheme:22s} {result.bytes_on_wire:>9,} bytes "
              f"({result.rounds} round{'s' if result.rounds > 1 else ''})")


if __name__ == "__main__":
    main()
