#!/usr/bin/env python3
"""Erlay-style transaction relay, scheme-pluggable (§1, §2 motivation).

Bitcoin's Erlay replaced flood-relay with set reconciliation to cut
bandwidth.  This demo builds a small gossip network whose mempools have
drifted apart, then runs periodic pairwise reconciliation rounds until
every node holds every transaction — once per scheme, through the
unified ``repro.api`` registry, so the paper's "rateless wins on gossip
workloads" claim is a table instead of an assertion.

Transactions are identified by 32-byte ids (txids), the exact workload
shape of Fig 7; the scheme list holds the schemes whose fields can
represent 32-byte items (PinSketch tops out at GF(2^64)).

Run:  python examples/transaction_relay.py
"""

import random

from repro.api import reconcile

TXID_BYTES = 32
NODES = 8
TOTAL_TXS = 3_000
SCHEMES = ("riblt", "met_iblt", "regular_iblt+strata", "merkle")


def build_mempools(rng: random.Random) -> tuple[list[set[bytes]], set[bytes]]:
    """Every node saw most transactions, missed a random 3%."""
    all_txs = [rng.randbytes(TXID_BYTES) for _ in range(TOTAL_TXS)]
    mempools = []
    for _ in range(NODES):
        missed = set(rng.sample(all_txs, int(0.03 * TOTAL_TXS)))
        mempools.append(set(all_txs) - missed)
    return mempools, set().union(*mempools)


def gossip_until_converged(scheme: str, seed: int) -> tuple[int, int, int]:
    """(rounds, total bytes, total coded units) to full convergence."""
    rng = random.Random(seed)
    mempools, union = build_mempools(rng)
    total_bytes = 0
    total_symbols = 0
    rounds = 0
    while any(pool != union for pool in mempools):
        rounds += 1
        for node in range(NODES):
            peer = rng.choice([p for p in range(NODES) if p != node])
            outcome = reconcile(mempools[peer], mempools[node], scheme=scheme)
            mempools[node] |= outcome.only_in_a
            mempools[peer] |= outcome.only_in_b
            total_bytes += outcome.bytes_on_wire
            total_symbols += outcome.symbols_used
    assert all(pool == union for pool in mempools)
    return rounds, total_bytes, total_symbols


def main() -> None:
    naive_exchange = NODES * TOTAL_TXS * TXID_BYTES  # every sync ships every txid
    print(f"{NODES} nodes, {TOTAL_TXS} transactions, 3% missed per node\n")
    print(f"{'scheme':22s} {'rounds':>6} {'traffic':>12} {'coded units':>12}")
    for scheme in SCHEMES:
        rounds, total_bytes, total_symbols = gossip_until_converged(scheme, seed=17)
        print(f"{scheme:22s} {rounds:>6} {total_bytes / 1e3:>10,.1f} KB "
              f"{total_symbols:>12,}")
    print(f"\ntxid-exchange baseline : {naive_exchange / 1e3:,.1f} KB per round "
          "(each sync ships every txid)")
    print("rateless streams stop at exactly the difference; fixed sketches "
          "pay the estimator every sync")


if __name__ == "__main__":
    main()
