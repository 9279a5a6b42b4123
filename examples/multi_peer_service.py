#!/usr/bin/env python3
"""A reconciliation service under concurrent load (§1, §7.3, served).

One hub node exposes its transaction set over TCP: 4 hash-placed
shards behind one warm encoder bank.  Six edge nodes at different
staleness levels sync concurrently — every one of them reads a prefix
of the *same* cached stream, so the hub never re-encodes for a new
peer.  One edge then pushes its local-only items back; the hub's warm
bank is patched in place (linearity) and the next sync proves it.

Run:  python examples/multi_peer_service.py
"""

import asyncio
import random

from repro.service import ServiceNode

TX_BYTES = 16
SET_SIZE = 2_000
SHARDS = 4


async def main() -> None:
    rng = random.Random(2024)
    txs = sorted({rng.randbytes(TX_BYTES) for _ in range(SET_SIZE)})

    hub = ServiceNode(txs, num_shards=SHARDS)
    host, port = await hub.start()
    print(f"hub: {len(txs)} txs in {SHARDS} shards on {host}:{port}")

    # Six followers: increasingly stale, one with its own local txs.
    edges = [
        ServiceNode(txs[staleness:], num_shards=SHARDS)
        for staleness in (2, 5, 10, 20, 40)
    ]
    own = sorted(rng.randbytes(TX_BYTES) for _ in range(8))
    edges.append(ServiceNode(txs[15:] + own, num_shards=SHARDS))

    results = await asyncio.gather(
        *(edge.sync_with(host, port) for edge in edges)
    )
    for i, (edge, result) in enumerate(zip(edges, results)):
        print(
            f"edge {i}: fetched {len(result.only_in_server):>2} txs in "
            f"{result.symbols:>4} coded symbols "
            f"({result.bytes_received} bytes, one stream over {SHARDS} shards)"
        )
        assert edge.items >= set(txs), "edge failed to converge on hub's set"

    stats = hub.server.stats
    print(
        f"\nhub served {stats.sessions_completed} concurrent sessions: "
        f"{stats.symbols_sent} symbols / {stats.bytes_sent} bytes"
    )
    warm = hub.server.backend.encoder.produced_count
    print(f"the warm bank holds {warm} cached cells — shared by all sessions")

    # The diverged edge pushes its own txs; the hub's bank is patched,
    # not rebuilt, and a fresh sync sees the new txs immediately.
    pushed = await edges[-1].sync_with(host, port, push=True)
    print(f"\nedge 5 pushed {pushed.pushed} local txs back to the hub")
    assert all(tx in hub.server for tx in own)

    late = ServiceNode(txs, num_shards=SHARDS)
    result = await late.sync_with(host, port)
    assert set(own) <= result.only_in_server
    print(
        f"late joiner fetched the pushed txs from the warm bank "
        f"({len(result.only_in_server)} txs, {result.symbols} symbols)"
    )
    await hub.stop()


if __name__ == "__main__":
    asyncio.run(main())
