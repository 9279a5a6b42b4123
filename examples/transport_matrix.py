"""One protocol engine, three transports — the sans-io payoff.

The same reconciliation (same scheme, same sets, same frames) runs

* in memory, through the lock-step pump behind ``repro.api.reconcile``;
* over a simulated 20 Mbps / 50 ms link with 5% frame loss;
* over real asyncio TCP, against a live ``ReconciliationServer``;

and recovers the identical difference each time, because every
transport drives the same ``repro.protocol.ReconcilerMachine`` pair.

Run:  PYTHONPATH=src python examples/transport_matrix.py
"""

import asyncio
import random

from repro.api import reconcile
from repro.net.protocols import simulate_machine_sync
from repro.service import ReconciliationServer, sync

rng = random.Random(0xE14)
shared = [rng.randbytes(16) for _ in range(400)]
only_server = [rng.randbytes(16) for _ in range(9)]
only_client = [rng.randbytes(16) for _ in range(5)]
server_items = shared + only_server
client_items = shared + only_client
want_missing, want_extra = set(only_server), set(only_client)


def show(transport: str, missing: set, extra: set, detail: str) -> None:
    assert missing == want_missing, transport
    assert extra == want_extra, transport
    print(f"{transport:8s} recovered 9 missing + 5 extra   ({detail})")


# 1. memory: the in-process pump
result = reconcile(server_items, client_items, scheme="riblt")
show("memory", result.only_in_a, result.only_in_b,
     f"{result.bytes_on_wire} B on the wire")

# 2. sim: same machine, now through a lossy bandwidth/latency link
outcome = simulate_machine_sync(
    server_items, client_items, "riblt",
    bandwidth_bps=20e6, delay_s=0.05, loss_rate=0.05, seed=11,
)
show("sim", outcome.result.only_in_a, outcome.result.only_in_b,
     f"{outcome.completion_time * 1e3:.0f} ms over 20 Mbps/50 ms, 5% loss")


# 3. tcp: same machine again, shuttled by the asyncio service adapters
async def over_tcp():
    async with ReconciliationServer(server_items, num_shards=2) as server:
        host, port = server.address
        return await sync(host, port, client_items)

tcp = asyncio.run(over_tcp())
show("tcp", tcp.only_in_server, tcp.only_in_client,
     f"one stream over 2 shards, {tcp.bytes_received} B received")

print("one ReconcilerMachine, three transports, identical difference.")
