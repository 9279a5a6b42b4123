"""Service throughput: coded symbols/sec served to K concurrent clients.

The serving claim behind the service subsystem: one warm encoder bank
per shard amortises encoding across every client, so aggregate
symbols/sec *grows* with concurrency until the event loop saturates —
clients beyond the first mostly re-read cached cells.

The restart bench pins the durability story's perf half: a warm
restart (``repro.durable`` snapshot restore — pure parsing, no hashing,
no walking) must be at least 5x faster than cold re-ingest at serving
its first coded-symbol block, and bit-identical on the wire.

Results land in ``BENCH_service_throughput.json`` and
``BENCH_service_restart.json``.
"""

import asyncio
import random
import time

from bench_json import write_bench_json
from bench_util import SCALE, by_scale, make_items, report_table
from repro.service.client import sync
from repro.service.defaults import SERVICE_HASHER
from repro.service.server import ReconciliationServer, ServerConfig

ITEM = 8
SET_SIZE = by_scale(2_000, 20_000, 50_000)
DIFFERENCE = by_scale(64, 512, 2_048)
CLIENT_COUNTS = by_scale([1, 4], [1, 4, 8, 16], [1, 8, 16, 32])
NUM_SHARDS = 4
RESTART_CELLS = 256  # first-block depth each restart flavour must serve
WARM_SPEEDUP_FLOOR = 5.0

WORKLOAD_SEED = 0x5E51CE


def _workload(rng):
    base = make_items(rng, SET_SIZE + DIFFERENCE, ITEM)
    server_items = base[:SET_SIZE]
    fresh = base[SET_SIZE:]
    return server_items, fresh


async def _serve_k_clients(server_items, fresh, k):
    """One server, k concurrent clients with distinct differences."""
    config = ServerConfig(block_size=128, max_symbols_per_shard=None)
    server = ReconciliationServer(server_items, num_shards=NUM_SHARDS, config=config)
    host, port = await server.start()
    half = DIFFERENCE // 2
    clients = []
    for i in range(k):
        # Each client misses `half` server items and owns `half` extras,
        # rotated so no two clients share the exact difference.
        lo = (i * 7) % half
        missing = set(server_items[lo : lo + half])
        extras = fresh[(i * half) % len(fresh) :][:half]
        client_items = [x for x in server_items if x not in missing] + extras
        clients.append(client_items)
    start = time.perf_counter()
    results = await asyncio.gather(
        *(sync(host, port, items) for items in clients)
    )
    elapsed = time.perf_counter() - start
    symbols = sum(r.symbols for r in results)
    payload_bytes = sum(r.bytes_received for r in results)
    await server.close()
    for r in results:
        assert r.difference_size > 0
    return symbols, payload_bytes, elapsed


def test_service_throughput_vs_clients(benchmark):
    rng = random.Random(WORKLOAD_SEED)
    server_items, fresh = _workload(rng)
    rows = []

    def run():
        for k in CLIENT_COUNTS:
            symbols, payload_bytes, elapsed = asyncio.run(
                _serve_k_clients(server_items, fresh, k)
            )
            rows.append(
                {
                    "clients": k,
                    "symbols_absorbed": symbols,
                    "payload_bytes": payload_bytes,
                    "seconds": elapsed,
                    "symbols_per_s": symbols / elapsed,
                }
            )
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [f"{'clients':>8} {'symbols':>10} {'seconds':>9} {'symbols/s':>12}"]
    lines += [
        f"{r['clients']:>8} {r['symbols_absorbed']:>10} "
        f"{r['seconds']:>9.3f} {r['symbols_per_s']:>12.0f}"
        for r in rows
    ]
    report_table(
        f"Service — symbols/sec vs concurrent clients "
        f"(N={SET_SIZE}, d={DIFFERENCE}, {NUM_SHARDS} shards)",
        lines,
    )
    write_bench_json(
        "service_throughput",
        rows=rows,
        meta={
            "set_size": SET_SIZE,
            "difference": DIFFERENCE,
            "num_shards": NUM_SHARDS,
            "hasher": SERVICE_HASHER,
        },
    )
    assert all(r["symbols_per_s"] > 0 for r in rows)


def test_service_restart_cold_vs_warm(benchmark, tmp_path):
    """Cold re-ingest vs durable warm restore, to first served block."""
    from repro.api.registry import get_scheme
    from repro.durable import open_durable
    from repro.protocol.machine import codec_of, hash64_of
    from repro.service.backends import WarmRibltBackend
    from repro.service.shard import ShardedSet

    rng = random.Random(0xD07A81)
    items = make_items(rng, SET_SIZE, ITEM)
    data_dir = tmp_path / "restart"

    # Checkpoint once so the snapshot holds the served cell prefix.
    seeded = open_durable(data_dir, items, num_shards=NUM_SHARDS)
    for shard in range(NUM_SHARDS):
        seeded.open_stream(shard).next_block(RESTART_CELLS)
    seeded.checkpoint()
    seeded.close()

    def first_blocks(backend):
        return [
            backend.open_stream(shard).next_block(RESTART_CELLS)
            for shard in range(NUM_SHARDS)
        ]

    def cold_start():
        handle = get_scheme("riblt", symbol_size=ITEM)
        codec = codec_of(handle)
        sharded = ShardedSet(hash64_of(handle, codec), NUM_SHARDS, items)
        backend = WarmRibltBackend(handle, sharded, codec)
        return first_blocks(backend)

    def warm_start():
        backend = open_durable(data_dir)
        blocks = first_blocks(backend)
        backend.close()
        return blocks

    rows = []

    def run():
        cold = warm = None
        for flavour, start in (("restart-cold", cold_start),
                               ("restart-warm", warm_start)):
            best = float("inf")
            blocks = None
            for _ in range(3):
                t0 = time.perf_counter()
                blocks = start()
                best = min(best, time.perf_counter() - t0)
            rows.append(
                {
                    "d": flavour,
                    "set_size": SET_SIZE,
                    "seconds": best,
                    "throughput_per_s": SET_SIZE / best,
                }
            )
            if flavour == "restart-cold":
                cold = blocks
            else:
                warm = blocks
        # Untimed: the warm restore is the same stream, bit for bit.
        assert warm == cold
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = rows[0]["seconds"] / rows[1]["seconds"]
    lines = [f"{'flavour':>14} {'seconds':>9} {'items/s':>12}"]
    lines += [
        f"{r['d']:>14} {r['seconds']:>9.4f} {r['throughput_per_s']:>12.0f}"
        for r in rows
    ]
    lines.append(f"{'speedup':>14} {speedup:>9.1f}x")
    report_table(
        f"Service restart — cold re-ingest vs durable warm restore "
        f"(N={SET_SIZE}, {NUM_SHARDS} shards, {RESTART_CELLS} cells/shard)",
        lines,
    )
    write_bench_json(
        "service_restart",
        rows=rows,
        meta={
            "set_size": SET_SIZE,
            "num_shards": NUM_SHARDS,
            "cells_per_shard": RESTART_CELLS,
            "warm_speedup": speedup,
        },
    )
    # The committed claim is pinned at the committed scale only: quick
    # runs amortise the fixed open() cost over too few items.
    if SCALE == "default":
        assert speedup >= WARM_SPEEDUP_FLOOR, (
            f"warm restart only {speedup:.1f}x faster than cold "
            f"(floor {WARM_SPEEDUP_FLOOR}x)"
        )
