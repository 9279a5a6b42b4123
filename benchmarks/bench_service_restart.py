"""Service restart: cold re-ingest vs durable warm restore.

Pins the durability story's perf half: a warm restart
(``repro.durable`` snapshot restore — pure parsing, no hashing, no
walking) must be at least 3x faster than cold re-ingest at serving its
first coded-symbol block, and bit-identical on the wire.  (The floor was
5x while cold ingest hashed every item twice; ``open_backend`` hashes
once, which made the *cold* arm ~1.5x faster and left the warm one
where it was.)

Results land in ``BENCH_service_restart.json``.  (Serving throughput
under concurrent clients is measured by ``benchmarks/e2e``, with the
server and the clients on separate cores.)
"""

import random
import time

from bench_json import write_bench_json
from bench_util import SCALE, by_scale, make_items, report_table

ITEM = 8
SET_SIZE = by_scale(2_000, 20_000, 50_000)
NUM_SHARDS = 4
RESTART_CELLS = 256  # first-block depth each restart flavour must serve
WARM_SPEEDUP_FLOOR = 3.0


def test_service_restart_cold_vs_warm(benchmark, tmp_path):
    """Cold re-ingest vs durable warm restore, to first served block."""
    from repro.durable import open_durable
    from repro.service.backends import open_backend

    rng = random.Random(0xD07A81)
    items = make_items(rng, SET_SIZE, ITEM)
    data_dir = tmp_path / "restart"

    # Checkpoint once so the snapshot holds the served cell prefix.
    seeded = open_durable(data_dir, items, num_shards=NUM_SHARDS)
    seeded.open_stream().next_block(RESTART_CELLS)
    seeded.checkpoint()
    seeded.close()

    def first_blocks(backend):
        return backend.open_stream().next_block(RESTART_CELLS)

    def cold_start():
        return first_blocks(open_backend(items, num_shards=NUM_SHARDS))

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
