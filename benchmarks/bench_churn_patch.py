"""Churn patch: one server churn batch folded into the cached prefix.

The §7.3 universal-stream server patches its cached coded-symbol prefix
whenever its set changes (linearity, §4.1), so a churning server's cost
per operation is the patch of a batch into that prefix.  The workload is
the end-to-end ``fleet_mix_churn`` server's: 10 000 items placed in 4
shards behind one warm encoder, and one operation is ``add_many`` of 256
fresh items then ``remove_many`` of 256 members — one keyed hash pass,
placement and one ``add_items``/``remove_items`` call per batch.  Rows
(gate-comparable, see ``check_perf_regression.py``) cross the symbol
width (8 B on one uint64 lane, 92 B on twelve) with the length of the
cached prefix (760 and 2 100 cells), timing the median op.

``meta`` also records a one-item ``add_item``/``remove_item`` on one
2 500-item shard holding a 760-cell prefix (median µs per call, 8 B).
Results in ``BENCH_churn_patch.json``.
"""

import random
import statistics
import time

from bench_json import write_bench_json
from bench_util import by_scale, make_items, report_table
from repro.core.encoder import RatelessEncoder
from repro.core.symbols import SymbolCodec
from repro.service.backends import open_backend

SHARDS = 4
SET_SIZE = SHARDS * 2_500
BATCH = 256
WIDTHS = (8, 92)
PREFIXES = (760, 2_100)
OPS = by_scale(6, 15, 30)
ONE_ITEM_CALLS = by_scale(200, 1_000, 2_000)


def median_op_seconds(width: int, cells: int, rng: random.Random) -> float:
    """Median seconds of one add-256 + remove-256 op on a warm backend."""
    items = make_items(rng, SET_SIZE + OPS * BATCH, width)
    members, fresh = items[:SET_SIZE], items[SET_SIZE:]
    backend = open_backend(members, num_shards=SHARDS, hasher="siphash")
    backend.encoder.cached_block(0, cells)
    times = []
    for op in range(OPS):
        added = fresh[op * BATCH : (op + 1) * BATCH]
        removed = members[op * BATCH : (op + 1) * BATCH]
        start = time.perf_counter()
        backend.add_many(added)
        backend.remove_many(removed)
        times.append(time.perf_counter() - start)
    assert backend.encoder.produced_count == cells
    return statistics.median(times)


def one_item_micros(rng: random.Random) -> tuple[float, float]:
    """Median µs of ``add_item`` and of ``remove_item`` on one shard."""
    items = make_items(rng, 2_500 + ONE_ITEM_CALLS, 8)
    encoder = RatelessEncoder(SymbolCodec(8), items[:2_500])
    encoder.produce_block(760)
    adds, removes = [], []
    for item in items[2_500:]:
        start = time.perf_counter()
        encoder.add_item(item)
        middle = time.perf_counter()
        encoder.remove_item(item)
        removes.append(time.perf_counter() - middle)
        adds.append(middle - start)
    return statistics.median(adds) * 1e6, statistics.median(removes) * 1e6


def test_churn_patch(benchmark):
    rng = random.Random(32)
    rows = []
    meta = {"shards": SHARDS, "set_size": SET_SIZE, "batch": BATCH, "ops": OPS}

    def run():
        for width in WIDTHS:
            for cells in PREFIXES:
                seconds = median_op_seconds(width, cells, rng)
                rows.append(
                    {
                        "item_bytes": width,
                        "prefix_cells": cells,
                        "seconds": seconds,
                        "throughput_per_s": 2 * BATCH / seconds,
                    }
                )
        add, remove = one_item_micros(rng)
        meta.update({"one_item_add_us": add, "one_item_remove_us": remove})
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [f"{'width':>6} {'prefix':>7} {'ms/op':>8} {'items/s':>10}"]
    for row in rows:
        lines.append(
            f"{row['item_bytes']:>5}B {row['prefix_cells']:>7} "
            f"{row['seconds'] * 1e3:>8.2f} {row['throughput_per_s']:>10.0f}"
        )
    lines.append(
        f"one item, 760-cell prefix: add {meta['one_item_add_us']:.0f} us, "
        f"remove {meta['one_item_remove_us']:.0f} us"
    )
    report_table(
        f"Churn patch — {BATCH} adds + {BATCH} removes over {SHARDS} shards", lines
    )
    write_bench_json("churn_patch", rows=rows, meta=meta)
