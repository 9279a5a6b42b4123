"""Figure 11: slowdown when encoding items of growing size ℓ.

Paper: sublinear at first (mapping costs amortise: <4× slowdown from 8 B
to 128 B), then linear beyond ~2 KB where XOR dominates — i.e. the data
rate in MB/s becomes constant (124.8 MB/s for their Go encoder; ours is
interpreter-speed, the *shape* is what reproduces).

Two engines are timed per width and land in
``BENCH_fig11_item_size.json``:

* ``reference`` — ``produce_next`` per cell (the §6 heap path, big-int
  XOR per edge at every width);
* ``block`` — ``produce_block`` in the service's 8/16/32/64/64… ramp,
  which rides the ``(rows, k)`` uint64 lane matrix up to
  ``cellbank.LANE_MAX_SYMBOL_BYTES`` and the scalar block engine past
  it.  These rows are what that width cut rests on: the block path must
  be no slower than the reference on either side of it.
"""

import random
import time

from bench_json import write_bench_json
from bench_util import by_scale, make_items
from bench_util import report_table
from repro.core.cellbank import LANE_MAX_SYMBOL_BYTES
from repro.core.encoder import RatelessEncoder
from repro.core.symbols import SymbolCodec

SIZES = by_scale(
    [8, 128, 2048, 8192],
    [8, 32, 128, 512, 2048, 8192, 32768],
    [8, 32, 128, 512, 2048, 8192, 32768],
)
N = by_scale(200, 1_000, 2_000)
D = by_scale(100, 1000, 1000)
SYMBOLS = int(1.4 * D)
# Best-of: the host is shared and the shape is what is asserted.  Quick-scale
# samples are ~3 ms each, so the smoke run takes more of them.
REPEATS = by_scale(15, 5, 5)


def ramp(total):
    """The service's block ramp: 8, 16, 32, then 64s, summing to ``total``."""
    size, out = 8, []
    while total > 0:
        out.append(min(size, total))
        total -= out[-1]
        size = min(size * 2, 64)
    return out


def encode_seconds(items, item_size, engine):
    best = float("inf")
    for _ in range(REPEATS):
        encoder = RatelessEncoder(SymbolCodec(item_size), items)
        start = time.perf_counter()
        if engine == "reference":
            for _ in range(SYMBOLS):
                encoder.produce_next()
        else:
            for block in ramp(SYMBOLS):
                encoder.produce_block(block)
        best = min(best, time.perf_counter() - start)
    return best


def test_fig11_item_size_slowdown(benchmark):
    rng = random.Random(110)
    rows = []

    def run():
        base = {}
        for item_size in SIZES:
            items = make_items(rng, N, item_size)
            for engine in ("reference", "block"):
                elapsed = encode_seconds(items, item_size, engine)
                base.setdefault(engine, elapsed)
                rows.append(
                    {
                        "item_bytes": item_size,
                        "engine": engine,
                        "seconds": elapsed,
                        "slowdown": elapsed / base[engine],
                        "mb_per_s": N * item_size / elapsed / 1e6,
                    }
                )
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        f"{'item bytes':>10} {'engine':>10} {'time (s)':>10} "
        f"{'slowdown':>9} {'MB/s':>9}"
    ]
    lines += [
        f"{r['item_bytes']:>10} {r['engine']:>10} {r['seconds']:>10.4f} "
        f"{r['slowdown']:>9.2f} {r['mb_per_s']:>9.1f}"
        for r in rows
    ]
    lines.append(
        "paper: slowdown sublinear below ~2KB, then linear (constant MB/s);"
        " 124.8 MB/s on their 2016 CPU for the Go encoder"
    )
    lines.append(
        f"lane width cut: {LANE_MAX_SYMBOL_BYTES} B (block rows above it are scalar)"
    )
    report_table(f"Fig 11 — slowdown vs item size (d={D})", lines)
    write_bench_json(
        "fig11_item_size",
        rows=rows,
        meta={
            "set_size": N,
            "symbols": SYMBOLS,
            "lane_max_symbol_bytes": LANE_MAX_SYMBOL_BYTES,
        },
    )

    seconds = {(r["item_bytes"], r["engine"]): r["seconds"] for r in rows}
    slowdown = {(r["item_bytes"], r["engine"]): r["slowdown"] for r in rows}
    for item_size in SIZES:
        # the row that justifies the width cut: on either side of it the
        # block path is at least as fast as per-cell production
        assert seconds[item_size, "block"] <= seconds[item_size, "reference"], item_size
    for engine in ("reference", "block"):
        if (128, engine) in slowdown:
            # the paper's own number: 16x more bytes cost under 4x more time
            assert slowdown[128, engine] < 4.0, engine
    if (2048, "reference") in slowdown and (32768, "reference") in slowdown:
        # approaching the linear regime: growing cost, but still well
        # under byte-proportional (our knee sits later than the paper's
        # 2 KB because interpreter overhead dwarfs the XOR)
        ratio = slowdown[32768, "reference"] / slowdown[2048, "reference"]
        assert 2.0 < ratio < 80.0
        assert slowdown[32768, "reference"] > slowdown[512, "reference"]
