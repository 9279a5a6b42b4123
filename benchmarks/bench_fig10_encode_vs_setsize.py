"""Figure 10: encoding time of 1000 differences vs set size N.

Paper: encoding cost is linear in N (every item is mapped to the same
expected number of the first m cells), e.g. 2.9 ms at N = 10^4 vs 294 ms
at N = 10^6 — exactly 100×.

Measured through the bank-backed batch path, best of three blocks per
size; results land in ``BENCH_fig10_encode_vs_setsize.json``.
"""

import random
import time

from bench_json import write_bench_json
from bench_util import by_scale, make_items
from bench_util import report_table
from repro.core.encoder import RatelessEncoder
from repro.core.symbols import SymbolCodec

ITEM = 8
D = 1000
SYMBOLS = int(1.4 * D)
SIZES = by_scale(
    [1_000, 10_000], [1_000, 10_000, 100_000], [1_000, 10_000, 100_000, 1_000_000]
)
# Anchor set for the linearity check: the smallest size whose block runs
# the same path as the timed sets (lock-step rounds, then a full per-edge
# tail of cellbank.NUMPY_TAIL_JOBS stragglers).  Below that the whole walk
# is per-edge, so a tinier set would miss the rounds' fixed cost.
ANCHOR_SIZE = 100


def encode_time(items):
    encoder = RatelessEncoder(SymbolCodec(ITEM), items)
    start = time.perf_counter()
    encoder.produce_block(SYMBOLS)
    return time.perf_counter() - start


def test_fig10_encode_time_vs_set_size(benchmark):
    rng = random.Random(100)
    anchor_items = make_items(random.Random(0), ANCHOR_SIZE, ITEM)
    anchor = min(encode_time(anchor_items) for _ in range(3))  # also warms up
    rows = []

    def run():
        for n in SIZES:
            items = make_items(rng, n, ITEM)
            rows.append((n, min(encode_time(items) for _ in range(3))))
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    # per-item cost above the anchor: takes off the per-block cost that
    # does not grow with N (most of the time at N = 1 000)
    per_item = [(t - anchor) / (n - ANCHOR_SIZE) for n, t in rows]
    lines = [f"{'N':>9} {'encode time (s)':>16} {'time/N (us)':>12} {'marginal/N (us)':>16}"]
    lines += [
        f"{n:>9} {t:>16.4f} {t / n * 1e6:>12.2f} {p * 1e6:>16.3f}"
        for (n, t), p in zip(rows, per_item)
    ]
    lines.append(f"anchor: N = {ANCHOR_SIZE} encodes in {anchor * 1e3:.3f} ms")
    lines.append("paper: linear in N (100x items -> 100x time)")
    report_table("Fig 10 — encoding time of 1000 diffs vs set size", lines)
    write_bench_json(
        "fig10_encode_vs_setsize",
        rows=[{"set_size": n, "seconds": t} for n, t in rows],
        meta={"symbols": SYMBOLS, "difference": D},
    )

    # linearity: per-item cost roughly constant across two decades
    assert min(per_item) > 0
    assert max(per_item) / min(per_item) < 4.0
