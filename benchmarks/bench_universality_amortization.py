"""§2's multi-peer argument quantified: one universal stream, many peers.

With a non-rateless scheme Alice re-encodes per peer (each wants a
different table size); with Rateless IBLT she materialises one prefix and
serves byte-identical chunks of it to everyone, patching it incrementally
as her set churns.  This bench measures the encoder-side cost of serving
k peers both ways.
"""

import random
import time

from bench_util import by_scale, make_items
from bench_util import report_table
from repro.baselines.regular_iblt import RegularIBLT, recommended_cells
from repro.core.encoder import RatelessEncoder
from repro.core.symbols import SymbolCodec

N = by_scale(1_000, 10_000, 50_000)
PEERS = by_scale([1, 4], [1, 2, 4, 8, 16], [1, 4, 16, 64])
PEER_DIFFS = by_scale([10, 40], [10, 25, 50, 100, 200], [10, 50, 200, 800])
# Each row's times are the best of this many runs: single-shot timings
# of a few ms let one scheduler hiccup break the rateless-flatness check.
REPEATS = 3


def best_time(work) -> float:
    """Smallest wall time of ``REPEATS`` runs of ``work()``."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        work()
        times.append(time.perf_counter() - start)
    return min(times)


def test_universality_amortization(benchmark):
    rng = random.Random(0xAAA)
    codec = SymbolCodec(8)
    items = make_items(rng, N, 8)
    rows = []

    def rateless(diffs):
        # One encoder; the longest prefix any peer needs.
        encoder = RatelessEncoder(codec, items)
        for _ in range(int(1.5 * max(diffs))):
            encoder.produce_next()

    def regular(diffs):
        # A fresh, difference-sized table per peer.
        for d in diffs:
            RegularIBLT.from_items(items, recommended_cells(d), codec)

    def run():
        for peers in PEERS:
            diffs = [PEER_DIFFS[i % len(PEER_DIFFS)] for i in range(peers)]
            rateless_time = best_time(lambda: rateless(diffs))
            regular_time = best_time(lambda: regular(diffs))
            rows.append((peers, rateless_time, regular_time))
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [f"{'peers':>6} {'rateless (s)':>13} {'regular (s)':>12} {'ratio':>7}"]
    for peers, rateless_time, regular_time in rows:
        lines.append(
            f"{peers:>6} {rateless_time:>13.3f} {regular_time:>12.3f} "
            f"{regular_time / rateless_time:>7.1f}"
        )
    lines.append(
        "§2: regular IBLT encodes per peer (cost linear in k); the"
        " universal stream is encoded once"
    )
    report_table("Universality — encoder cost for k peers", lines)

    first = rows[0]
    last = rows[-1]
    # regular scales linearly with peers; rateless stays ~flat
    assert last[2] / first[2] > (last[0] / first[0]) / 3
    assert last[1] / first[1] < 3.0
