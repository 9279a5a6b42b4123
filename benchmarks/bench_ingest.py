"""Set ingestion: raw items → populated coded-symbol bank, batch vs scalar.

The §4.3/§7 workloads are dominated by ingestion at n = 10^5–10^6: keyed
hashing of every item, the §4.2 mapping walk, and the scatter into the
bank's lanes.  The vectorised pipeline batches all three stages (lane-
parallel SipHash, batched splitmix64 + inverse-CDF sampling, one fused
scatter); the per-item reference engine (``repro.engine.NUMPY_LANE``
off) is the bit-identical baseline it is measured against.

Rows (gate-comparable, see ``check_perf_regression.py``):

* ``set_size`` rows — full pipeline throughput (items/s) building the
  first ``SYMBOLS`` cells from n items through the batch engine;
* the ``d`` row — warm-bank churn: patching a produced prefix with a
  batched add+remove cycle of ``CHURN`` items (ops/s).

Scalar-engine numbers and the batch/scalar speedups land in ``meta``;
results in ``BENCH_ingest.json``.  The churn patch and the SipHash stage
each take a few milliseconds, so they are the best of ``REPEATS`` runs
(one sample swung the churn ratio 1.1–2.6× between runs).
"""

import random
import time
from contextlib import contextmanager

import pytest

from bench_json import write_bench_json
from bench_util import by_scale, make_items, report_table
from repro import engine
from repro.core.encoder import RatelessEncoder
from repro.core.symbols import SymbolCodec
from repro.hashing.keyed import SipHasher

ITEM = 8
D = 1000
SYMBOLS = int(1.4 * D)
SIZES = by_scale(
    [1_000, 10_000], [1_000, 10_000, 100_000], [1_000, 10_000, 100_000, 1_000_000]
)
# The scalar reference sweep is interpreter-speed; cap its largest n so
# the quick profile stays CI-sized (the speedup meta always compares at
# the largest *common* n).
SCALAR_MAX_N = by_scale(10_000, 100_000, 100_000)
CHURN = 1_000
REPEATS = 5


def ingest_time(items: list[bytes], hasher=None) -> float:
    """Seconds for the full pipeline: add_items + first SYMBOLS cells."""
    codec = SymbolCodec(ITEM) if hasher is None else SymbolCodec(ITEM, hasher=hasher)
    start = time.perf_counter()
    encoder = RatelessEncoder(codec, items)
    encoder.produce_block(SYMBOLS)
    return time.perf_counter() - start


def best_time(fn, *args) -> float:
    """Best of ``REPEATS`` timed calls of ``fn(*args)``, in seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def churn_time(base: list[bytes], fresh: list[bytes]) -> float:
    """Best of ``REPEATS``: seconds to patch a produced prefix of ``base``
    with one add+remove batch of ``fresh``.  Each sample runs on its own
    warm encoder, built untimed, so each pays the store's membership
    index build as a server's first churn batch does."""
    best = float("inf")
    for _ in range(REPEATS):
        encoder = RatelessEncoder(SymbolCodec(ITEM), base)
        encoder.produce_block(SYMBOLS)
        start = time.perf_counter()
        encoder.add_items(fresh)
        encoder.remove_items(fresh)
        best = min(best, time.perf_counter() - start)
    return best


@contextmanager
def scalar_engine():
    """Run the enclosed block on the scalar reference engine."""
    engine.NUMPY_LANE = False
    try:
        yield
    finally:
        engine.NUMPY_LANE = True  # the sweep only runs with the lanes on


def test_ingest_throughput(benchmark):
    if not engine.NUMPY_LANE:
        pytest.skip("batch-over-scalar comparison needs the NumPy lanes")
    rng = random.Random(105)
    rows = []
    meta = {}

    def run():
        all_items = make_items(rng, max(SIZES) + 2 * CHURN, ITEM)
        scalar_seconds = {}
        for n in SIZES:
            items = all_items[:n]
            seconds = ingest_time(items)
            rows.append(
                {
                    "set_size": n,
                    "seconds": seconds,
                    "throughput_per_s": n / seconds,
                }
            )
            if n <= SCALAR_MAX_N:
                with scalar_engine():
                    scalar_seconds[n] = ingest_time(items)
        # Warm-bank churn: one batched add+remove cycle of CHURN items
        # against a produced prefix (the §7.3 universal-stream patch).
        base = all_items[: max(SIZES)]
        fresh = all_items[max(SIZES) : max(SIZES) + CHURN]
        churn_seconds = churn_time(base, fresh)
        rows.append(
            {
                "d": CHURN,
                "op": "churn_patch",
                "seconds": churn_seconds,
                "throughput_per_s": 2 * CHURN / churn_seconds,
            }
        )
        with scalar_engine():
            scalar_churn = churn_time(base, fresh)
        # Hashing stage in isolation: lane-parallel vs pure-Python
        # SipHash-2-4 (the keyed hash the paper specifies).
        sip_n = min(10_000, max(SIZES))
        sip_items = all_items[:sip_n]
        sip_batch = best_time(SipHasher().hash64_batch, sip_items)
        with scalar_engine():
            sip_scalar = best_time(SipHasher().hash64_batch, sip_items)
        largest = max(n for n in scalar_seconds)
        batch_seconds = next(
            row["seconds"] for row in rows if row.get("set_size") == largest
        )
        meta.update(
            {
                "symbols": SYMBOLS,
                "churn_items": CHURN,
                "repeats": REPEATS,
                "scalar_seconds": {str(n): t for n, t in scalar_seconds.items()},
                "batch_over_scalar_speedup": scalar_seconds[largest] / batch_seconds,
                "speedup_at_n": largest,
                "churn_seconds": churn_seconds,
                "scalar_churn_seconds": scalar_churn,
                "churn_speedup": scalar_churn / churn_seconds,
                "siphash_batch_seconds": sip_batch,
                "siphash_scalar_seconds": sip_scalar,
                "siphash_speedup": sip_scalar / sip_batch,
                "siphash_items": sip_n,
            }
        )
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [f"{'n':>9} {'ingest (s)':>11} {'items/s':>12} {'scalar (s)':>11}"]
    for row in rows:
        if "set_size" not in row:
            continue
        n = row["set_size"]
        scalar = meta["scalar_seconds"].get(str(n))
        tail = f"{scalar:>11.4f}" if scalar is not None else f"{'-':>11}"
        lines.append(
            f"{n:>9} {row['seconds']:>11.4f} {row['throughput_per_s']:>12.0f} {tail}"
        )
    lines.append(
        f"batch/scalar at n={meta['speedup_at_n']}: "
        f"{meta['batch_over_scalar_speedup']:.1f}x; churn patch "
        f"{meta['churn_speedup']:.1f}x; SipHash lanes {meta['siphash_speedup']:.0f}x"
    )
    report_table("Ingestion — items/s into the first 1.4d cells", lines)
    write_bench_json("ingest", rows=rows, meta=meta)

    # The acceptance bar: vectorised ingestion ≥3x the scalar engine.
    assert meta["batch_over_scalar_speedup"] >= 3.0
