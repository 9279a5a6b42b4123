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
results in ``BENCH_ingest.json``.
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


def ingest_time(items: list[bytes], hasher=None) -> float:
    """Seconds for the full pipeline: add_items + first SYMBOLS cells."""
    codec = SymbolCodec(ITEM) if hasher is None else SymbolCodec(ITEM, hasher=hasher)
    start = time.perf_counter()
    encoder = RatelessEncoder(codec, items)
    encoder.produce_block(SYMBOLS)
    return time.perf_counter() - start


def churn_time(encoder: RatelessEncoder, fresh: list[bytes], stale: list[bytes]):
    """Seconds to patch the produced prefix with one add+remove batch."""
    start = time.perf_counter()
    encoder.add_items(fresh)
    encoder.remove_items(stale)
    return time.perf_counter() - start


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
        encoder = RatelessEncoder(SymbolCodec(ITEM), base)
        encoder.produce_block(SYMBOLS)
        churn_seconds = churn_time(encoder, fresh, fresh)
        rows.append(
            {
                "d": CHURN,
                "op": "churn_patch",
                "seconds": churn_seconds,
                "throughput_per_s": 2 * CHURN / churn_seconds,
            }
        )
        with scalar_engine():
            encoder = RatelessEncoder(SymbolCodec(ITEM), base)
            encoder.produce_block(SYMBOLS)
            scalar_churn = churn_time(encoder, fresh, fresh)
        # Hashing stage in isolation: lane-parallel vs pure-Python
        # SipHash-2-4 (the keyed hash the paper specifies).
        sip_n = min(10_000, max(SIZES))
        sip_items = all_items[:sip_n]
        start = time.perf_counter()
        SipHasher().hash64_batch(sip_items)
        sip_batch = time.perf_counter() - start
        with scalar_engine():
            start = time.perf_counter()
            SipHasher().hash64_batch(sip_items)
            sip_scalar = time.perf_counter() - start
        largest = max(n for n in scalar_seconds)
        batch_seconds = next(
            row["seconds"] for row in rows if row.get("set_size") == largest
        )
        meta.update(
            {
                "symbols": SYMBOLS,
                "churn_items": CHURN,
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
