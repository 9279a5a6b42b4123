"""Figure 9: decoding throughput and time vs set difference.

Paper (8-byte items): Rateless IBLT decodes in O(m log m) — throughput
drops only ~2× while d grows 10^4×; PinSketch decoding is quadratic, so
its throughput collapses (10-10^7× slower).  The decoder does not depend
on the set size, only on d.

The rateless sweep ingests the precomputed stream through the block
fast path (``RatelessDecoder.add_coded_block``, stopping at the first
of every ``STOP_CHUNK`` cells at which it has decoded); the reference
per-cell path is timed alongside for the recorded speedup.
Results land in ``BENCH_fig09_riblt_decode.json``.
"""

import random
import time

from bench_json import write_bench_json
from bench_util import by_scale, make_items
from bench_util import report_table
from repro.baselines.pinsketch import GF2m, PinSketch
from repro.core.decoder import RatelessDecoder
from repro.core.encoder import RatelessEncoder
from repro.core.symbols import SymbolCodec
from repro.hashing.keyed import make_hasher

ITEM = 8

# The paper's SipHash checksum, like the service layer: batched decode
# verification rides its uint64-lane engine (see repro.service.defaults).
HASHER = "siphash"
RIBLT_DIFFS = by_scale(
    [10, 100], [1, 10, 100, 1000, 10000], [1, 10, 100, 1000, 10000, 100000]
)
PIN_DIFFS = by_scale([1, 4], [1, 4, 16, 64, 128], [1, 4, 16, 64, 128, 256])
STOP_CHUNK = 2048  # early-stop granularity of the block path


def riblt_decode_stream(rng, d):
    """Precompute the subtracted stream of a d-item difference."""
    codec = SymbolCodec(ITEM, hasher=make_hasher(HASHER))
    items = make_items(rng, d, ITEM)
    encoder = RatelessEncoder(codec, items)
    return codec, encoder.produce_block(int(2.2 * d) + 8)


def riblt_decode_time(rng, d):
    """Time to peel a d-item difference via the block fast path."""
    codec, bank = riblt_decode_stream(rng, d)
    decoder = RatelessDecoder(codec)
    start = time.perf_counter()
    decoder.add_coded_block(bank, range(STOP_CHUNK, len(bank), STOP_CHUNK))
    elapsed = time.perf_counter() - start
    assert decoder.decoded
    return elapsed


def riblt_decode_time_reference(rng, d):
    """Same workload through the reference per-cell path."""
    codec, bank = riblt_decode_stream(rng, d)
    decoder = RatelessDecoder(codec)
    cells = bank.cells()
    start = time.perf_counter()
    for cell in cells:
        decoder.add_coded_symbol(cell)
        if decoder.decoded:
            break
    elapsed = time.perf_counter() - start
    assert decoder.decoded
    return elapsed


def pinsketch_decode_time(rng, field, d):
    elements = set()
    while len(elements) < d:
        value = rng.getrandbits(64)
        if value:
            elements.add(value)
    sketch = PinSketch.from_items(elements, field, capacity=max(1, int(1.0 * d)))
    start = time.perf_counter()
    decoded = sketch.decode()
    elapsed = time.perf_counter() - start
    assert sorted(decoded) == sorted(elements)
    return elapsed


def test_fig09_riblt_decode(benchmark):
    rng = random.Random(91)
    rows = []
    riblt_decode_time(rng, 64)  # warm the NumPy lane outside the sweep
    riblt_decode_time_reference(rng, 64)

    def run():
        for d in RIBLT_DIFFS:
            elapsed = riblt_decode_time(rng, d)
            rows.append((d, elapsed, d / elapsed))
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)

    # Reference per-cell path at the largest d, for the recorded speedup.
    reference_elapsed = riblt_decode_time_reference(rng, RIBLT_DIFFS[-1])
    fast_elapsed = rows[-1][1]
    speedup = reference_elapsed / fast_elapsed

    lines = [f"{'d':>7} {'decode time (s)':>16} {'throughput (1/s)':>17}"]
    lines += [f"{d:>7} {t:>16.5f} {tp:>17.1f}" for d, t, tp in rows]
    lines.append("paper: throughput drops only ~2x over 4 decades of d")
    lines.append(
        f"block path {fast_elapsed:.4f}s vs reference {reference_elapsed:.4f}s "
        f"at d={RIBLT_DIFFS[-1]} -> {speedup:.1f}x"
    )
    report_table("Fig 9 — Rateless IBLT decoding", lines)
    write_bench_json(
        "fig09_riblt_decode",
        rows=[
            {"d": d, "seconds": t, "throughput_per_s": tp} for d, t, tp in rows
        ],
        meta={
            "hasher": HASHER,
            "fast_seconds_at_max_d": fast_elapsed,
            "reference_seconds_at_max_d": reference_elapsed,
            "fast_over_reference_speedup": speedup,
        },
    )
    throughputs = [tp for _, _, tp in rows if _ >= 10 or True][1:]
    if len(throughputs) >= 2:
        assert max(throughputs) / min(throughputs) < 25  # near-linear decode


def test_fig09_pinsketch_decode(benchmark):
    rng = random.Random(92)
    field = GF2m(64)
    rows = []

    def run():
        for d in PIN_DIFFS:
            elapsed = pinsketch_decode_time(rng, field, d)
            rows.append((d, elapsed, d / elapsed))
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [f"{'d':>7} {'decode time (s)':>16} {'throughput (1/s)':>17}"]
    lines += [f"{d:>7} {t:>16.5f} {tp:>17.1f}" for d, t, tp in rows]
    lines.append("paper: quadratic decode — throughput collapses with d")
    report_table("Fig 9 — PinSketch decoding", lines)
    # superlinear blowup: time grows faster than d
    first_d, first_t, _ = rows[0]
    last_d, last_t, _ = rows[-1]
    assert last_t / first_t > (last_d / first_d) * 2


def test_fig09_crosscheck(benchmark):
    """Rateless decodes orders of magnitude faster at the same d."""
    rng = random.Random(93)
    field = GF2m(64)
    d = by_scale(16, 128, 256)

    def measure():
        riblt = riblt_decode_time(rng, d)
        pin = pinsketch_decode_time(rng, field, d)
        return riblt, pin

    riblt_time, pin_time = benchmark.pedantic(measure, rounds=1, iterations=1)
    report_table(
        "Fig 9 — decode crosscheck",
        [
            f"d={d}: rateless {riblt_time:.4f}s, pinsketch {pin_time:.3f}s, "
            f"speedup {pin_time / riblt_time:.0f}x (paper: 10-10^7x)"
        ],
    )
    assert pin_time / riblt_time > 10
