"""Engine overhead: the sans-io protocol machines vs the bare core loop.

The protocol engine frames every block (length prefix + type byte +
shard varint) and routes it through ``FrameDecoder``; the core loop
(``produce_block`` → §6 ``write_block`` → ``subtract_in_place`` →
``add_coded_block``) moves coded symbols with zero framing.  This
bench measures what that generality costs on the streaming hot path,
per block size — the number the perf-smoke gate
(``check_perf_regression.py``, which auto-discovers every committed
``BENCH_*.json``) holds future engine changes to.

Rows are keyed ``d = "block<k>"`` (scale-independent, so the quick CI
profile matches the committed default-scale record); ``symbols_per_s`` is the gated metric (the engine path),
with the core fast path and the overhead ratio alongside for context.

Results land in ``BENCH_protocol_overhead.json``.
"""

import random

from bench_json import write_bench_json
from bench_util import by_scale, report_table, sets_with_difference, timed

from repro.api import Session
from repro.core.decoder import RatelessDecoder
from repro.core.encoder import RatelessEncoder
from repro.core.symbols import SymbolCodec
from repro.core.wire import SymbolStreamWriter

ITEM = 8
SET_SIZE = by_scale(1_000, 8_000, 30_000)
DIFFERENCE = by_scale(64, 256, 1_024)
# No block size 1: the core loop then steps cell by cell while the
# engine still frames and windows blocks, so the two arms do different
# work and the ratio (0.32x recorded) compared nothing.
BLOCK_SIZES = by_scale([64], [16, 64], [16, 64, 256])
REPEATS = 3


def _core_run(a, b, block_size):
    codec = SymbolCodec(ITEM)
    alice = RatelessEncoder(codec, a)
    bob = RatelessEncoder(codec, b)
    decoder = RatelessDecoder(codec)
    writer = SymbolStreamWriter(codec, set_size=alice.set_size)
    writer.header()
    symbols = 0
    while not decoder.decoded:
        remote = alice.produce_block(block_size)
        writer.write_block(remote)
        remote.subtract_in_place(bob.produce_block(block_size))
        decoder.add_coded_block(remote)
        symbols += block_size
    return symbols, decoder


def _engine_run(a, b, block_size):
    session = Session(a, b, "riblt", symbol_size=ITEM)
    result = session.run(block_size=block_size)
    return session.steps, result


def test_protocol_engine_overhead(benchmark):
    rng = random.Random(0x0E17)
    a, b = sets_with_difference(rng, SET_SIZE, DIFFERENCE, ITEM)
    rows = []

    def run():
        for block_size in BLOCK_SIZES:
            core_best = engine_best = float("inf")
            core_symbols = engine_symbols = 0
            for _ in range(REPEATS):
                (symbols, _), seconds = timed(
                    lambda: _core_run(a, b, block_size)
                )
                core_best, core_symbols = min(core_best, seconds), symbols
                (symbols, result), seconds = timed(
                    lambda: _engine_run(a, b, block_size)
                )
                engine_best, engine_symbols = min(engine_best, seconds), symbols
                assert result.difference_size == DIFFERENCE
            rows.append(
                {
                    "d": f"block{block_size}",  # scale-independent gate key
                    "difference": DIFFERENCE,
                    "block_size": block_size,
                    "symbols_per_s": engine_symbols / engine_best,
                    "core_symbols_per_s": core_symbols / core_best,
                    "overhead_x": (engine_best / engine_symbols)
                    / (core_best / core_symbols),
                }
            )
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        f"{'block':>6} {'engine sym/s':>13} {'core sym/s':>12} {'overhead':>9}"
    ]
    lines += [
        f"{r['block_size']:>6} {r['symbols_per_s']:>13.0f} "
        f"{r['core_symbols_per_s']:>12.0f} {r['overhead_x']:>8.2f}x"
        for r in rows
    ]
    report_table(
        f"Protocol engine vs core loop (N={SET_SIZE}, d={DIFFERENCE})",
        lines,
    )
    write_bench_json(
        "protocol_overhead",
        rows=rows,
        meta={"set_size": SET_SIZE, "difference": DIFFERENCE, "item": ITEM},
    )
    assert all(r["symbols_per_s"] > 0 for r in rows)
