"""Chaos soak: a client fleet through fault proxies must complete 100%.

The robustness claim of the service layer, stated as a benchmark: with
the default fault schedule (latency, jitter, partial writes, mid-frame
resets), per-worker admission caps small enough to force BUSY sheds,
and one worker SIGKILLed mid-run, every client sync still completes
with an exactly correct difference — the typed-error + retry machinery
absorbs all of it.  ``completion_rate`` below 1.0 is a test failure,
not a data point; CI's chaos-smoke job runs the quick profile of this
file and gates on exactly that assertion.

Results land in ``BENCH_chaos_soak.json``: wall-clock, completed
syncs/sec, and the fault ledger (BUSY waits, retries, proxy resets,
worker restarts) that proves the run actually hurt.
"""

import asyncio
import json
import random
import time

from bench_json import write_bench_json
from bench_util import by_scale, make_items, report_table
from repro.chaos import ChaosOrchestrator, default_schedule
from repro.cluster import ClusterConfig
from repro.service import RetryPolicy, ServerConfig, sync

ITEM = 16
SET_SIZE = by_scale(400, 4_000, 12_000)
DIFFERENCE = by_scale(24, 128, 512)
CLIENTS = by_scale(8, 24, 48)
NUM_WORKERS = 2
NUM_SHARDS = 4
SCHEDULE_SEED = 0xC405
WORKLOAD_SEED = 0x50A4
MAX_CONCURRENT = 3  # per worker: low enough that the fleet gets shed
BUSY_RETRY_AFTER = 0.05
KILL_AFTER = 1 / 3  # SIGKILL worker 1 once this fraction has completed
CLIENT_IDLE_TIMEOUT = 5.0
RETRY_ATTEMPTS = 40


def _client_sets(server_items, fresh, k):
    """K client sets, each missing ``half`` server items and owning
    ``half`` extras, rotated so no two clients share a difference."""
    half = DIFFERENCE // 2
    sets = []
    for i in range(k):
        lo = (i * 7) % max(1, len(server_items) - half)
        missing = set(server_items[lo : lo + half])
        extras = fresh[(i * half) % max(1, len(fresh) - half) :][:half]
        client_items = [x for x in server_items if x not in missing] + extras
        sets.append((client_items, missing))
    return sets


async def _soak(server_items, fresh):
    schedule = default_schedule(SCHEDULE_SEED)
    config = ClusterConfig(
        num_workers=NUM_WORKERS,
        restart_backoff=0.05,
        server=ServerConfig(
            max_concurrent_sessions=MAX_CONCURRENT,
            busy_retry_after=BUSY_RETRY_AFTER,
        ),
    )
    clients = _client_sets(server_items, fresh, CLIENTS)
    completed = 0
    killed = {"pid": None}

    async with ChaosOrchestrator(
        server_items, schedule=schedule, config=config, num_shards=NUM_SHARDS
    ) as orch:
        host, port = orch.entry_address

        async def one_client(k, items):
            nonlocal completed
            retry = RetryPolicy(
                attempts=RETRY_ATTEMPTS,
                base_delay=0.05,
                max_delay=0.5,
                seed=1_000 + k,
                retry_frame_errors=True,
            )
            result = await sync(
                host,
                port,
                items,
                retry=retry,
                idle_timeout=CLIENT_IDLE_TIMEOUT,
                max_symbols=1 << 14,
            )
            completed += 1
            if killed["pid"] is None and completed >= max(1, int(CLIENTS * KILL_AFTER)):
                # One worker SIGKILL mid-run, composed with the wire
                # faults: the supervisor restarts it behind the same
                # proxy port and later clients route through as usual.
                killed["pid"] = orch.kill_worker(1)
            return result

        start = time.perf_counter()
        results = await asyncio.gather(
            *(one_client(k, items) for k, (items, _) in enumerate(clients)),
            return_exceptions=True,
        )
        elapsed = time.perf_counter() - start

        failures = [r for r in results if isinstance(r, BaseException)]
        ok = [r for r in results if not isinstance(r, BaseException)]
        correct = sum(
            1
            for r, (_, missing) in zip(results, clients)
            if not isinstance(r, BaseException) and r.only_in_server == missing
        )
        ledger = {
            "completed": len(ok),
            "correct": correct,
            "failures": [repr(f) for f in failures[:5]],
            "busy_waits": sum(r.busy_waits for r in ok),
            "retries": sum(r.attempts - 1 for r in ok),
            "proxy": orch.proxy_stats(),
            "restarts": list(orch.restart_counts),
            "worker_killed": killed["pid"] is not None,
        }
    return elapsed, ledger


def test_chaos_soak(benchmark):
    rng = random.Random(WORKLOAD_SEED)
    base = make_items(rng, SET_SIZE + CLIENTS * DIFFERENCE, ITEM)
    server_items = base[:SET_SIZE]
    fresh = base[SET_SIZE:]
    rows = []

    def run():
        elapsed, ledger = asyncio.run(_soak(server_items, fresh))
        rows.append(
            {
                "d": "soak",
                "set_size": SET_SIZE,
                "clients": CLIENTS,
                "seconds": elapsed,
                "throughput_per_s": ledger["completed"] / elapsed,
                "completion_rate": ledger["completed"] / CLIENTS,
                "busy_waits": ledger["busy_waits"],
                "retries": ledger["retries"],
                "proxy_resets": ledger["proxy"].get("resets", 0),
                "proxy_connections": ledger["proxy"].get("connections", 0),
                "worker_restarts": sum(ledger["restarts"]),
            }
        )
        return ledger

    ledger = benchmark.pedantic(run, rounds=1, iterations=1)
    row = rows[0]
    report_table(
        f"Chaos soak — {CLIENTS} clients through fault proxies "
        f"(N={SET_SIZE}, d={DIFFERENCE}, {NUM_WORKERS} workers, "
        f"cap {MAX_CONCURRENT}/worker, 1 SIGKILL)",
        [
            f"{'completed':>12} {'seconds':>9} {'syncs/s':>9} "
            f"{'busy':>6} {'retries':>8} {'resets':>7} {'restarts':>9}",
            f"{ledger['completed']:>9}/{CLIENTS:<2} {row['seconds']:>9.2f} "
            f"{row['throughput_per_s']:>9.2f} {row['busy_waits']:>6} "
            f"{row['retries']:>8} {row['proxy_resets']:>7} "
            f"{row['worker_restarts']:>9}",
        ],
    )
    write_bench_json(
        "chaos_soak",
        rows=rows,
        meta={
            "set_size": SET_SIZE,
            "difference": DIFFERENCE,
            "clients": CLIENTS,
            "num_workers": NUM_WORKERS,
            "num_shards": NUM_SHARDS,
            "max_concurrent_sessions": MAX_CONCURRENT,
            "busy_retry_after": BUSY_RETRY_AFTER,
            "retry_attempts": RETRY_ATTEMPTS,
            "schedule": json.loads(default_schedule(SCHEDULE_SEED).to_json()),
        },
    )
    # The gate: 100% completion, every diff exactly right, and the run
    # must actually have been hostile (faults observed, worker killed).
    assert ledger["failures"] == [], ledger["failures"]
    assert ledger["completed"] == CLIENTS
    assert ledger["correct"] == CLIENTS
    assert ledger["worker_killed"]
    assert row["proxy_resets"] > 0, "fault schedule never fired a reset"
    assert row["busy_waits"] > 0, "admission cap never shed anyone"
