"""Overload control + the chaos layer: typed sheds, bounded faults.

Acceptance anchors (ISSUE 10):

* an overloaded server answers the HELLO with a typed ``BUSY`` frame
  (retry-after hint included) in bounded time — it never queues or
  hangs the connection;
* ``RetryPolicy`` honours the server's retry-after and composes with
  connection retries and frame-error retries;
* the fault proxy's schedule is deterministic and JSON-round-trips;
* every injected fault — mid-frame reset, byte corruption, blackhole,
  worker SIGKILL through proxied fan-out — terminates typed, and a
  retrying client fleet still completes 100% with exact diffs.
"""

import asyncio
import json
import subprocess
import sys
import os
import re
from pathlib import Path

import pytest

from repro.chaos import (
    ChaosError,
    ChaosOrchestrator,
    ChaosProxy,
    FaultSchedule,
    FaultSpec,
    default_schedule,
)
from repro.cluster import ClusterConfig
from repro.service import (
    IdleTimeout,
    ReconciliationServer,
    RetryPolicy,
    ServerBusy,
    ServerConfig,
    sync,
)
from repro.service.framing import ErrorCode, FrameError

SYNC_TIMEOUT = 180.0

RETRY = RetryPolicy(attempts=20, base_delay=0.05, max_delay=0.5, seed=7,
                    retry_frame_errors=True)


def run(coro):
    """Drive one test coroutine (no pytest-asyncio dependency)."""
    return asyncio.run(asyncio.wait_for(coro, timeout=SYNC_TIMEOUT))


def items_range(lo, hi):
    return [b"%016d" % i for i in range(lo, hi)]


def fast_config(**overrides):
    defaults = dict(num_workers=2, restart_backoff=0.05)
    defaults.update(overrides)
    return ClusterConfig(**defaults)


# -- fault schedules ---------------------------------------------------------


def test_schedule_cycles_and_seeded_rngs():
    sched = FaultSchedule(
        specs=(FaultSpec(), FaultSpec(latency_s=0.01)), seed=42
    )
    assert sched.spec_for(0) == FaultSpec()
    assert sched.spec_for(1) == FaultSpec(latency_s=0.01)
    assert sched.spec_for(2) == sched.spec_for(0)
    # Same (seed, connection, lane) -> same draws; different lane differs.
    a = [sched.rng_for(3, 0).random() for _ in range(4)]
    b = [sched.rng_for(3, 0).random() for _ in range(4)]
    c = [sched.rng_for(3, 1).random() for _ in range(4)]
    assert a == b
    assert a != c


def test_schedule_json_roundtrip():
    sched = default_schedule(9)
    clone = FaultSchedule.from_json(sched.to_json())
    assert clone == sched
    assert clone.seed == 9
    doc = json.loads(sched.to_json())
    assert set(doc) == {"seed", "specs"}


def test_schedule_validation():
    with pytest.raises(ChaosError):
        FaultSpec(latency_s=-1.0)
    with pytest.raises(ChaosError):
        FaultSpec(corrupt_prob=1.5)
    with pytest.raises(ChaosError):
        FaultSchedule(specs=(), seed=0)
    with pytest.raises(ChaosError):
        FaultSpec.from_dict({"no_such_fault": 1})
    with pytest.raises(ChaosError):
        FaultSchedule.from_json("not json")


# -- overload control: admission sheds --------------------------------------


def test_busy_shed_answers_hello_in_bounded_time():
    async def scenario():
        config = ServerConfig(max_concurrent_sessions=0, busy_retry_after=0.25)
        async with ReconciliationServer(
            items_range(0, 100), num_shards=2, config=config
        ) as server:
            host, port = server.address
            start = asyncio.get_running_loop().time()
            with pytest.raises(ServerBusy) as excinfo:
                await asyncio.wait_for(
                    sync(host, port, items_range(5, 100)), timeout=10.0
                )
            elapsed = asyncio.get_running_loop().time() - start
            # Bounded: the BUSY frame is the server's immediate answer,
            # not a queue timeout.
            assert elapsed < 5.0
            assert excinfo.value.retry_after == pytest.approx(0.25)
            assert server.stats.sessions_shed == 1
            assert server.stats.shed_reasons == {"session limit": 1}
            assert server.stats.errors_sent.get(int(ErrorCode.BUSY)) == 1
            # Refused at admission: never counted as a started session.
            assert server.stats.sessions_started == 0

    run(scenario())


def test_busy_retry_after_honoured_by_policy():
    async def scenario():
        config = ServerConfig(max_concurrent_sessions=1, busy_retry_after=0.05)
        async with ReconciliationServer(
            items_range(0, 200), num_shards=2, config=config
        ) as server:
            host, port = server.address
            retry = RetryPolicy(attempts=30, base_delay=0.02, max_delay=0.2,
                                seed=11)
            results = await asyncio.gather(
                *(sync(host, port, items_range(5, 200), retry=retry)
                  for _ in range(4))
            )
            for result in results:
                assert result.only_in_server == set(items_range(0, 5))
            # With a cap of one, somebody must have been shed and waited.
            assert sum(r.busy_waits for r in results) >= 1
            assert server.stats.sessions_shed >= 1

    run(scenario())


def test_per_peer_rate_limit_sheds():
    async def scenario():
        config = ServerConfig(per_peer_rate=0.001, per_peer_burst=2,
                              busy_retry_after=0.5)
        async with ReconciliationServer(
            items_range(0, 100), num_shards=2, config=config
        ) as server:
            host, port = server.address
            await sync(host, port, items_range(5, 100))
            await sync(host, port, items_range(5, 100))
            with pytest.raises(ServerBusy):
                await sync(host, port, items_range(5, 100))
            assert server.stats.shed_reasons == {"peer rate limit": 1}

    run(scenario())


def test_session_byte_cap_sheds_mid_stream():
    async def scenario():
        config = ServerConfig(max_session_bytes=64, busy_retry_after=0.1)
        async with ReconciliationServer(
            items_range(0, 300), num_shards=2, config=config
        ) as server:
            host, port = server.address
            with pytest.raises(ServerBusy):
                await sync(host, port, items_range(150, 300))
            # Admitted, then shed mid-stream: counts as a started
            # session AND a shed.
            assert server.stats.sessions_started == 1
            assert server.stats.shed_reasons == {"session bytes": 1}

    run(scenario())


def test_cluster_workers_inherit_limits():
    async def scenario():
        from repro.cluster import ClusterSupervisor

        config = fast_config(
            server=ServerConfig(max_concurrent_sessions=0, busy_retry_after=0.07)
        )
        async with ClusterSupervisor(
            items_range(0, 100), num_shards=4, config=config
        ) as sup:
            host, port = sup.entry_address
            with pytest.raises(ServerBusy) as excinfo:
                await asyncio.wait_for(
                    sync(host, port, items_range(5, 100)), timeout=15.0
                )
            assert excinfo.value.retry_after == pytest.approx(0.07)

    run(scenario())


# -- the proxy ---------------------------------------------------------------


def test_proxy_clean_passthrough():
    async def scenario():
        async with ReconciliationServer(
            items_range(0, 200), num_shards=2
        ) as server:
            sched = FaultSchedule(specs=(FaultSpec(),), seed=0)
            async with ChaosProxy(*server.address, sched) as proxy:
                result = await sync(proxy.host, proxy.port, items_range(5, 200))
                assert result.only_in_server == set(items_range(0, 5))
                assert proxy.stats.connections == 1
                assert proxy.stats.bytes_forwarded > 0
                assert proxy.stats.resets == 0

    run(scenario())


def test_proxy_midframe_reset_is_typed_and_retryable():
    async def scenario():
        async with ReconciliationServer(
            items_range(0, 300), num_shards=2
        ) as server:
            sched = FaultSchedule(
                specs=(FaultSpec(reset_after_bytes=512), FaultSpec()), seed=2
            )
            # Without retries: typed (connection cut or truncated
            # frame), never a hang or an untyped crash.
            async with ChaosProxy(*server.address, sched) as proxy:
                with pytest.raises((ConnectionError, FrameError)):
                    await asyncio.wait_for(
                        sync(proxy.host, proxy.port, items_range(5, 300)),
                        timeout=20.0,
                    )
            # With retries: the second (clean) connection completes.
            async with ChaosProxy(*server.address, sched) as proxy:
                result = await sync(
                    proxy.host, proxy.port, items_range(5, 300), retry=RETRY
                )
                assert result.only_in_server == set(items_range(0, 5))
                assert result.attempts >= 2
                assert proxy.stats.resets >= 1

    run(scenario())


def test_proxy_corruption_decays_typed_and_recovers():
    async def scenario():
        async with ReconciliationServer(
            items_range(0, 300), num_shards=2
        ) as server:
            sched = FaultSchedule(
                specs=(FaultSpec(corrupt_prob=1.0), FaultSpec()), seed=3
            )
            async with ChaosProxy(*server.address, sched) as proxy:
                result = await sync(
                    proxy.host, proxy.port, items_range(5, 300),
                    retry=RETRY, idle_timeout=1.0, max_symbols=4096,
                )
                assert result.only_in_server == set(items_range(0, 5))
                assert result.attempts >= 2
                assert proxy.stats.corrupted_bytes >= 1

    run(scenario())


def test_proxy_blackhole_bounded_by_idle_timeout():
    async def scenario():
        async with ReconciliationServer(
            items_range(0, 100), num_shards=2
        ) as server:
            sched = FaultSchedule(specs=(FaultSpec(blackhole_s=30.0),), seed=4)
            async with ChaosProxy(*server.address, sched) as proxy:
                start = asyncio.get_running_loop().time()
                with pytest.raises(IdleTimeout):
                    await sync(
                        proxy.host, proxy.port, items_range(5, 100),
                        idle_timeout=0.3,
                    )
                assert asyncio.get_running_loop().time() - start < 10.0

    run(scenario())


def test_proxy_drop_is_typed():
    async def scenario():
        async with ReconciliationServer(
            items_range(0, 100), num_shards=2
        ) as server:
            sched = FaultSchedule(specs=(FaultSpec(drop=True),), seed=5)
            async with ChaosProxy(*server.address, sched) as proxy:
                with pytest.raises((ConnectionError, FrameError)):
                    await asyncio.wait_for(
                        sync(proxy.host, proxy.port, items_range(5, 100)),
                        timeout=20.0,
                    )
                assert proxy.stats.dropped == 1

    run(scenario())


# -- the orchestrator: wire faults + process faults --------------------------


def test_orchestrator_soak_with_worker_kill():
    """The acceptance scenario, compact: a client fleet through fault
    proxies against a 2-worker pool with admission caps, one worker
    SIGKILLed mid-run — 100% completion, exact diffs, sheds observed."""

    async def scenario():
        server_items = items_range(0, 400)
        config = fast_config(
            server=ServerConfig(max_concurrent_sessions=2, busy_retry_after=0.05)
        )
        async with ChaosOrchestrator(
            server_items,
            schedule=default_schedule(17),
            config=config,
            num_shards=4,
        ) as orch:
            host, port = orch.entry_address
            killed = {"done": False}
            completed = {"count": 0}

            async def one_client(k):
                retry = RetryPolicy(
                    attempts=30, base_delay=0.05, max_delay=0.5,
                    seed=500 + k, retry_frame_errors=True,
                )
                result = await sync(
                    host, port, items_range(5 + k, 400 + k),
                    retry=retry, idle_timeout=5.0, max_symbols=1 << 14,
                )
                completed["count"] += 1
                if not killed["done"] and completed["count"] >= 2:
                    killed["done"] = True
                    orch.kill_worker(1)
                return k, result

            results = await asyncio.gather(*(one_client(k) for k in range(6)))
            assert len(results) == 6  # 100% completion
            for k, result in results:
                assert result.only_in_server == set(items_range(0, 5 + k))
                assert result.only_in_client == set(items_range(400, 400 + k))
            assert killed["done"]
            total_busy = sum(r.busy_waits for _, r in results)
            total_attempts = sum(r.attempts for _, r in results)
            assert total_busy >= 1, "admission cap never shed anyone"
            assert total_attempts > 6, "fault schedule never forced a retry"
            stats = orch.proxy_stats()
            assert stats["connections"] >= 12

    run(scenario())


def test_orchestrator_requires_matching_advertise_ports():
    from repro.cluster import ClusterError, ClusterSupervisor

    async def scenario():
        config = fast_config(advertise_ports=[1])  # 1 port, 2 workers
        sup = ClusterSupervisor(
            items_range(0, 50), num_shards=2, config=config
        )
        with pytest.raises(ClusterError):
            await sup.start()
        await sup.close()

    run(scenario())


# -- CLI ---------------------------------------------------------------------


def test_cli_chaos_smoke(tmp_path):
    blob = b"".join(items_range(0, 120))
    path = tmp_path / "items.bin"
    path.write_bytes(blob)
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[1] / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_root if not existing else src_root + os.pathsep + existing
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "--item-size", "16", "chaos",
         str(path), "--workers", "2", "--max-conns", "2", "--seed", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    )
    try:
        banner = proc.stdout.readline()
        match = re.search(r"on ([\d.]+):(\d+)", banner)
        assert match, banner
        out = subprocess.run(
            [sys.executable, "-m", "repro.cli", "--item-size", "16", "sync",
             str(path), "--port", match.group(2)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert "missing locally : 0" in out.stdout
        assert proc.wait(timeout=30) == 0
        tail = proc.stdout.read()
        assert "connections proxied" in tail
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
