"""The multi-process worker pool: routing, equivalence, crash recovery.

Acceptance anchors:

* ``workers=2`` serving 4 shards finds the same difference as the same
  set behind one in-process server, and each worker's stream is
  **byte-identical** to a solo server's over that worker's stripe, for
  8 sequential clients;
* a SIGKILL'd worker is restarted warm by the supervisor and a client
  retrying via the existing :class:`~repro.service.RetryPolicy`
  succeeds;
* an injected ``REPRO_CRASH_POINT`` crash kills a *real* worker
  subprocess mid-churn (exit :data:`~repro.cluster.worker
  .CRASH_EXIT_CODE`), and recovery replays exactly the acked prefix of
  its journal segment;
* a worker dying mid-session surfaces as the typed
  :class:`~repro.service.WorkerUnavailable`, never a hang.
"""

import asyncio
import signal

import pytest

from repro.api import get_scheme
from repro.cluster import (
    ClusterConfig,
    ClusterError,
    ClusterSupervisor,
    worker_of_shard,
    worker_shards,
)
from repro.cluster.worker import CRASH_EXIT_CODE
from repro.durable import DurableConfig, open_durable
from repro.durable.store import JOURNAL_SEGMENT_GLOB, journal_segment_name
from repro.service import (
    ReconciliationServer,
    RetryPolicy,
    WorkerUnavailable,
    sync,
)
from repro.service.defaults import SERVICE_HASHER
from repro.service.framing import (
    PROTOCOL_VERSION,
    FrameType,
    SyncMode,
    encode_frame,
    pack_uvarints,
)
from repro.service.shard import shard_of

SYNC_TIMEOUT = 180.0

RETRY = RetryPolicy(attempts=10, base_delay=0.2, max_delay=1.0)


def run(coro):
    """Drive one test coroutine (no pytest-asyncio dependency)."""
    return asyncio.run(asyncio.wait_for(coro, timeout=SYNC_TIMEOUT))


def items_range(lo, hi):
    return [b"%016d" % i for i in range(lo, hi)]


NO_FSYNC = DurableConfig(fsync=False)  # pools on a real data dir: speed only


def fast_config(**overrides):
    defaults = dict(num_workers=2, restart_backoff=0.05)
    defaults.update(overrides)
    return ClusterConfig(**defaults)


# -- topology ----------------------------------------------------------------


def test_worker_shards_striped():
    assert list(worker_shards(5, 2, 0)) == [0, 2, 4]
    assert list(worker_shards(5, 2, 1)) == [1, 3]
    # Every shard is owned by exactly one worker, and ownership agrees
    # with worker_of_shard.
    owners = {}
    for w in range(3):
        for g in worker_shards(7, 3, w):
            assert g not in owners
            owners[g] = w
    assert sorted(owners) == list(range(7))
    assert all(worker_of_shard(g, 3) == w for g, w in owners.items())


def test_worker_shards_validation():
    with pytest.raises(ValueError):
        worker_shards(4, 0, 0)
    with pytest.raises(ValueError):
        worker_shards(4, 2, 2)
    with pytest.raises(ValueError):
        worker_shards(1, 2, 0)


def test_supervisor_rejects_thin_topology():
    async def scenario():
        sup = ClusterSupervisor(
            items_range(0, 50),
            num_shards=2,
            config=fast_config(num_workers=3),
        )
        with pytest.raises(ClusterError):
            await sup.start()
        await sup.close()

    run(scenario())


# -- equivalence -------------------------------------------------------------


def test_cluster_byte_identical_to_single_server():
    """8 clients against workers=2 find the single server's difference,
    and each worker's stream is, byte for byte, what a solo server
    holding only that worker's stripe serves a client holding only its
    stripe: the pool streams the XOR of a worker's shards, and the client
    encodes the items the stripe would hold."""
    server_items = items_range(0, 600)
    workloads = [
        server_items[7 * k :] + items_range(10_000 + 3 * k, 10_000 + 3 * k + 9)
        for k in range(8)
    ]
    hash64 = get_scheme("riblt", symbol_size=16, hasher=SERVICE_HASHER).hash64

    def stripe(items, worker):
        return [item for item in items if shard_of(hash64, item, 4) % 2 == worker]

    async def scenario():
        refs, stripes = [], []
        async with ReconciliationServer(server_items, num_shards=4) as solo:
            host, port = solo.address
            for wl in workloads:
                refs.append(await sync(host, port, wl))
        for worker in range(2):
            async with ReconciliationServer(stripe(server_items, worker)) as solo:
                host, port = solo.address
                mine = [stripe(wl, worker) for wl in workloads]
                stripes.append(
                    [await sync(host, port, wl, capture_payloads=True) for wl in mine]
                )
        async with ClusterSupervisor(
            server_items, num_shards=4, config=fast_config()
        ) as sup:
            host, port = sup.entry_address
            for k, (wl, ref) in enumerate(zip(workloads, refs)):
                res = await sync(host, port, wl, capture_payloads=True)
                assert res.only_in_server == ref.only_in_server
                assert res.only_in_client == ref.only_in_client
                assert sorted(res.payloads) == [0, 1]
                for worker in range(2):
                    assert res.payloads[worker] == stripes[worker][k].payloads[0]
                assert res.symbols == sum(runs[k].symbols for runs in stripes)

    run(scenario())


def test_cluster_concurrent_clients():
    server_items = items_range(0, 400)

    async def scenario():
        async with ClusterSupervisor(
            server_items, num_shards=4, config=fast_config()
        ) as sup:
            host, port = sup.entry_address

            async def one(k):
                wl = server_items[5 * k :] + items_range(20_000 + k, 20_001 + k)
                res = await sync(host, port, wl)
                assert res.only_in_server == set(server_items[: 5 * k])
                assert len(res.only_in_client) == 1

            await asyncio.gather(*(one(k) for k in range(8)))

    run(scenario())


def test_cluster_workers_never_answer_in_sync():
    """A worker serves a stripe of the shards, never the client's whole
    set, so it ignores the HELLO digest: an identical client still streams
    from every worker (one termination cell each) from a pool, while the
    same client against one process ends in one round trip."""
    server_items = items_range(0, 300)

    async def scenario():
        async with ClusterSupervisor(
            server_items, num_shards=4, config=fast_config()
        ) as sup:
            host, port = sup.entry_address
            res = await sync(host, port, server_items)
            assert res.mode == SyncMode.STREAM and res.symbols >= 2
            assert res.difference_size == 0
        async with ReconciliationServer(server_items, num_shards=4) as solo:
            host, port = solo.address
            res = await sync(host, port, server_items)
            assert res.mode == SyncMode.IN_SYNC and res.symbols == 0

    run(scenario())


def test_fallback_mode_entry_is_worker_zero():
    server_items = items_range(0, 200)

    async def scenario():
        async with ClusterSupervisor(
            server_items,
            num_shards=4,
            config=fast_config(reuse_port=False),
        ) as sup:
            assert not sup.reuse_port_active
            assert sup.entry_port == sup.ports[0]
            res = await sync(*sup.entry_address, server_items[10:])
            assert res.only_in_server == set(server_items[:10])

    run(scenario())


# -- worker death ------------------------------------------------------------


def test_killed_worker_restarts_and_retry_succeeds():
    server_items = items_range(0, 400)
    client_items = server_items[25:] + items_range(30_000, 30_010)

    async def scenario():
        async with ClusterSupervisor(
            server_items, num_shards=4, config=fast_config()
        ) as sup:
            host, port = sup.entry_address
            ref = await sync(host, port, client_items)
            sup.kill_worker(1, signal.SIGKILL)
            res = await sync(host, port, client_items, retry=RETRY)
            assert res.only_in_server == ref.only_in_server
            assert res.only_in_client == ref.only_in_client
            assert sup.restart_counts[1] >= 1
            assert -signal.SIGKILL in sup.unexpected_exits[1]

    run(scenario())


def test_worker_death_mid_session_is_typed_not_a_hang():
    """A connection that got a cluster WELCOME and then died raises
    WorkerUnavailable (a ConnectionError, so RetryPolicy retries it)."""

    async def handler(reader, writer):
        # A plausible cluster WELCOME: our version, stream mode, block 64,
        # then the routing tail (2 workers, index 0, 4 shards, ports) --
        # and then the "worker" dies mid-session.
        await reader.read(64)  # let the HELLO arrive
        welcome = pack_uvarints(PROTOCOL_VERSION, 0, 64) + pack_uvarints(
            2, 0, 4, 1, 2
        )
        writer.write(encode_frame(FrameType.WELCOME, welcome))
        await writer.drain()
        writer.close()

    async def scenario():
        server = await asyncio.start_server(handler, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            with pytest.raises(WorkerUnavailable) as excinfo:
                await sync("127.0.0.1", port, items_range(0, 10))
            assert isinstance(excinfo.value, ConnectionError)
        finally:
            server.close()
            await server.wait_closed()

    run(scenario())


# -- crash injection ---------------------------------------------------------


def test_injected_crash_kills_worker_process_and_recovers(
    tmp_path, monkeypatch
):
    """REPRO_CRASH_POINT fells a real subprocess mid-churn; the
    supervisor restarts it warm and recovery keeps exactly the acked
    prefix of its journal segment (here: nothing -- the first append is
    torn, so the push is dropped wholesale and the retry re-applies it).

    Both workers are armed, but once the first one dies the client
    cancels its sibling session, so the other may get no PUSH and stay
    armed.  The scenario therefore re-pushes the extras only of shards
    whose worker has not yet crashed (a restarted worker is unarmed and
    would land them) until every worker has crashed, waits until every
    restarted worker serves again, and only then checks recovery.
    """
    server_items = items_range(0, 300)
    extras = items_range(40_000, 40_040)
    data_dir = tmp_path / "pool"
    hash64 = get_scheme("riblt", symbol_size=16, hasher=SERVICE_HASHER).hash64
    workers = fast_config().num_workers

    def owner(item):
        return worker_of_shard(shard_of(hash64, item, 4), workers)

    async def scenario():
        # Armed BEFORE the workers spawn: each worker parses the env at
        # import.  The test process's own injector was parsed long ago
        # (unarmed), so only the subprocesses crash.
        monkeypatch.setenv("REPRO_CRASH_POINT", "journal.append")
        sup = ClusterSupervisor(
            server_items,
            data_dir=data_dir,
            num_shards=4,
            config=fast_config(),
            durable=NO_FSYNC,
        )
        try:
            host, port = await sup.start()
            # Disarm now: monitor respawns re-read os.environ, so the
            # restarted workers must come back clean.
            monkeypatch.delenv("REPRO_CRASH_POINT")
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 60.0

            async def settled_crashes():
                # A worker's exit reaches the supervisor within
                # milliseconds; wait until none has appeared for a while.
                seen = None
                while seen != sup.unexpected_exits:
                    seen = sup.unexpected_exits
                    await asyncio.sleep(0.3)
                return [w for w, codes in enumerate(seen) if CRASH_EXIT_CODE in codes]

            crashed = []
            while len(crashed) < workers:
                armed = [e for e in extras if owner(e) not in crashed]
                try:
                    await sync(host, port, server_items + armed, push=True)
                except (WorkerUnavailable, ConnectionError):
                    pass  # the crash may also cut the session mid-push
                while not any(sup.restart_counts):
                    assert loop.time() < deadline
                    await asyncio.sleep(0.05)
                crashed = await settled_crashes()
                assert crashed, sup.unexpected_exits
                assert loop.time() < deadline, sup.unexpected_exits
            # Every worker is restarted unarmed; a push-free sync waits
            # until all of them serve again.
            await sync(host, port, server_items, retry=RETRY)
            # The armed append was torn: recovery drops it, the store
            # still equals the pre-push (acked) state, and the retried
            # push lands everything.
            res = await sync(
                host, port, server_items + extras, push=True, retry=RETRY
            )
            assert len(res.only_in_client) == len(extras)
            res2 = await sync(host, port, server_items + extras, retry=RETRY)
            assert not res2.only_in_client and not res2.only_in_server
            for w in range(2):
                assert (data_dir / journal_segment_name(w)).exists()
        finally:
            await sup.close()

    run(scenario())

    # A later full open folds every worker's segment back into one
    # checkpoint; the folded set is the union and the segments are gone.
    backend = open_durable(data_dir)
    try:
        recovered = set()
        for shard in backend.sharded.shards:
            recovered |= set(shard)
    finally:
        backend.close()
    assert recovered == set(server_items) | set(extras)
    assert not list(data_dir.glob(JOURNAL_SEGMENT_GLOB))


# -- durable restart ---------------------------------------------------------


def test_pool_restart_recovers_churn_from_segments(tmp_path):
    """Churn journaled by workers survives a full pool stop/start."""
    server_items = items_range(0, 250)
    extras = items_range(50_000, 50_030)
    data_dir = tmp_path / "pool"

    async def scenario_push():
        async with ClusterSupervisor(
            server_items,
            data_dir=data_dir,
            num_shards=4,
            config=fast_config(),
            durable=NO_FSYNC,
        ) as sup:
            host, port = sup.entry_address
            await sync(host, port, server_items + extras, push=True)

    async def scenario_verify():
        # items=() on an existing dir: everything comes back from disk
        # (boot folds the segments from the previous run).
        async with ClusterSupervisor(
            data_dir=data_dir, config=fast_config(), durable=NO_FSYNC
        ) as sup:
            host, port = sup.entry_address
            res = await sync(host, port, server_items + extras)
            assert not res.only_in_server and not res.only_in_client

    run(scenario_push())
    run(scenario_verify())


@pytest.mark.parametrize("worker", [0, 1])
def test_subset_open_encoder_is_a_cold_stripe_encoder(tmp_path, worker):
    """A worker's subset open keeps its stripe's rows from the one
    snapshot and ingests them, checksums and all, without hashing: its
    encoder, produced to 256 cells, equals a cold encoder over the
    stripe, and its per-shard members and versions are the full store's."""
    from repro.core.encoder import RatelessEncoder

    items = items_range(0, 600)
    data_dir = tmp_path / "pool"
    full = open_durable(
        data_dir, items, num_shards=4, config=NO_FSYNC, hasher=SERVICE_HASHER
    )
    full.open_stream().next_block(100)  # a parked prefix in the snapshot
    full.add_many(items_range(10_000, 10_050))
    full.remove_many(items[::9])
    full.checkpoint()
    shards, versions = list(full.sharded.shards), list(full.sharded.versions)
    codec = full.handle.codec
    full.close()
    owned = worker_shards(4, 2, worker)
    backend = open_durable(
        data_dir,
        shard_subset=owned,
        journal_name=journal_segment_name(worker),
        config=NO_FSYNC,
    )
    try:
        assert backend.sharded.shards == [shards[g] for g in owned]
        assert backend.sharded.versions == [versions[g] for g in owned]
        stripe = sorted(item for g in owned for item in shards[g])
        cold = RatelessEncoder(codec, stripe)
        assert backend.encoder.produced_count == 0  # produced on demand
        assert backend.encoder.cached_block(0, 256) == cold.cached_block(0, 256)
        assert sorted(zip(*backend.encoder.export_rows())) == sorted(
            zip(*cold.export_rows())
        )
    finally:
        backend.close()
