"""Fault-tolerance behaviours: idle deadlines, reconnects, degradation.

Acceptance anchors:

* a stalled session is closed with a typed ``ERROR(IDLE)`` frame — the
  client can tell "you were too slow" from a crash or a protocol bug;
* :class:`RetryPolicy` reconnects survive a server that comes up late,
  with a schedule that is exactly reproducible under a seed;
* a gossip peer whose sessions die is marked suspect and backed off,
  and one successful contact restores the normal cadence;
* a durable server restarted from its data dir serves the same set.
"""

import asyncio
import random

import pytest

from repro.api import SymbolBudgetExceeded
from repro.gossip import GossipConfig, GossipNode, run_round
from repro.protocol.events import MachineReport
from repro.service import (
    IdleTimeout,
    ReconciliationServer,
    RetryPolicy,
    SchemeMismatch,
    ServerBusy,
    ServerConfig,
    ServiceNode,
    sync,
)
from repro.service.framing import (
    ErrorCode,
    FrameDecoder,
    FrameError,
    FrameType,
    SyncMode,
)

SYNC_TIMEOUT = 120.0


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=SYNC_TIMEOUT))


def items_range(lo, hi):
    return [b"%08d" % i for i in range(lo, hi)]


# -- idle deadline -----------------------------------------------------------


def test_idle_session_closed_with_typed_error_frame():
    """A client that connects and stalls gets ERROR(IDLE), then EOF."""

    async def scenario():
        config = ServerConfig(idle_timeout=0.2)
        async with ReconciliationServer(
            items_range(0, 50), num_shards=2, config=config
        ) as server:
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            try:
                # Say nothing.  The server must not hold the socket
                # forever waiting for a HELLO that never comes.
                data = await asyncio.wait_for(reader.read(1 << 16), timeout=5.0)
                frames = FrameDecoder().feed(data)
                assert frames, "expected an ERROR frame before close"
                ftype, body = frames[-1]
                assert ftype == FrameType.ERROR
                assert body[0] == ErrorCode.IDLE
                # The server then drops the connection entirely.
                tail = await asyncio.wait_for(reader.read(1 << 16), timeout=5.0)
                assert tail == b""
            finally:
                writer.close()
                await writer.wait_closed()

    run(scenario())


def test_idle_error_surfaces_as_typed_exception_client_side():
    """The machine maps ERROR(IDLE) to IdleTimeout, not a generic fail."""
    import repro.protocol.machine as protocol_machine
    from repro.api.registry import get_scheme

    async def scenario():
        config = ServerConfig(idle_timeout=0.2)
        async with ReconciliationServer(
            items_range(0, 50), num_shards=2, config=config
        ) as server:
            host, port = server.address
            handle = get_scheme("riblt", symbol_size=8)
            machine = protocol_machine.InitiatorMachine(handle, items_range(0, 50))
            machine.start()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                # Swallow the machine's opening bytes instead of sending
                # them: a connected-but-silent client.
                machine.take_output()
                while not machine.finished:
                    data = await asyncio.wait_for(
                        reader.read(1 << 16), timeout=5.0
                    )
                    if not data:
                        machine.peer_closed()
                    else:
                        machine.bytes_received(data)
                assert isinstance(machine.failed, IdleTimeout)
            finally:
                writer.close()
                await writer.wait_closed()

    run(scenario())


def test_active_session_unaffected_by_idle_deadline():
    """A normally-paced sync never trips a short-but-sane deadline."""

    async def scenario():
        config = ServerConfig(idle_timeout=5.0)
        async with ReconciliationServer(
            items_range(0, 500), num_shards=4, config=config
        ) as server:
            host, port = server.address
            result = await sync(host, port, items_range(10, 510))
            assert result.only_in_server == set(items_range(0, 10))

    run(scenario())


def test_idle_timeout_none_disables_deadline():
    async def scenario():
        config = ServerConfig(idle_timeout=None)
        async with ReconciliationServer(
            items_range(0, 50), num_shards=2, config=config
        ) as server:
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            try:
                # No deadline: half a second of silence produces nothing.
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(reader.read(1), timeout=0.5)
            finally:
                writer.close()
                await writer.wait_closed()

    run(scenario())


# -- bounded reconnect -------------------------------------------------------


def test_retry_policy_is_deterministic_under_seed():
    a = list(RetryPolicy(attempts=6, seed=42).delays())
    b = list(RetryPolicy(attempts=6, seed=42).delays())
    c = list(RetryPolicy(attempts=6, seed=43).delays())
    assert a == b
    assert a != c
    assert len(a) == 5


@pytest.mark.parametrize(
    "failure, frame_errors, tries",
    [
        (ConnectionResetError("reset"), False, 3),
        (ServerBusy("shed", retry_after=0.0), False, 3),
        (FrameError("mangled"), False, 1),
        (FrameError("mangled"), True, 3),
        (SymbolBudgetExceeded("poisoned", symbols_sent=9, max_symbols=8), True, 3),
        (SchemeMismatch("hasher"), True, 1),
        (ValueError("a bug"), True, 1),
    ],
)
def test_retry_policy_retries_weather_only(monkeypatch, failure, frame_errors, tries):
    """Connection failures and BUSY sheds retry; corruption-shaped typed
    failures only under ``retry_frame_errors``; a ``SchemeMismatch`` or an
    untyped error never.  A sync that wins late counts its attempts and
    its BUSY waits."""
    from repro.service import client

    outcomes = []

    async def dial(machine, host, port, **kwargs):
        outcome = outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome, 0

    monkeypatch.setattr(client, "dial_initiator", dial)
    policy = RetryPolicy(
        attempts=3, base_delay=0.0, jitter=0.0, retry_frame_errors=frame_errors
    )
    outcomes[:] = [failure] * 3
    with pytest.raises(type(failure)):
        run(sync("127.0.0.1", 1, items_range(0, 4), retry=policy))
    assert len(outcomes) == 3 - tries
    if tries == 3:
        report = MachineReport("riblt", SyncMode.STREAM, 8, set(), set())
        outcomes[:] = [failure, failure, report]
        result = run(sync("127.0.0.1", 1, items_range(0, 4), retry=policy))
        assert result.attempts == 3
        assert result.busy_waits == (2 if isinstance(failure, ServerBusy) else 0)


def test_retry_policy_backoff_envelope():
    policy = RetryPolicy(
        attempts=8, base_delay=0.1, max_delay=1.0, multiplier=2.0,
        jitter=0.5, seed=7,
    )
    delays = list(policy.delays())
    for k, delay in enumerate(delays):
        nominal = min(0.1 * 2.0**k, 1.0)
        assert 0.5 * nominal <= delay <= 1.5 * nominal
    # The cap binds: late retries stop growing.
    assert max(delays) <= 1.5


def test_retry_policy_validates():
    with pytest.raises(ValueError):
        RetryPolicy(attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.5)
    assert list(RetryPolicy(attempts=1).delays()) == []


def test_sync_reconnects_until_server_appears():
    """The server comes up after the first attempts fail: retry wins."""

    async def scenario():
        # Reserve a port, then race the server against the client's
        # retry schedule.
        probe = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
        port = probe.sockets[0].getsockname()[1]
        probe.close()
        await probe.wait_closed()

        server = ReconciliationServer(items_range(0, 100), num_shards=2)

        async def late_start():
            await asyncio.sleep(0.3)
            await server.start("127.0.0.1", port)

        starter = asyncio.ensure_future(late_start())
        try:
            result = await sync(
                "127.0.0.1",
                port,
                items_range(5, 105),
                retry=RetryPolicy(
                    attempts=20, base_delay=0.05, max_delay=0.2, seed=3
                ),
            )
            assert result.only_in_server == set(items_range(0, 5))
        finally:
            await starter
            await server.close()

    run(scenario())


def test_sync_gives_up_after_attempts_exhausted():
    async def scenario():
        probe = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
        port = probe.sockets[0].getsockname()[1]
        probe.close()
        await probe.wait_closed()
        with pytest.raises(OSError):
            await sync(
                "127.0.0.1",
                port,
                items_range(0, 10),
                retry=RetryPolicy(attempts=3, base_delay=0.01, seed=1),
            )

    run(scenario())


def test_protocol_failures_are_not_retried():
    """Budget exhaustion is a disagreement, not an outage: no retry."""

    async def scenario():
        async with ReconciliationServer(
            items_range(0, 400), num_shards=1
        ) as server:
            host, port = server.address
            before = server.stats.sessions_started
            with pytest.raises(SymbolBudgetExceeded):
                await sync(
                    host,
                    port,
                    items_range(200, 600),
                    max_symbols=4,
                    retry=RetryPolicy(attempts=5, base_delay=0.01, seed=1),
                )
            # Exactly one session ran: the typed failure propagated
            # without burning the retry schedule.
            assert server.stats.sessions_started == before + 1

    run(scenario())


# -- gossip degradation ------------------------------------------------------


def gossip_pair(diff=40):
    shared = [b"%08d" % i for i in range(200)]
    a_only = [b"%08d" % i for i in range(1000, 1000 + diff)]
    x = GossipNode(0, shared + a_only, num_shards=1)
    y = GossipNode(1, shared, num_shards=1)
    return x, y


def test_failed_round_marks_suspect_and_backs_off():
    x, y = gossip_pair()
    config = GossipConfig(max_symbols=1)  # guarantees a blown budget
    outcome = run_round(x, y, 1, config)
    assert outcome.tier == "failed"
    assert outcome.error and "SymbolBudgetExceeded" in outcome.error
    view = x.view_of(1)
    assert view.suspect
    assert view.failures == 1
    assert view.next_contact_round == 1 + 2  # 1 << 1

    # Within the backoff window the peer is not contacted at all.
    outcome = run_round(x, y, 2, config)
    assert outcome.tier == "backoff"
    assert outcome.wire_bytes == 0

    # Consecutive failures double the interval, capped.
    outcome = run_round(x, y, 3, config)
    assert outcome.tier == "failed"
    assert x.view_of(1).failures == 2
    assert x.view_of(1).next_contact_round == 3 + 4
    for round_no in range(4, 20):
        if not x.in_backoff(1, round_no):
            run_round(x, y, round_no, config)
    assert x.view_of(1).next_contact_round <= round_no + GossipNode.MAX_BACKOFF_ROUNDS


def test_first_success_clears_suspicion_fully():
    x, y = gossip_pair()
    run_round(x, y, 1, GossipConfig(max_symbols=1))
    assert x.view_of(1).suspect

    # The budget pressure lifts; the next allowed contact succeeds.
    round_no = x.view_of(1).next_contact_round
    outcome = run_round(x, y, round_no, GossipConfig())
    assert outcome.tier == "full"
    view = x.view_of(1)
    assert not view.suspect
    assert view.failures == 0
    assert view.next_contact_round == 0
    assert sorted(y.items()) == sorted(x.items())


def test_tolerate_failures_false_raises_through():
    x, y = gossip_pair()
    config = GossipConfig(max_symbols=1, tolerate_failures=False)
    with pytest.raises(SymbolBudgetExceeded):
        run_round(x, y, 1, config)
    # The peer is still marked suspect before the raise: a caller that
    # catches the exception keeps the degradation bookkeeping.
    assert x.view_of(1).suspect


def test_mesh_sim_round_tolerates_budget_failures():
    from repro.gossip import GossipMesh, make_nodes

    rng = random.Random(11)
    universe = [b"%08d" % i for i in range(300)]
    node_sets = [
        set(rng.sample(universe, 250)) for _ in range(4)
    ]
    nodes = make_nodes(node_sets)
    mesh = GossipMesh(
        nodes,
        topology="full",
        fanout=1,
        seed=5,
        config=GossipConfig(transport="sim", max_symbols=1),
    )
    stats = mesh.run_round()
    assert stats.failed_syncs > 0  # budget=1 kills every full session
    suspects = sum(
        1 for node in nodes for view in node.views.values() if view.suspect
    )
    assert suspects >= stats.failed_syncs


# -- warm restart of the served state ---------------------------------------


def test_service_node_warm_restart_serves_recovered_set(tmp_path):
    async def scenario():
        node = ServiceNode(
            items_range(0, 150), num_shards=2, data_dir=tmp_path
        )
        await node.start()
        node.add_items(items_range(500, 520))
        node.remove_items(items_range(0, 5))
        expected = set(items_range(5, 150)) | set(items_range(500, 520))
        await node.stop()

        # A new process: no items given, everything comes off disk.
        reborn = ServiceNode(data_dir=tmp_path)
        host, port = await reborn.start()
        assert reborn.items == expected
        result = await sync(host, port, sorted(expected))
        assert result.difference_size == 0
        await reborn.stop()

    run(scenario())


def test_gossip_digest_version_survives_restart(tmp_path):
    """A restarted durable peer digest-skips instead of re-syncing."""
    from repro.durable import open_durable

    items = [b"%08d" % i for i in range(120)]
    backend = open_durable(tmp_path, items, num_shards=1)
    x = GossipNode(0, backend=backend)
    y = GossipNode(1, items, num_shards=1)
    outcome = run_round(x, y, 1, GossipConfig())
    assert outcome.tier == "digest-skip"  # equal sets confirm cheaply
    y_view_version = y.view_of(0).peer_version
    backend.close()

    # Restart: the version clock comes back from disk, so the digest y
    # already holds is not "stale reordered information".
    reborn = GossipNode(0, backend=open_durable(tmp_path))
    assert reborn.version == y_view_version
    outcome = run_round(reborn, y, 2, GossipConfig())
    assert outcome.tier in ("clock-skip", "digest-skip")
    reborn.backend.close()
