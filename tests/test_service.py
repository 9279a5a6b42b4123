"""The asyncio reconciliation service: concurrency, warmth, budgets.

Acceptance anchors:

* one server reconciles 8+ concurrent clients across 4 shards;
* a warm second round (after server-set mutations) is bit-identical on
  the wire to a cold re-encode of the mutated set (linearity, §4.1);
* budget exhaustion surfaces as the typed ``SymbolBudgetExceeded`` on
  both sides of the socket.
"""

import asyncio

import pytest

from repro.api import ReconcileError, SymbolBudgetExceeded
from repro.service import (
    ReconciliationServer,
    SchemeMismatch,
    ServerConfig,
    ServiceNode,
    StaleStream,
    sync,
)
from repro.service.framing import SyncMode

from helpers import make_items

SYNC_TIMEOUT = 120.0


def run(coro):
    """Drive one test coroutine (no pytest-asyncio dependency)."""
    return asyncio.run(asyncio.wait_for(coro, timeout=SYNC_TIMEOUT))


def items_range(lo, hi):
    return [b"%08d" % i for i in range(lo, hi)]


async def settle(server, attr, value, timeout=5.0):
    """Wait for a server stats counter: session teardown bookkeeping runs
    a tick after the client's coroutine resumes."""
    deadline = asyncio.get_running_loop().time() + timeout
    while getattr(server.stats, attr) < value:
        if asyncio.get_running_loop().time() > deadline:
            break
        await asyncio.sleep(0.01)
    assert getattr(server.stats, attr) == value


def test_single_client_roundtrip():
    async def scenario():
        async with ReconciliationServer(items_range(0, 500), num_shards=4) as server:
            host, port = server.address
            result = await sync(host, port, items_range(6, 506))
            assert result.mode == SyncMode.STREAM
            assert result.only_in_server == set(items_range(0, 6))
            assert result.only_in_client == set(items_range(500, 506))
            assert result.bytes_received > 0
            assert result.rounds == 1
            await settle(server, "sessions_completed", 1)
        return result

    run(scenario())


def test_equal_sets_terminate_immediately():
    async def scenario():
        async with ReconciliationServer(items_range(0, 200), num_shards=2) as server:
            host, port = server.address
            result = await sync(host, port, items_range(0, 200))
            assert result.difference_size == 0
            # The HELLO's cell 0 matched the server's: nothing streams.
            assert result.mode == SyncMode.IN_SYNC
            assert result.symbols == 0 and result.bytes_received == 0

    run(scenario())


def test_eight_concurrent_clients_four_shards(rng):
    """The acceptance bar: >= 8 concurrent clients, >= 4 shards, one server."""
    base = make_items(rng, 600)

    async def scenario():
        async with ReconciliationServer(base, num_shards=4) as server:
            host, port = server.address
            expectations = []
            syncs = []
            for k in range(1, 9):
                only_client = make_items(rng, k, size=8)
                client_items = base[k:] + [
                    item for item in only_client if item not in base
                ]
                expectations.append((set(base[:k]), set(client_items) - set(base)))
                syncs.append(sync(host, port, client_items))
            results = await asyncio.gather(*syncs)
            for (want_server, want_client), result in zip(expectations, results):
                assert result.only_in_server == want_server
                assert result.only_in_client == want_client
            await settle(server, "sessions_completed", 8)
            assert server.stats.sessions_dropped == 0
        return results

    run(scenario())


def test_warm_second_round_bit_identical_to_cold():
    """Golden: after add/remove churn, the warm banks serve byte-for-byte
    what a cold re-encode of the mutated set would serve."""
    base = items_range(0, 800)
    client_items = items_range(10, 810)
    added = items_range(900, 907)
    removed = items_range(20, 25)
    mutated = sorted((set(base) | set(added)) - set(removed))

    async def scenario():
        async with ReconciliationServer(base, num_shards=4) as warm:
            host, port = warm.address
            await sync(host, port, client_items)  # round 1 populates the banks
            for item in added:
                warm.add_item(item)
            for item in removed:
                warm.remove_item(item)
            warm_result = await sync(host, port, client_items, capture_payloads=True)
        async with ReconciliationServer(mutated, num_shards=4) as cold:
            host, port = cold.address
            cold_result = await sync(host, port, client_items, capture_payloads=True)
        return warm_result, cold_result

    warm_result, cold_result = run(scenario())
    assert warm_result.only_in_server == cold_result.only_in_server
    assert warm_result.only_in_client == cold_result.only_in_client
    warm_bytes = bytes(warm_result.payloads[0])
    cold_bytes = bytes(cold_result.payloads[0])
    # Lengths may differ by look-ahead blocks past the decode point; the
    # streams themselves must be identical cell for cell.
    common = min(len(warm_bytes), len(cold_bytes))
    assert common > 0
    assert warm_bytes[:common] == cold_bytes[:common]


def test_warm_banks_are_reused_not_reencoded():
    """Serving a second client must not grow the cached prefix beyond
    what the longest stream so far pulled."""

    async def scenario():
        async with ReconciliationServer(items_range(0, 400), num_shards=2) as server:
            host, port = server.address
            await sync(host, port, items_range(2, 402))
            first = server.backend.encoder.produced_count
            await sync(host, port, items_range(3, 403))
            second = server.backend.encoder.produced_count
            # Similar-difficulty syncs pull similar prefix lengths; the
            # bank only extends, never rebuilds.
            assert first <= second <= first * 4 + 256

    run(scenario())


def test_push_updates_server_and_next_client():
    async def scenario():
        async with ReconciliationServer(items_range(0, 300), num_shards=4) as server:
            host, port = server.address
            pusher = items_range(0, 300) + items_range(500, 503)
            result = await sync(host, port, pusher, push=True)
            assert result.pushed == 3
            for item in items_range(500, 503):
                assert item in server
            # A fresh client holding the original set now sees the pushes.
            follow_up = await sync(host, port, items_range(0, 300))
            assert follow_up.only_in_server == set(items_range(500, 503))
            await settle(server, "items_pushed", 3)

    run(scenario())


def test_budget_exhaustion_is_typed_and_server_survives():
    config = ServerConfig(max_symbols=16)

    async def scenario():
        async with ReconciliationServer(
            items_range(0, 1500), num_shards=2, config=config
        ) as server:
            host, port = server.address
            with pytest.raises(SymbolBudgetExceeded):
                await sync(host, port, [b"X%07d" % i for i in range(1500)])
            # One typed family: a generic ReconcileError handler catches
            # the same exception.
            with pytest.raises(ReconcileError):
                await sync(host, port, [b"X%07d" % i for i in range(1500)])
            await settle(server, "sessions_dropped", 2)
            # The server keeps serving after dropping runaway sessions.
            ok = await sync(host, port, items_range(1, 1501))
            assert ok.only_in_server == {b"%08d" % 0}
            assert ok.only_in_client == {b"%08d" % 1500}

    run(scenario())


def test_client_side_budget_is_typed():
    async def scenario():
        async with ReconciliationServer(items_range(0, 1200), num_shards=1) as server:
            host, port = server.address
            with pytest.raises(SymbolBudgetExceeded):
                await sync(
                    host, port, [b"Y%07d" % i for i in range(1200)], max_symbols=8
                )

    run(scenario())


def test_scheme_and_codec_mismatches_rejected():
    async def scenario():
        async with ReconciliationServer(items_range(0, 50), num_shards=2) as server:
            host, port = server.address
            with pytest.raises(SchemeMismatch):
                await sync(
                    host, port, items_range(0, 50), scheme="pinsketch", capacity=8
                )
            with pytest.raises(SchemeMismatch):
                await sync(host, port, items_range(0, 50), checksum_size=4)
            with pytest.raises(SchemeMismatch):
                await sync(host, port, items_range(0, 50), key=b"\xff" * 16)
            assert server.stats.sessions_completed == 0

    run(scenario())


def test_mutation_mid_stream_surfaces_stale():
    """Mutating the served set while a session streams must fail that
    session with the typed StaleStream, not serve a mixed stream."""
    config = ServerConfig(block_size=4)

    async def scenario():
        async with ReconciliationServer(
            items_range(0, 1500), num_shards=1, config=config
        ) as server:
            host, port = server.address

            async def mutate_soon():
                await asyncio.sleep(0.05)
                server.add_item(b"%08d" % 999999)

            mutation = asyncio.create_task(mutate_soon())
            with pytest.raises(StaleStream):
                # Large difference keeps the stream busy long enough for
                # the mutation to land mid-flight.
                await sync(host, port, [b"Z%07d" % i for i in range(1500)])
            await mutation

    run(scenario())


def test_sketch_mode_serves_fixed_capacity_schemes():
    """Registry integration: a non-streaming scheme backs the shards."""

    async def scenario():
        async with ReconciliationServer(
            items_range(0, 200), scheme="pinsketch", num_shards=2, capacity=8
        ) as server:
            host, port = server.address
            result = await sync(
                host, port, items_range(4, 204), scheme="pinsketch", capacity=8
            )
            assert result.mode == SyncMode.SKETCH
            assert result.only_in_server == set(items_range(0, 4))
            assert result.only_in_client == set(items_range(200, 204))

    run(scenario())


def test_sketch_mode_retry_doubles_until_decoded():
    async def scenario():
        async with ReconciliationServer(
            items_range(0, 300), scheme="regular_iblt", num_shards=1
        ) as server:
            host, port = server.address
            # Initial bound 1 forces several RETRY doublings for d = 24.
            result = await sync(
                host,
                port,
                items_range(12, 312),
                scheme="regular_iblt",
                difference_bound=1,
                max_rounds=8,
            )
            assert result.only_in_server == set(items_range(0, 12))
            assert result.rounds > 1

    run(scenario())


def test_sketch_mode_round_limit_is_enforced():
    async def scenario():
        async with ReconciliationServer(
            items_range(0, 400), scheme="regular_iblt", num_shards=1
        ) as server:
            host, port = server.address
            with pytest.raises(ReconcileError):
                await sync(
                    host,
                    port,
                    items_range(80, 480),
                    scheme="regular_iblt",
                    difference_bound=1,
                    max_rounds=2,
                )

    run(scenario())


def test_unserveable_scheme_rejected_at_construction():
    with pytest.raises(ValueError):
        ReconciliationServer(items_range(0, 10), scheme="merkle", symbol_size=8)


def test_client_disconnect_mid_stream_leaves_server_healthy():
    async def scenario():
        async with ReconciliationServer(items_range(0, 2000), num_shards=2) as server:
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            # Vanish without even a HELLO.
            writer.close()
            await writer.wait_closed()
            # And once more mid-handshake: half a frame, then gone.
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"\x7f\x01")  # declares 127 bytes, sends one
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            await asyncio.sleep(0.1)
            result = await sync(host, port, items_range(1, 2001))
            assert result.only_in_server == {b"%08d" % 0}
            await settle(server, "sessions_dropped", 2)

    run(scenario())


def test_service_node_bidirectional_convergence():
    async def scenario():
        hub = ServiceNode(items_range(0, 150), num_shards=4)
        await hub.start()
        try:
            edge = ServiceNode(items_range(7, 157), num_shards=4)
            result = await edge.sync_with(*hub.address, push=True)
            assert result.difference_size == 14
            assert edge.items == set(items_range(0, 157))
            assert len(hub.server) == 157  # pushes patched the warm banks
            # Second edge syncs against the already-converged hub.
            other = ServiceNode(items_range(0, 150), num_shards=4)
            second = await other.sync_with(*hub.address)
            assert second.only_in_server == set(items_range(150, 157))
            assert other.items == set(items_range(0, 157))
        finally:
            await hub.stop()

    run(scenario())


def test_max_sessions_finishes_server():
    config = ServerConfig(max_sessions=2)

    async def scenario():
        server = ReconciliationServer(
            items_range(0, 100), num_shards=2, config=config
        )
        host, port = await server.start()
        try:
            await sync(host, port, items_range(1, 101))
            await sync(host, port, items_range(2, 102))
            await asyncio.wait_for(server.wait_finished(), timeout=5)
        finally:
            await server.close()

    run(scenario())


def test_retry_frame_in_stream_mode_is_protocol_error():
    """A sketch-mode frame sent to a streaming server must yield a typed
    ERROR, not crash the session task (hostile/buggy client)."""
    from repro.service.framing import (
        PROTOCOL_VERSION,
        FrameType,
        pack_lp_str,
        pack_uvarints,
        read_frame,
        write_frame,
    )
    from repro.service.shard import key_probe

    async def scenario():
        async with ReconciliationServer(items_range(0, 100), num_shards=2) as server:
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            probe = key_probe(server.backend.sharded.hash64)
            await write_frame(
                writer,
                FrameType.HELLO,
                pack_uvarints(PROTOCOL_VERSION)
                + pack_lp_str("riblt")
                + pack_uvarints(8, 8)
                + pack_lp_str(server.handle.params.hasher)
                + pack_uvarints(probe, 0, 0),
            )
            frame = await read_frame(reader)
            assert frame is not None and frame[0] == FrameType.WELCOME
            await write_frame(writer, FrameType.RETRY, pack_uvarints(8))
            saw_error = False
            for _ in range(200):
                frame = await read_frame(reader)
                if frame is None or frame[0] == FrameType.ERROR:
                    saw_error = frame is not None
                    break
            assert saw_error
            writer.close()
            await writer.wait_closed()
            # The server survives and serves the next client normally.
            result = await sync(host, port, items_range(1, 101))
            assert result.only_in_server == {b"%08d" % 0}

    run(scenario())


def test_handshake_then_silence_costs_one_window():
    """A client that completes the handshake and then stops reading (or
    just never grants) is served the initial credit window of its one
    stream, whatever the server's shard count, and not a symbol more —
    the bound is the machine's, not the socket buffers' — and the idle
    deadline reaps it with the typed IDLE error.
    Before the credit window the server serialised symbols until the
    kernel buffers filled: tens of thousands of them."""
    from repro.protocol import InitiatorMachine
    from repro.service.framing import (
        INITIAL_WINDOW,
        ErrorCode,
        FrameDecoder,
        FrameType,
        read_frame,
    )

    config = ServerConfig(idle_timeout=0.3)

    async def scenario():
        async with ReconciliationServer(
            items_range(0, 4000), num_shards=4, config=config
        ) as server:
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            # A real machine's HELLO — and then none of its other frames.
            client = InitiatorMachine(server.handle, [])
            client.start()
            writer.write(client.take_output())
            await writer.drain()
            frame = await read_frame(reader)
            assert frame is not None and frame[0] == FrameType.WELCOME
            # ... and now read nothing until the server has given up.
            await settle(server, "sessions_dropped", 1)
            bound = INITIAL_WINDOW + config.block_size
            assert 0 < server.stats.symbols_sent <= bound
            assert server.stats.errors_sent == {int(ErrorCode.IDLE): 1}
            # Everything it did send still sits in the socket: the whole
            # window, then the typed reason, then EOF.
            frames = FrameDecoder().feed(await reader.read(-1))
            assert frames[-1][0] == FrameType.ERROR
            assert frames[-1][1][0] == ErrorCode.IDLE
            assert {ftype for ftype, _ in frames[:-1]} == {FrameType.SYMBOLS}
            writer.close()
            await writer.wait_closed()
            # The server is unharmed and serves the next client.
            result = await sync(host, port, items_range(3, 4003))
            assert result.difference_size == 6

    run(scenario())
