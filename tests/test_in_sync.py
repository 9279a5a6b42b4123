"""One round trip for an in-sync peer: the HELLO digest.

Every item maps to coded symbol 0 (ρ(0) = 1, §4.1.2), so a set's cell 0
— the XOR of its items, the XOR of their keyed checksums and its count —
is a digest both peers already hold.  The initiator sends its cell 0 in
HELLO; a solo stream-mode responder whose warm cell 0 is equal answers
WELCOME(IN_SYNC) and STATS in one write and opens no stream.

False-equal bound: for a nonempty difference with balanced counts, the
two cells can only be equal if the difference's keyed checksums XOR to
0 (and its items XOR to 0).  The checksums are a keyed hash the peers'
items cannot steer, so that happens with probability at most
2^-(8·checksum_size) per sync — 2^-64 at the default 8-byte checksum —
and then the sync reports an empty difference.  An unbalanced
difference always shows in the count lane.
"""

from __future__ import annotations

import asyncio
import random

import pytest

import repro.protocol.machine as machine_module
from repro.api import get_scheme
from repro.core.cellbank import CodedSymbolBank
from repro.durable import DurableConfig
from repro.protocol import InitiatorMachine, ResponderMachine
from repro.protocol.events import ClusterInfo
from repro.protocol.pump import memory_responder, pump
from repro.service import ReconciliationServer, sync
from repro.service.backends import open_backend, set_digest
from repro.service.errors import ProtocolError
from repro.service.framing import (
    PROTOCOL_VERSION,
    BodyReader,
    ErrorCode,
    FrameDecoder,
    FrameType,
    SyncMode,
    encode_frame,
    pack_uvarints,
)
from repro.service.shard import hash_items

SYNC_TIMEOUT = 60


def items_range(lo: int, hi: int) -> list:
    return [b"%08d" % i for i in range(lo, hi)]


def frames_of(data: bytes) -> list:
    return FrameDecoder().feed(bytes(data))


def welcome_mode(body: bytes) -> SyncMode:
    reader = BodyReader(body)
    assert reader.uvarint() == PROTOCOL_VERSION
    return SyncMode(reader.uvarint())


def drive(initiator, responder):
    """Pump two machines, returning each direction's frames."""
    up, down = bytearray(), bytearray()
    initiator.start()
    responder.start()
    while not initiator.finished:
        out = initiator.take_output()
        if out and not responder.finished:
            up.extend(out)
            responder.bytes_received(out)
            continue
        back = responder.take_output()
        if back:
            down.extend(back)
            initiator.bytes_received(back)
            continue
        if responder.wants_tick:
            responder.tick()
            continue
        initiator.peer_closed()
    return frames_of(up), frames_of(down)


def cold_digest(backend) -> CodedSymbolBank:
    """Cell 0 recomputed from the members, with nothing warm."""
    members = list(backend.sharded)
    codec = backend.handle.codec
    return set_digest(members, hash_items(backend.handle.hash64, members), codec)


# --- the one-round-trip session ----------------------------------------------


def test_identical_sets_over_pump_are_one_round_trip() -> None:
    handle = get_scheme("riblt", symbol_size=8)
    items = items_range(0, 300)
    initiator = InitiatorMachine(handle, items, capture_payloads=True)
    backend = open_backend(items, scheme=handle, num_shards=4)
    responder = ResponderMachine(backend, handle)
    up, down = drive(initiator, responder)
    assert [ftype for ftype, _ in up] == [FrameType.HELLO]
    assert [ftype for ftype, _ in down] == [FrameType.WELCOME, FrameType.STATS]
    assert welcome_mode(down[0][1]) == SyncMode.IN_SYNC
    assert responder.complete and responder.symbols_sent == 0
    report = initiator.report
    assert report.mode == SyncMode.IN_SYNC
    assert report.symbols == 0 and report.payload_bytes == 0
    assert report.only_in_remote == set() and report.only_in_local == set()
    assert report.payloads == {0: b""}  # one stream, whatever the shards
    # The public pump reaches the same report.
    again = pump(InitiatorMachine(handle, items), memory_responder(handle, items))
    assert again.mode == SyncMode.IN_SYNC and again.symbols == 0


def test_identical_sets_over_tcp_are_one_round_trip() -> None:
    items = items_range(0, 500)

    async def scenario():
        async with ReconciliationServer(items, num_shards=4) as server:
            host, port = server.address
            # Raw socket: the whole exchange is HELLO, then WELCOME+STATS.
            handle = get_scheme("riblt", symbol_size=8, hasher="siphash")
            initiator = InitiatorMachine(handle, items)
            initiator.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(initiator.take_output())
            await writer.drain()
            down = await reader.read()  # until the server closes
            writer.close()
            await writer.wait_closed()
            frames = frames_of(down)
            assert [ftype for ftype, _ in frames] == [
                FrameType.WELCOME,
                FrameType.STATS,
            ]
            assert welcome_mode(frames[0][1]) == SyncMode.IN_SYNC
            assert BodyReader(frames[1][1]).uvarint() == 0  # symbols sent

            result = await sync(host, port, items, push=True)
            assert result.mode == SyncMode.IN_SYNC
            assert result.symbols == 0 and result.bytes_received == 0
            assert result.difference_size == 0
            assert result.pushed == 0 and result.bytes_sent == 0
            deadline = asyncio.get_running_loop().time() + 5.0
            while server.stats.sessions_completed < 2:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.01)
            stats = server.stats
            assert stats.sessions_completed == 2
            assert stats.sessions_dropped == 0
            assert stats.symbols_sent == 0 and stats.items_pushed == 0

    asyncio.run(asyncio.wait_for(scenario(), timeout=SYNC_TIMEOUT))


@pytest.mark.parametrize("field", ["sum", "checksum", "count"])
def test_a_digest_off_in_one_lane_streams_the_exact_diff(field, monkeypatch) -> None:
    """A HELLO digest equal to the server's cell 0 in all lanes but one
    is a mismatch: the session streams and returns the exact diff."""
    handle = get_scheme("riblt", symbol_size=8)
    server_items = items_range(0, 400)
    client_items = items_range(3, 405)
    backend = open_backend(server_items, scheme=handle, num_shards=2)
    served = backend.digest()
    forged = CodedSymbolBank(
        [served.sums[0] ^ (field == "sum")],
        [served.checksums[0] ^ (field == "checksum")],
        [served.counts[0] + (field == "count")],
    )
    monkeypatch.setattr(machine_module, "set_digest", lambda *args: forged)
    initiator = InitiatorMachine(handle, client_items)
    up, down = drive(initiator, ResponderMachine(backend, handle))
    assert welcome_mode(down[0][1]) == SyncMode.STREAM
    assert FrameType.SYMBOLS in {ftype for ftype, _ in down}
    report = initiator.report
    assert report.mode == SyncMode.STREAM and report.symbols > 0
    assert report.only_in_remote == set(items_range(0, 3))
    assert report.only_in_local == set(items_range(400, 405))


@pytest.mark.parametrize(
    "scheme, cut", [("riblt", -1), ("riblt", +1), ("regular_iblt", +1)]
)
def test_a_truncated_or_over_long_digest_is_refused_typed(scheme, cut) -> None:
    """The other trust checks' typed ERROR(PROTOCOL): a riblt digest is
    exactly one packed cell or empty, and a sketch HELLO carries none."""
    handle = get_scheme(scheme, symbol_size=8)
    initiator = InitiatorMachine(handle, items_range(0, 50))
    initiator.start()
    ((ftype, body),) = frames_of(initiator.take_output())
    body = body[:cut] if cut < 0 else body + b"\x00"
    responder = memory_responder(handle, items_range(0, 50))
    responder.start()
    responder.bytes_received(encode_frame(ftype, body))
    assert isinstance(responder.failed, ProtocolError)
    assert responder.error_codes == [int(ErrorCode.PROTOCOL)]
    ((ftype, body),) = frames_of(responder.take_output())
    assert ftype == FrameType.ERROR and b"HELLO digest" in body


def test_a_cluster_worker_never_short_circuits() -> None:
    """A worker serves a stripe, never the client's whole set: even a
    one-worker pool, whose stripe is the whole set, streams.  And an
    initiator refuses an IN_SYNC WELCOME that carries a cluster tail."""
    handle = get_scheme("riblt", symbol_size=8)
    items = items_range(0, 200)
    backend = open_backend(items, scheme=handle, num_shards=2)
    worker = ResponderMachine(
        backend, handle, cluster=ClusterInfo(1, 0, 2, (1234,))
    )
    initiator = InitiatorMachine(handle, items)
    up, down = drive(initiator, worker)
    assert welcome_mode(down[0][1]) == SyncMode.STREAM
    assert initiator.report.mode == SyncMode.STREAM
    assert initiator.report.symbols > 0 and initiator.report.only_in_local == set()

    initiator = InitiatorMachine(handle, items)
    initiator.start()
    initiator.take_output()
    tail = pack_uvarints(1, 0, 2, 1234)
    welcome = pack_uvarints(PROTOCOL_VERSION, int(SyncMode.IN_SYNC), 2, 64)
    initiator.bytes_received(encode_frame(FrameType.WELCOME, welcome + tail))
    assert isinstance(initiator.failed, ProtocolError)


@pytest.mark.parametrize("then", ["symbols", "close"])
def test_an_in_sync_welcome_must_be_followed_by_stats(then: str) -> None:
    """The empty difference is delivered on the STATS that shares the
    IN_SYNC WELCOME's write, never on anything else: a stream-mode
    WELCOME whose mode byte was corrupted to IN_SYNC is followed by
    SYMBOLS (or a cut connection) and fails typed."""
    handle = get_scheme("riblt", symbol_size=8)
    initiator = InitiatorMachine(handle, items_range(0, 20))
    initiator.start()
    initiator.take_output()
    welcome = pack_uvarints(PROTOCOL_VERSION, int(SyncMode.IN_SYNC), 64)
    initiator.bytes_received(encode_frame(FrameType.WELCOME, welcome))
    assert not initiator.finished
    if then == "symbols":
        initiator.bytes_received(encode_frame(FrameType.SYMBOLS, b"\x00"))
    else:
        initiator.peer_closed()
    assert isinstance(initiator.failed, ProtocolError)
    assert initiator.report is None


def test_in_sync_is_refused_without_a_digest() -> None:
    """A sketch scheme's HELLO carries no digest, so an IN_SYNC answer
    to it is a protocol violation, not an empty difference."""
    handle = get_scheme("regular_iblt", symbol_size=8)
    initiator = InitiatorMachine(handle, items_range(0, 20), difference_bound=4)
    initiator.start()
    ((_, hello),) = frames_of(initiator.take_output())
    assert hello.endswith(pack_uvarints(4))  # the bound, and no digest after it
    welcome = pack_uvarints(PROTOCOL_VERSION, int(SyncMode.IN_SYNC), 64)
    initiator.bytes_received(encode_frame(FrameType.WELCOME, welcome))
    assert isinstance(initiator.failed, ProtocolError)


# --- the warm digest stays exact ----------------------------------------------


def _churn_batches(backend, rng, width, rounds=4):
    members = set(backend.sharded)
    for _ in range(rounds):
        adds = []
        while len(adds) < 25:
            item = rng.randbytes(width)
            if item not in members and item not in adds:
                adds.append(item)
        backend.add_many(adds)
        members.update(adds)
        removes = rng.sample(sorted(members), 20)
        backend.remove_many(removes)
        members.difference_update(removes)
        assert backend.digest() == cold_digest(backend)
    return members


@pytest.mark.parametrize("width", [8, 92])
def test_warm_digest_equals_cold_after_churn_push_and_reopen(
    width: int, lane: bool, tmp_path
) -> None:
    rng = random.Random(width)
    base = [rng.randbytes(width) for _ in range(300)]
    handle = get_scheme("riblt", symbol_size=width, hasher="siphash")
    backend = open_backend(base, scheme=handle, num_shards=3)
    assert backend.digest() == cold_digest(backend)
    assert backend.digest() == set_digest(
        handle.codec.item_rows(base), hash_items(handle.hash64, base), handle.codec
    )
    members = _churn_batches(backend, rng, width)

    # A PUSH applied by a served session patches the same cells.
    extra = [rng.randbytes(width) for _ in range(7)]
    client = sorted(members) + extra
    initiator = InitiatorMachine(handle, client, push=True)
    drive(initiator, ResponderMachine(backend, handle))
    assert initiator.report.pushed == 7
    assert set(backend.sharded) == set(client)
    assert backend.digest() == cold_digest(backend)

    # Durable: churn, close, reopen from snapshot + journal.
    params = dict(symbol_size=width, hasher="siphash")
    config = DurableConfig(fsync=False)
    store = open_backend(
        base, scheme="riblt", num_shards=3, data_dir=tmp_path, durable=config, **params
    )
    members = _churn_batches(store, rng, width)
    expected = store.digest()
    store.close()
    reopened = open_backend(data_dir=tmp_path, durable=config, **params)
    try:
        assert set(reopened.sharded) == members
        assert reopened.digest() == expected == cold_digest(reopened)
    finally:
        reopened.close()
