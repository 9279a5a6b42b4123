"""The sans-io protocol engine: golden wire-identity + adversarial delivery.

Two jobs:

* prove the engine is **wire-identical to the legacy drivers** it
  replaced — ``tests/golden/protocol_golden.json`` was recorded against
  the pre-engine ``api.Session``/``reconcile``/service stack (see
  ``tests/golden/record_golden.py``), and every byte and every
  ``ReconcileResult`` field must still match.  Protocol version 3
  re-recorded it once: the HELLO frames and the sketch transcript's
  WELCOME version byte changed, and the identical-set fixtures
  (``identical``, ``empty``) now end in-sync with no coded symbol; every
  coded payload of a nonempty difference is byte-identical;
* prove the machines survive **adversarial delivery**: arbitrary
  payload fragmentation and coalescing, duplicated ticks, mid-stream
  ``peer_closed``, garbage bytes, and budget exhaustion all surface the
  typed ``ReconcileError``/``SymbolBudgetExceeded`` family — and never
  hang (every event leaves the machine ``finished`` or progressed).
"""

from __future__ import annotations

import itertools
import json
import random
import re
from pathlib import Path

import pytest

from repro.api import (
    ReconcileError,
    SymbolBudgetExceeded,
    available_schemes,
    get_scheme,
    reconcile,
    scheme_info,
)
from repro.protocol import (
    Delivered,
    Failed,
    InitiatorMachine,
    ResponderMachine,
    SendBytes,
    memory_responder,
    pump,
)
from repro.service.backends import open_backend
from repro.service.errors import ProtocolError
from repro.service.framing import (
    INITIAL_WINDOW,
    PROTOCOL_VERSION,
    BodyReader,
    ErrorCode,
    FrameDecoder,
    FrameType,
    SyncMode,
    TruncatedFrame,
    encode_frame,
    pack_uvarints,
)

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "protocol_golden.json").read_text()
)
ITEM = GOLDEN["item_size"]

FIXTURES = {
    "identical": (120, 0, 0),
    "empty": (0, 0, 0),
    "one_diff": (120, 1, 0),
    "disjoint": (0, 25, 25),
    "hundred_diff": (150, 50, 50),
}


def _items(rng: random.Random, count: int) -> list:
    out = set()
    while len(out) < count:
        item = rng.randbytes(ITEM)
        if item != bytes(ITEM):
            out.add(item)
    return sorted(out)


def sets_for(fixture: str):
    shared, only_a, only_b = FIXTURES[fixture]
    rng = random.Random(0xAB1DE + len(fixture) * 1009 + shared + only_a)
    pool = _items(rng, shared + only_a + only_b)
    common = set(pool[:shared])
    a = common | set(pool[shared : shared + only_a])
    b = common | set(pool[shared + only_a :])
    return a, b


def items_range(lo: int, hi: int) -> list:
    return [b"%08d" % i for i in range(lo, hi)]


def service_responder(handle, items, num_shards=1, **overrides) -> ResponderMachine:
    """A responder configured exactly like the asyncio server's default."""
    backend = open_backend(items, scheme=handle, num_shards=num_shards)
    return ResponderMachine(backend, handle, **overrides)


def drive(initiator, responder, up=None, down=None):
    """Pump two machines, optionally capturing each direction's bytes."""
    initiator.start()
    responder.start()
    while not initiator.finished:
        out = initiator.take_output()
        if out and not responder.finished:
            if up is not None:
                up.extend(out)
            responder.bytes_received(out)
            continue
        back = responder.take_output()
        if back:
            if down is not None:
                down.extend(back)
            initiator.bytes_received(back)
            continue
        if responder.wants_tick:
            responder.tick()
            continue
        initiator.peer_closed()
    return initiator.report


# --- golden: the engine is wire-identical to the legacy drivers -------------


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
@pytest.mark.parametrize("block_size", [1, 8])
def test_golden_stream_wire_identical(fixture: str, block_size: int) -> None:
    """The §6 coded-symbol payload matches the pre-engine recording bit
    for bit, as do the ReconcileResult fields."""
    recorded = GOLDEN["api_stream"][fixture][str(block_size)]
    a, b = sets_for(fixture)
    handle = get_scheme("riblt", symbol_size=ITEM)
    initiator = InitiatorMachine(handle, sorted(b), capture_payloads=True)
    responder = memory_responder(handle, sorted(a), block_size=block_size)
    report = pump(initiator, responder)
    payload = bytes(report.payloads[0])
    assert payload.hex() == recorded["payload_hex"]
    assert report.payload_bytes == recorded["bytes_on_wire"]
    assert report.symbols == recorded["symbols_used"]


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
@pytest.mark.parametrize("scheme", sorted(GOLDEN["api_schemes"]))
def test_golden_reconcile_results_identical(scheme: str, fixture: str) -> None:
    """reconcile() reports the exact legacy bytes/symbols/rounds."""
    recorded = GOLDEN["api_schemes"][scheme][fixture]
    a, b = sets_for(fixture)
    d = len(a ^ b)
    result = reconcile(a, b, scheme=scheme, symbol_size=ITEM, difference_bound=d)
    assert result.only_in_a == a - b and result.only_in_b == b - a
    assert result.bytes_on_wire == recorded["bytes_on_wire"]
    assert result.symbols_used == recorded["symbols_used"]
    assert result.rounds == recorded["rounds"]
    assert result.difference_size == recorded["difference_size"]


@pytest.mark.parametrize("scheme", sorted(GOLDEN["api_estimator"]))
def test_golden_estimator_composition_identical(scheme: str) -> None:
    """The ESTIMATE-frame composition charges the exact legacy bytes."""
    recorded = GOLDEN["api_estimator"][scheme]
    a, b = sets_for("one_diff")
    result = reconcile(a, b, scheme=scheme, symbol_size=ITEM)
    assert result.bytes_on_wire == recorded["bytes_on_wire"]
    assert result.symbols_used == recorded["symbols_used"]
    assert result.rounds == recorded["rounds"]


@pytest.mark.parametrize("scheme", ["regular_iblt", "pinsketch"])
def test_estimator_composition_against_a_sharded_sketch_server(scheme: str) -> None:
    """The strata exchange sizes one sketch of the whole set, so it runs
    against a server of four shards exactly as against one: the same
    bytes both ways and the exact difference.  It used to be refused,
    typed, with "the estimator composition requires a single shard"."""
    handle = get_scheme(scheme, symbol_size=8)
    server, client = items_range(0, 400), items_range(10, 410)
    runs = []
    for shards in (1, 4):
        initiator = InitiatorMachine(handle, client, use_estimator=True)
        responder = service_responder(handle, server, shards, use_estimator=True)
        up, down = bytearray(), bytearray()
        report = drive(initiator, responder, up=up, down=down)
        assert initiator.failed is None and report.mode == SyncMode.SKETCH
        assert report.only_in_remote == set(server) - set(client)
        assert report.only_in_local == set(client) - set(server)
        assert [t for t, _ in FrameDecoder().feed(bytes(down))][1] == FrameType.ESTIMATE
        runs.append((bytes(up), bytes(down), report.rounds, report.payload_bytes))
    assert runs[0] == runs[1]


def test_golden_service_stream_transcripts() -> None:
    """Against a service-profile responder, the initiator's transcript is
    byte-identical to the legacy TCP client's recording, and the coded
    stream matches the recorded payload (common prefix: recordings made
    over real sockets include look-ahead overshoot)."""
    recorded = GOLDEN["service"]["stream"]
    handle = get_scheme("riblt", symbol_size=8)
    initiator = InitiatorMachine(
        handle, items_range(5, 305), capture_payloads=True
    )
    responder = service_responder(handle, items_range(0, 300))
    up = bytearray()
    report = drive(initiator, responder, up=up)
    assert up.hex() == recorded["client_to_server_hex"]
    payload = bytes(report.payloads[0])
    legacy = bytes.fromhex(recorded["payload_hex"])
    common = min(len(payload), len(legacy))
    assert common > 0
    assert payload[:common] == legacy[:common]
    assert report.symbols == recorded["symbols"]
    assert len(report.only_in_remote) == recorded["only_in_server"]
    assert len(report.only_in_local) == recorded["only_in_client"]


def test_golden_wide_stream_payload_pinned(lane: bool) -> None:
    """92-byte (§7.3 ledger-shaped) items over the service-profile
    stream: the server→client SYMBOLS payload and the absorbed symbol
    count were recorded at the commit *before* the core moved wide
    symbols onto the ``(rows, k)`` uint64 lane matrix, so this pins the
    wire across that rewrite on both engines."""
    import hashlib

    recorded = GOLDEN["wide_stream"]
    size = recorded["item_size"]
    rng = random.Random(20)
    pool: set = set()
    while len(pool) < 2500 + 40 + 48:
        pool.add(rng.randbytes(size))
    ordered = sorted(pool)
    server = ordered[:2540]
    client = ordered[:2500] + ordered[2540:]
    handle = get_scheme("riblt", symbol_size=size, hasher="siphash")
    initiator = InitiatorMachine(handle, client, capture_payloads=True)
    responder = service_responder(handle, server)
    report = drive(initiator, responder)
    payload = bytes(report.payloads[0])
    assert len(payload) == recorded["payload_len"]
    assert hashlib.sha256(payload).hexdigest() == recorded["payload_sha256"]
    assert report.symbols == recorded["symbols"]
    assert report.only_in_remote == set(ordered[2500:2540])
    assert report.only_in_local == set(ordered[2540:])
    assert len(report.only_in_remote) == recorded["only_in_server"]
    assert len(report.only_in_local) == recorded["only_in_client"]


def test_golden_service_sketch_transcripts() -> None:
    """Sketch mode with RETRY doubling: both directions byte-identical to
    the legacy client/server pair (STATS counters included)."""
    import hashlib

    recorded = GOLDEN["service"]["sketch"]
    handle = get_scheme("regular_iblt", symbol_size=8)
    initiator = InitiatorMachine(
        handle, items_range(16, 216), difference_bound=1, max_rounds=8
    )
    responder = service_responder(handle, items_range(0, 200))
    up, down = bytearray(), bytearray()
    report = drive(initiator, responder, up=up, down=down)
    assert up.hex() == recorded["client_to_server_hex"]
    assert len(down) == recorded["server_to_client_len"]
    assert down[:3] == bytes((down[0], FrameType.WELCOME, PROTOCOL_VERSION))
    assert (
        hashlib.sha256(bytes(down)).hexdigest()
        == recorded["server_to_client_sha256"]
    )
    assert report.rounds == recorded["rounds"]
    assert report.payload_bytes == recorded["bytes_received"]


def test_pump_wire_byte_count_matches_the_sketch_recording() -> None:
    """drive() — the loop under pump() — counts every byte either machine
    emits: for the golden sketch pair that is exactly both recorded
    transcripts' lengths."""
    from repro.protocol.pump import drive

    recorded = GOLDEN["service"]["sketch"]
    handle = get_scheme("regular_iblt", symbol_size=8)
    initiator = InitiatorMachine(
        handle, items_range(16, 216), difference_bound=1, max_rounds=8
    )
    responder = service_responder(handle, items_range(0, 200))
    wire_bytes = drive(initiator, responder)
    assert initiator.report is not None
    assert wire_bytes == (
        len(recorded["client_to_server_hex"]) // 2
        + recorded["server_to_client_len"]
    )


def test_golden_tcp_service_matches_recording() -> None:
    """The full asyncio stack (new adapters, same machine) still serves
    the recorded coded stream."""
    import asyncio

    from repro.service import ReconciliationServer, sync

    recorded = GOLDEN["service"]["stream"]

    async def scenario():
        # The recording predates the service-layer SipHash default; pin
        # the BLAKE2b hasher it was captured under.
        async with ReconciliationServer(
            items_range(0, 300), num_shards=1, hasher="blake2b"
        ) as server:
            host, port = server.address
            return await sync(
                host,
                port,
                items_range(5, 305),
                capture_payloads=True,
                hasher="blake2b",
            )

    result = asyncio.run(asyncio.wait_for(scenario(), timeout=60))
    payload = bytes(result.payloads[0])
    legacy = bytes.fromhex(recorded["payload_hex"])
    common = min(len(payload), len(legacy))
    assert common >= len(legacy) // 2
    assert payload[:common] == legacy[:common]
    assert result.only_in_server == set(items_range(0, 5))
    assert result.only_in_client == set(items_range(300, 305))


# --- the effect protocol ----------------------------------------------------


def test_effects_are_typed_and_terminal() -> None:
    handle = get_scheme("riblt", symbol_size=8)
    initiator = InitiatorMachine(handle, items_range(2, 102))
    responder = memory_responder(handle, items_range(0, 100))
    initiator.start()
    effects = initiator.poll_effects()
    assert len(effects) == 1 and isinstance(effects[0], SendBytes)
    responder.start()
    responder.bytes_received(effects[0].data)
    initiator.bytes_received(responder.take_output())  # WELCOME
    while not initiator.finished:
        responder.tick()
        initiator.bytes_received(responder.take_output())
        out = initiator.take_output()
        if out:
            responder.bytes_received(out)
            back = responder.take_output()
            if back:
                initiator.bytes_received(back)
    final = [e for e in initiator.poll_effects() if not isinstance(e, SendBytes)]
    assert len(final) == 1 and isinstance(final[0], Delivered)
    assert final[0].report is initiator.report
    # Terminal: further events are ignored, not errors.
    initiator.bytes_received(b"\x01\x02\x03")
    initiator.tick()
    initiator.peer_closed()
    assert initiator.failed is None


# --- adversarial delivery ---------------------------------------------------


def _captured_stream_session():
    """One full stream session's responder->initiator bytes (incl. STATS)."""
    handle = get_scheme("riblt", symbol_size=8)
    initiator = InitiatorMachine(handle, items_range(7, 307))
    responder = service_responder(handle, items_range(0, 300))
    down = bytearray()
    report = drive(initiator, responder, down=down)
    return handle, bytes(down), report


@pytest.mark.parametrize("mode", ["byte_by_byte", "random_chunks", "one_blob"])
def test_fragmentation_and_coalescing_equivalence(mode: str) -> None:
    """Replaying a session's byte stream under any fragmentation gives an
    identical result — FrameDecoder state must survive partial frames."""
    handle, down, reference = _captured_stream_session()
    fresh = InitiatorMachine(handle, items_range(7, 307))
    fresh.start()
    fresh.take_output()
    rng = random.Random(42)
    if mode == "byte_by_byte":
        chunks = [down[i : i + 1] for i in range(len(down))]
    elif mode == "one_blob":
        chunks = [down]
    else:
        chunks, pos = [], 0
        while pos < len(down):
            size = rng.randint(1, 200)
            chunks.append(down[pos : pos + size])
            pos += size
    for chunk in chunks:
        fresh.bytes_received(chunk)
        fresh.take_output()  # DONE/BYE answers go nowhere: replay
    assert fresh.finished and fresh.failed is None
    assert fresh.report.only_in_remote == reference.only_in_remote
    assert fresh.report.only_in_local == reference.only_in_local
    assert fresh.report.symbols == reference.symbols


def _multi_shard_session(server, client, ticks, shards=4, reads=None):
    """A service-profile session against a ``shards``-shard server whose
    responder ticks ``ticks`` times per exchange, so one read can carry
    several frames; returns the handle and both directions' bytes, and
    appends each read's size to ``reads`` when given."""
    handle = get_scheme("riblt", symbol_size=len(server[0]))
    initiator = InitiatorMachine(handle, client)
    responder = service_responder(handle, server, num_shards=shards)
    up, down = bytearray(), bytearray()
    initiator.start()
    responder.start()
    while not initiator.finished:
        out = initiator.take_output()
        up += out
        responder.bytes_received(out)
        for _ in range(ticks):
            responder.tick()
        back = responder.take_output()
        down += back
        if reads is not None and back:
            reads.append(len(back))
        if not back and not out:
            initiator.peer_closed()
        initiator.bytes_received(back)
    up += initiator.take_output()
    assert initiator.failed is None
    return handle, bytes(up), bytes(down)


def _replay(handle, client, down, chunking, **kwargs):
    """Feed ``down`` to a fresh initiator cut as ``chunking`` says:
    one frame per call, one blob, seeded random chunks, or a list of
    chunk sizes (a session's own reads).  Returns the machine and every
    byte it sent back."""
    fresh = InitiatorMachine(handle, client, **kwargs)
    fresh.start()
    if not isinstance(chunking, str):
        cuts = [0, *itertools.accumulate(chunking)]
        chunks = [down[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    elif chunking == "per_frame":
        chunks = [encode_frame(t, body) for t, body in FrameDecoder().feed(down)]
    elif chunking == "one_blob":
        chunks = [down]
    else:
        rng, chunks, pos = random.Random(29), [], 0
        while pos < len(down):
            size = rng.randint(1, 3000)
            chunks.append(down[pos : pos + size])
            pos += size
    up = bytearray(fresh.take_output())
    for chunk in chunks:
        fresh.bytes_received(chunk)
        up += fresh.take_output()
    return fresh, bytes(up)


def _stream_payload(down):
    """Total SYMBOLS payload bytes in a downstream capture."""
    frames = FrameDecoder().feed(down)
    return sum(len(body) for ftype, body in frames if ftype == FrameType.SYMBOLS)


def wide_items(lo: int, hi: int) -> list:
    """92-byte items: a symbol of twelve uint64 lanes."""
    return [b"%092d" % i for i in range(lo, hi)]


@pytest.mark.parametrize(
    "ticks, shards, server, client, drops",
    [
        pytest.param(1, 4, items_range(0, 1200), items_range(80, 1280), 0, id="1"),
        pytest.param(3, 4, items_range(0, 1200), items_range(80, 1280), 1, id="3"),
        pytest.param(
            3, 4, items_range(0, 3000), items_range(500, 3500), 0, id="d1000-3"
        ),
        pytest.param(
            8, 4, items_range(0, 3000), items_range(500, 3500), 1, id="d1000-8"
        ),
        pytest.param(
            3, 1, items_range(0, 1200), items_range(80, 1280), 1, id="1-shard"
        ),
        pytest.param(3, 4, wide_items(0, 1200), wide_items(80, 1280), 1, id="92-byte"),
    ],
)
def test_multi_shard_transcript_is_independent_of_read_boundaries(
    ticks, shards, server, client, drops
) -> None:
    """A session's downstream bytes replayed one frame per call, as one
    blob and in random chunks: the initiator absorbs a read's SYMBOLS
    frames in waves, each spanning the frames up to the next prefix
    doubling, yet sends the identical client→server bytes (CREDITs, DONE,
    BYE in the same order) and reports the identical symbols, payload
    bytes and diff.  With several ticks per exchange a read carries
    several frames, and a stream that decodes mid-read drops its later
    frames uncounted; at d = 1 000 one read crosses several doublings and
    a decode lands mid-wave.  Servers of four shards and of one, and
    92-byte (multi-lane) symbols, too."""
    handle, up, down = _multi_shard_session(server, client, ticks, shards)
    reports = {}
    for chunking in ("per_frame", "one_blob", "random_chunks"):
        fresh, sent = _replay(handle, client, down, chunking)
        assert fresh.finished and fresh.failed is None, chunking
        assert sent == up, chunking
        reports[chunking] = fresh.report
    report = reports["per_frame"]
    assert reports["one_blob"] == reports["random_chunks"] == report
    assert report.only_in_remote == set(server) - set(client)
    assert report.only_in_local == set(client) - set(server)
    carried = _stream_payload(down)
    assert report.payload_bytes <= carried
    if drops:  # frames that crossed the DONE were dropped uncounted
        assert report.payload_bytes < carried


def test_multi_shard_budget_trips_at_the_same_frame_mid_read() -> None:
    """``max_symbols`` spent mid-read: the wave absorbs on past the
    tripping frame, but the initiator raises the same typed
    ``SymbolBudgetExceeded``, after the same client→server bytes, as
    frame-at-a-time absorption."""
    server, client = items_range(0, 1200), items_range(300, 1500)
    handle, _, down = _multi_shard_session(server, client, 1)
    outcomes = []
    for chunking in ("per_frame", "one_blob", "random_chunks"):
        fresh, sent = _replay(handle, client, down, chunking, max_symbols=100)
        assert isinstance(fresh.failed, SymbolBudgetExceeded), chunking
        failed = fresh.failed
        outcomes.append((str(failed), failed.symbols_sent, sent))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert outcomes[0][1] >= 100


@pytest.mark.parametrize("dropped", [False, True])
def test_multi_shard_malformed_frame_fails_at_the_same_frame_mid_read(dropped):
    """A SYMBOLS frame with a corrupt count varint, in a session whose
    reads carry up to sixteen frames: replayed per frame, as one blob, in
    random chunks and in the session's own reads, the initiator fails
    with the same typed ``ProtocolError`` after the same client→server
    bytes, though a wave parses frames before it knows where the stream
    decodes.  A corrupt frame that follows the decode — unread, or parsed
    by the wave that decoded the stream — is dropped in every replay, and
    the session ends as a clean replay does."""
    server, client, reads = items_range(0, 4000), items_range(300, 4300), []
    handle, up, down = _multi_shard_session(server, client, 16, reads=reads)
    clean = _replay(handle, client, down, "per_frame")[0].report
    # a frame inside the counted stream, or the first dropped one
    frames, carried, picks = list(FrameDecoder().feed(down)), 0, []
    for i, (ftype, body) in enumerate(frames):
        if ftype == FrameType.SYMBOLS:
            if len(body) > 200 and dropped == (carried >= clean.payload_bytes):
                picks.append(i)
            carried += len(body)
    assert picks
    for pick in picks[:1] if dropped else picks[len(picks) // 2 :][:1]:
        ftype, body = frames[pick]
        mid = len(body) // 2
        bad = (ftype, body[:mid] + b"\xff" * 40 + body[mid + 40 :])
        corrupt = b"".join(encode_frame(*f) for f in frames[:pick] + [bad] + frames[pick + 1 :])
        outcomes = []
        for chunking in ("per_frame", "one_blob", "random_chunks", reads):
            fresh, sent = _replay(handle, client, corrupt, chunking)
            outcomes.append((type(fresh.failed), str(fresh.failed), fresh.report, sent))
        assert outcomes[0] == outcomes[1] == outcomes[2] == outcomes[3]
        if dropped:
            assert outcomes[0] == (type(None), "None", clean, up)
        else:
            assert outcomes[0][0] is ProtocolError
            assert "malformed SYMBOLS payload" in outcomes[0][1]


def test_duplicated_ticks_only_overshoot() -> None:
    """Ticking the responder redundantly (transport retries, jittery event
    loops) costs extra symbols but can neither corrupt nor wedge."""
    handle = get_scheme("riblt", symbol_size=8)
    initiator = InitiatorMachine(handle, items_range(3, 203))
    responder = service_responder(handle, items_range(0, 200))
    initiator.start()
    responder.start()
    responder.bytes_received(initiator.take_output())
    initiator.bytes_received(responder.take_output())
    while not initiator.finished:
        for _ in range(3):  # duplicate ticks: blocks pile up in flight
            responder.tick()
        initiator.bytes_received(responder.take_output())
        out = initiator.take_output()
        if out:
            responder.bytes_received(out)
            back = responder.take_output()
            if back:
                initiator.bytes_received(back)
    assert initiator.failed is None
    report = initiator.report
    assert report.only_in_remote == set(items_range(0, 3))
    assert report.only_in_local == set(items_range(200, 203))


def test_peer_closed_mid_stream_fails_not_hangs() -> None:
    handle, down, _ = _captured_stream_session()
    fresh = InitiatorMachine(handle, items_range(7, 307))
    fresh.start()
    fresh.take_output()
    fresh.bytes_received(down[: len(down) // 2])
    fresh.take_output()
    fresh.peer_closed()
    assert fresh.finished
    assert isinstance(fresh.failed, (ProtocolError, TruncatedFrame))


def test_peer_closed_mid_frame_is_truncation() -> None:
    handle, down, _ = _captured_stream_session()
    fresh = InitiatorMachine(handle, items_range(7, 307))
    fresh.start()
    fresh.take_output()
    fresh.bytes_received(down[:3])  # inside the first frame's body
    fresh.peer_closed()
    assert isinstance(fresh.failed, TruncatedFrame)


def test_garbage_bytes_fail_typed() -> None:
    handle = get_scheme("riblt", symbol_size=8)
    initiator = InitiatorMachine(handle, items_range(0, 50))
    initiator.start()
    initiator.take_output()
    initiator.bytes_received(b"\xff" * 64)  # insane length prefix
    assert initiator.finished and initiator.failed is not None
    effects = initiator.poll_effects()
    assert any(isinstance(e, Failed) for e in effects)


def test_initiator_budget_exhaustion_is_typed() -> None:
    handle = get_scheme("riblt", symbol_size=8)
    initiator = InitiatorMachine(
        handle, [b"X%07d" % i for i in range(400)], max_symbols=8
    )
    responder = service_responder(handle, items_range(0, 400))
    with pytest.raises(SymbolBudgetExceeded):
        pump(initiator, responder)
    assert initiator.finished


def test_responder_budget_and_grace_surface_on_both_sides() -> None:
    handle = get_scheme("riblt", symbol_size=8)
    initiator = InitiatorMachine(handle, [b"Y%07d" % i for i in range(400)])
    responder = service_responder(
        handle,
        items_range(0, 400),
        max_symbols=16,
        budget_grace=0.5,
    )
    with pytest.raises(SymbolBudgetExceeded):
        pump(initiator, responder)
    assert isinstance(responder.failed, SymbolBudgetExceeded)
    assert responder.symbols_sent == 16  # the budget is a hard cap


def test_sketch_round_exhaustion_is_typed() -> None:
    handle = get_scheme("regular_iblt", symbol_size=8)
    initiator = InitiatorMachine(
        handle, items_range(80, 480), difference_bound=1, max_rounds=2
    )
    responder = service_responder(handle, items_range(0, 400))
    with pytest.raises(ReconcileError):
        pump(initiator, responder)


def test_every_event_on_finished_machine_is_inert() -> None:
    """After failure, the machine ignores everything instead of raising."""
    handle = get_scheme("riblt", symbol_size=8)
    initiator = InitiatorMachine(handle, items_range(0, 10))
    initiator.start()
    initiator.take_output()
    initiator.peer_closed()
    assert initiator.finished and initiator.failed is not None
    first_error = initiator.failed
    initiator.bytes_received(b"anything")
    initiator.tick(123.0)
    initiator.peer_closed()
    assert initiator.failed is first_error


# --- stream-mode flow control: the receiver-driven credit window ------------


def hello_bytes(handle, items=()) -> bytes:
    """A valid HELLO, as the only thing a non-granting peer ever says."""
    initiator = InitiatorMachine(handle, list(items))
    initiator.start()
    return initiator.take_output()


def tick_until_stalled(responder, limit=10_000) -> None:
    ticks = 0
    while responder.wants_tick:
        responder.tick(0.0)
        ticks += 1
        assert ticks < limit, "responder never stalls: no window in force"


def frames_of(data: bytes) -> list:
    return FrameDecoder().feed(bytes(data))


def credit(limit: int) -> bytes:
    return encode_frame(FrameType.CREDIT, pack_uvarints(limit))


@pytest.mark.parametrize(
    "profile, served",
    [
        # The 8+16+32+64 ramp ends at 120 < 128, so one more whole block
        # starts: a block is never cut to fit the window.
        ({"block_size": 64}, 8 + 16 + 32 + 64 + 64),
        ({"block_size": 64, "slow_start": False}, INITIAL_WINDOW),
        ({"block_size": 1, "slow_start": False}, INITIAL_WINDOW),
    ],
)
def test_non_granting_peer_gets_the_initial_window_and_no_more(
    profile, served
) -> None:
    """A three-shard server serves one window per connection, not one
    per shard."""
    handle = get_scheme("riblt", symbol_size=8)
    responder = service_responder(handle, items_range(0, 900), 3, **profile)
    responder.start()
    responder.bytes_received(hello_bytes(handle))
    tick_until_stalled(responder)
    assert responder.symbols_sent == served
    assert served <= INITIAL_WINDOW + profile["block_size"]
    assert not responder.finished
    assert responder.wants_tick is False
    assert responder.next_tick_delay(0.0) is None
    responder.tick(1e9)  # a redundant tick is inert, whatever the clock
    assert responder.symbols_sent == served

    # A grant reopens the stream, up to the new limit.
    responder.bytes_received(credit(2 * INITIAL_WINDOW))
    assert responder.wants_tick
    tick_until_stalled(responder)
    block = profile["block_size"]
    reopened = -(-(2 * INITIAL_WINDOW - served) // block) * block
    assert responder.symbols_sent == served + reopened

    # Frames race: a stale (non-increasing) limit is ignored, not an error.
    responder.bytes_received(credit(INITIAL_WINDOW) + credit(2 * INITIAL_WINDOW))
    assert not responder.finished and responder.wants_tick is False


def _greedy_drive(initiator, responder, up):
    """The TCP failure mode in memory: the responder produces for as long
    as it wants to before the initiator sees a byte — bottomless socket
    buffers.  Only the credit window can bound what it serves."""
    initiator.start()
    responder.start()
    while not initiator.finished:
        tick_until_stalled(responder, limit=100_000)
        back = responder.take_output()
        if back:
            initiator.bytes_received(back)
        out = initiator.take_output()
        if out and not responder.finished:
            up.extend(out)
            responder.bytes_received(out)
        elif not back:
            initiator.peer_closed()
    return initiator.report


@pytest.mark.parametrize("d", [0, 10, 1_000, 20_000])
def test_responder_stays_within_four_times_what_the_peer_absorbed(d) -> None:
    import math

    from repro import engine

    if d > 10_000 and not engine.NUMPY_LANE:
        pytest.skip("30 s of scalar peeling; the window logic is engine-blind")
    handle = get_scheme("riblt", symbol_size=8)
    shards, block = 2, 64  # one window per connection, whatever the shards
    n = max(2 * d, 2_000)
    alice = items_range(0, n)
    bob = items_range(d // 2, n) + [b"B%07d" % i for i in range(d - d // 2)]
    initiator = InitiatorMachine(handle, bob)
    responder = service_responder(handle, alice, shards, block_size=block)
    up = bytearray()
    report = _greedy_drive(initiator, responder, up)
    assert initiator.failed is None
    assert len(report.only_in_remote) + len(report.only_in_local) == d

    absorbed = report.symbols
    assert responder.symbols_sent <= 4 * absorbed + INITIAL_WINDOW + block
    sent = sum(ftype == FrameType.CREDIT for ftype, _ in frames_of(up))
    if 2 * absorbed < INITIAL_WINDOW:
        assert sent == 0  # decoded inside the window: no round trip
    else:
        assert sent <= math.ceil(math.log2(absorbed / INITIAL_WINDOW)) + 2


def _expect_protocol_error(responder) -> None:
    assert responder.finished and isinstance(responder.failed, ProtocolError)
    assert responder.error_codes == [int(ErrorCode.PROTOCOL)]
    ftype, body = frames_of(responder.take_output())[-1]
    assert ftype == FrameType.ERROR
    assert BodyReader(body).uvarint() == ErrorCode.PROTOCOL


@pytest.mark.parametrize(
    "frame",
    [
        # a limit, then a field past it: a version-3 CREDIT(shard, limit),
        # and the same with a trailing byte
        encode_frame(FrameType.CREDIT, pack_uvarints(5, 4096)),
        encode_frame(FrameType.CREDIT, pack_uvarints(0, 4096) + b"\x00"),
    ],
)
def test_malformed_credit_is_a_typed_protocol_error(frame) -> None:
    handle = get_scheme("riblt", symbol_size=8)
    responder = service_responder(handle, items_range(0, 100), 2)
    responder.start()
    responder.bytes_received(hello_bytes(handle))
    responder.take_output()
    responder.bytes_received(frame)
    _expect_protocol_error(responder)


def test_credit_before_hello_or_in_sketch_mode_is_a_protocol_error() -> None:
    handle = get_scheme("riblt", symbol_size=8)
    early = service_responder(handle, items_range(0, 100), 1)
    early.start()
    early.bytes_received(credit(4096))
    _expect_protocol_error(early)

    sketchy = get_scheme("regular_iblt", symbol_size=8)
    responder = service_responder(sketchy, items_range(0, 100))
    responder.start()
    hello = InitiatorMachine(sketchy, [], difference_bound=4)
    hello.start()
    responder.bytes_received(hello.take_output())
    responder.take_output()
    responder.bytes_received(credit(4096))
    _expect_protocol_error(responder)


def test_credit_cannot_buy_symbols_past_the_budget() -> None:
    handle = get_scheme("riblt", symbol_size=8)
    responder = service_responder(
        handle, items_range(0, 400), max_symbols=200, budget_grace=0.5
    )
    responder.start()
    responder.bytes_received(hello_bytes(handle) + credit(1 << 60))
    tick_until_stalled(responder)
    assert responder.symbols_sent == 200  # the budget, not the grant
    assert responder.next_tick_delay(0.0) == 0.5  # grace armed as before
    responder.tick(1.0)
    assert isinstance(responder.failed, SymbolBudgetExceeded)
    assert responder.error_codes == [int(ErrorCode.BUDGET)]


def test_version_one_peer_fails_typed_on_both_sides() -> None:
    handle = get_scheme("riblt", symbol_size=8)
    hello = frames_of(hello_bytes(handle))[0][1]
    assert hello[0] == PROTOCOL_VERSION == 4
    responder = service_responder(handle, items_range(0, 10))
    responder.start()
    responder.bytes_received(encode_frame(FrameType.HELLO, b"\x01" + hello[1:]))
    _expect_protocol_error(responder)
    assert "protocol version 1 unsupported" in str(responder.failed)
    # A version-2 HELLO ends before the digest field: still refused typed.
    stride = 8 + 8 + 8
    responder = service_responder(handle, items_range(0, 10))
    responder.start()
    responder.bytes_received(
        encode_frame(FrameType.HELLO, b"\x02" + hello[1:-stride])
    )
    _expect_protocol_error(responder)
    assert "protocol version 2 unsupported" in str(responder.failed)

    initiator = InitiatorMachine(handle, items_range(0, 10))
    initiator.start()
    initiator.bytes_received(
        encode_frame(FrameType.WELCOME, pack_uvarints(1, 0, 64))
    )
    assert isinstance(initiator.failed, ProtocolError)
    assert "server speaks protocol 1" in str(initiator.failed)


# --- untrusted sizes and modes: checked before anything is built -----------


def test_hello_sketch_bound_is_capped_like_a_retry(monkeypatch) -> None:
    """A HELLO bound past ``max_sketch_bound`` fails the session typed —
    BUDGET ERROR, ``ReconcileError`` — before any sketch is built."""
    handle = get_scheme("regular_iblt", symbol_size=8)
    items = items_range(0, 100)

    def hello(bound: int) -> bytes:
        initiator = InitiatorMachine(handle, [], difference_bound=bound)
        initiator.start()
        return initiator.take_output()

    hostile = service_responder(handle, items, max_sketch_bound=8)
    built: list = []
    monkeypatch.setattr(
        hostile.backend, "build_sketch", lambda *args: built.append(args) or b""
    )
    hostile.start()
    hostile.bytes_received(hello(9))
    assert built == []
    assert isinstance(hostile.failed, ReconcileError)
    assert hostile.error_codes == [int(ErrorCode.BUDGET)]
    (ftype, body), = frames_of(hostile.take_output())
    assert ftype == FrameType.ERROR and "exceeds server cap 8" in body.decode()

    at_cap = service_responder(handle, items, max_sketch_bound=8)
    at_cap.start()
    at_cap.bytes_received(hello(8))
    assert not at_cap.finished
    assert [f for f, _ in frames_of(at_cap.take_output())] == [
        FrameType.WELCOME,
        FrameType.SKETCH,
    ]


def _spy_on_welcome_work(monkeypatch) -> list:
    """Record every hash pass, stripe and sketch sizing the initiator does."""
    import repro.protocol.machine as machine
    from repro.api.registry import Scheme

    calls: list = []
    for name in ("hash_items", "stripe_with_hashes"):
        real = getattr(machine, name)
        monkeypatch.setattr(
            machine,
            name,
            lambda *a, _real=real, _name=name: calls.append((_name,)) or _real(*a),
        )
    real_sized_for = Scheme.sized_for
    monkeypatch.setattr(
        Scheme,
        "sized_for",
        lambda self, d: calls.append(("sized_for", d)) or real_sized_for(self, d),
    )
    return calls


@pytest.mark.parametrize(
    "scheme, mode",
    [
        ("regular_iblt", SyncMode.STREAM),
        ("met_iblt", SyncMode.STREAM),
        ("merkle", SyncMode.SKETCH),
    ],
)
def test_welcome_mode_the_scheme_cannot_run_is_refused(
    scheme: str, mode: SyncMode, monkeypatch
) -> None:
    """STREAM needs a streaming scheme and SKETCH a serializable one; a
    WELCOME announcing anything else fails typed before the initiator
    hashes, stripes or builds anything."""
    handle = get_scheme(scheme, symbol_size=8)
    initiator = InitiatorMachine(handle, items_range(0, 50))
    initiator.start()
    initiator.take_output()
    calls = _spy_on_welcome_work(monkeypatch)
    initiator.bytes_received(
        encode_frame(
            FrameType.WELCOME, pack_uvarints(PROTOCOL_VERSION, int(mode), 64)
        )
    )
    assert isinstance(initiator.failed, ProtocolError)
    assert f"announced {mode.name} mode" in str(initiator.failed)
    assert calls == []


@pytest.mark.parametrize("echoed", [4096, 18])
def test_sketch_echoing_a_bound_never_asked_for_is_refused(
    echoed: int, monkeypatch
) -> None:
    """The initiator asked for bound 9 (HELLO): a SKETCH claiming any
    other bound — far larger, or a doubling nobody requested — fails
    typed, and no table of that size is ever allocated."""
    handle = get_scheme("regular_iblt", symbol_size=8)
    initiator = InitiatorMachine(handle, items_range(0, 50), difference_bound=9)
    initiator.start()
    initiator.take_output()
    calls = _spy_on_welcome_work(monkeypatch)
    initiator.bytes_received(
        encode_frame(
            FrameType.WELCOME,
            pack_uvarints(PROTOCOL_VERSION, int(SyncMode.SKETCH), 64),
        )
        + encode_frame(FrameType.SKETCH, pack_uvarints(echoed))
    )
    assert isinstance(initiator.failed, ProtocolError)
    assert f"SKETCH echoes bound {echoed}, asked for 9" in str(initiator.failed)
    assert not [c for c in calls if c[0] == "sized_for"]


# --- the simulated-link transport (any scheme, lossy link) ------------------

SIM_SCHEMES = [s for s in available_schemes() if scheme_info(s).capabilities.serializable or scheme_info(s).capabilities.streaming]


@pytest.mark.parametrize("scheme", SIM_SCHEMES)
def test_every_framable_scheme_syncs_over_lossy_link(scheme: str) -> None:
    """The ISSUE acceptance bullet: every registry scheme completes over a
    lossy simulated link, driven by the same machine as the TCP service."""
    from repro.net.protocols import simulate_machine_sync

    a = [b"%07d" % i for i in range(220)]
    b = [b"%07d" % i for i in range(20, 240)]
    out = simulate_machine_sync(
        a, b, scheme,
        bandwidth_bps=20e6, delay_s=0.05, loss_rate=0.1, seed=3,
    )
    assert out.result.only_in_a == set(a) - set(b)
    assert out.result.only_in_b == set(b) - set(a)
    assert out.completion_time > 0.1  # ≥ request + first-data half RTTs
    assert out.bytes_down > 0


def test_lossless_link_is_deterministic_and_cheaper() -> None:
    from repro.net.protocols import simulate_machine_sync

    a = [b"%07d" % i for i in range(300)]
    b = [b"%07d" % i for i in range(30, 330)]
    clean = simulate_machine_sync(
        a, b, "riblt", bandwidth_bps=20e6, delay_s=0.05
    )
    again = simulate_machine_sync(
        a, b, "riblt", bandwidth_bps=20e6, delay_s=0.05
    )
    lossy = simulate_machine_sync(
        a, b, "riblt", bandwidth_bps=20e6, delay_s=0.05, loss_rate=0.2, seed=1
    )
    assert clean.completion_time == again.completion_time
    assert clean.bytes_down == again.bytes_down
    # Loss delays decode (retransmission timeouts) but must not corrupt.
    # Total bytes aren't asserted: retransmissions occupy the saturated
    # transmitter, displacing fresh look-ahead blocks almost one-for-one.
    assert lossy.completion_time > clean.completion_time
    assert lossy.result.only_in_a == clean.result.only_in_a


def test_merkle_cannot_be_framed() -> None:
    from repro.net.protocols import simulate_machine_sync

    with pytest.raises(ValueError, match="cannot be framed"):
        simulate_machine_sync(
            [b"12345678"], [b"12345678"], "merkle",
            bandwidth_bps=20e6, delay_s=0.05, symbol_size=8,
        )


# --- the CLI transports -----------------------------------------------------


def test_cli_sync_sim_and_memory_transports(tmp_path, capsys) -> None:
    from repro.cli import main

    rng = random.Random(5)
    shared = [rng.randbytes(8) for _ in range(150)]
    only_a = [rng.randbytes(8) for _ in range(4)]
    only_b = [rng.randbytes(8) for _ in range(4)]
    file_a = tmp_path / "a.bin"
    file_b = tmp_path / "b.bin"
    file_a.write_bytes(b"".join(shared + only_a))
    file_b.write_bytes(b"".join(shared + only_b))
    code = main(
        ["--item-size", "8", "sync", str(file_a), "--transport", "sim",
         "--peer", str(file_b), "--scheme", "pinsketch", "--loss", "0.1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "missing locally : 4" in out
    assert "completion time" in out
    code = main(
        ["--item-size", "8", "sync", str(file_a), "--transport", "memory",
         "--peer", str(file_b)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "extra locally   : 4" in out


def test_cli_sync_sim_merkle_replays_the_heal(tmp_path, capsys) -> None:
    from repro.cli import main

    rng = random.Random(6)
    shared = [rng.randbytes(8) for _ in range(120)]
    only_a = sorted(rng.randbytes(8) for _ in range(3))
    only_b = sorted(rng.randbytes(8) for _ in range(2))
    file_a = tmp_path / "a.bin"
    file_b = tmp_path / "b.bin"
    file_a.write_bytes(b"".join(shared + only_a))
    file_b.write_bytes(b"".join(shared + only_b))
    code = main(
        ["--item-size", "8", "sync", str(file_a), "--transport", "sim",
         "--peer", str(file_b), "--scheme", "merkle", "--show-items"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "scheme          : merkle (sim transport)" in out
    assert [line for line in out.splitlines() if line.startswith("  ")] == (
        [f"  + {item.hex()}" for item in only_b]
        + [f"  - {item.hex()}" for item in only_a]
    )
    assert "completion time" in out
    assert "loss n/a" in out


def test_cli_sync_sim_rejects_zero_bandwidth(tmp_path, capsys) -> None:
    from repro.cli import main

    file_a = tmp_path / "a.bin"
    file_a.write_bytes(b"z" * 8 + b"y" * 8)
    code = main(
        ["--item-size", "8", "sync", str(file_a), "--transport", "sim",
         "--peer", str(file_a), "--bandwidth", "0"]
    )
    assert code == 2
    assert "bandwidth_bps must be > 0" in capsys.readouterr().err


def test_hostile_estimate_header_fails_fast() -> None:
    """A tiny ESTIMATE body declaring a gigabyte geometry must be
    rejected from the length check alone — before any table allocation."""
    import time

    from repro.baselines.strata import StrataEstimator
    from repro.core import varint

    hostile = (
        varint.encode_uvarint(50_000)
        + varint.encode_uvarint(10_000)
        + varint.encode_uvarint(3)
    )
    start = time.perf_counter()
    with pytest.raises(ValueError, match="cell bytes"):
        StrataEstimator.deserialize(hostile)
    assert time.perf_counter() - start < 0.5

    # And through the machine: the initiator fails typed, never hangs.
    handle = get_scheme("regular_iblt", symbol_size=8)
    initiator = InitiatorMachine(handle, items_range(0, 50), use_estimator=True)
    initiator.start()
    initiator.take_output()
    welcome = encode_frame(
        FrameType.WELCOME,
        pack_uvarints(PROTOCOL_VERSION, 1, 64),  # SKETCH mode
    )
    initiator.bytes_received(welcome + encode_frame(FrameType.ESTIMATE, hostile))
    # The machine wraps the deserializer's rejection into the wire-level
    # typed failure (retryable, never untyped).
    assert initiator.finished and isinstance(initiator.failed, ProtocolError)
    assert "cell bytes" in str(initiator.failed)


def test_cli_sync_local_transport_rejects_push(tmp_path, capsys) -> None:
    from repro.cli import main

    file_a = tmp_path / "a.bin"
    file_a.write_bytes(b"y" * 64)
    code = main(
        ["--item-size", "8", "sync", str(file_a), "--transport", "memory",
         "--peer", str(file_a), "--push"]
    )
    assert code == 2
    assert "--push is not supported" in capsys.readouterr().err


def test_cli_sync_sim_requires_peer(tmp_path, capsys) -> None:
    from repro.cli import main

    file_a = tmp_path / "a.bin"
    file_a.write_bytes(b"x" * 64)
    code = main(
        ["--item-size", "8", "sync", str(file_a), "--transport", "sim"]
    )
    assert code == 2
    assert "--peer" in capsys.readouterr().err


# --- one driver per transport -----------------------------------------------


def test_only_the_known_drivers_tick_a_machine() -> None:
    """Ticking a machine is what a transport driver does, and each
    transport has exactly one: the in-memory loop (protocol/pump.py, plus
    api/session.py which paces it a step at a time), the simulated link
    (net/protocols/machine_sync.py) and the asyncio server.  A new file
    showing up here is a copied driver — fold it into one of these, or
    edit this list and say why it cannot be."""
    src = Path(__file__).parent.parent / "src" / "repro"
    tickers = {
        path.relative_to(src).as_posix()
        for path in src.rglob("*.py")
        if re.search(r"\.tick\(|wants_tick", path.read_text())
    }
    assert tickers == {
        "protocol/machine.py",  # defines tick / wants_tick
        "protocol/pump.py",
        "api/session.py",
        "net/protocols/machine_sync.py",
        "service/server.py",
    }


def test_one_session_driver_in_src() -> None:
    """Two in-memory sets reconcile one way: ``repro.api.Session`` pumping
    the machines, with ``repro.api.reconcile`` the one-call front door.
    A second module-level ``reconcile``, a second class stepping blocks
    or a second budget exception is a second driver growing back."""
    import ast

    import repro
    import repro.api

    src = Path(__file__).parent.parent / "src" / "repro"
    assert not (src / "core" / "session.py").exists()
    reconcilers, steppers, budgets = [], [], []
    for path in src.rglob("*.py"):
        name = path.relative_to(src).as_posix()
        tree = ast.parse(path.read_text())
        reconcilers += [
            name
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == "reconcile"
        ]
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name == "SymbolBudgetExceeded":
                budgets.append(name)
            if any(
                isinstance(item, ast.FunctionDef) and item.name == "step_block"
                for item in node.body
            ):
                steppers.append(f"{name}:{node.name}")
    assert reconcilers == ["api/session.py"]
    assert steppers == ["api/session.py:Session"]
    assert budgets == ["api/base.py"]
    assert repro.reconcile is repro.api.reconcile


def test_only_the_known_loops_shuttle_a_machine_over_a_socket() -> None:
    """An asyncio driver is a file that pairs ``take_output()`` with
    ``bytes_received()`` around an ``await``.  There is one per side:
    the server's session loop and the client's ``run_initiator`` — which
    gossip's ``service`` transport calls rather than copies."""
    src = Path(__file__).parent.parent / "src" / "repro"
    loops = set()
    for path in src.rglob("*.py"):
        text = path.read_text()
        if all(re.search(p, text) for p in (r"take_output\(", r"bytes_received\(", r"\bawait\b")):
            loops.add(path.relative_to(src).as_posix())
    assert loops == {"service/client.py", "service/server.py"}


def _one_stream_transcript(server, client, shards):
    """Both directions' bytes and the report of a service-profile sync
    over ``pump`` against a solo server of ``shards`` shards."""
    handle = get_scheme("riblt", symbol_size=len(server[0]), hasher="siphash")
    initiator = InitiatorMachine(handle, client, capture_payloads=True)
    responder = memory_responder(
        handle, server, num_shards=shards, block_size=64, slow_start=True
    )
    up, down = bytearray(), bytearray()

    def tap(machine, log):  # record what ``pump`` hands the machine
        feed = machine.bytes_received

        def received(data):
            log.extend(data)
            feed(data)

        machine.bytes_received = received

    tap(responder, up)
    tap(initiator, down)
    report = pump(initiator, responder)
    return bytes(up), bytes(down), report


def test_one_stream_per_connection() -> None:
    """A server's shards are storage, and the wire carries the XOR of
    their prefixes: over ``pump``, solo servers of 1, 2 and 4 shards send
    byte-identical transcripts both ways — the same SYMBOLS payloads, the
    same CREDIT sequence, one DONE — and the initiator reports the same
    symbols and difference, for 8-byte and 92-byte items under both
    engines.  Structurally, no SYMBOLS, SKETCH, DONE, RETRY, CREDIT or
    PUSH body the machines pack carries a shard field, neither machine
    keeps per-shard stream state, and the decoder has one batch path:
    no multi-decoder ``ingest`` wave (its ``starts``/``owner``/``cuts``
    bookkeeping and ``searchsorted`` split-back) is left.  Before, every
    shard was its own stream, with its own window and SHARD_DONE."""
    import ast

    from repro import engine
    from repro.core import decoder as decoder_module
    from repro.protocol import machine as machine_module

    from helpers import engine_lane

    rng = random.Random(0x1CE)
    for size in (8, 92):
        pool = sorted({rng.randbytes(size) for _ in range(1_400)})
        server, client = pool[:1_200], pool[150:1_200] + pool[1_200:]
        for vector in (True, False) if engine.np is not None else (False,):
            with engine_lane(vector):
                runs = [_one_stream_transcript(server, client, s) for s in (1, 2, 4)]
            (up, down, report), others = runs[0], runs[1:]
            frames = FrameDecoder().feed(up)
            assert [t for t, _ in frames].count(FrameType.CREDIT) >= 2
            assert [t for t, _ in frames].count(FrameType.DONE) == 1
            assert report.only_in_remote == set(pool[:150])
            assert report.only_in_local == set(pool[1_200:])
            symbols = b"".join(
                body
                for ftype, body in FrameDecoder().feed(down)
                if ftype == FrameType.SYMBOLS
            )
            assert bytes(report.payloads[0]) == symbols[: len(report.payloads[0])]
            for other_up, other_down, other in others:
                assert other_up == up and other_down == down
                assert other.symbols == report.symbols
                assert other.payloads == report.payloads
                assert other.only_in_remote == report.only_in_remote
                assert other.only_in_local == report.only_in_local

    src = Path(machine_module.__file__).read_text()
    tree = ast.parse(src)
    shardless = {"SYMBOLS", "SKETCH", "DONE", "RETRY", "CREDIT", "PUSH"}
    sent = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        assigned = {  # a body built in a local first
            target.id: node.value
            for node in ast.walk(fn)
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(fn):
            if not (
                isinstance(node, ast.Call)
                and ast.unparse(node.func) == "self._send_frame"
                and ast.unparse(node.args[0]).removeprefix("FrameType.") in shardless
            ):
                continue
            body = node.args[1] if len(node.args) > 1 else ast.Constant(b"")
            if isinstance(body, ast.Name):
                body = assigned.get(body.id, body)
            packed = [
                len(call.args)
                for call in ast.walk(body)
                if isinstance(call, ast.Call)
                and ast.unparse(call.func) == "pack_uvarints"
            ]
            sent.append((ast.unparse(node.args[0]), packed))
    # SYMBOLS carries the §6 bytes alone, DONE nothing, every other
    # body one leading field: a bound, a limit or a count.
    assert sorted(sent) == [
        ("FrameType.CREDIT", [1]),
        ("FrameType.DONE", []),
        ("FrameType.DONE", []),
        ("FrameType.PUSH", [1]),
        ("FrameType.RETRY", [1]),
        ("FrameType.RETRY", [1]),
        ("FrameType.SKETCH", [1]),
        ("FrameType.SYMBOLS", []),
    ]
    fields = {
        ast.Name: "id",
        ast.Attribute: "attr",
        ast.ClassDef: "name",
        ast.arg: "arg",
    }
    identifiers = {
        getattr(node, fields[type(node)])
        for node in ast.walk(tree)
        if type(node) in fields
    }
    assert not {
        "_shards", "_streams", "_InitiatorShard", "_ResponderShard", "ShardTally",
        "queues", "ahead", "num_shards", "num_shards_wish", "max_symbols_per_shard",
        "partition_with_hashes",
    } & identifiers

    decoder_tree = ast.parse(Path(decoder_module.__file__).read_text())
    functions = {n.name for n in decoder_tree.body if isinstance(n, ast.FunctionDef)}
    assert "ingest" not in functions
    (decoder_class,) = [
        n for n in decoder_tree.body
        if isinstance(n, ast.ClassDef) and n.name == "RatelessDecoder"
    ]
    names = {n.id for n in ast.walk(decoder_class) if isinstance(n, ast.Name)}
    attributes = {
        n.attr for n in ast.walk(decoder_class) if isinstance(n, ast.Attribute)
    }
    assert not {"starts", "owner", "cuts", "jobs", "waves"} & names
    assert "searchsorted" not in attributes
