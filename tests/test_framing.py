"""Framing-layer robustness: corrupted, truncated, and hostile inputs
must surface as typed errors — never as garbage frames or unbounded
buffering."""

import random

import pytest

from repro.service.framing import (
    BodyReader,
    ErrorCode,
    FrameDecoder,
    FrameError,
    FrameTooLarge,
    FrameType,
    TruncatedFrame,
    encode_frame,
    pack_busy_body,
    pack_lp_str,
    pack_uvarints,
)


def test_roundtrip_single_and_coalesced():
    decoder = FrameDecoder()
    blob = encode_frame(FrameType.SYMBOLS, b"abc") + encode_frame(FrameType.BYE)
    frames = decoder.feed(blob)
    assert frames == [(FrameType.SYMBOLS, b"abc"), (FrameType.BYE, b"")]
    decoder.finish()  # boundary-clean


def test_byte_by_byte_reassembly():
    blob = encode_frame(FrameType.PUSH, bytes(range(100)))
    decoder = FrameDecoder()
    collected = []
    for i in range(len(blob)):
        collected.extend(decoder.feed(blob[i : i + 1]))
    assert collected == [(FrameType.PUSH, bytes(range(100)))]
    assert decoder.pending_bytes == 0


def test_truncated_frame_detected_at_eof():
    blob = encode_frame(FrameType.SYMBOLS, b"x" * 50)
    decoder = FrameDecoder()
    assert decoder.feed(blob[:-1]) == []
    assert decoder.pending_bytes == len(blob) - 1
    with pytest.raises(TruncatedFrame):
        decoder.finish()


def test_oversized_frame_rejected_before_buffering():
    decoder = FrameDecoder(max_frame=1024)
    huge = encode_frame(FrameType.SYMBOLS, b"y" * 2000)
    with pytest.raises(FrameTooLarge):
        decoder.feed(huge[:4])  # the length prefix alone must trip it


def test_malformed_length_prefix_rejected():
    decoder = FrameDecoder()
    with pytest.raises(FrameError):
        decoder.feed(b"\xff" * 12)  # varint that never terminates


def test_zero_length_frame_rejected():
    decoder = FrameDecoder()
    with pytest.raises(FrameError):
        decoder.feed(b"\x00")  # no room for a type byte


def test_encode_respects_cap():
    with pytest.raises(FrameTooLarge):
        encode_frame(FrameType.PUSH, b"z" * (5 << 20))


def test_body_reader_bounds_checked():
    body = pack_uvarints(3, 7) + pack_lp_str("riblt")
    reader = BodyReader(body)
    assert reader.uvarint() == 3
    assert reader.uvarint() == 7
    assert reader.lp_str() == "riblt"
    reader.expect_end()

    reader = BodyReader(pack_uvarints(3))
    reader.uvarint()
    with pytest.raises(FrameError):
        reader.raw(4)  # past the end

    with pytest.raises(FrameError):
        BodyReader(b"\xff\xff").uvarint()  # truncated varint

    reader = BodyReader(pack_uvarints(1, 2))
    reader.uvarint()
    with pytest.raises(FrameError):
        reader.expect_end()  # trailing bytes


def test_body_reader_rejects_bad_utf8():
    with pytest.raises(FrameError):
        BodyReader(pack_uvarints(2) + b"\xff\xfe").lp_str()


def test_split_across_many_frames_with_garbage_tail():
    """Valid frames parse; the corrupt tail raises instead of looping."""
    decoder = FrameDecoder()
    good = encode_frame(FrameType.CREDIT, pack_uvarints(256))
    frames = decoder.feed(good)
    assert frames == [(FrameType.CREDIT, pack_uvarints(256))]
    with pytest.raises(FrameError):
        decoder.feed(b"\x81" * 32)  # endless continuation bits


def test_busy_body_packs_code_and_retry_after():
    body = pack_busy_body(0.25, "server busy: session limit")
    reader = BodyReader(body)
    assert reader.uvarint() == int(ErrorCode.BUSY)
    assert reader.uvarint() == 250  # milliseconds, rounded up
    assert reader.rest() == b"server busy: session limit"
    # Negative hints clamp to zero; fractional milliseconds round up.
    assert BodyReader(pack_busy_body(-3.0, "")).uvarint() is not None
    reader = BodyReader(pack_busy_body(0.0001, "x"))
    reader.uvarint()
    assert reader.uvarint() == 1


# -- randomized corruption/truncation sweep ----------------------------------

# One representative wire body per frame type (shapes matter, values
# don't: the decoder treats bodies as opaque — the sweep proves the
# *frame layer* stays typed under fire for every type byte the protocol
# can emit).
_SWEEP_BODIES = {
    FrameType.HELLO: pack_uvarints(1, 0, 4) + pack_lp_str("riblt"),
    FrameType.WELCOME: pack_uvarints(1, 0, 64),
    FrameType.SYMBOLS: pack_uvarints(3) + bytes(range(96)),
    FrameType.SKETCH: pack_uvarints(40) + bytes(40),
    FrameType.DONE: b"",
    FrameType.RETRY: pack_uvarints(80),
    FrameType.PUSH: pack_uvarints(2) + bytes(32),
    FrameType.BYE: b"",
    FrameType.STATS: pack_uvarints(12, 3456),
    FrameType.ERROR: pack_busy_body(0.5, "busy"),
    FrameType.ESTIMATE: pack_uvarints(1) + bytes(24),
    FrameType.CREDIT: pack_uvarints(4096),
}


def _mutate(rng, blob):
    """One seeded corruption: flip, truncate, insert, delete, or splice."""
    data = bytearray(blob)
    op = rng.choice(("flip", "truncate", "insert", "delete", "splice"))
    if op == "flip" and data:
        pos = rng.randrange(len(data))
        data[pos] ^= 1 + rng.randrange(255)
    elif op == "truncate" and data:
        del data[rng.randrange(len(data)):]
    elif op == "insert":
        pos = rng.randrange(len(data) + 1)
        data[pos:pos] = rng.randbytes(1 + rng.randrange(4))
    elif op == "delete" and data:
        pos = rng.randrange(len(data))
        del data[pos : pos + 1 + rng.randrange(3)]
    else:  # splice: random garbage appended mid-stream
        data.extend(rng.randbytes(1 + rng.randrange(8)))
    return bytes(data)


def test_randomized_corruption_sweep_every_frame_type():
    """Seeded sweep: for every frame type, hundreds of random
    corruptions/truncations of a valid frame either decode cleanly (the
    mutation kept the framing coherent) or raise a typed ``FrameError``
    — never an untyped exception, and never an unterminated loop (the
    decoder consumes every fed byte in one call)."""
    assert set(_SWEEP_BODIES) == set(FrameType), "sweep must cover every type"
    rng = random.Random(0xF4A3E5)
    for ftype, body in sorted(_SWEEP_BODIES.items()):
        frame = encode_frame(ftype, body)
        for _ in range(250):
            blob = _mutate(rng, frame)
            decoder = FrameDecoder(max_frame=1 << 16)
            try:
                frames = decoder.feed(blob)
                decoder.finish()
            except FrameError:
                continue  # typed: exactly what hostile input must produce
            # Clean decode: every frame must be structurally sane (an
            # unknown type byte is the *machine's* job to reject, as a
            # typed ProtocolError — see the machine corruption tests).
            for got_type, got_body in frames:
                assert 0 <= got_type < 256
                assert len(got_body) <= 1 << 16


def test_machine_survives_corrupted_transcript_sweep():
    """One layer up: a *real* responder transcript, corrupted at seeded
    positions and replayed into a fresh initiator, must leave the
    machine finished with a typed failure (or a clean success when the
    mutation missed anything load-bearing) — never an untyped raise,
    never a machine that will not terminate.  Runs identically on the
    numpy and scalar symbol engines."""
    from repro.api import SymbolBudgetExceeded, get_scheme
    from repro.protocol import InitiatorMachine, memory_responder
    from repro.service.errors import ServiceError

    handle = get_scheme("riblt", symbol_size=8)
    items_a = [b"%08d" % i for i in range(80)]
    items_b = [b"%08d" % i for i in range(5, 80)]

    # Capture the clean responder->initiator byte stream once.
    initiator = InitiatorMachine(handle, items_b)
    responder = memory_responder(handle, items_a)
    initiator.start()
    responder.start()
    chunks = []
    now = 0.0
    while not initiator.finished:
        out = initiator.take_output()
        if out and not responder.finished:
            responder.bytes_received(out)
            continue
        back = responder.take_output()
        if back:
            chunks.append(back)
            initiator.bytes_received(back)
            continue
        if responder.wants_tick:
            responder.tick(now)
            continue
        delay = responder.next_tick_delay(now)
        if delay is not None and not responder.finished:
            now += delay
            responder.tick(now)
            continue
        initiator.peer_closed()
    assert initiator.failed is None
    transcript = b"".join(chunks)

    rng = random.Random(0xC0FFEE)
    typed = (ServiceError, FrameError, SymbolBudgetExceeded)
    for _ in range(120):
        blob = _mutate(rng, transcript)
        machine = InitiatorMachine(handle, items_b, max_symbols=4096)
        machine.start()
        machine.take_output()
        machine.bytes_received(blob)
        steps = 0
        while not machine.finished:
            machine.take_output()
            machine.peer_closed()
            steps += 1
            assert steps < 8, "machine failed to terminate after EOF"
        failure = machine.failed
        assert failure is None or isinstance(failure, typed), repr(failure)


def test_randomized_fragmented_corruption_sweep():
    """The same guarantee under adversarial delivery: the corrupted
    stream arrives in random fragment sizes (including byte-by-byte),
    and a stream that goes quiet mid-frame surfaces ``TruncatedFrame``
    at EOF — typed, never a hang."""
    rng = random.Random(0xBADF00)
    stream = b"".join(
        encode_frame(ftype, body) for ftype, body in sorted(_SWEEP_BODIES.items())
    )
    for _ in range(150):
        blob = _mutate(rng, stream)
        decoder = FrameDecoder(max_frame=1 << 16)
        consumed = 0
        try:
            while consumed < len(blob):
                step = 1 + rng.randrange(17)
                decoder.feed(blob[consumed : consumed + step])
                consumed += step
            decoder.finish()
        except FrameError:
            pass  # typed — TruncatedFrame, FrameTooLarge, malformed prefix

