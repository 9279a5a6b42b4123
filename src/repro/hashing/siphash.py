"""Pure-Python SipHash-2-4 (Aumasson & Bernstein, INDOCRYPT 2012).

The paper's implementation (§4.3) uses SipHash as the keyed checksum hash so
that malicious workloads cannot target collisions at a victim whose key they
do not know.  This module is a from-scratch implementation of the 64-bit
variant, bit-compatible with the reference ``siphash24`` C code.

Every entry point runs one of two kernels, both bit-identical to the
reference (the reference-vector tests assert every path):
:func:`_siphash24_packed`, the one Python SipRound body, over n messages
packed into Python ints (n = 1 is the plain scalar hash) for one message,
a batch below :data:`NUMPY_MIN_BATCH` and any batch on the scalar engine
(:mod:`repro.engine`); and NumPy uint64 lanes for a larger batch, as
:func:`_siphash24_word_lanes` (the ingest pipeline's row matrices).
"""

from __future__ import annotations

import struct
from array import array
from typing import Sequence

from repro import engine

# Batches below this size take the packed kernel, larger ones the NumPy
# lanes: byte lists, row matrices and integer batches alike.  The lanes
# cost ~150 us (8-byte) or ~450 us (92-byte messages) at any n up to here.
# A sweep of 8-byte ints, 1-lane matrices and byte lists and of 92-byte
# row and 12-lane matrices (min of 20 alternating rounds, 2-core x86-64
# host) put packed/lanes at 0.12-0.15 for n = 8, 0.31-0.33 at 32,
# 0.86-0.96 at 128, 1.00-1.11 at 144 and 1.13-1.27 at 160.
NUMPY_MIN_BATCH = 144

# Messages per packed-kernel call: over 2^13 messages on the scalar
# engine, 8-byte messages cost 1.4 us each in chunks of 32 and 0.9 us
# from 512 on (92-byte: 4.4 and 2.9 us), no less in larger chunks.
_PACK_CHUNK = 512

# Messages per in-place lane pass, so the state vectors stay cache-resident:
# 150 000 8-byte messages took 14 ms in one pass, 8 ms in 2^15-message
# chunks and 22 ms with allocating rounds (2-core x86-64 host).
_LANE_CHUNK = 1 << 15

_MASK = 0xFFFFFFFFFFFFFFFF
_ONE_LANE = b"\x01" + bytes(15)  # one 128-bit lane holding 1
_TWO, _FOUR = (0, 0), (0, 0, 0, 0)  # SipRounds per block: a tuple iterates fastest

# Initialisation constants: ASCII "somepseudorandomlygeneratedbytes".
_IV0 = 0x736F6D6570736575
_IV1 = 0x646F72616E646F6D
_IV2 = 0x6C7967656E657261
_IV3 = 0x7465646279746573


def siphash24(key: bytes, data: bytes) -> int:
    """Return the SipHash-2-4 of ``data`` under the 16-byte ``key``.

    The result is an unsigned 64-bit integer.  Raises ``ValueError`` when the
    key is not exactly 16 bytes, matching the reference implementation's
    contract.
    """
    if len(key) != 16:
        raise ValueError(f"SipHash key must be 16 bytes, got {len(key)}")
    n_blocks = len(data) // 8
    words = [int.from_bytes(data[8 * i : 8 * i + 8], "little") for i in range(n_blocks)]
    # Final block: the remaining bytes, zero-padded, under the length's low byte.
    tail = int.from_bytes(data[8 * n_blocks :], "little")
    words.append((len(data) & 0xFF) << 56 | tail)
    k0 = int.from_bytes(key[:8], "little")
    return _siphash24_packed(k0, int.from_bytes(key[8:], "little"), words, 1)


def siphash24_batch(key: bytes, items):
    """SipHash-2-4 of many equal-length messages under one 16-byte key.

    ``items`` is a sequence of messages or their ``(n, size)`` uint8 row
    matrix.  Returns one unsigned 64-bit hash per message, in order —
    element-for-element identical to :func:`siphash24` on each — as the
    lanes' uint64 vector for a batch on the NumPy lanes, else a list.  A
    ragged batch raises ``ValueError`` on either engine.
    """
    if len(key) != 16:
        raise ValueError(f"SipHash key must be 16 bytes, got {len(key)}")
    n = len(items)
    if n == 0:
        return []
    rows = hasattr(items, "shape")
    # set(map(len, ...)) runs the length sweep at C speed; a genexpr here
    # costs nearly as much as the hashing itself on large batches.
    if not rows and set(map(len, items)) != {len(items[0])}:
        raise ValueError("siphash24_batch requires equal-length messages")
    size = items.shape[1] if rows else len(items[0])
    if engine.NUMPY_LANE and n >= NUMPY_MIN_BATCH:
        np = engine.np
        if not rows:
            items = np.frombuffer(b"".join(items), dtype=np.uint8).reshape(n, size)
        padded = np.zeros((n, size // 8 * 8 + 8), dtype=np.uint8)
        padded[:, :size] = items
        padded[:, -1] = size & 0xFF  # the final block's length byte
        # '<u8' then astype: explicit little-endian view, native for the math.
        words = padded.view("<u8").astype(np.uint64, copy=False)
        return _siphash24_word_lanes(key, words)
    pad = bytes(7 - size % 8) + bytes([size & 0xFF])  # zeros, then the length byte
    return _siphash24_rows(key, pad.join(items) + pad, n)


def siphash24_int_batch(key: bytes, values, size: int):
    """SipHash-2-4 of many ``size``-byte integer-form messages at once:
    identical to hashing ``v.to_bytes(size, "little")`` per value.

    ``values`` are ints of 1..8 bytes (a list out) or, at any ``size``, the
    ``(n, ⌈size/8⌉)`` uint64 lanes of the decoder's peel candidates — the
    little-endian words, zero-padded (a list, or from
    :data:`NUMPY_MIN_BATCH` messages on the lanes' vector), hashed as
    they are, with no bytes round-trip."""
    if len(key) != 16:
        raise ValueError(f"SipHash key must be 16 bytes, got {len(key)}")
    lanes = getattr(values, "ndim", 1) == 2
    if not lanes and not 1 <= size <= 8:
        raise ValueError(f"size must be 1..8 bytes, got {size}")
    n = len(values)
    if n == 0:
        return []
    # Same contract as int.to_bytes: reject values outside [0, 2^(8·size)).
    if not lanes and (min(values) < 0 or max(values) >> (8 * size)):
        raise OverflowError(f"value does not fit in {size} bytes")
    on_lanes = engine.NUMPY_LANE and n >= NUMPY_MIN_BATCH
    if not lanes and not on_lanes:  # the words and the final block, per value
        width = size // 8 * 8 + 8
        tag = (size & 0xFF) << (8 * width - 8)
        blob = b"".join([(v | tag).to_bytes(width, "little") for v in values])
        return _siphash24_rows(key, blob, n)
    np = engine.np
    if not lanes:
        values = np.array(values, dtype=np.uint64).reshape(n, 1)
    words = np.zeros((n, size // 8 + 1), dtype=np.uint64)
    words[:, : values.shape[1]] = values
    words[:, -1] |= np.uint64((size & 0xFF) << 56)  # the final block's length byte
    if not on_lanes:
        return _siphash24_rows(key, words.astype("<u8", copy=False).tobytes(), n)
    hashes = _siphash24_word_lanes(key, words)
    return hashes if lanes else hashes.tolist()


def _siphash24_rows(key: bytes, blob: bytes, n: int) -> list[int]:
    """SipHash-2-4 of ``n`` messages through the packed kernel,
    :data:`_PACK_CHUNK` at a time.  ``blob`` holds each message's words,
    final block included, little-endian, message after message; word
    ``j`` of a chunk's messages becomes one packed int (the 8-byte units
    are moved, never read, so host byte order cannot matter)."""
    k0, k1 = int.from_bytes(key[:8], "little"), int.from_bytes(key[8:], "little")
    width = len(blob) // (8 * n)
    units = array("Q", blob)
    out: list[int] = []
    for lo in range(0, n, _PACK_CHUNK):
        count = min(n - lo, _PACK_CHUNK)
        lane = array("Q", bytes(16 * count))  # value, headroom, value, ...
        words = []
        for j in range(width):
            lane[::2] = units[lo * width + j : (lo + count) * width : width]
            words.append(int.from_bytes(lane.tobytes(), "little"))
        ones = int.from_bytes(_ONE_LANE * count, "little")
        packed = _siphash24_packed(k0, k1, words, ones).to_bytes(16 * count, "little")
        out += struct.unpack(f"<{2 * count}Q", packed)[::2]
    return out


def _siphash24_packed(k0: int, k1: int, words: Sequence[int], ones: int) -> int:
    """SipHash-2-4 of n messages at once, in the 128-bit lanes of Python
    ints — the one Python SipRound body (``ones = 1``: the scalar hash).

    ``ones`` holds 1 per lane; every word holds a 64-bit value per lane,
    its upper 64 bits zero.  So ``(a + b) & mask`` is n adds (the carry
    is masked off) and ``(v << s | v >> 64 - s) & mask`` n rotations: the
    next lane's low bits the right shift pulls down land at 64 + s and up,
    masked off too.  The rounds are inline, as call overhead would about
    double the cost of the arithmetic."""
    mask = _MASK * ones
    v0 = (k0 ^ _IV0) * ones
    v1 = (k1 ^ _IV1) * ones
    v2 = (k0 ^ _IV2) * ones
    v3 = (k1 ^ _IV3) * ones
    last = len(words)
    for i, m in enumerate([*words, 0]):
        if i < last:  # a message block: two rounds
            v3 ^= m
            rounds = _TWO
        else:  # finalisation: four rounds
            v2 ^= 0xFF * ones
            rounds = _FOUR
        for _ in rounds:
            v0 = (v0 + v1) & mask
            v1 = ((v1 << 13) | (v1 >> 51)) & mask ^ v0
            v0 = ((v0 << 32) | (v0 >> 32)) & mask
            v2 = (v2 + v3) & mask
            v3 = ((v3 << 16) | (v3 >> 48)) & mask ^ v2
            v0 = (v0 + v3) & mask
            v3 = ((v3 << 21) | (v3 >> 43)) & mask ^ v0
            v2 = (v2 + v1) & mask
            v1 = ((v1 << 17) | (v1 >> 47)) & mask ^ v2
            v2 = ((v2 << 32) | (v2 >> 32)) & mask
        v0 ^= m
    return v0 ^ v1 ^ v2 ^ v3


def _siphash24_word_lanes(key: bytes, words):
    """The uint64 hash vector of n messages given as their ``(n, w)``
    uint64 words, final block included.  Every step runs in place,
    ``_LANE_CHUNK`` messages at a time."""
    np = engine.np
    n = len(words)
    k0 = np.uint64(int.from_bytes(key[:8], "little"))
    k1 = np.uint64(int.from_bytes(key[8:], "little"))
    ivs = ((k0, _IV0), (k1, _IV1), (k0, _IV2), (k1, _IV3))
    init = [k ^ np.uint64(iv) for k, iv in ivs]
    shifts = {b: (np.uint64(b), np.uint64(64 - b)) for b in (13, 16, 17, 21, 32)}
    out = np.empty(n, dtype=np.uint64)
    for lo in range(0, n, _LANE_CHUNK):
        hi = min(n, lo + _LANE_CHUNK)
        v = [np.full(hi - lo, x, dtype=np.uint64) for x in init]
        scratch = np.empty(hi - lo, dtype=np.uint64)

        def rotl(x, b: int) -> None:
            np.left_shift(x, shifts[b][0], out=scratch)
            x >>= shifts[b][1]
            x |= scratch

        def sipround() -> None:  # in place: v0..v3 stay v's arrays
            v0, v1, v2, v3 = v
            v0 += v1
            rotl(v1, 13)
            v1 ^= v0
            rotl(v0, 32)
            v2 += v3
            rotl(v3, 16)
            v3 ^= v2
            v0 += v3
            rotl(v3, 21)
            v3 ^= v0
            v2 += v1
            rotl(v1, 17)
            v1 ^= v2
            rotl(v2, 32)

        for word in words.T:
            m = word[lo:hi]
            v[3] ^= m
            sipround()
            sipround()
            v[0] ^= m
        v[2] ^= np.uint64(0xFF)
        for _ in range(4):
            sipround()
        np.bitwise_xor(v[0] ^ v[1], v[2] ^ v[3], out=out[lo:hi])
    return out
