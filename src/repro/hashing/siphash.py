"""Pure-Python SipHash-2-4 (Aumasson & Bernstein, INDOCRYPT 2012).

The paper's implementation (§4.3) uses SipHash as the keyed checksum hash so
that malicious workloads cannot target collisions at a victim whose key they
do not know.  This module is a from-scratch implementation of the 64-bit
variant, bit-compatible with the reference ``siphash24`` C code.

Two entry points:

* :func:`siphash24` — one message at a time, any length.
* :func:`siphash24_batch` — many fixed-width messages at once.  SipRounds
  are pure 64-bit add/rotate/xor, so the whole batch advances in
  lock-step as uint64 lane arithmetic under NumPy (the set-ingestion
  pipeline hashes every item of a batch this way, from its row matrix
  into a uint64 hash vector); with the vector engine off
  (:mod:`repro.engine`) it falls back to a :func:`siphash24` loop.  Both
  engines are bit-identical, which the reference-vector tests assert.
"""

from __future__ import annotations

from typing import Sequence

from repro import engine

# Below this batch size the NumPy call overhead outweighs the lane win,
# for byte lists and integer batches alike: an alternating min-of-100
# sweep (2-core x86-64 host) put the lanes ahead from 12 messages on for
# 8- and 92-byte lists and from 14 for 7- and 8-byte integers.
NUMPY_MIN_BATCH = 12

# Messages per in-place lane pass, so the state vectors stay cache-resident:
# 150 000 8-byte messages took 14 ms in one pass, 8 ms in 2^15-message
# chunks and 22 ms with allocating rounds (2-core x86-64 host).
_LANE_CHUNK = 1 << 15

_MASK = 0xFFFFFFFFFFFFFFFF

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
    n_blocks, tail_len = divmod(len(data), 8)
    words = [int.from_bytes(data[8 * i : 8 * i + 8], "little") for i in range(n_blocks)]
    # Final block: remaining bytes, zero padded, with the low byte of the
    # total length in the most significant byte.
    tail = data[8 * n_blocks :]
    words.append(
        (len(data) & 0xFF) << 56 | int.from_bytes(tail + bytes(7 - tail_len), "little")
    )
    k0 = int.from_bytes(key[:8], "little")
    return _siphash24_words_scalar(k0, int.from_bytes(key[8:], "little"), words)


def siphash24_batch(key: bytes, items):
    """SipHash-2-4 of many equal-length messages under one 16-byte key.

    ``items`` is a sequence of messages or their ``(n, size)`` uint8 row
    matrix.  Returns one unsigned 64-bit hash per message, in order —
    element-for-element identical to :func:`siphash24` on each — as the
    lanes' uint64 vector on the vector engine, else a list.  A ragged
    batch raises ``ValueError`` on either engine.
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
    if not engine.NUMPY_LANE or (n < NUMPY_MIN_BATCH and not rows):
        return [siphash24(key, item) for item in items]
    np = engine.np
    if not rows:
        items = np.frombuffer(b"".join(items), dtype=np.uint8).reshape(n, len(items[0]))
    size = items.shape[1]
    # One word per full 8-byte block plus the final block (tail bytes,
    # zero padded, length byte in the MSB — same rule as the scalar path).
    n_words = size // 8 + 1
    padded = np.zeros((n, n_words * 8), dtype=np.uint8)
    padded[:, :size] = items
    # '<u8' then astype: explicit little-endian view, native for the math.
    words = padded.view("<u8").astype(np.uint64, copy=False)
    words[:, -1] |= np.uint64((size & 0xFF) << 56)
    return _siphash24_word_lanes(key, [words[:, j] for j in range(n_words)], n)


def _siphash24_words_scalar(k0: int, k1: int, words: Sequence[int]) -> int:
    """Scalar SipHash-2-4 over pre-built 8-byte message words.

    The one scalar round body: :func:`siphash24` builds its words from
    bytes, small peel-round batches straight from integers.  The rounds
    are written out inline — no helper calls, no nonlocal cells — because
    call overhead roughly doubles the cost of the arithmetic.
    """
    v0 = k0 ^ _IV0
    v1 = k1 ^ _IV1
    v2 = k0 ^ _IV2
    v3 = k1 ^ _IV3
    for m in words:
        v3 ^= m
        for _ in range(2):
            v0 = (v0 + v1) & _MASK
            v1 = ((v1 << 13) | (v1 >> 51)) & _MASK ^ v0
            v0 = ((v0 << 32) | (v0 >> 32)) & _MASK
            v2 = (v2 + v3) & _MASK
            v3 = ((v3 << 16) | (v3 >> 48)) & _MASK ^ v2
            v0 = (v0 + v3) & _MASK
            v3 = ((v3 << 21) | (v3 >> 43)) & _MASK ^ v0
            v2 = (v2 + v1) & _MASK
            v1 = ((v1 << 17) | (v1 >> 47)) & _MASK ^ v2
            v2 = ((v2 << 32) | (v2 >> 32)) & _MASK
        v0 ^= m
    v2 ^= 0xFF
    for _ in range(4):
        v0 = (v0 + v1) & _MASK
        v1 = ((v1 << 13) | (v1 >> 51)) & _MASK ^ v0
        v0 = ((v0 << 32) | (v0 >> 32)) & _MASK
        v2 = (v2 + v3) & _MASK
        v3 = ((v3 << 16) | (v3 >> 48)) & _MASK ^ v2
        v0 = (v0 + v3) & _MASK
        v3 = ((v3 << 21) | (v3 >> 43)) & _MASK ^ v0
        v2 = (v2 + v1) & _MASK
        v1 = ((v1 << 17) | (v1 >> 47)) & _MASK ^ v2
        v2 = ((v2 << 32) | (v2 >> 32)) & _MASK
    return v0 ^ v1 ^ v2 ^ v3


def siphash24_int_batch(key: bytes, values: Sequence[int], size: int) -> list[int]:
    """SipHash-2-4 of many ``size``-byte integer-form messages at once.

    Element-for-element identical to hashing ``v.to_bytes(size,
    "little")`` per value, for sizes 1..8.  The decoder's peel-round
    verification holds candidate symbols as integers, and a message of
    at most 8 bytes is a *single* SipHash block — tail bytes zero-padded
    with the length in the top byte — so the padded words are computed
    straight from the values, skipping the bytes round-trip entirely:
    ``v | size << 56`` for sizes below 8, ``[v, 8 << 56]`` at exactly 8.
    """
    if len(key) != 16:
        raise ValueError(f"SipHash key must be 16 bytes, got {len(key)}")
    if not 1 <= size <= 8:
        raise ValueError(f"size must be 1..8 bytes, got {size}")
    n = len(values)
    if n == 0:
        return []
    # Same contract as int.to_bytes: reject values outside [0, 2^(8·size)).
    if min(values) < 0 or max(values) >> (8 * size):
        raise OverflowError(f"value does not fit in {size} bytes")
    if not engine.NUMPY_LANE or n < NUMPY_MIN_BATCH:
        k0 = int.from_bytes(key[:8], "little")
        k1 = int.from_bytes(key[8:], "little")
        if size == 8:
            tail = 8 << 56
            return [
                _siphash24_words_scalar(k0, k1, (v, tail)) for v in values
            ]
        tag = size << 56
        return [_siphash24_words_scalar(k0, k1, (v | tag,)) for v in values]
    np = engine.np
    lanes = np.array(values, dtype=np.uint64)
    if size == 8:
        words = [lanes, np.uint64(8 << 56)]
    else:
        words = [lanes | np.uint64(size << 56)]
    return _siphash24_word_lanes(key, words, n).tolist()


def _siphash24_word_lanes(key: bytes, words, n: int):
    """The uint64 hash vector of ``n`` messages given as their words: one
    uint64 entry per 8-byte block — an array of per-message words, or a
    scalar shared by every message (the final block of 8-byte messages).
    Every step runs in place, ``_LANE_CHUNK`` messages at a time."""
    np = engine.np
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

        for word in words:
            m = word[lo:hi] if word.ndim else word
            v[3] ^= m
            sipround()
            sipround()
            v[0] ^= m
        v[2] ^= np.uint64(0xFF)
        for _ in range(4):
            sipround()
        np.bitwise_xor(v[0] ^ v[1], v[2] ^ v[3], out=out[lo:hi])
    return out
