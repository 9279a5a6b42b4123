"""Keyed 64-bit hash families for symbol checksums.

§4.3 of the paper argues that a *keyed* 64-bit hash suffices against
adversarial workloads: the attacker can enumerate collisions for a known
function, but not for a secret key.  Two interchangeable families are
provided:

* :class:`SipHasher` — the paper's choice: our bit-faithful SipHash-2-4.
  One call runs at interpreter speed; its batch faces run one Python
  kernel over a small batch packed into big ints, a lane per message,
  and a large one as NumPy uint64 lane arithmetic on the vector engine,
  which makes it the faster path through batch ingestion and the
  service layer's default (:mod:`repro.service.defaults`);
* :class:`Blake2bHasher` — ``hashlib.blake2b`` with ``digest_size=8`` and
  the same 16-byte key, a keyed PRF at C speed per call.  It stays the
  default of the core codec and the scheme registry (a documented
  substitution), so library callers and recorded transcripts see it
  unless they ask for SipHash.
"""

from __future__ import annotations

import hashlib
from typing import Protocol

from repro.hashing.siphash import siphash24, siphash24_batch, siphash24_int_batch

DEFAULT_KEY = bytes(range(16))


class KeyedHasher(Protocol):
    """Anything that maps ``bytes`` to an unsigned 64-bit integer.

    Implementations *may* additionally provide ``hash64_batch(items)`` —
    keyed hashes of many equal-length items or their row matrix,
    element-for-element identical to ``hash64`` per item but amortising
    per-call overhead (SipHash's lanes return the uint64 hash vector).
    It is deliberately not part of this protocol: consumers probe for it
    and fall back to a ``hash64`` loop (see
    :meth:`repro.core.symbols.SymbolCodec.checksum_batch`), so
    hash64-only hashers stay valid.
    """

    key: bytes

    def hash64(self, data: bytes) -> int:
        """Return the keyed 64-bit hash of ``data``."""
        ...


class SipHasher:
    """SipHash-2-4 keyed hasher (the paper's checksum hash)."""

    __slots__ = ("key",)

    def __init__(self, key: bytes = DEFAULT_KEY) -> None:
        if len(key) != 16:
            raise ValueError("SipHash key must be 16 bytes")
        self.key = key

    def hash64(self, data: bytes) -> int:
        return siphash24(self.key, data)

    def hash64_batch(self, items):
        return siphash24_batch(self.key, items)

    def hash64_int_batch(self, values, size: int):
        """Keyed hashes of ``size``-byte little-endian integer messages —
        ints of ≤ 8 bytes or any width's ``(n, k)`` uint64 lane matrix —
        identical to hashing ``v.to_bytes(size, "little")`` per value."""
        return siphash24_int_batch(self.key, values, size)


class Blake2bHasher:
    """Keyed BLAKE2b truncated to 64 bits; C-speed stand-in for SipHash."""

    __slots__ = ("key",)

    def __init__(self, key: bytes = DEFAULT_KEY) -> None:
        if not 1 <= len(key) <= 64:
            raise ValueError("BLAKE2b key must be 1..64 bytes")
        self.key = key

    def hash64(self, data: bytes) -> int:
        digest = hashlib.blake2b(data, digest_size=8, key=self.key).digest()
        return int.from_bytes(digest, "little")

    def hash64_batch(self, items) -> list[int]:
        # BLAKE2b has no lane form; one tight C-call loop (row-matrix rows
        # via the buffer protocol) — the contract is call shape, not engine.
        blake2b = hashlib.blake2b
        key = self.key
        from_bytes = int.from_bytes
        return [
            from_bytes(blake2b(data, digest_size=8, key=key).digest(), "little")
            for data in items
        ]


def make_hasher(kind: str = "blake2b", key: bytes = DEFAULT_KEY) -> KeyedHasher:
    """Build a keyed hasher by name (``"blake2b"`` or ``"siphash"``)."""
    if kind == "blake2b":
        return Blake2bHasher(key)
    if kind == "siphash":
        return SipHasher(key)
    raise ValueError(f"unknown hasher kind: {kind!r}")
