"""Deterministic 64-bit PRNG streams used by the coded-symbol mapping.

The mapping rule of §4.2 derives, for each source symbol, a deterministic
stream of uniform random numbers seeded by the symbol's checksum hash.  We
use splitmix64 (Steele, Lea & Flood; the seeding PRNG of java.util), which
passes BigCrush, needs two multiplications per output, and — critically —
is a pure function of its 64-bit state, so encoder and decoder derive
identical streams from a recovered symbol.
"""

from __future__ import annotations

from repro import engine

# The splitmix64 constants are public: the batch samplers in
# ``repro.core.cellbank`` inline the state transition (both as local-variable
# arithmetic and as NumPy uint64 vectors) and must stay bit-identical to
# :class:`Splitmix64`.
MASK64 = 0xFFFFFFFFFFFFFFFF
GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB

# 2^-53: floats are mapped from the top 53 bits so the result is strictly
# below 1.0 (a full 64-bit value times 2^-64 can round *up* to 1.0).
INV_2_53 = 1.0 / 9007199254740992.0

_MASK = MASK64
_GAMMA = GAMMA
_MIX1 = MIX1
_MIX2 = MIX2
_INV_2_53 = INV_2_53


def mix64(z: int) -> int:
    """The splitmix64 finaliser: a cheap, high-quality 64-bit mixer.

    Used as the checksum hash in the Monte Carlo fast path, where source
    symbols are already uniform 64-bit integers and keying is irrelevant.
    """
    z = (z ^ (z >> 30)) * _MIX1 & _MASK
    z = (z ^ (z >> 27)) * _MIX2 & _MASK
    return z ^ (z >> 31)


def mix64_lanes(z, out=None, tmp=None):
    """:func:`mix64` over a NumPy uint64 array (element-for-element equal).

    The caller supplies the array (so the vector engine is on): shard
    placement, the IBLT table fills and the scatter-walk draws hash with
    it, the walk kernel into its own ``out``/``tmp`` work buffers.
    Wrap-on-overflow multiplication is the scalar path's ``& MASK``.
    """
    np = engine.np
    out = np.empty_like(z) if out is None else out
    tmp = np.empty_like(z) if tmp is None else tmp
    for shift, mix in ((30, MIX1), (27, MIX2)):
        np.right_shift(z, shift, out=tmp)
        np.bitwise_xor(z, tmp, out=out)
        np.multiply(out, mix, out=out)
        z = out
    np.right_shift(out, 31, out=tmp)
    return np.bitwise_xor(out, tmp, out=out)


class Splitmix64:
    """A splitmix64 stream.

    >>> rng = Splitmix64(seed=42)
    >>> a, b = rng.next_u64(), rng.next_u64()
    >>> Splitmix64(seed=42).next_u64() == a
    True
    """

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK

    def next_u64(self) -> int:
        """Advance the stream and return the next unsigned 64-bit output."""
        self.state = (self.state + _GAMMA) & _MASK
        return mix64(self.state)

    def next_float(self) -> float:
        """Return the next output mapped uniformly into ``[0, 1)``."""
        return (self.next_u64() >> 11) * _INV_2_53

    def fork(self) -> "Splitmix64":
        """Return an independent stream seeded from this one's next output."""
        return Splitmix64(self.next_u64())
