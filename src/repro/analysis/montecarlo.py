"""Monte Carlo harness for finite-d behaviour (Figs 4, 5, 6, 15).

Runs the *real* incremental encoder and peeling decoder (the exact code
paths of ``repro.core``) over 64-bit integer items, with the splitmix64
finaliser as the checksum hash — keying is irrelevant here and the cheap
hash makes laptop-scale sweeps practical ("Monte Carlo fast
path").
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.decoder import RatelessDecoder
from repro.core.encoder import RatelessEncoder
from repro.core.irregular import IrregularConfig
from repro.core.mapping import IndexGenerator
from repro.core.params import DEFAULT_ALPHA
from repro.hashing.prng import mix64

_INV_2_64 = 1.0 / 18446744073709551616.0


class IntSymbolCodec:
    """Duck-typed :class:`~repro.core.symbols.SymbolCodec` for u64 items.

    Items are already uniform 64-bit integers; the checksum is one
    splitmix64 finalisation, and ``to_bytes`` round-trips through 8-byte
    little-endian like the real codec.
    """

    __slots__ = ("symbol_size", "checksum_size", "alpha", "irregular", "_key")

    def __init__(
        self,
        alpha: float = DEFAULT_ALPHA,
        irregular: Optional[IrregularConfig] = None,
        key: int = 0,
    ) -> None:
        self.symbol_size = 8
        self.checksum_size = 8
        self.alpha = alpha
        self.irregular = irregular
        self._key = key

    def to_int(self, data: bytes) -> int:
        return int.from_bytes(data, "little")

    def to_bytes(self, value: int) -> bytes:
        return value.to_bytes(8, "little")

    def checksum_int(self, value: int) -> int:
        return mix64(value ^ self._key)

    def checksum_data(self, data: bytes) -> int:
        return self.checksum_int(int.from_bytes(data, "little"))

    def alpha_for(self, checksum: int) -> float:
        if self.irregular is None:
            return self.alpha
        return self.irregular.alpha_for(checksum * _INV_2_64)

    def alpha_batch(self, checksums) -> Optional[list[float]]:
        if self.irregular is None and self.alpha == DEFAULT_ALPHA:
            return None
        return [self.alpha_for(int(checksum)) for checksum in checksums]

    def new_mapping(self, checksum: int) -> IndexGenerator:
        return IndexGenerator(checksum, self.alpha_for(checksum))

    def compatible_with(self, other: object) -> bool:
        return (
            isinstance(other, IntSymbolCodec)
            and self.alpha == other.alpha
            and self.irregular == other.irregular
            and self._key == other._key
        )


@dataclass
class OverheadStats:
    """Mean/stddev of coded symbols per difference over repeated runs."""

    difference_size: int
    runs: int
    mean: float
    std: float
    samples: list[float]

    @classmethod
    def from_samples(cls, d: int, samples: Sequence[float]) -> "OverheadStats":
        mean = sum(samples) / len(samples)
        var = sum((s - mean) ** 2 for s in samples) / len(samples)
        return cls(
            difference_size=d,
            runs=len(samples),
            mean=mean,
            std=math.sqrt(var),
            samples=list(samples),
        )


def _random_values(n: int, rng: random.Random) -> list[int]:
    """n distinct nonzero u64s."""
    values: set[int] = set()
    while len(values) < n:
        value = rng.getrandbits(64)
        if value:
            values.add(value)
    return list(values)


def simulate_overhead_once(
    n: int,
    rng: random.Random,
    alpha: float = DEFAULT_ALPHA,
    irregular: Optional[IrregularConfig] = None,
) -> int:
    """Smallest prefix length that decodes a random n-item difference.

    Streams coded symbols one at a time into the incremental decoder and
    stops at the first full recovery — exactly the protocol's stopping
    rule, so the returned m is the communication the protocol would use.
    """
    codec = IntSymbolCodec(alpha=alpha, irregular=irregular, key=rng.getrandbits(64))
    encoder = RatelessEncoder(codec)
    for value in _random_values(n, rng):
        encoder.add_value(value)
    decoder = RatelessDecoder(codec)
    produced = 0
    while not decoder.decoded:
        decoder.add_coded_symbol(encoder.produce_next())
        produced += 1
    return produced


def overhead_stats(
    n: int,
    runs: int,
    alpha: float = DEFAULT_ALPHA,
    irregular: Optional[IrregularConfig] = None,
    seed: int = 0,
) -> OverheadStats:
    """Overhead (m/d) statistics across ``runs`` random sets of size n."""
    rng = random.Random(seed ^ (n * 0x9E3779B97F4A7C15))
    samples = [
        simulate_overhead_once(n, rng, alpha, irregular) / n for _ in range(runs)
    ]
    return OverheadStats.from_samples(n, samples)


def recovered_fraction_sim(
    n: int,
    eta_values: Sequence[float],
    runs: int = 10,
    alpha: float = DEFAULT_ALPHA,
    irregular: Optional[IrregularConfig] = None,
    seed: int = 0,
) -> list[tuple[float, float]]:
    """[(η, mean recovered fraction after ηn symbols)] — Fig 6's points.

    Each run streams max(η)·n symbols once, checkpointing the recovered
    count at every requested η.
    """
    eta_sorted = sorted(set(float(e) for e in eta_values))
    max_symbols = int(math.ceil(eta_sorted[-1] * n))
    totals = [0.0] * len(eta_sorted)
    rng = random.Random(seed ^ (n * 0xD1B54A32D192ED03))
    for _ in range(runs):
        codec = IntSymbolCodec(
            alpha=alpha, irregular=irregular, key=rng.getrandbits(64)
        )
        encoder = RatelessEncoder(codec)
        for value in _random_values(n, rng):
            encoder.add_value(value)
        decoder = RatelessDecoder(codec)
        checkpoint = 0
        for produced in range(1, max_symbols + 1):
            decoder.add_coded_symbol(encoder.produce_next())
            while (
                checkpoint < len(eta_sorted)
                and produced >= eta_sorted[checkpoint] * n
            ):
                recovered = len(decoder.remote_values()) + len(
                    decoder.local_values()
                )
                totals[checkpoint] += recovered / n
                checkpoint += 1
            if checkpoint == len(eta_sorted):
                break
    return [
        (eta, total / runs) for eta, total in zip(eta_sorted, totals)
    ]
