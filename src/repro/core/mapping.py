"""The §4.2 mapping rule: which coded indices does a source symbol touch?

A source symbol is mapped to coded index ``i`` with probability
``ρ(i) = 1/(1+αi)``.  Rolling a die per index would cost O(m) per symbol;
instead we sample the *gap* to the next mapped index directly from the
closed-form inverse CDF (paper Eq. 2 and §B), giving O(log m) total work
for the first ``m`` indices.

For α = 0.5 the CDF is ``C(x) = x(2i+x+3) / ((i+x+1)(i+x+2))`` whose exact
inverse needs one square root (solve the quadratic in ``x``):

    x = −(2i+3)/2 + sqrt( (2i+3)²/4 + r·(i+1)(i+2)/(1−r) )

For generic α we use the paper's Stirling approximation
``C⁻¹(r) ≈ (i+1)·((1−r)^(−α) − 1)``.

Randomness comes from a splitmix64 stream seeded by the symbol's keyed
checksum hash, so encoder and decoder independently derive the same
infinite index sequence for any symbol.
"""

from __future__ import annotations

import math

from repro.core.params import DEFAULT_ALPHA, MAX_INDEX
from repro.hashing.prng import GAMMA, INV_2_53, MASK64, MIX1, MIX2


class IndexGenerator:
    """Iterates the strictly increasing coded-symbol indices of one symbol.

    ``current`` starts at 0 because ρ(0) = 1: *every* source symbol maps to
    the first coded symbol — the property that gives Bob his termination
    signal (§4.1.2).

    The splitmix64 stream is held inline (``state``) rather than behind a
    :class:`~repro.hashing.prng.Splitmix64` object: ``next_index`` sits on
    the per-edge hot path of the encoder and decoder, and the batch
    samplers in :mod:`repro.core.cellbank` check the (``state``,
    ``current``) pair out, advance it with identical arithmetic, and check
    it back in.

    >>> gen = IndexGenerator(seed=1234)
    >>> gen.current
    0
    >>> first_gap = gen.next_index()
    >>> first_gap >= 1
    True
    """

    __slots__ = ("state", "current", "alpha")

    def __init__(self, seed: int, alpha: float = DEFAULT_ALPHA) -> None:
        if alpha <= 0.0:
            raise ValueError("alpha must be positive")
        self.state = seed & MASK64
        self.current = 0
        self.alpha = alpha

    def next_index(self) -> int:
        """Advance to — and return — the next mapped coded index."""
        i = self.current
        # Inlined Splitmix64.next_float() (bit-identical; see class doc).
        state = (self.state + GAMMA) & MASK64
        self.state = state
        z = (state ^ (state >> 30)) * MIX1 & MASK64
        z = (z ^ (z >> 27)) * MIX2 & MASK64
        r = ((z ^ (z >> 31)) >> 11) * INV_2_53
        if self.alpha == DEFAULT_ALPHA:
            # Exact inverse CDF for α = 0.5 (one sqrt; see module docstring).
            half = i + 1.5
            gap = math.sqrt(half * half + r * (i + 1.0) * (i + 2.0) / (1.0 - r)) - half
        else:
            # Stirling approximation for generic α (paper §4.2).
            gap = (i + 1.0) * ((1.0 - r) ** -self.alpha - 1.0)
        step = math.ceil(gap)
        if step < 1:
            step = 1
        nxt = i + step
        if nxt > MAX_INDEX:
            # Far beyond any practical prefix; degrade to unit steps so the
            # sequence stays strictly increasing without float blowups.
            nxt = i + 1
        self.current = nxt
        return nxt

    def indices_below(self, bound: int) -> list[int]:
        """Return all mapped indices ``< bound`` from the current position,
        advancing the generator past them (its ``current`` ends ≥ bound)."""
        out = []
        idx = self.current
        while idx < bound:
            out.append(idx)
            idx = self.next_index()
        return out


class RandomMapping:
    """Stateless view of a symbol's full mapping, for inspection and tests.

    Wraps :class:`IndexGenerator` with conveniences that re-derive the
    sequence from scratch each call (the hot paths use the generator
    directly).
    """

    __slots__ = ("seed", "alpha")

    def __init__(self, seed: int, alpha: float = DEFAULT_ALPHA) -> None:
        self.seed = seed
        self.alpha = alpha

    def generator(self) -> IndexGenerator:
        """Return a fresh generator positioned at index 0."""
        return IndexGenerator(self.seed, self.alpha)

    def indices_below(self, bound: int) -> list[int]:
        """All coded indices ``< bound`` this symbol maps to."""
        return self.generator().indices_below(bound)

    def degree_below(self, bound: int) -> int:
        """Number of coded indices ``< bound`` this symbol maps to.

        Its expectation is ``Σ_{i<bound} ρ(i) ≈ (1/α)·ln(1+α·bound)``.
        """
        return len(self.indices_below(bound))


def mapping_probability(index: int, alpha: float = DEFAULT_ALPHA) -> float:
    """ρ(i) = 1/(1+αi), the probability a random symbol maps to ``index``."""
    if index < 0:
        raise ValueError("index must be non-negative")
    return 1.0 / (1.0 + alpha * index)


def expected_degree(bound: int, alpha: float = DEFAULT_ALPHA) -> float:
    """Expected number of mapped indices among the first ``bound``:
    ``Σ_{i<bound} ρ(i)``, i.e. the encoding cost per symbol (§4.1.2)."""
    return sum(mapping_probability(i, alpha) for i in range(bound))
