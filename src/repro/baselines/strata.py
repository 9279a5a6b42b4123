"""Strata estimator for the set-difference size [Eppstein et al. 2011 §5].

Regular IBLTs need ``d`` up front; deployments therefore first exchange a
*strata estimator*: items are assigned to stratum ``i`` with probability
``2^-(i+1)`` (by the number of trailing zero bits of their hash), and each
stratum is a small fixed-size IBLT.  Decoding the subtracted strata from
the sparsest stratum down and scaling by ``2^(i+1)`` at the first failure
estimates ``d``.

The estimator stores *hashes* of items, not items, so its size does not
depend on ℓ.  The default geometry (16 strata × 80 cells × 12 B cells)
serialises to ≈15 KB — the extra cost Fig 7 charges to
"Regular IBLT + Estimator", per the recommended setup the paper cites.
"""

from __future__ import annotations

from typing import Iterable

from repro.baselines.regular_iblt import RegularIBLT
from repro.core import varint
from repro.core.cellbank import CodedSymbolBank
from repro.core.symbols import SymbolCodec
from repro.hashing.keyed import KeyedHasher, make_hasher

# Default geometry tuned to ≈15 KB on the wire.
DEFAULT_STRATA = 16
DEFAULT_CELLS_PER_STRATUM = 80
# 8-byte stored hash + 3-byte checksum + 1-byte count.
STRATUM_CELL_BYTES = 12


class StrataEstimator:
    """Estimates |A △ B| from two ~15 KB summaries."""

    def __init__(
        self,
        strata: int = DEFAULT_STRATA,
        cells_per_stratum: int = DEFAULT_CELLS_PER_STRATUM,
        hasher: KeyedHasher | None = None,
        hash_count: int = 3,
    ) -> None:
        if strata < 2:
            raise ValueError("need at least two strata")
        self.strata = strata
        self.cells_per_stratum = cells_per_stratum
        self.hasher = hasher if hasher is not None else make_hasher()
        self.hash_count = hash_count
        # Each stratum stores 8-byte item hashes with a narrow checksum.
        self._codec = SymbolCodec(8, self.hasher, checksum_size=3)
        self.tables = [
            RegularIBLT(cells_per_stratum, self._codec, hash_count)
            for _ in range(strata)
        ]

    # -- construction ---------------------------------------------------------

    def _stratum_of(self, item_hash: int) -> int:
        """Stratum index: trailing zero bits of the hash, clamped."""
        if item_hash == 0:
            return self.strata - 1
        tz = (item_hash & -item_hash).bit_length() - 1
        return min(tz, self.strata - 1)

    def insert(self, data: bytes) -> None:
        """Account one set item."""
        item_hash = self.hasher.hash64(data)
        stratum = self._stratum_of(item_hash)
        self.tables[stratum].insert_value(item_hash)

    @classmethod
    def from_items(
        cls, items: Iterable[bytes], **kwargs: object
    ) -> "StrataEstimator":
        estimator = cls(**kwargs)  # type: ignore[arg-type]
        for item in items:
            estimator.insert(item)
        return estimator

    # -- estimation --------------------------------------------------------------

    def same_geometry(self, other: "StrataEstimator") -> bool:
        return (
            self.strata == other.strata
            and self.cells_per_stratum == other.cells_per_stratum
            and self.hash_count == other.hash_count
        )

    def estimate(self, other: "StrataEstimator") -> int:
        """Estimate |A △ B| given the other party's estimator.

        Decodes subtracted strata from the sparsest down; at the first
        undecodable stratum ``i`` the count seen so far scales by
        ``2^(i+1)``.
        """
        if not self.same_geometry(other):
            raise ValueError("strata estimators have different geometry")
        count = 0
        for i in range(self.strata - 1, -1, -1):
            diff = self.tables[i].subtract(other.tables[i])
            result = diff.decode()
            if not result.success:
                return count * (2 ** (i + 1))
            count += result.difference_size
        return count

    def wire_size(self) -> int:
        """Serialised size in bytes (the Fig 7 "+ Estimator" surcharge)."""
        return self.strata * self.cells_per_stratum * STRATUM_CELL_BYTES

    # -- wire -----------------------------------------------------------------

    def serialize(self) -> bytes:
        """The summary as bytes, for the protocol engine's ESTIMATE frame.

        Geometry header (strata, cells per stratum, hash count) followed
        by each stratum's flat cell blob.  The keyed hash itself never
        crosses the wire — like the codec key, both peers must hold it
        already (the engine constructs both estimators with the shared
        default).  Accounting (:meth:`wire_size`) intentionally stays
        the paper's 12 B/cell figure, not this faithful encoding.
        """
        parts = [
            varint.encode_uvarint(self.strata),
            varint.encode_uvarint(self.cells_per_stratum),
            varint.encode_uvarint(self.hash_count),
        ]
        parts.extend(table.bank.pack(self._codec) for table in self.tables)
        return b"".join(parts)

    @classmethod
    def deserialize(
        cls, blob: bytes, hasher: KeyedHasher | None = None
    ) -> "StrataEstimator":
        """Rebuild a received summary (``hasher`` must match the sender's)."""
        strata, pos = varint.decode_uvarint(blob, 0)
        cells_per_stratum, pos = varint.decode_uvarint(blob, pos)
        hash_count, pos = varint.decode_uvarint(blob, pos)
        if strata < 2 or hash_count < 2 or cells_per_stratum < hash_count:
            raise ValueError(
                f"strata summary: implausible geometry (strata={strata}, "
                f"cells={cells_per_stratum}, hashes={hash_count})"
            )
        # Validate the declared geometry against the actual byte count
        # BEFORE allocating strata × cells tables: a hostile header must
        # fail in O(1), not after gigabytes of allocation.  Cell stride
        # is fixed by the estimator codec (8 B hash + 3 B checksum +
        # count); tables round their cell count down to a hash_count
        # multiple.
        stride = 8 + 3 + CodedSymbolBank.COUNT_BYTES
        stratum_bytes = (cells_per_stratum // hash_count) * hash_count * stride
        if len(blob) - pos != strata * stratum_bytes:
            raise ValueError(
                f"strata summary: expected {strata * stratum_bytes} cell bytes, "
                f"got {len(blob) - pos}"
            )
        est = cls(strata, cells_per_stratum, hasher, hash_count)
        for table in est.tables:
            chunk = blob[pos : pos + stratum_bytes]
            table.bank = CodedSymbolBank.unpack(chunk, est._codec)
            pos += stratum_bytes
        return est
