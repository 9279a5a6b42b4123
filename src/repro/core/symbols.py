"""Symbol codec: fixed-length byte items, checksums, and mapping seeds.

A *source symbol* is an ℓ-byte string.  Internally the codec stores sums as
Python integers (bitwise XOR is then a single C-level operation regardless
of ℓ), converting back to bytes only for hashing and the wire format.

The codec also owns the keyed checksum hash (§4.3) and builds the
per-symbol :class:`~repro.core.mapping.IndexGenerator`, honouring an
optional :class:`~repro.core.irregular.IrregularConfig` (§8).

Checksum width is configurable (default 8 bytes).  §7.1 notes that 4-byte
checksums reliably reconcile differences in the tens of thousands, shaving
per-cell overhead when items are short; the truncation happens here so the
decoder's purity test and the wire format stay consistent automatically.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Optional, Sequence

from repro import engine
from repro.core.cellbank import check_widths, has_duplicates, lane_count, to_list
from repro.core.cellbank import lanes_from_bytes, numpy_block_eligible, unpack_records
from repro.core.mapping import IndexGenerator
from repro.core.params import CHECKSUM_BYTES, DEFAULT_ALPHA
from repro.hashing.keyed import Blake2bHasher, KeyedHasher

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.core.irregular import IrregularConfig

# Items per join when a batch becomes its row matrix (item_rows).
_JOIN_ITEMS = 8192


class SymbolCodec:
    """Converts ℓ-byte items to the integer/checksum form the codec uses.

    Parameters
    ----------
    symbol_size:
        ℓ, the fixed byte length of every set item.
    hasher:
        Keyed 64-bit hash for checksums; defaults to keyed BLAKE2b
        (SipHash is the interchangeable keyed alternative).
    irregular:
        Optional §8 configuration.  When given, each symbol's subset — and
        hence its mapping parameter α — is chosen by its checksum hash.
    checksum_size:
        Checksum width on the wire and in the purity test, in bytes (1-8).
    """

    __slots__ = (
        "symbol_size",
        "hasher",
        "_hash64",
        "irregular",
        "checksum_size",
        "_checksum_mask",
        "_inv_mask_span",
        "_distinct",
    )

    def __init__(
        self,
        symbol_size: int,
        hasher: Optional[KeyedHasher] = None,
        irregular: "Optional[IrregularConfig]" = None,
        checksum_size: int = CHECKSUM_BYTES,
    ) -> None:
        if symbol_size < 1:
            raise ValueError("symbol_size must be at least 1 byte")
        if not 1 <= checksum_size <= 8:
            raise ValueError("checksum_size must be between 1 and 8 bytes")
        self.symbol_size = symbol_size
        self.hasher = hasher if hasher is not None else Blake2bHasher()
        self._hash64 = self.hasher.hash64
        self.irregular = irregular
        self.checksum_size = checksum_size
        self._checksum_mask = (1 << (8 * checksum_size)) - 1
        self._inv_mask_span = 1.0 / float(1 << (8 * checksum_size))
        self._distinct = None  # a weak ref to the rows distinct_item_rows proved

    # -- byte/int conversions -------------------------------------------

    def to_int(self, data: bytes) -> int:
        """Pack an ℓ-byte item into an integer (little-endian)."""
        if len(data) != self.symbol_size:
            raise ValueError(
                f"item must be exactly {self.symbol_size} bytes, got {len(data)}"
            )
        return int.from_bytes(data, "little")

    def to_int_batch(self, datas: "Sequence[bytes]") -> list[int]:
        """Pack many ℓ-byte items into integers, in order: the batch is
        one column of ℓ-byte records for the record codec.  An item of
        any other length raises the same error as :meth:`to_int`.
        """
        check_widths(datas, self.symbol_size)
        return unpack_records(b"".join(datas), (self.symbol_size,))[0]

    def item_rows(self, items):
        """The batch as ingest carries it, validated (as :meth:`to_int`):
        for symbols on the vector engine's lanes, its ``(n, ℓ)`` uint8 row
        matrix — one join — that hashing, placement and the store columns
        slice (a row matrix passes through); otherwise the item list."""
        size = self.symbol_size
        if hasattr(items, "shape"):
            if items.shape[1:] != (size,):
                raise ValueError(f"items must be exactly {size} bytes wide")
            return items
        items = items if isinstance(items, list) else list(items)
        check_widths(items, size)
        if not items or not numpy_block_eligible(self):
            return items
        np = engine.np
        # joined by slices: one join holds a buffer record (~80 B) per item
        step = _JOIN_ITEMS
        slices = [b"".join(items[i : i + step]) for i in range(0, len(items), step)]
        return np.frombuffer(b"".join(slices), dtype=np.uint8).reshape(-1, size)

    def distinct_item_rows(self, items: list):
        """:meth:`item_rows` of the item list, repeats dropped (first kept).
        A row matrix pays the encoder's first-lane sort (``has_duplicates``)
        once: an encoder of this codec ingesting the very matrix returned
        skips it (:meth:`proven_distinct`).  Only a matrix holding a repeat,
        and the list form, pay ``dict.fromkeys``."""
        rows = self.item_rows(items)
        if isinstance(rows, list):
            return list(dict.fromkeys(rows))
        if has_duplicates(lanes_from_bytes(rows, self.symbol_size)):
            rows = self.item_rows(list(dict.fromkeys(items)))
        if not rows.flags.writeable:  # no repeat can appear in it later
            self._distinct = weakref.ref(rows)
        return rows

    def proven_distinct(self, rows) -> bool:
        """Whether ``rows`` is the read-only matrix :meth:`distinct_item_rows`
        last returned, so free of repeats."""
        return self._distinct is not None and self._distinct() is rows

    def to_bytes(self, value: int) -> bytes:
        """Unpack an integer sum back into ℓ bytes."""
        return value.to_bytes(self.symbol_size, "little")

    # -- hashing ----------------------------------------------------------

    def checksum_data(self, data: bytes) -> int:
        """Keyed checksum of a raw item, truncated to ``checksum_size``."""
        return self._hash64(data) & self._checksum_mask

    def checksum_int(self, value: int) -> int:
        """Keyed checksum of an item given in integer form."""
        data = value.to_bytes(self.symbol_size, "little")
        return self._hash64(data) & self._checksum_mask

    def checksum_batch(self, datas):
        """Keyed checksums of many raw items at once, in order.

        Element-for-element identical to :meth:`checksum_data`; routed
        through the hasher's batch face so SipHash runs its rounds as
        uint64 lane arithmetic (items or :meth:`item_rows`) into a vector.
        """
        batch = getattr(self.hasher, "hash64_batch", None)
        if batch is not None:
            hashes = batch(datas)
        else:  # pre-batch custom hasher: same results, one call at a time
            hash64 = self._hash64
            hashes = [hash64(bytes(data)) for data in datas]
        return self.checksums_from_hash64(hashes)

    def checksums_from_hash64(self, hashes):
        """Checksums from precomputed keyed 64-bit hashes, in order.

        ``checksums_from_hash64([hash64(d) for d in datas])`` is
        element-for-element identical to ``checksum_batch(datas)`` —
        the masking step split out so a caller that already hashed the
        items (e.g. for shard placement) does not hash them again.
        """
        mask = self._checksum_mask
        if hasattr(hashes, "shape"):
            return hashes & engine.np.uint64(mask)
        if mask == 0xFFFFFFFFFFFFFFFF:
            return list(hashes)
        return [h & mask for h in hashes]

    def checksum_int_batch(self, values):
        """Keyed checksums of many integer-form items at once, in order.

        Element-for-element identical to :meth:`checksum_int` — the batch
        face the decoder's peel-round verification rides (one batched
        SipHash call per round instead of one hash call per pure-cell
        candidate).  ``values`` are ints (a list out) or, as a decoder's
        candidate rows, their ``(n, k)`` lane matrix (a vector out), which
        an integer-batch hasher takes as the messages' words, at any width.
        """
        size = self.symbol_size
        lanes = getattr(values, "ndim", 1) == 2
        batch = getattr(self.hasher, "hash64_int_batch", None)
        if batch is not None and (lanes or lane_count(size) == 1):
            hashes = self.checksums_from_hash64(batch(values, size))
        elif lanes:  # an item's bytes lead its lanes
            hashes = self.checksum_batch(values.view(engine.np.uint8)[:, :size])
        else:
            hashes = self.checksum_batch([v.to_bytes(size, "little") for v in values])
        return engine.np.asarray(hashes, "uint64") if lanes else to_list(hashes)

    # -- mapping ----------------------------------------------------------

    def alpha_for(self, checksum: int) -> float:
        """Mapping parameter α of the subset this symbol belongs to (§8)."""
        if self.irregular is None:
            return DEFAULT_ALPHA
        return self.irregular.alpha_for(checksum * self._inv_mask_span)

    def alpha_batch(self, checksums) -> Optional[list[float]]:
        """:meth:`alpha_for` of many checksums, in order — ``None`` for a
        regular codec, every symbol at the default α the kernels inline."""
        if self.irregular is None:
            return None
        return list(map(self.alpha_for, to_list(checksums)))

    def new_mapping(self, checksum: int) -> IndexGenerator:
        """Fresh index generator for the symbol with this checksum hash."""
        return IndexGenerator(checksum, self.alpha_for(checksum))

    # -- equality of configuration ---------------------------------------

    def compatible_with(self, other: "SymbolCodec") -> bool:
        """True when two codecs produce interoperable coded symbols."""
        return (
            self.symbol_size == other.symbol_size
            and type(self.hasher) is type(other.hasher)
            and self.hasher.key == other.hasher.key
            and self.irregular == other.irregular
            and self.checksum_size == other.checksum_size
        )

    def __repr__(self) -> str:
        mode = "irregular" if self.irregular is not None else "regular"
        return (
            f"SymbolCodec(symbol_size={self.symbol_size}, "
            f"hasher={type(self.hasher).__name__}, mode={mode}, "
            f"checksum_size={self.checksum_size})"
        )
