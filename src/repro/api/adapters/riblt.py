"""Adapter: the paper's Rateless IBLT (repro.core) behind ``SetReconciler``.

The streaming face (``produce_next``/``absorb``) wraps the incremental
encoder/decoder pair with §6 wire framing, so byte accounting is what a
§6 stream writer emits for the same cells.  The sketch face
(``serialize``/``subtract``/``decode``) freezes a coded-symbol prefix —
either explicitly sized via ``prefix_symbols`` / ``Scheme.sized_for`` or
the conservative default — which is how a rateless stream is used in
datagram settings.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.api.adapters.cellpack import CodecParams, codec_for
from repro.api.base import StreamingReconciler, UnsupportedOperation
from repro.api.registry import Capabilities, register_scheme
from repro.core.decoder import DecodeResult, RatelessDecoder, ingest
from repro.core.encoder import RatelessEncoder
from repro.core.sketch import RatelessSketch
from repro.core.symbols import SymbolCodec
from repro.core.wire import (
    SymbolStreamReader,
    SymbolStreamWriter,
    decode_stream,
    encode_stream,
)

# Sketch-mode prefix when nobody sized the sketch: enough for ~20
# differences at the paper's 1.35-1.72 overhead, with tail margin.
DEFAULT_PREFIX_SYMBOLS = 64


@dataclass(frozen=True)
class RibltParams(CodecParams):
    """Knobs of the rateless codec (see ``repro.core``)."""

    prefix_symbols: Optional[int] = None  # sketch-mode prefix length


class RibltReconciler(StreamingReconciler):
    """Rateless IBLT over one set: stream it, or freeze a prefix sketch."""

    accepts_item_hashes = True

    def __init__(self, params: RibltParams, codec: SymbolCodec) -> None:
        self.params = params
        self.codec = codec
        self._encoder: Optional[RatelessEncoder] = None  # live mode
        self._sketch: Optional[RatelessSketch] = None  # received/diff mode
        # streaming state, created lazily.  Sending and receiving index
        # the *same* cached universal stream independently, so one
        # reconciler can do both at once (full-duplex peer-to-peer).
        self._writer: Optional[SymbolStreamWriter] = None
        self._reader: Optional[SymbolStreamReader] = None
        self._decoder: Optional[RatelessDecoder] = None
        self._absorbed = 0
        self._wire_index = 0
        # diff mode: Alice's original sketch, for consumed-prefix accounting
        self._source: Optional[RatelessSketch] = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_items(
        cls,
        items: Sequence[bytes],
        params: RibltParams,
        *,
        item_hashes: Optional[Sequence[int]] = None,
    ) -> "RibltReconciler":
        codec = codec_for(params)
        rec = cls(params, codec)
        rec._encoder = RatelessEncoder(codec, items, item_hashes=item_hashes)
        return rec

    @classmethod
    def deserialize(cls, blob: bytes, params: RibltParams) -> "RibltReconciler":
        codec = codec_for(params)
        rec = cls(params, codec)
        rec._sketch = RatelessSketch(codec, *decode_stream(codec, blob))
        return rec

    @classmethod
    def params_for_difference(cls, params: RibltParams, difference: int) -> RibltParams:
        # Paper overhead tops out well under 2.2x for any d; the +16
        # constant covers the heavy small-d tail (Fig 6).
        prefix = max(8, (difference * 11 + 4) // 5 + 16)
        return replace(params, prefix_symbols=prefix)

    # -- mutation ---------------------------------------------------------

    def add(self, item: bytes) -> None:
        self._require_live().add_item(item)

    def remove(self, item: bytes) -> None:
        self._require_live().remove_item(item)

    def _require_live(self) -> RatelessEncoder:
        if self._encoder is None:
            raise UnsupportedOperation(
                "this RibltReconciler wraps a received sketch, not a live set"
            )
        return self._encoder

    # -- streaming face ----------------------------------------------------

    def produce_block(self, block_size: int) -> bytes:
        """The next ``block_size`` §6-framed coded symbols in one payload
        (the stream header precedes the first).

        Byte-identical however the stream is cut into blocks — the
        framing is per cell.  ``block_size`` must be at least 1.
        """
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        encoder = self._require_live()
        if self._writer is None:
            self._writer = SymbolStreamWriter(self.codec, set_size=encoder.set_size)
            head = self._writer.header()
        else:
            head = b""
        lo = self._wire_index
        self._wire_index += block_size
        block = encoder.cached_block(lo, lo + block_size)
        return head + self._writer.write_block(block)

    def absorb(self, payload: bytes) -> bool:
        """Subtract our matching cells from the peer's stream and peel."""
        (result,) = self.absorb_many([(self, payload)])
        if isinstance(result, ValueError):
            raise result
        return result

    @classmethod
    def absorb_many(cls, pairs) -> list:
        """Each pair subtracts its own ``cached_block``; then every decoder
        peels in one :func:`~repro.core.decoder.ingest` wave."""
        decoders, jobs = [], []
        for rec, payload in pairs:
            encoder = rec._require_live()
            if rec._reader is None:
                rec._reader = SymbolStreamReader(rec.codec)
                rec._decoder = RatelessDecoder(rec.codec)
            # the cached prefix's form, so the subtraction is one XOR per lane
            incoming = encoder.bank.slice(0, 0)
            try:
                parsed = rec._reader.feed_into(incoming, payload)
            except ValueError as exc:
                ingest(jobs)
                return [d.decoded for d in decoders] + [exc]
            if parsed:
                lo = rec._absorbed
                rec._absorbed += parsed
                incoming.subtract_in_place(encoder.cached_block(lo, lo + parsed))
                jobs.append((rec._decoder, incoming))
            decoders.append(rec._decoder)
        ingest(jobs)
        return [d.decoded for d in decoders]

    @property
    def symbols_absorbed(self) -> int:
        return self._absorbed

    @property
    def decoded(self) -> bool:
        return self._decoder is not None and self._decoder.decoded

    def stream_result(self) -> DecodeResult:
        if self._decoder is None:
            return DecodeResult(success=False)
        return self._decoder.result()

    # -- sketch face -------------------------------------------------------

    def _frozen(self, length: Optional[int] = None) -> RatelessSketch:
        """The received sketch, or the live set's first ``length`` symbols."""
        if self._sketch is not None:
            return self._sketch if length is None else self._sketch.truncated(length)
        encoder = self._require_live()
        if length is None:
            length = self.params.prefix_symbols or DEFAULT_PREFIX_SYMBOLS
        return RatelessSketch(
            self.codec, encoder.cached_block(0, length), encoder.set_size
        )

    def serialize(self) -> bytes:
        sketch = self._frozen()
        return encode_stream(self.codec, sketch.set_size, sketch.bank)

    def wire_size(self) -> int:
        return len(self.serialize())

    def subtract(self, other: "RibltReconciler") -> "RibltReconciler":
        mine = self._frozen()
        diff = RibltReconciler(self.params, self.codec)
        diff._sketch = mine.subtract(other._frozen(len(mine)))
        diff._source = mine
        return diff

    def decode(self) -> DecodeResult:
        assert self._sketch is not None, "decode() applies to a subtracted sketch"
        return self._sketch.decode()

    def decode_wire_bytes(self, result: DecodeResult) -> int:
        """Bytes of the consumed coded-symbol prefix (§6 framing)."""
        source = self._source
        if source is None:
            return self.wire_size()
        used = result.symbols_used or len(source)
        return len(
            encode_stream(self.codec, source.set_size, source.bank.slice(0, used))
        )


register_scheme(
    "riblt",
    summary="Rateless IBLT coded-symbol stream (this paper, §4-§6)",
    capabilities=Capabilities(streaming=True, incremental=True),
    param_class=RibltParams,
    reconciler_class=RibltReconciler,
)
