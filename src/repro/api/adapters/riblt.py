"""Adapter: the paper's Rateless IBLT (repro.core) behind ``SetReconciler``.

This is the sketch face (``serialize``/``subtract``/``decode``): it
freezes a coded-symbol prefix — either explicitly sized via
``prefix_symbols`` / ``Scheme.sized_for`` or the conservative default —
which is how a rateless stream is used in datagram settings, with §6
framing so byte accounting is what a stream writer emits for the same
cells.  The stream itself is no adapter's business: STREAM mode in
:mod:`repro.protocol.machine` drives the core encoder and decoder
directly on both ends.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.api.adapters.cellpack import CodecParams, codec_for
from repro.api.base import SetReconciler, UnsupportedOperation
from repro.api.registry import Capabilities, register_scheme
from repro.core.decoder import DecodeResult
from repro.core.encoder import RatelessEncoder
from repro.core.sketch import RatelessSketch
from repro.core.symbols import SymbolCodec
from repro.core.wire import decode_stream, encode_stream

# Sketch-mode prefix when nobody sized the sketch: enough for ~20
# differences at the paper's 1.35-1.72 overhead, with tail margin.
DEFAULT_PREFIX_SYMBOLS = 64


@dataclass(frozen=True)
class RibltParams(CodecParams):
    """Knobs of the rateless codec (see ``repro.core``)."""

    prefix_symbols: Optional[int] = None  # sketch-mode prefix length


class RibltReconciler(SetReconciler):
    """Rateless IBLT over one set, as a frozen coded-prefix sketch."""

    def __init__(self, params: RibltParams, codec: SymbolCodec) -> None:
        self.params = params
        self.codec = codec
        self._encoder: Optional[RatelessEncoder] = None  # live mode
        self._sketch: Optional[RatelessSketch] = None  # received/diff mode
        # diff mode: Alice's original sketch, for consumed-prefix accounting
        self._source: Optional[RatelessSketch] = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_items(
        cls, items: Sequence[bytes], params: RibltParams
    ) -> "RibltReconciler":
        codec = codec_for(params)
        rec = cls(params, codec)
        rec._encoder = RatelessEncoder(codec, items)
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
