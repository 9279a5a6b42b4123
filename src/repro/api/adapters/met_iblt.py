"""Adapter: MET-IBLT (rate-compatible multi-edge-type IBLT) [Lázaro & Matuz].

MET is neither streaming (its extension points are coarse preset block
boundaries) nor fixed-capacity (no estimator needed): the receiver
decodes the smallest block prefix that succeeds, and only that prefix is
charged to the wire — ``decode_wire_bytes`` reports the consumed cells,
reproducing the Fig 7 "competitive at preset sizes, 4-10x between them"
behaviour through the uniform interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.api.adapters.cellpack import CellStreamFace, CodecParams, codec_for
from repro.api.base import StreamingReconciler
from repro.api.registry import Capabilities, register_scheme
from repro.baselines.met_iblt import DEFAULT_MET_CONFIG, MetConfig, MetIBLT
from repro.baselines.table import CELL_OVERHEAD_BYTES
from repro.core.cellbank import CodedSymbolBank
from repro.core.decoder import DecodeResult


@dataclass(frozen=True)
class MetIbltParams(CodecParams):
    """MET geometry; the default config targets d ∈ {10, 50, ..., 6250}."""

    config: MetConfig = DEFAULT_MET_CONFIG


class MetIbltReconciler(CellStreamFace, StreamingReconciler):
    """One MET-IBLT of one set, decoded at the cheapest block prefix.

    The :class:`CellStreamFace` streaming face ships cells in index
    order and attempts a decode at every preset block boundary — the
    rate-compatible prefix growth of Lázaro & Matuz as an actual
    stream, usable by the protocol engine.  The registry capability
    stays ``streaming=False``: extension points are the coarse preset
    boundaries and the stream is finite, not rateless.
    """

    def __init__(self, params: MetIbltParams, table: MetIBLT) -> None:
        super().__init__(params, table)
        self._consumed_cells: Optional[int] = None
        self._stream_levels_tried = 0

    @classmethod
    def _empty_table(cls, params: MetIbltParams) -> MetIBLT:
        return MetIBLT(codec_for(params), params.config)

    # -- reconciliation ---------------------------------------------------

    def decode(self) -> DecodeResult:
        result, cells = self._table.decode_smallest_prefix()
        self._consumed_cells = cells
        return result

    def decode_wire_bytes(self, result: DecodeResult) -> int:
        """Only the block prefix actually shipped (rate compatibility)."""
        cells = self._consumed_cells
        if cells is None:
            return self.wire_size()
        return cells * (self._table.codec.symbol_size + CELL_OVERHEAD_BYTES)

    def _try_stream_decode(
        self, diff: CodedSymbolBank, absorbed: int
    ) -> Optional[DecodeResult]:
        config = self._table.config
        result: Optional[DecodeResult] = None
        for level in range(self._stream_levels_tried + 1, config.levels + 1):
            limit = config.cumulative_cells(level)
            if limit > absorbed:
                break
            self._stream_levels_tried = level
            # Cells not received yet are zero: decode(level) reads only
            # the first ``limit`` of them.
            padded = diff.copy()
            padded.extend_zeros(self._table.num_cells - absorbed)
            result = self._table.with_bank(padded).decode(level)
            if result.success:
                self._consumed_cells = limit
                return result
        return result


register_scheme(
    "met_iblt",
    summary="Rate-compatible MET-IBLT, extended in preset block jumps (§2)",
    capabilities=Capabilities(incremental=True),
    param_class=MetIbltParams,
    reconciler_class=MetIbltReconciler,
)
