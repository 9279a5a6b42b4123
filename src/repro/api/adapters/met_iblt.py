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

from repro.api.adapters.cellpack import CellTableFace, CodecParams, codec_for
from repro.api.base import SetReconciler
from repro.api.registry import Capabilities, register_scheme
from repro.baselines.met_iblt import DEFAULT_MET_CONFIG, MetConfig, MetIBLT
from repro.baselines.table import CELL_OVERHEAD_BYTES
from repro.core.decoder import DecodeResult


@dataclass(frozen=True)
class MetIbltParams(CodecParams):
    """MET geometry; the default config targets d ∈ {10, 50, ..., 6250}."""

    config: MetConfig = DEFAULT_MET_CONFIG


class MetIbltReconciler(CellTableFace, SetReconciler):
    """One MET-IBLT of one set, decoded at the cheapest block prefix.

    The whole table travels as one sketch (the protocol's SKETCH mode);
    the receiver decodes the smallest preset block prefix that succeeds
    and charges only that prefix to the wire, the rate-compatible
    growth of Lázaro & Matuz.  It is not a stream: its extension points
    are the coarse preset boundaries, not every coded symbol.
    """

    def __init__(self, params: MetIbltParams, table: MetIBLT) -> None:
        super().__init__(params, table)
        self._consumed_cells: Optional[int] = None

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


register_scheme(
    "met_iblt",
    summary="Rate-compatible MET-IBLT, extended in preset block jumps (§2)",
    capabilities=Capabilities(incremental=True),
    param_class=MetIbltParams,
    reconciler_class=MetIbltReconciler,
)
