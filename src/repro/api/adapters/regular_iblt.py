"""Adapters: regular (fixed-size) IBLT, bare and strata-composed.

Two registry entries share the :class:`RegularIbltReconciler` class:

``regular_iblt``
    The bare fixed-capacity table.  Callers must size it — pass
    ``num_cells`` or a ``difference_bound`` to the generic driver.
``regular_iblt+strata``
    The deployable composition Fig 7 labels "Regular IBLT + Estimator":
    a ~15 KB strata-estimator exchange sizes the table, and the generic
    driver charges that surcharge to the wire total.  Capability flag
    ``needs_estimator`` is what triggers the composition — the adapter
    itself stays estimator-free.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.api.adapters.cellpack import CellTableFace, CodecParams, codec_for
from repro.api.base import SetReconciler
from repro.api.registry import Capabilities, register_scheme
from repro.baselines.regular_iblt import RegularIBLT, recommended_cells
from repro.core.decoder import DecodeResult


@dataclass(frozen=True)
class RegularIbltParams(CodecParams):
    """Geometry of the fixed table (``num_cells`` may come from sizing)."""

    num_cells: Optional[int] = None
    hash_count: int = 3


class RegularIbltReconciler(CellTableFace, SetReconciler):
    """One fixed-geometry IBLT of one set.

    The whole table travels as one sketch (the protocol's SKETCH mode,
    doubled on a failed decode): a prefix of a fixed table is *not*
    decodable, so it never streams.
    """

    @classmethod
    def _empty_table(cls, params: RegularIbltParams) -> RegularIBLT:
        if params.num_cells is None:
            raise ValueError(
                "regular_iblt is fixed-capacity: pass num_cells, or a "
                "difference_bound / the regular_iblt+strata scheme to have "
                "it sized for you"
            )
        return RegularIBLT(params.num_cells, codec_for(params), params.hash_count)

    @classmethod
    def params_for_difference(
        cls, params: RegularIbltParams, difference: int
    ) -> RegularIbltParams:
        cells = recommended_cells(max(1, difference), params.hash_count)
        return replace(params, num_cells=cells)

    # -- reconciliation ---------------------------------------------------

    def decode(self) -> DecodeResult:
        return self._table.decode()


register_scheme(
    "regular_iblt",
    summary="Fixed-size IBLT, provisioned for a known difference (§3)",
    capabilities=Capabilities(fixed_capacity=True, incremental=True),
    param_class=RegularIbltParams,
    reconciler_class=RegularIbltReconciler,
)


class EstimatedRegularIbltReconciler(RegularIbltReconciler):
    """Same table; distinct class so the registry can stamp its name."""


register_scheme(
    "regular_iblt+strata",
    summary="Regular IBLT sized by a strata-estimator exchange (Fig 7)",
    capabilities=Capabilities(
        fixed_capacity=True, needs_estimator=True, incremental=True
    ),
    param_class=RegularIbltParams,
    reconciler_class=EstimatedRegularIbltReconciler,
)
