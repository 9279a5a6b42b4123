"""The uniform reconciliation interface every scheme adapts to.

One vocabulary for very different algorithms:

* :class:`SetReconciler` — build a sketch from items, optionally mutate
  it (``add``/``remove``), ship it (``serialize``/``wire_size``), combine
  it with the peer's (``subtract``), and recover the symmetric
  difference (``decode`` → :class:`~repro.core.decoder.DecodeResult`).
* :class:`Capabilities` — per-scheme flags the generic driver in
  :mod:`repro.api.session` dispatches on.
* :class:`ReconcileResult` — the scheme-independent outcome record.

Streaming is not part of this interface.  Rateless IBLT, the one scheme
whose coded prefix decodes wherever it is cut (§4), is streamed by
:mod:`repro.protocol.machine` straight from the core encoder and
decoder; behind this interface it is a frozen-prefix sketch like the rest.

Direction convention (matches the rest of the repo): in
``a_rec.subtract(b_rec)``, ``a_rec`` plays Alice (the remote sender —
possibly a deserialized sketch) and ``b_rec`` plays Bob (the local,
*live* receiver, built from his own items).  The decoded ``remote`` list
is then A \\ B and ``local`` is B \\ A.  Schemes whose decoders need the
receiver's full set (PinSketch attribution, Merkle heal) read it
from ``b_rec`` — which is exactly what a real deployment's receiver has.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Set

from repro.core.cellbank import check_widths
from repro.core.decoder import DecodeResult


# Sketches sized from a (noisy) strata estimate get this headroom; the
# retry loop doubles from there if the estimate still undershot.
ESTIMATE_MARGIN = 1.25

# Give-up bound for fixed-capacity (sketch-mode) doubling retries.
DEFAULT_MAX_ROUNDS = 4


class UnsupportedOperation(NotImplementedError):
    """The scheme cannot perform the requested operation (by design)."""


class ReconcileError(RuntimeError):
    """Reconciliation did not complete within the configured budget."""


class SymbolBudgetExceeded(ReconcileError):
    """A streaming reconciliation exhausted ``max_symbols`` undecoded.

    Raised (instead of returning a sentinel) so long-running servers can
    catch exactly this condition and drop a runaway session — a stalled
    peer, a mismatched hash key, or a difference far beyond what the
    budget provisions all surface here.  ``symbols_sent`` records how
    much was spent before giving up.
    """

    def __init__(self, message: str, symbols_sent: int, max_symbols: int) -> None:
        super().__init__(message)
        self.symbols_sent = symbols_sent
        self.max_symbols = max_symbols


@dataclass(frozen=True)
class Capabilities:
    """What a scheme can do; the generic driver dispatches on these."""

    streaming: bool = False
    """Produces an unbounded coded stream; decodes from any prefix."""

    fixed_capacity: bool = False
    """The sketch must be sized for the difference ``d`` in advance."""

    needs_estimator: bool = False
    """Always runs (and is charged for) a difference-size estimator."""

    incremental: bool = False
    """Supports both ``add`` and ``remove`` after construction."""

    serializable: bool = True
    """``serialize``/``deserialize`` round-trip through bytes."""


@dataclass(frozen=True)
class SchemeParams:
    """Base class for per-scheme parameter dataclasses.

    ``symbol_size`` (ℓ, the fixed byte width of every item) is the one
    parameter every scheme shares.  Leave it ``None`` to have the
    registry infer it from the first item at build time.
    """

    symbol_size: Optional[int] = None


@dataclass
class ReconcileResult:
    """Scheme-independent outcome of one full reconciliation.

    ``symbols_used`` counts the scheme's own coded units (coded symbols,
    IBLT cells, syndromes, polynomial evaluations, trie nodes...);
    ``bytes_on_wire`` is the comparable cross-scheme cost.  ``overhead``
    is 0.0 when the sets were already equal.
    """

    only_in_a: Set[bytes]
    only_in_b: Set[bytes]
    bytes_on_wire: int
    symbols_used: int
    scheme: str
    rounds: int = 1
    symbol_size: Optional[int] = None
    """The scheme's configured item width ℓ (``params.symbol_size``).

    Carried so :attr:`byte_overhead` normalises by the *configured*
    width, not by whatever item happens to come out of the recovered
    sets first — probing an arbitrary item would silently misreport the
    Fig 7 metric under mixed-width accounting.
    """

    difference_size: int = field(init=False)

    def __post_init__(self) -> None:
        self.difference_size = len(self.only_in_a) + len(self.only_in_b)

    @property
    def overhead(self) -> float:
        """Coded units spent per recovered difference (0.0 when d = 0)."""
        if self.difference_size == 0:
            return 0.0
        return self.symbols_used / self.difference_size

    @property
    def byte_overhead(self) -> float:
        """Wire bytes per difference byte — the Fig 7 metric (0.0 when d = 0)."""
        if self.difference_size == 0:
            return 0.0
        return self.bytes_on_wire / (self.difference_size * self.symbol_size)


class SetReconciler(ABC):
    """Uniform wrapper around one scheme's sketch of one set.

    Subclasses are constructed through the classmethods ``from_items``
    and ``deserialize`` (the registry binds the right parameter
    dataclass), never directly.
    """

    scheme: str = "?"  # stamped by registry registration
    params: SchemeParams

    # -- construction (adapter contract) ---------------------------------

    @classmethod
    @abstractmethod
    def from_items(
        cls, items: Sequence[bytes], params: SchemeParams
    ) -> "SetReconciler":
        """Build a live sketch of ``items``."""

    @classmethod
    def deserialize(cls, blob: bytes, params: SchemeParams) -> "SetReconciler":
        """Rebuild a received sketch from ``serialize()`` output."""
        raise UnsupportedOperation(f"{cls.__name__} does not deserialize")

    @classmethod
    def params_for_difference(
        cls, params: SchemeParams, difference: int
    ) -> SchemeParams:
        """Parameters sized so a ``difference``-item gap decodes w.h.p.

        Fixed-capacity schemes must override; rateless/rate-compatible
        schemes may return ``params`` unchanged.
        """
        return params

    # -- mutation ---------------------------------------------------------

    def add(self, item: bytes) -> None:
        """Account one new set item in the existing sketch."""
        raise UnsupportedOperation(f"{type(self).__name__} does not support add()")

    def remove(self, item: bytes) -> None:
        """Remove one item from the existing sketch."""
        raise UnsupportedOperation(f"{type(self).__name__} does not support remove()")

    # -- wire -------------------------------------------------------------

    @abstractmethod
    def serialize(self) -> bytes:
        """The sketch as bytes (what Alice would transmit)."""

    @abstractmethod
    def wire_size(self) -> int:
        """Transmitted size in bytes under the paper's §7.1 accounting."""

    # -- reconciliation ---------------------------------------------------

    @abstractmethod
    def subtract(self, other: "SetReconciler") -> "SetReconciler":
        """Difference sketch; ``other`` must be the live local side."""

    @abstractmethod
    def decode(self) -> DecodeResult:
        """Recover the symmetric difference from a subtracted sketch.

        Capacity overflow is reported as ``success=False``, never as an
        exception — the generic driver retries with a larger sketch.
        """

    def decode_wire_bytes(self, result: DecodeResult) -> int:
        """Bytes a deployment shipped to reach this decode.

        Defaults to the full sketch; rate-compatible and interactive
        schemes override (MET counts only the consumed block prefix,
        Merkle heal counts its request/response transcript).
        """
        return self.wire_size()


def as_item_list(items: Iterable[bytes], symbol_size: Optional[int]) -> list[bytes]:
    """Materialise and validate a uniform-width item collection."""
    out = list(items)
    if out:
        check_widths(out, symbol_size if symbol_size is not None else len(out[0]))
    return out
