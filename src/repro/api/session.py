"""The scheme-generic reconciliation driver: ``reconcile`` + ``Session``.

One call, any scheme::

    from repro.api import reconcile

    result = reconcile(alice_items, bob_items, scheme="pinsketch")

Since the sans-io engine landed, this module is a *thin wrapper*: both
entry points build a matched :class:`~repro.protocol.InitiatorMachine`
(Bob) / :class:`~repro.protocol.ResponderMachine` (Alice) pair and pump
them entirely in memory (:mod:`repro.protocol.pump`) — the exact same
state machine the simulated-link and TCP transports drive.  Capability
dispatch is unchanged:

* **streaming** — the engine's STREAM mode, lock-step so accounting is
  cell-exact (:class:`Session` exposes ``step()``/``run()`` over it,
  byte-identical on the wire to a bare core encoder → decoder loop);
* **fixed_capacity** — the engine's SKETCH mode: an explicit
  ``difference_bound`` sizes the sketch directly; otherwise the
  strata-estimator exchange (ESTIMATE frame) runs first and is charged
  to the wire.  Undershoot is survived by doubling RETRYs, each charged;
* **one-shot serializable** (MET's rate-compatible prefix) — SKETCH
  mode without retries; the adapter accounts the consumed prefix;
* **unserializable** (Merkle's interactive heal) — stays in-process:
  build both sides, subtract, decode, let the adapter account the bytes.
"""

from __future__ import annotations

from importlib import import_module
from typing import Iterable, Optional, Tuple

from repro.api.base import (
    DEFAULT_MAX_ROUNDS,
    ReconcileError,
    ReconcileResult,
    SetReconciler,
    SymbolBudgetExceeded,
    as_item_list,
)
from repro.api.registry import Scheme, get_scheme


def _engine():
    """The engine's in-memory driver module (:mod:`repro.protocol.pump`),
    imported lazily to keep import cycles at bay."""
    return import_module("repro.protocol.pump")


def sketch_sizing(
    handle: Scheme, difference_bound: Optional[int]
) -> Tuple[int, bool]:
    """``(difference_bound, use_estimator)`` an initiator should open with.

    The policy every in-process transport shares: only fixed-capacity
    schemes size anything; an explicit bound (at least 1) sizes the
    sketch directly, and the strata exchange runs when there is none or
    when the scheme is itself the estimator composition.
    """
    caps = handle.capabilities
    if not caps.fixed_capacity:
        return 0, False
    if difference_bound is None:
        return 0, True
    return max(1, difference_bound), caps.needs_estimator


def result_of(report) -> ReconcileResult:
    """A finished machine's report as the scheme-independent result."""
    return ReconcileResult(
        only_in_a=set(report.only_in_remote),
        only_in_b=set(report.only_in_local),
        bytes_on_wire=report.accounted_bytes,
        symbols_used=report.symbols,
        scheme=report.scheme,
        rounds=report.rounds,
        symbol_size=report.symbol_size,
    )


class Session:
    """One live streaming reconciliation between two in-memory sets.

    A lock-step pump over the engine: ``step()`` moves one coded payload
    Alice → Bob (one ``tick`` of the responder, absorbed immediately),
    ``run()`` iterates until Bob has the whole difference.  Wire bytes
    and symbol counts match a bare core encoder → decoder loop exactly.
    """

    def __init__(
        self,
        alice_items: Iterable[bytes],
        bob_items: Iterable[bytes],
        scheme: str | Scheme = "riblt",
        **params: object,
    ) -> None:
        handle = get_scheme(scheme, **params)
        if not handle.capabilities.streaming:
            raise ValueError(
                f"scheme {handle.name!r} is not streaming; use repro.api.reconcile"
            )
        a = as_item_list(alice_items, handle.params.symbol_size)
        b = as_item_list(bob_items, handle.params.symbol_size)
        handle = handle.bound_to(a, b)
        self._engine = _engine()
        self.scheme = handle.name
        self.handle = handle
        self._initiator = self._engine.InitiatorMachine(handle, b)
        self._responder = self._engine.memory_responder(handle, a)
        self.steps = 0
        # Handshake now (HELLO/WELCOME), so bad parameters surface in the
        # constructor like they always did, and step() is pure data flow.
        self._initiator.start()
        self._responder.start()
        self._move_frames()

    def _move_frames(self) -> None:
        """Move every pending frame between the two machines."""
        self._engine.shuttle(self._initiator, self._responder)
        self._engine.raise_root_cause(self._initiator, self._responder)

    @property
    def decoded(self) -> bool:
        return self._initiator.decoded

    @property
    def bytes_sent(self) -> int:
        """Coded payload bytes Alice has emitted so far (§6 accounting)."""
        return self._initiator.payload_bytes

    def step(self) -> bool:
        """Move one coded payload Alice → Bob; True once decoded."""
        return self.step_block(1)

    def step_block(self, block_size: int) -> bool:
        """Move ``block_size`` coded units in one payload; True once decoded.

        Identical bytes on the wire to ``block_size`` single steps;
        termination is detected at block granularity.
        """
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        if not self.decoded:
            self._responder.block_size = block_size
            before = self._initiator.payload_bytes
            self._responder.tick()
            self.steps += block_size
            self._move_frames()
            if not self.decoded and self._initiator.payload_bytes == before:
                # The tick moved no payload: the responder died silently
                # (e.g. an internal error with no ERROR frame).  Surface
                # the root cause instead of spinning forever.
                self._initiator.peer_closed()
                self._engine.raise_root_cause(self._initiator, self._responder)
        return self.decoded

    def run(
        self, max_symbols: Optional[int] = None, block_size: int = 1
    ) -> ReconcileResult:
        """Stream until decoded (or raise after ``max_symbols`` payloads).

        ``block_size > 1`` moves coded units in batches, riding the
        scheme's block fast path where it has one (up to
        ``block_size − 1`` units of overshoot past the decode point).
        """
        while not self.decoded:
            if max_symbols is not None and self.steps >= max_symbols:
                raise SymbolBudgetExceeded(
                    f"{self.scheme}: no decode within {max_symbols} coded symbols",
                    symbols_sent=self.steps,
                    max_symbols=max_symbols,
                )
            self.step_block(max(1, block_size))
        if self._initiator.report is None:  # closing frames still in flight
            self._move_frames()
        assert self._initiator.report is not None
        return result_of(self._initiator.report)


def one_shot_result(handle: Scheme, diff: SetReconciler) -> ReconcileResult:
    """Decode an in-process difference: the path for schemes that cannot
    be framed (Merkle heal), where ``diff = alice.subtract(bob)``."""
    result = diff.decode()
    if not result.success:
        raise ReconcileError(f"{handle.name}: sketch did not decode")
    return ReconcileResult(
        only_in_a=set(result.remote),
        only_in_b=set(result.local),
        bytes_on_wire=diff.decode_wire_bytes(result),
        symbols_used=result.symbols_used,
        scheme=handle.name,
        symbol_size=handle.params.symbol_size,
    )


def reconcile(
    alice_items: Iterable[bytes],
    bob_items: Iterable[bytes],
    scheme: str = "riblt",
    *,
    difference_bound: Optional[int] = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    max_symbols: Optional[int] = None,
    block_size: int = 1,
    **params: object,
) -> ReconcileResult:
    """Compute A △ B with any registered scheme.

    ``difference_bound`` pre-sizes fixed-capacity schemes (streaming and
    protocol schemes ignore it); without it they fall back to a strata-
    estimator exchange.  An *undershot* bound is normally detected as a
    decode failure and retried with doubled capacity — but detection is
    best-effort: a syndrome sketch provisioned far below the true
    difference can alias to a plausible wrong answer (a known PinSketch
    property), so treat an explicit bound as a promise, not a hint.
    ``max_symbols`` bounds streaming schemes; ``max_rounds`` bounds
    fixed-capacity retries; ``block_size`` batches streaming payloads
    (see :meth:`Session.run`).  Remaining keyword arguments go to the
    scheme's parameter dataclass — see ``get_scheme(name)`` errors for
    each scheme's knobs.

    >>> a = {b"%07d" % i for i in range(50)}
    >>> b = {b"%07d" % i for i in range(2, 52)}
    >>> out = reconcile(a, b, scheme="riblt")
    >>> sorted(out.only_in_a) == [b"0000000", b"0000001"]
    True
    """
    if difference_bound is not None and difference_bound < 0:
        raise ValueError(f"difference_bound must be >= 0, got {difference_bound}")
    handle = get_scheme(scheme, **params)
    a = list(dict.fromkeys(alice_items))
    b = list(dict.fromkeys(bob_items))
    if handle.capabilities.streaming:
        return Session(a, b, handle).run(
            max_symbols=max_symbols, block_size=block_size
        )
    a = as_item_list(a, handle.params.symbol_size)
    b = as_item_list(b, handle.params.symbol_size)
    handle = handle.bound_to(a, b)
    if not handle.capabilities.serializable:
        return one_shot_result(handle, handle.new(a).subtract(handle.new(b)))
    engine = _engine()
    bound, use_estimator = sketch_sizing(handle, difference_bound)
    initiator = engine.InitiatorMachine(
        handle,
        b,
        difference_bound=bound,
        max_rounds=max_rounds if handle.capabilities.fixed_capacity else 1,
        use_estimator=use_estimator,
    )
    responder = engine.memory_responder(handle, a, use_estimator=use_estimator)
    return result_of(engine.pump(initiator, responder))
