"""End-to-end reconciliation sessions and the public `reconcile` API."""

import pytest

from repro.api import ReconcileError, Session, SymbolBudgetExceeded, reconcile
from repro.core.symbols import SymbolCodec
from repro.core.wire import SymbolStreamWriter

from helpers import split_sets, stream_reconcile


def test_reconcile_basic(rng):
    a, b = split_sets(rng, shared=200, only_a=10, only_b=10)
    out = reconcile(a, b, symbol_size=8)
    assert out.only_in_a == a - b
    assert out.only_in_b == b - a
    assert out.difference_size == 20
    assert out.symbols_used >= 20
    assert out.overhead == out.symbols_used / 20


def test_reconcile_empty_difference(rng):
    a, _ = split_sets(rng, shared=50, only_a=0, only_b=0)
    out = reconcile(a, a, symbol_size=8)
    assert out.only_in_a == set() and out.only_in_b == set()
    # The HELLO's cell 0 matched the responder's: no coded symbol moves.
    assert out.symbols_used == 0 and out.bytes_on_wire == 0


def test_reconcile_both_empty():
    out = reconcile([], [], symbol_size=8)
    assert out.symbols_used == 0
    assert out.difference_size == 0


def test_bytes_on_wire_accounting(rng):
    a, b = split_sets(rng, shared=100, only_a=5, only_b=5)
    out = reconcile(a, b, symbol_size=8)
    # each cell is ≥ 8 (sum) + 8 (checksum) + 1 (count); plus header
    assert out.bytes_on_wire >= out.symbols_used * 17
    assert out.bytes_on_wire < out.symbols_used * 19 + 32


def test_reconcile_with_siphash(rng):
    a, b = split_sets(rng, shared=64, only_a=3, only_b=3)
    out = reconcile(a, b, symbol_size=8, hasher="siphash")
    assert out.only_in_a == a - b
    assert out.only_in_b == b - a


def test_session_stepwise(rng):
    a, b = split_sets(rng, shared=80, only_a=4, only_b=4)
    session = Session(a, b, "riblt", symbol_size=8)
    steps = 0
    while not session.step():
        steps += 1
        assert steps < 10_000
    assert session.decoded
    assert session.run().only_in_a == a - b


def test_session_max_symbols_raises(rng):
    a, b = split_sets(rng, shared=10, only_a=50, only_b=50)
    session = Session(a, b, "riblt", symbol_size=8)
    with pytest.raises(RuntimeError):
        session.run(max_symbols=3)


def test_reconcile_symbol_size_mismatch_items(rng):
    with pytest.raises(ValueError):
        reconcile([b"toolongforsize8"], [b"x" * 8], symbol_size=8)


def test_overhead_close_to_paper_at_moderate_d(rng):
    """d = 100: average overhead ≈ 1.45 (Fig 5); single run ≤ 2.0 w.h.p."""
    a, b = split_sets(rng, shared=1000, only_a=50, only_b=50)
    out = reconcile(a, b, symbol_size=8)
    assert out.overhead < 2.0


def test_budget_exhaustion_is_typed(rng):
    """max_symbols overrun raises SymbolBudgetExceeded (a RuntimeError
    subclass, so pre-existing handlers still catch it) with spend data."""
    a, b = split_sets(rng, shared=10, only_a=30, only_b=30)
    session = Session(a, b, "riblt", symbol_size=8)
    with pytest.raises(SymbolBudgetExceeded) as excinfo:
        session.run(max_symbols=3)
    assert excinfo.value.max_symbols == 3
    assert excinfo.value.symbols_sent >= 3
    assert isinstance(excinfo.value, RuntimeError)


def test_api_budget_exception_is_one_family(rng):
    """The budget exception is a ReconcileError — one except clause
    covers every failure of a reconciliation."""
    a, b = split_sets(rng, shared=10, only_a=20, only_b=20)
    with pytest.raises(SymbolBudgetExceeded):
        reconcile(a, b, scheme="riblt", symbol_size=8, max_symbols=2)
    with pytest.raises(ReconcileError):
        reconcile(a, b, scheme="riblt", symbol_size=8, max_symbols=2)
    assert issubclass(SymbolBudgetExceeded, ReconcileError)


def test_session_resumes_after_budget_exhausted(rng):
    """A budget overrun leaves the session intact: the same session may
    keep going with a bigger budget."""
    a, b = split_sets(rng, shared=10, only_a=30, only_b=30)
    session = Session(a, b, "riblt", symbol_size=8)
    with pytest.raises(SymbolBudgetExceeded):
        session.run(max_symbols=3)
    out = session.run(max_symbols=5000)
    assert out.only_in_a == a - b
    assert out.only_in_b == b - a


@pytest.mark.parametrize("block_size", [0, -3])
def test_step_block_rejects_non_positive_size(rng, block_size):
    """A rejected block size leaves the session untouched: it still
    decodes through ``run()`` afterwards."""
    a, b = split_sets(rng, shared=40, only_a=3, only_b=3)
    session = Session(a, b, "riblt", symbol_size=8)
    with pytest.raises(ValueError):
        session.step_block(block_size)
    assert session.steps == 0
    out = session.run(max_symbols=500)
    assert out.only_in_a == a - b
    assert out.only_in_b == b - a


@pytest.mark.parametrize(
    "symbol_size, checksum_size",
    [(8, 8), (92, 8), (8, 4)],
    ids=["8B", "92B", "trunc4"],
)
@pytest.mark.parametrize("block_size", [1, 64])
def test_api_session_matches_bare_core_loop(
    lane, rng, symbol_size, checksum_size, block_size
):
    """``Session`` adds framing and machines around the core codec but
    moves the same symbols: its count, its §6 payload bytes and its
    difference equal the bare encoder → decoder loop's."""
    a, b = split_sets(rng, shared=300, only_a=25, only_b=25, size=symbol_size)
    codec = SymbolCodec(symbol_size, checksum_size=checksum_size)
    writer = SymbolStreamWriter(codec, set_size=len(a))
    writer.header()
    core = stream_reconcile(codec, a, b, block_size=block_size, writer=writer)
    session = Session(
        a, b, "riblt", symbol_size=symbol_size, checksum_size=checksum_size
    )
    out = session.run(block_size=block_size)
    assert out.symbols_used == session.steps == core.symbols_received
    assert out.bytes_on_wire == session.bytes_sent == writer.bytes_written
    assert out.only_in_a == set(core.remote_items()) == a - b
    assert out.only_in_b == set(core.local_items()) == b - a
