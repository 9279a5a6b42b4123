"""The acceptance suite for ``repro.api``: every registered scheme must
pass the *same* calls on the *same* fixtures.

Items are 7 bytes — a width every scheme can represent exactly
(PinSketch's largest built-in field is GF(2^64)) — and never all-zero
(0 is not a PinSketch field element).
"""

from __future__ import annotations

import random

import pytest

from repro.api import (
    ReconcileError,
    Session,
    UnsupportedOperation,
    available_schemes,
    get_scheme,
    reconcile,
    scheme_info,
)

ITEM = 7

ALL_SCHEMES = available_schemes()
STREAMING = [s for s in ALL_SCHEMES if scheme_info(s).capabilities.streaming]
FIXED = [s for s in ALL_SCHEMES if scheme_info(s).capabilities.fixed_capacity]
SERIALIZABLE = [s for s in ALL_SCHEMES if scheme_info(s).capabilities.serializable]
INCREMENTAL = [s for s in ALL_SCHEMES if scheme_info(s).capabilities.incremental]

# name -> (shared, only_a, only_b): the ISSUE's five shared workloads.
FIXTURES: dict[str, tuple[int, int, int]] = {
    "identical": (120, 0, 0),
    "empty": (0, 0, 0),
    "one_diff": (120, 1, 0),
    "disjoint": (0, 25, 25),
    "hundred_diff": (150, 50, 50),
}


def _items(rng: random.Random, count: int) -> list[bytes]:
    out: set[bytes] = set()
    while len(out) < count:
        item = rng.randbytes(ITEM)
        if item != bytes(ITEM):
            out.add(item)
    return sorted(out)


def sets_for(fixture: str) -> tuple[set[bytes], set[bytes]]:
    shared, only_a, only_b = FIXTURES[fixture]
    rng = random.Random(0xAB1DE + len(fixture) * 1009 + shared + only_a)
    pool = _items(rng, shared + only_a + only_b)
    common = set(pool[:shared])
    a = common | set(pool[shared : shared + only_a])
    b = common | set(pool[shared + only_a :])
    return a, b


# --- the uniform round-trip: identical call, every scheme, every fixture ----


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_uniform_reconcile(scheme: str, fixture: str) -> None:
    a, b = sets_for(fixture)
    d = len(a ^ b)
    result = reconcile(a, b, scheme=scheme, symbol_size=ITEM, difference_bound=d)
    assert result.scheme == scheme
    assert result.only_in_a == a - b
    assert result.only_in_b == b - a
    assert result.difference_size == d
    assert result.bytes_on_wire >= 0
    if d == 0:
        assert result.overhead == 0.0
    else:
        assert result.overhead > 0.0
        assert result.bytes_on_wire > 0


@pytest.mark.parametrize("scheme", FIXED)
def test_estimator_fallback_sizes_fixed_schemes(scheme: str) -> None:
    """No difference_bound: a strata exchange sizes the sketch (±retries)."""
    a, b = sets_for("one_diff")
    result = reconcile(a, b, scheme=scheme, symbol_size=ITEM)
    assert result.only_in_a == a - b and result.only_in_b == b - a
    # The ~15 KB estimator surcharge is charged to the wire.
    assert result.bytes_on_wire > 15_000
    assert result.rounds >= 2


# --- serialize/deserialize round-trips --------------------------------------


@pytest.mark.parametrize("scheme", SERIALIZABLE)
def test_serialize_roundtrip(scheme: str) -> None:
    a, b = sets_for("one_diff")
    d = len(a ^ b)
    handle = get_scheme(scheme, symbol_size=ITEM).sized_for(d)
    blob = handle.new(a).serialize()
    assert isinstance(blob, bytes) and blob
    rebuilt = handle.deserialize(blob)
    result = rebuilt.subtract(handle.new(b)).decode()
    assert result.success
    assert set(result.remote) == a - b
    assert set(result.local) == b - a


@pytest.mark.parametrize("scheme", ["regular_iblt", "met_iblt"])
def test_table_adapters_batch_build_equals_per_item_adds(scheme: str) -> None:
    """``from_items`` rides the table's batch build; the cells are the
    ones item-by-item ``add`` calls produce."""
    a, _ = sets_for("hundred_diff")
    handle = get_scheme(scheme, symbol_size=ITEM).sized_for(40)
    built = handle.new(sorted(a))
    grown = handle.new([])
    for item in sorted(a):
        grown.add(item)
    assert built._table.bank == grown._table.bank
    assert built.serialize() == grown.serialize()


@pytest.mark.parametrize("scheme", sorted(set(ALL_SCHEMES) - set(SERIALIZABLE)))
def test_unserializable_schemes_say_so(scheme: str) -> None:
    a, _ = sets_for("one_diff")
    with pytest.raises(UnsupportedOperation):
        get_scheme(scheme, symbol_size=ITEM).new(a).serialize()


# --- incremental mutation through the uniform interface ---------------------


@pytest.mark.parametrize("scheme", INCREMENTAL)
def test_add_remove_then_reconcile(scheme: str) -> None:
    a, b = sets_for("one_diff")
    d_bound = len(a ^ b) + 2
    handle = get_scheme(scheme, symbol_size=ITEM).sized_for(d_bound)
    alice = handle.new(a)
    bob = handle.new(b)
    moved = next(iter(a - b))
    extra = bytes([7] * ITEM)
    alice.remove(moved)
    alice.add(extra)
    result = alice.subtract(bob).decode()
    assert result.success
    assert set(result.remote) == ((a - {moved}) | {extra}) - b
    assert set(result.local) == b - ((a - {moved}) | {extra})


# --- streaming extension ----------------------------------------------------


@pytest.mark.parametrize("scheme", STREAMING)
def test_streaming_session_step_by_step(scheme: str) -> None:
    a, b = sets_for("disjoint")
    session = Session(a, b, scheme, symbol_size=ITEM)
    steps = 0
    while not session.step():
        steps += 1
        assert steps < 10_000
    result = session.run()
    assert result.only_in_a == a - b
    assert result.only_in_b == b - a
    assert result.bytes_on_wire == session.bytes_sent


def test_streaming_budget_raises() -> None:
    a, b = sets_for("hundred_diff")
    with pytest.raises(ReconcileError):
        reconcile(a, b, scheme="riblt", symbol_size=ITEM, max_symbols=3)


def test_session_rejects_non_streaming_schemes() -> None:
    with pytest.raises(ValueError):
        Session([], [], "regular_iblt", symbol_size=ITEM)


# --- registry behaviour -----------------------------------------------------


def test_registry_is_the_papers_comparison() -> None:
    """The registry holds Rateless IBLT and exactly the baselines the
    paper measures it against (Figs 7–9 and 12–14) — no more, no fewer."""
    assert available_schemes() == [
        "merkle",
        "met_iblt",
        "pinsketch",
        "regular_iblt",
        "regular_iblt+strata",
        "riblt",
    ]


def test_unknown_scheme_is_a_helpful_keyerror() -> None:
    with pytest.raises(KeyError, match="riblt"):
        get_scheme("no-such-scheme")


def test_unknown_parameter_is_a_helpful_typeerror() -> None:
    with pytest.raises(TypeError, match="accepted parameters"):
        get_scheme("riblt", bogus_knob=3)


def test_capability_flags_match_reality() -> None:
    assert scheme_info("riblt").capabilities.streaming
    assert scheme_info("regular_iblt").capabilities.fixed_capacity
    assert scheme_info("regular_iblt+strata").capabilities.needs_estimator
    assert not scheme_info("merkle").capabilities.serializable
    assert not scheme_info("met_iblt").capabilities.fixed_capacity


def test_symbol_size_inferred_from_items() -> None:
    a, b = sets_for("one_diff")
    result = reconcile(a, b, scheme="riblt")  # no symbol_size given
    assert result.only_in_a == a - b


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_result_carries_the_inferred_width(scheme: str) -> None:
    """Every result reports the item width it was reconciled at, the
    one-shot (Merkle) path included, so ``byte_overhead`` normalises by
    the configured width instead of probing a recovered item."""
    a, b = sets_for("one_diff")
    result = reconcile(a, b, scheme=scheme, difference_bound=1)  # width inferred
    assert result.symbol_size == ITEM
    assert 0.0 < result.byte_overhead < float("inf")
    assert result.byte_overhead == result.bytes_on_wire / ITEM


def test_empty_build_needs_explicit_symbol_size() -> None:
    with pytest.raises(ValueError, match="symbol_size"):
        get_scheme("riblt").new([])


def test_mixed_item_widths_rejected() -> None:
    with pytest.raises(ValueError, match="bytes"):
        reconcile([b"1234567", b"123"], [], scheme="riblt")


# --- scheme-specific representation limits, surfaced uniformly --------------


def test_pinsketch_rejects_zero_item() -> None:
    with pytest.raises(ValueError, match="zero"):
        reconcile(
            [bytes(ITEM)], [], scheme="pinsketch", symbol_size=ITEM,
            difference_bound=1,
        )


def test_negative_difference_bound_rejected() -> None:
    """A clamped negative bound once let PinSketch alias to a wrong
    answer; nonsensical bounds must be refused outright (regression)."""
    a, b = sets_for("one_diff")
    with pytest.raises(ValueError, match="difference_bound"):
        reconcile(a, b, scheme="pinsketch", symbol_size=ITEM, difference_bound=-3)


@pytest.mark.parametrize("scheme", ["pinsketch"])
def test_attribution_survives_post_subtract_mutation(scheme: str) -> None:
    """subtract() must snapshot the receiver's set, not alias it
    (regression)."""
    a, b = sets_for("one_diff")
    handle = get_scheme(scheme, symbol_size=ITEM).sized_for(8)
    alice, bob = handle.new(a), handle.new(b)
    diff = alice.subtract(bob)
    moved = next(iter(a - b))
    bob.add(moved)  # receiver learns the item out of band, post-subtract
    result = diff.decode()
    assert result.success
    assert moved in set(result.remote)


def test_fixed_capacity_overflow_retries_then_succeeds() -> None:
    """An undershot bound is survived by doubling, with each round charged."""
    a, b = sets_for("disjoint")  # d = 50
    result = reconcile(
        a, b, scheme="pinsketch", symbol_size=ITEM, difference_bound=10
    )
    assert result.only_in_a == a - b
    assert result.rounds >= 2
