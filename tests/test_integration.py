"""Cross-module integration: all schemes agree; the §7.3 pipeline holds up."""

import random

import pytest

from repro.baselines.merkle import Trie, state_heal
from repro.baselines.met_iblt import MetIBLT
from repro.baselines.pinsketch import GF2m, PinSketch
from repro.baselines.regular_iblt import RegularIBLT, recommended_cells
from repro.api import reconcile
from repro.core.symbols import SymbolCodec
from repro.ledger import Chain, build_scenario
from repro.ledger.workload import measure_riblt_plan
from repro.net.protocols import simulate_riblt_sync, simulate_state_heal


def test_all_schemes_agree_on_same_workload():
    """Rateless IBLT, regular IBLT, MET-IBLT, and PinSketch must
    recover the identical symmetric difference from one workload."""
    rng = random.Random(2024)
    universe = []
    seen = set()
    while len(universe) < 260:
        v = rng.getrandbits(60) + 1  # nonzero: 0 is not a PinSketch element
        if v not in seen:
            seen.add(v)
            universe.append(v)
    a_vals = set(universe[:240])
    b_vals = set(universe[20:])
    expected_a = a_vals - b_vals
    expected_b = b_vals - a_vals

    codec = SymbolCodec(8)
    to_item = lambda v: v.to_bytes(8, "little")
    a_items = {to_item(v) for v in a_vals}
    b_items = {to_item(v) for v in b_vals}

    # Rateless IBLT
    out = reconcile(a_items, b_items, symbol_size=8)
    assert {int.from_bytes(i, "little") for i in out.only_in_a} == expected_a
    assert {int.from_bytes(i, "little") for i in out.only_in_b} == expected_b

    # Regular IBLT
    m = recommended_cells(40)
    reg = RegularIBLT.from_items(a_items, m, codec).subtract(
        RegularIBLT.from_items(b_items, m, codec)
    )
    result = reg.decode()
    assert result.success
    assert {int.from_bytes(i, "little") for i in result.remote} == expected_a

    # MET-IBLT
    met = MetIBLT.from_items(a_items, codec).subtract(
        MetIBLT.from_items(b_items, codec)
    )
    met_result, _ = met.decode_smallest_prefix()
    assert met_result.success
    assert {int.from_bytes(i, "little") for i in met_result.remote} == expected_a

    # PinSketch
    field = GF2m(64)
    pin = PinSketch.from_items(a_vals, field, 64).subtract(
        PinSketch.from_items(b_vals, field, 64)
    )
    assert set(pin.decode()) == expected_a | expected_b


def ledger_scenario():
    chain = Chain(num_accounts=4000, seed=11, updates_per_block=25, creates_per_block=3)
    chain.advance(12)
    return build_scenario(chain, staleness_blocks=6)


def test_ledger_sync_end_to_end():
    """Full §7.3 pipeline: chain → scenario → riblt sync vs state heal."""
    scenario = ledger_scenario()

    # (1) set reconciliation recovers exactly the account-state difference
    out = reconcile(scenario.alice_items, scenario.bob_items, symbol_size=92)
    assert out.only_in_a == scenario.alice_items - scenario.bob_items
    assert out.only_in_b == scenario.bob_items - scenario.alice_items

    # (2) the trie diff agrees with the set diff on changed addresses
    changed_keys = {item[:20] for item in out.only_in_a | out.only_in_b}
    only_alice, only_bob = scenario.alice_trie.diff_leaves(scenario.bob_trie)
    assert only_alice | only_bob == changed_keys

    # (3) state heal converges Bob to Alice's root
    store = scenario.bob_store.copy()
    report = state_heal(store, scenario.alice_trie)
    healed = Trie(store, scenario.alice_trie.root_hash)
    assert dict(healed.items()) == dict(scenario.alice_trie.items())

    # (4) under equal network conditions riblt finishes faster and the
    # protocols transfer sane byte volumes
    plan = measure_riblt_plan(scenario, calibrated_line_rate_bps=170e6)
    riblt = simulate_riblt_sync(plan, 20e6, 0.05)
    heal = simulate_state_heal(report, 20e6, 0.05)
    assert riblt.completion_time < heal.completion_time
    assert heal.round_trips >= 3
    assert riblt.bytes_down_at_decode >= plan.symbols_needed * 92


@pytest.mark.parametrize(
    "block_symbols, symbols_needed, bytes_per_symbol",
    [(1, 474, 101.01898734177215), (64, 512, 101.017578125)],
)
def test_riblt_plan_numbers_are_pinned(
    block_symbols, symbols_needed, bytes_per_symbol
):
    """measure_riblt_plan drives an in-memory api.Session; the plan it
    measures on the scenario above is pinned, so a change of driver or
    engine that moves a symbol or a byte fails here."""
    scenario = ledger_scenario()
    plan = measure_riblt_plan(
        scenario, calibrated_line_rate_bps=170e6, block_symbols=block_symbols
    )
    assert plan.symbols_needed == symbols_needed
    assert plan.bytes_per_symbol == bytes_per_symbol


def test_riblt_multisource_union():
    """§1: coded symbols are universal — Bob reconciles with two different
    peers off the same locally-built decoder inputs."""
    rng = random.Random(5)
    base = [rng.randbytes(8) for _ in range(150)]
    bob = set(base)
    peer_a = set(base[5:]) | {rng.randbytes(8) for _ in range(5)}
    peer_b = set(base[:-5]) | {rng.randbytes(8) for _ in range(5)}
    for peer in (peer_a, peer_b):
        out = reconcile(peer, bob, symbol_size=8)
        bob |= out.only_in_a
    assert peer_a | peer_b <= bob


def test_estimator_plus_regular_iblt_pipeline():
    """The Fig 7 'Regular IBLT + Estimator' deployment pattern: estimate d,
    provision the table with headroom, reconcile."""
    from repro.baselines.strata import StrataEstimator

    rng = random.Random(31)
    base = [rng.randbytes(32) for _ in range(1200)]
    a = set(base)
    b = set(base[60:]) | {rng.randbytes(32) for _ in range(60)}
    codec = SymbolCodec(32)
    ea = StrataEstimator.from_items(a)
    eb = StrataEstimator.from_items(b)
    estimate = ea.estimate(eb)
    provisioned = recommended_cells(max(1, 2 * estimate))  # 2x headroom
    diff = RegularIBLT.from_items(a, provisioned, codec).subtract(
        RegularIBLT.from_items(b, provisioned, codec)
    )
    result = diff.decode()
    assert result.success
    assert set(result.remote) == a - b
    assert set(result.local) == b - a
