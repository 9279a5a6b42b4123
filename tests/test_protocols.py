"""Simulated sync protocols: timing structure of Figs 12-14."""

import pytest

from repro.baselines.merkle.heal import HealReport, HealRound
from repro.net.protocols.heal_sync import simulate_merkle_sync, simulate_state_heal
from repro.net.protocols.riblt_sync import SyncPlan, simulate_riblt_sync


def make_plan(symbols=1000, bytes_per_symbol=100.0, decode_us=1.0):
    return SyncPlan(
        symbols_needed=symbols,
        bytes_per_symbol=bytes_per_symbol,
        decode_seconds_per_symbol=decode_us * 1e-6,
        chunk_symbols=100,
    )


def make_heal_report(rounds=5, nodes_per_round=100, response_bytes=20_000):
    report = HealReport()
    for _ in range(rounds):
        rnd = HealRound(
            requested_hashes=nodes_per_round,
            request_bytes=64 + 32 * nodes_per_round,
            response_bytes=response_bytes,
            nodes_delivered=nodes_per_round,
            leaves_delivered=nodes_per_round // 2,
        )
        report.rounds.append(rnd)
        report.nodes_fetched += rnd.nodes_delivered
        report.leaves_fetched += rnd.leaves_delivered
        report.bytes_up += rnd.request_bytes
        report.bytes_down += rnd.response_bytes
    return report


def test_riblt_completion_at_least_one_rtt():
    """Request (0.5 RTT) + first data (0.5 RTT): nothing beats 1 RTT."""
    out = simulate_riblt_sync(make_plan(symbols=10), 100e6, delay_s=0.05)
    assert out.completion_time >= 0.1


def test_riblt_throughput_bound():
    """Large transfers take ≈ bytes/bandwidth extra."""
    plan = make_plan(symbols=100_000, bytes_per_symbol=100.0)
    out = simulate_riblt_sync(plan, 20e6, delay_s=0.05)
    serialisation = 100_000 * 100 * 8 / 20e6
    assert out.completion_time == pytest.approx(0.1 + serialisation, rel=0.1)


def test_riblt_scales_with_bandwidth():
    plan = make_plan(symbols=50_000)
    slow = simulate_riblt_sync(plan, 10e6, delay_s=0.05)
    fast = simulate_riblt_sync(plan, 100e6, delay_s=0.05)
    assert fast.completion_time < slow.completion_time / 3


def test_riblt_overshoot_bounded():
    """Alice overshoots by ≈ 1 RTT of line rate, no more (stop works)."""
    plan = make_plan(symbols=10_000)
    out = simulate_riblt_sync(plan, 20e6, delay_s=0.05)
    overshoot = out.bytes_down_total - out.bytes_down_at_decode
    line_rate_rtt = 20e6 / 8 * 0.1
    assert overshoot <= 2.5 * line_rate_rtt + 10_000


def test_riblt_compute_bound_when_decode_slow():
    """With a slow decoder, extra bandwidth stops helping (the inverse of
    Fig 14's plateau, applied to riblt)."""
    plan = make_plan(symbols=50_000, decode_us=50.0)
    medium = simulate_riblt_sync(plan, 100e6, delay_s=0.05)
    fast = simulate_riblt_sync(plan, 1000e6, delay_s=0.05)
    assert fast.completion_time > 0.9 * medium.completion_time


def test_riblt_trace_records_bytes():
    plan = make_plan(symbols=5_000)
    out = simulate_riblt_sync(plan, 20e6, delay_s=0.05)
    assert out.trace.total_bytes == out.bytes_down_total


def test_riblt_rejects_empty_plan():
    with pytest.raises(ValueError):
        simulate_riblt_sync(make_plan(symbols=0), 20e6, 0.05)


def test_heal_lock_step_rounds():
    """Completion ≥ rounds × RTT: the lock-step descent cost."""
    report = make_heal_report(rounds=11, response_bytes=1000)
    out = simulate_state_heal(report, 1e9, delay_s=0.05)
    assert out.completion_time >= 11 * 0.1
    assert out.round_trips == 11


def test_heal_compute_plateau():
    """Beyond some bandwidth the per-node CPU dominates: Fig 14."""
    report = make_heal_report(rounds=8, nodes_per_round=5000, response_bytes=1_500_000)
    t20 = simulate_state_heal(report, 20e6, 0.05, node_process_seconds=8e-5)
    t100 = simulate_state_heal(report, 100e6, 0.05, node_process_seconds=8e-5)
    t_inf = simulate_state_heal(report, float("inf"), 0.05, node_process_seconds=8e-5)
    assert t100.completion_time < t20.completion_time
    compute_floor = 8 * 5000 * 8e-5
    assert t_inf.completion_time >= compute_floor
    # the plateau: 100 Mbps → ∞ saves little
    assert t_inf.completion_time > 0.65 * t100.completion_time


def test_heal_bytes_accounting():
    report = make_heal_report()
    out = simulate_state_heal(report, 20e6, 0.05)
    assert out.bytes_down == report.bytes_down
    assert out.bytes_up == report.bytes_up
    assert out.nodes_fetched == report.nodes_fetched


def test_heal_empty_report():
    out = simulate_state_heal(HealReport(), 20e6, 0.05)
    assert out.completion_time == 0.0
    assert out.round_trips == 0


def test_riblt_beats_heal_on_latency_small_diff():
    """Fig 13: half a round of interactivity vs ≥11 lock-step rounds."""
    plan = make_plan(symbols=200, bytes_per_symbol=100.0)
    riblt = simulate_riblt_sync(plan, 20e6, 0.05)
    heal = simulate_state_heal(
        make_heal_report(rounds=11, response_bytes=2_000), 20e6, 0.05
    )
    assert riblt.completion_time < heal.completion_time / 3


def test_merkle_sync_is_the_state_heal_replay_of_its_own_transcript():
    """simulate_merkle_sync adds nothing to the timing model: same
    transcript in, same completion time / bytes / rounds out."""
    from repro.api import get_scheme

    a = [b"%08d" % i for i in range(400)]
    b = [b"%08d" % i for i in range(25, 425)]
    out = simulate_merkle_sync(
        a, b, bandwidth_bps=20e6, delay_s=0.05, symbol_size=8
    )
    assert out.result.only_in_a == set(a) - set(b)
    assert out.result.only_in_b == set(b) - set(a)

    handle = get_scheme("merkle", symbol_size=8)
    diff = handle.new(a).subtract(handle.new(b))
    diff.decode()
    heal = simulate_state_heal(diff.heal_report, 20e6, 0.05)
    assert out.completion_time == heal.completion_time
    assert out.bytes_down == heal.bytes_down
    assert out.bytes_up == heal.bytes_up
    assert out.rounds == heal.round_trips >= 2
