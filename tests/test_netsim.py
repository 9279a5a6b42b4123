"""Discrete-event simulator and link model invariants."""

import pytest

from repro.net.link import Link, Message
from repro.net.simulator import Simulator
from repro.net.trace import BandwidthTrace


def test_events_fire_in_order():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, lambda: fired.append("late"))
    sim.schedule(1.0, lambda: fired.append("early"))
    sim.schedule(1.0, lambda: fired.append("early2"))
    sim.run()
    assert fired == ["early", "early2", "late"]
    assert sim.now == 2.0


def test_schedule_into_past_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)


def test_cancel():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, lambda: fired.append("x"))
    sim.cancel(event)
    sim.run()
    assert fired == []


def test_run_until():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(3.0, lambda: fired.append(3))
    sim.run(until=2.0)
    assert fired == [1]
    assert sim.now == 2.0
    sim.run()
    assert fired == [1, 3]


def test_nested_scheduling():
    sim = Simulator()
    fired = []

    def first():
        fired.append(sim.now)
        sim.schedule(0.5, lambda: fired.append(sim.now))

    sim.schedule(1.0, first)
    sim.run()
    assert fired == [1.0, 1.5]


def test_link_delivery_time_single_message():
    sim = Simulator()
    link = Link(sim, bandwidth_bps=8e6, delay_s=0.05)  # 1 MB/s
    arrivals = []
    link.send_to_b(1_000_000, "blob", lambda m: arrivals.append(sim.now))
    sim.run()
    # 1 MB at 1 MB/s = 1 s serialisation + 50 ms propagation
    assert arrivals == [pytest.approx(1.05)]


def test_link_fifo_and_serialisation_queue():
    """Back-to-back messages serialise sequentially (bottleneck model)."""
    sim = Simulator()
    link = Link(sim, bandwidth_bps=8e6, delay_s=0.0)
    arrivals = []
    link.send_to_b(500_000, 1, lambda m: arrivals.append((1, sim.now)))
    link.send_to_b(500_000, 2, lambda m: arrivals.append((2, sim.now)))
    sim.run()
    assert arrivals == [(1, pytest.approx(0.5)), (2, pytest.approx(1.0))]


def test_duplex_directions_independent():
    sim = Simulator()
    link = Link(sim, bandwidth_bps=8e6, delay_s=0.0)
    arrivals = []
    link.send_to_b(500_000, "down", lambda m: arrivals.append(("down", sim.now)))
    link.send_to_a(500_000, "up", lambda m: arrivals.append(("up", sim.now)))
    sim.run()
    assert ("down", pytest.approx(0.5)) in arrivals
    assert ("up", pytest.approx(0.5)) in arrivals


def test_infinite_bandwidth_capped():
    sim = Simulator()
    link = Link(sim, bandwidth_bps=float("inf"), delay_s=0.01)
    arrivals = []
    link.send_to_b(10**9, "huge", lambda m: arrivals.append(sim.now))
    sim.run()
    assert arrivals[0] > 0.01  # still strictly positive serialisation


def test_bytes_accounting():
    sim = Simulator()
    link = Link(sim, bandwidth_bps=1e9, delay_s=0.0)
    for _ in range(5):
        link.send_to_b(100, None, lambda m: None)
    sim.run()
    assert link.a_to_b.bytes_sent == 500
    assert link.b_to_a.bytes_sent == 0


def test_message_timestamps():
    sim = Simulator()
    link = Link(sim, bandwidth_bps=8e6, delay_s=0.1)
    seen = []
    link.send_to_b(1000, "m", seen.append)
    sim.run()
    message = seen[0]
    assert isinstance(message, Message)
    assert message.sent_at == 0.0
    assert message.delivered_at == pytest.approx(0.1 + 1000 * 8 / 8e6)


def test_bandwidth_trace_bins():
    trace = BandwidthTrace(bin_seconds=0.5)
    trace.record(0.1, 1000)
    trace.record(0.4, 1000)
    trace.record(0.9, 500)
    series = trace.series()
    assert series[0] == (0.0, pytest.approx(2000 * 8 / 0.5 / 1e6))
    assert series[1] == (0.5, pytest.approx(500 * 8 / 0.5 / 1e6))
    assert trace.total_bytes == 2500


def test_trace_extends_to_until():
    trace = BandwidthTrace(bin_seconds=1.0)
    trace.record(0.5, 100)
    series = trace.series(until_s=3.5)
    assert len(series) == 4
    assert series[-1] == (3.0, 0.0)


def test_trace_rejects_bad_bin():
    with pytest.raises(ValueError):
        BandwidthTrace(bin_seconds=0.0)


@pytest.mark.parametrize(
    "bandwidth_bps, delay_s, message",
    [
        (0.0, 0.05, "bandwidth_bps must be > 0"),
        (20e6, -1.0, "delay_s must be >= 0"),
    ],
)
def test_link_rejects_impossible_parameters(bandwidth_bps, delay_s, message):
    """Zero bandwidth / negative delay fail at construction with a typed
    error, not as a ZeroDivisionError (or past-schedule) on first send."""
    with pytest.raises(ValueError, match=message):
        Link(Simulator(), bandwidth_bps, delay_s)
