"""Edge-path coverage: helpers and corners not hit by the main suites."""

import pytest

from repro.core.decoder import RatelessDecoder
from repro.core.encoder import RatelessEncoder
from repro.net.link import Link
from repro.net.simulator import Simulator

from helpers import make_items, split_sets


def test_add_coded_block_stop_when_decoded_result(codec8, rng):
    a, b = split_sets(rng, shared=60, only_a=3, only_b=3)
    remote = RatelessEncoder(codec8, a).produce_block(200)
    remote.subtract_in_place(RatelessEncoder(codec8, b).produce_block(200))
    decoder = RatelessDecoder(codec8)
    used = decoder.add_coded_block(remote, range(1, 201))
    result = decoder.result()
    assert result.success
    assert result.symbols_used == used < 200
    assert set(result.remote) == a - b


def test_decode_result_overhead_empty():
    """d = 0 reports overhead 0.0 — the convention shared with
    ``ReconcileResult``; the termination symbol stays visible in
    ``symbols_used``."""
    from repro.core.decoder import DecodeResult

    result = DecodeResult(success=True, symbols_used=1)
    assert result.difference_size == 0
    assert result.overhead == 0.0
    assert result.symbols_used == 1


def test_simulator_event_budget():
    sim = Simulator()

    def reschedule():
        sim.schedule(0.001, reschedule)

    sim.schedule(0.0, reschedule)
    with pytest.raises(RuntimeError):
        sim.run(max_events=100)


def test_link_rtt_property():
    sim = Simulator()
    link = Link(sim, 1e6, delay_s=0.05)
    assert link.rtt == pytest.approx(0.1)


def test_measure_riblt_plan_uncalibrated_costs():
    """Without a calibrated line rate the plan carries measured (positive)
    interpreter costs."""
    from repro.ledger import Chain, build_scenario
    from repro.ledger.workload import measure_riblt_plan

    chain = Chain(num_accounts=500, seed=3, updates_per_block=5, creates_per_block=1)
    chain.advance(4)
    scenario = build_scenario(chain, staleness_blocks=2)
    plan = measure_riblt_plan(scenario)
    assert plan.decode_seconds_per_symbol > 0
    assert plan.symbols_needed >= scenario.difference_size
    assert plan.bytes_per_symbol > 92  # item + checksum + count


def test_cli_checksum_size_flag(tmp_path, capsys, rng):
    """4-byte checksums round-trip through the CLI end to end."""
    from repro.cli import main

    items = make_items(rng, 60, 8)
    file_a = tmp_path / "a.bin"
    file_b = tmp_path / "b.bin"
    file_a.write_bytes(b"".join(items))
    file_b.write_bytes(b"".join(items[4:]))
    sketch = tmp_path / "a.sk"
    assert main(["--item-size", "8", "--checksum-size", "4", "sketch",
                 str(file_a), "-o", str(sketch), "--symbols", "32"]) == 0
    assert main(["--item-size", "8", "--checksum-size", "4", "decode",
                 str(sketch), str(file_b)]) == 0
    assert "missing locally : 4" in capsys.readouterr().out


def test_cli_siphash_family(tmp_path, capsys, rng):
    from repro.cli import main

    items = make_items(rng, 40, 8)
    file_a = tmp_path / "a.bin"
    file_a.write_bytes(b"".join(items))
    assert main(["--item-size", "8", "--hasher", "siphash", "reconcile",
                 str(file_a), str(file_a)]) == 0
    assert "difference      : 0" in capsys.readouterr().out


def test_failure_curve_with_irregular_config():
    from repro.analysis.failure import failure_curve
    from repro.core.irregular import PAPER_IRREGULAR

    curve = failure_curve(64, [1.0, 2.0], runs=20, irregular=PAPER_IRREGULAR, seed=6)
    probs = dict(curve.points)
    assert probs[2.0] <= probs[1.0]


def test_chain_hour_staleness_helpers():
    from repro.ledger.chain import BLOCKS_PER_HOUR, Chain

    chain = Chain(num_accounts=200, seed=8, updates_per_block=3, creates_per_block=1)
    chain.advance(BLOCKS_PER_HOUR // 60)  # one minute of blocks
    from repro.ledger import build_scenario

    scenario = build_scenario(chain, chain.head)
    assert scenario.staleness_seconds == 60


def test_trace_empty_series():
    from repro.net.trace import BandwidthTrace

    assert BandwidthTrace().series() == []
    assert BandwidthTrace().total_bytes == 0


def test_met_level_cells_wire_default(codec8):
    from repro.baselines.met_iblt import MetIBLT

    table = MetIBLT(codec8)
    assert table.wire_size() == table.num_cells * (8 + 16)
