"""Closed-loop client harness: one server child, one ``sync()`` at a time.

Load shape: a closed loop with one client and one connection at a time.
The host has two cores, so one runs the server child and one runs this
process (harness + client); more connections would measure the
scheduler, not the program.  Every diff is compared exactly against the
ground truth kept by :mod:`workloads`.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import shutil
import statistics
import struct
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import trace as e2e_trace
from server_child import HEADER, peak_rss_mb
from workloads import NUM_SHARDS, Op, OpStream, Workload

from repro.service.client import sync

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SERVER_CHILD = HERE / "server_child.py"

WARMUP_OPS = 2
"""Untimed ops before the timed list; the first also ends ``setup_s``.
Each syncs the cycle's largest d, so the server's coded-symbol cache has
reached the length the timed ops need, and none is drawn from the
shuffled cycle, so the timed list is whole cycles exactly."""

WINDOWS = 5
"""An untraced run measures its one server in this many windows of equal
time, with a set-up timed before each; every timing metric is the median
over the windows, so a burst of host interference that lands in one or
two of them does not set the result."""

UNTRACED_SHARE = 0.4
"""Share of a traced run's time spent untraced, to measure the overhead."""

CHILD_TIMEOUT_S = 60.0


def pin_cores() -> Optional[int]:
    """Give the client and the server a core each.

    Pins this process (harness + client) to the first CPU it may run on
    and returns the last one for the server child; ``None`` — and no
    pinning — with fewer than two CPUs (the run is then marked invalid).
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(0, {cpus[0]})
    return cpus[-1]


class ServerProcess:
    """The server child and its stdin/stdout control channel."""

    def __init__(
        self, workload: Workload, cpu: Optional[int], trace_out: Optional[Path]
    ) -> None:
        self.data_dir: Optional[str] = None
        argv = [
            sys.executable,
            str(SERVER_CHILD),
            "--item-size",
            str(workload.item_size),
            "--shards",
            str(NUM_SHARDS),
        ]
        if workload.durable:
            OUT_DIR.mkdir(exist_ok=True)
            self.data_dir = tempfile.mkdtemp(prefix="data-", dir=OUT_DIR)
            argv += ["--data-dir", self.data_dir]
        if trace_out is not None:
            argv += ["--trace-out", str(trace_out)]
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        if cpu is not None:
            os.sched_setaffinity(self.proc.pid, {cpu})
        self.port = 0

    def command(self, op: bytes, payload: bytes = b"") -> dict:
        stdin, stdout = self.proc.stdin, self.proc.stdout
        assert stdin is not None and stdout is not None
        stdin.write(HEADER.pack(op, len(payload)) + payload)
        stdin.flush()
        line = stdout.readline()
        if not line:
            raise RuntimeError(
                f"server child exited (code {self.proc.poll()}) during {op!r}"
            )
        return json.loads(line)

    def start(self, items: list[bytes]) -> None:
        self.port = self.command(b"I", b"".join(items))["port"]

    def stats(self) -> dict:
        return self.command(b"S")

    def close(self) -> None:
        """Stop the child and wait for it; kill it if it will not go."""
        proc = self.proc
        try:
            if proc.poll() is None:
                try:
                    self.command(b"Q")
                except (OSError, RuntimeError):
                    pass
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        finally:
            for pipe in (proc.stdin, proc.stdout):
                if pipe is not None:
                    pipe.close()
            if self.data_dir is not None:
                shutil.rmtree(self.data_dir, ignore_errors=True)

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


@dataclass
class Failure:
    op: int
    seed: int
    reason: str


@dataclass
class OpList:
    """What the timed ops of one phase measured."""

    sync_s: list[float] = field(default_factory=list)
    op_s: float = 0.0
    client_cpu_s: float = 0.0
    server_cpu_s: float = 0.0
    payload_bytes: int = 0
    symbols: int = 0
    diff_items: int = 0
    attempted: int = 0
    failures: list[Failure] = field(default_factory=list)
    server_stats: dict = field(default_factory=dict)
    """Delta of the server's counters over the timed list."""
    server_peak_rss_mb: float = 0.0

    @property
    def correct(self) -> int:
        return self.attempted - len(self.failures)


async def _run_op(
    server: ServerProcess,
    op: Op,
    seed: int,
    tally: Optional[OpList],
    tracer: Optional[e2e_trace.Tracer],
) -> Optional[Failure]:
    """Churn, sync, verify.  Only this function's body is timed."""
    timed = tally is not None
    if tracer is not None:
        tracer.op = op.index if timed else -1
        server.command(b"O", struct.pack("<i", tracer.op))
    failure = None
    result = None
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    if op.adds:
        server.command(b"A", b"".join(op.adds))
    if op.removes:
        server.command(b"R", b"".join(op.removes))
    t1 = time.perf_counter()
    try:
        if tracer is not None:
            with tracer.span(e2e_trace.ROOT_SPAN):
                result = await sync("127.0.0.1", server.port, op.client_items)
        else:
            result = await sync("127.0.0.1", server.port, op.client_items)
        if (
            result.only_in_server != op.only_in_server
            or result.only_in_client != op.only_in_client
        ):
            failure = Failure(
                op.index,
                seed,
                f"wrong diff: got {len(result.only_in_server)}/"
                f"{len(result.only_in_client)} only-in-server/client, expected "
                f"{len(op.only_in_server)}/{len(op.only_in_client)}",
            )
    except Exception as exc:  # any raise is a failed op, never a lost run
        failure = Failure(op.index, seed, f"{type(exc).__name__}: {exc}")
    t2 = time.perf_counter()
    cpu1 = time.process_time()
    if tally is not None:
        tally.attempted += 1
        tally.op_s += t2 - t0
        tally.client_cpu_s += cpu1 - cpu0
        if failure is None:
            tally.sync_s.append(t2 - t1)
            tally.payload_bytes += result.bytes_received + result.bytes_sent
            tally.symbols += result.symbols
            tally.diff_items += op.d
        else:
            tally.failures.append(failure)
    return failure


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def end_to_end_metrics(
    windows: list[OpList], setup_s: list[float]
) -> dict[str, float]:
    """Timings are medians over the windows; byte and symbol counts are
    ratios over every op of the run (they do not feel interference, and
    more ops average out more of the seed's luck)."""
    median = statistics.median
    syncs = sum(w.correct for w in windows)
    return {
        "sync_s_p50": median(median(w.sync_s) for w in windows),
        "sync_s_p90": median(percentile(w.sync_s, 0.90) for w in windows),
        "syncs_per_s": median(w.correct / w.op_s for w in windows),
        "client_cpu_s_per_sync": median(w.client_cpu_s / w.correct for w in windows),
        "server_cpu_s_per_sync": median(w.server_cpu_s / w.correct for w in windows),
        "payload_bytes_per_sync": sum(w.payload_bytes for w in windows) / syncs,
        "symbols_per_diff_item": sum(w.symbols for w in windows)
        / sum(w.diff_items for w in windows),
        "setup_s": median(setup_s),
        "client_peak_rss_mb": peak_rss_mb(),
        "server_peak_rss_mb": windows[-1].server_peak_rss_mb,
    }


@dataclass
class RunResult:
    metrics: dict[str, float]
    attempted: int
    failures: list[Failure]
    samples: int


class Harness:
    """One workload, one seed, one server core."""

    def __init__(
        self, workload: Workload, seed: int, server_cpu: Optional[int]
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.server_cpu = server_cpu

    async def _set_up(
        self,
        trace_out: Optional[Path] = None,
        tracer: Optional[e2e_trace.Tracer] = None,
    ) -> tuple[ServerProcess, OpStream, float]:
        """Spawn a server, load it, verify the first warm-up sync.

        Returns the live server, the op stream positioned after that
        sync, and the seconds from spawn to verified result — which
        include the server's lazy warm-bank build.
        """
        # Generating inputs is harness work: done before the clock starts.
        stream = OpStream(self.workload, self.seed)
        initial = list(stream.server)  # before the first op churns it
        first = stream.next_op(max(self.workload.cycle))
        t0 = time.perf_counter()
        server = ServerProcess(self.workload, self.server_cpu, trace_out)
        try:
            server.start(initial)
            failure = await _run_op(server, first, self.seed, None, tracer)
            elapsed = time.perf_counter() - t0
            if failure is not None:
                raise RuntimeError(f"warm-up sync failed: {failure.reason}")
        except BaseException:
            server.close()
            raise
        return server, stream, elapsed

    async def _timed_list(
        self,
        server: ServerProcess,
        stream: OpStream,
        *,
        seconds: float,
        cycles: Optional[int],
        tracer: Optional[e2e_trace.Tracer] = None,
    ) -> tuple[OpList, int]:
        """Whole cycles until ``seconds`` elapsed (or exactly ``cycles``
        when given), after the remaining warm-ups if the stream is new.
        Returns the tally and the number of cycles run."""
        while stream.ops_drawn < WARMUP_OPS:
            warm_up = stream.next_op(max(self.workload.cycle))
            failure = await _run_op(server, warm_up, self.seed, None, tracer)
            if failure is not None:
                raise RuntimeError(f"warm-up sync failed: {failure.reason}")
        tally = OpList()
        before = server.stats()
        deadline = time.perf_counter() + seconds
        done = 0
        while done < cycles if cycles is not None else time.perf_counter() < deadline:
            for _ in self.workload.cycle:
                await _run_op(server, stream.next_op(), self.seed, tally, tracer)
            done += 1
        after = server.stats()
        tally.server_cpu_s = after["cpu_s"] - before["cpu_s"]
        tally.server_peak_rss_mb = after["peak_rss_mb"]
        tally.server_stats = {
            key: after[key] - before[key]
            for key in after
            if key not in ("cpu_s", "peak_rss_mb")
        }
        if not tally.sync_s:
            raise RuntimeError(f"no sync succeeded: {tally.failures[0].reason}")
        return tally, done

    async def run_untraced(
        self,
        seconds: float,
        *,
        cycles: Optional[int] = None,
    ) -> RunResult:
        """The end-to-end run: tracing off everywhere.

        One long-lived server takes the whole op list, measured in
        ``WINDOWS`` slices (one, when ``cycles`` fixes the op list).
        Before every slice but the first a throwaway server is set up
        and closed, so ``setup_s`` is sampled across the run like every
        other timing.
        """
        windows = WINDOWS if cycles is None else 1
        server, stream, elapsed = await self._set_up()
        tallies, setup_s = [], [elapsed]
        with server:
            for window in range(windows):
                if window:
                    throwaway, _, elapsed = await self._set_up()
                    throwaway.close()
                    setup_s.append(elapsed)
                tally, _ = await self._timed_list(
                    server, stream, seconds=seconds / windows, cycles=cycles
                )
                tallies.append(tally)
        return RunResult(
            end_to_end_metrics(tallies, setup_s),
            sum(t.attempted for t in tallies),
            [f for t in tallies for f in t.failures],
            sum(len(t.sync_s) for t in tallies),
        )

    async def run_traced(
        self, seconds: float, *, cycles: Optional[int] = None
    ) -> RunResult:
        """The per-layer run: the same ops untraced, then traced.

        The untraced phase runs for ``UNTRACED_SHARE`` of the time and
        fixes the op count; a fresh traced server then replays exactly
        those ops, so ``trace.overhead_x`` compares like with like.
        """
        server, stream, _ = await self._set_up()
        with server:
            plain, cycles = await self._timed_list(
                server, stream, seconds=seconds * UNTRACED_SHARE, cycles=cycles
            )
        name = self.workload.name
        OUT_DIR.mkdir(exist_ok=True)
        server_trace = OUT_DIR / f"trace-{name}.server.json"
        tracer = e2e_trace.Tracer("client")
        e2e_trace.install(tracer)
        server, stream, _ = await self._set_up(server_trace, tracer)
        with server:
            tally, _ = await self._timed_list(
                server, stream, seconds=0.0, cycles=cycles, tracer=tracer
            )
        server_spans = e2e_trace.load_spans(server_trace)
        server_trace.unlink()
        metrics = e2e_trace.layer_metrics(
            tracer.spans,
            server_spans,
            syncs=tally.correct,
            diff_items=tally.diff_items,
            client_symbols=tally.symbols,
            server_stats=tally.server_stats,
            server_cpu_s=tally.server_cpu_s,
        )
        metrics["trace.overhead_x"] = statistics.median(
            tally.sync_s
        ) / statistics.median(plain.sync_s)
        (OUT_DIR / f"trace-{name}.json").write_text(
            json.dumps(
                {
                    "workload": name,
                    "seed": self.seed,
                    "fields": e2e_trace.SPAN_FIELDS,
                    "client": tracer.spans,
                    "server": server_spans,
                }
            )
        )
        return RunResult(
            metrics,
            tally.attempted + plain.attempted,
            tally.failures + plain.failures,
            len(tally.sync_s),
        )
