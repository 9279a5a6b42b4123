"""Per-layer tracing installed from outside, around public ``repro`` callables.

``TARGETS`` is the one table of layer boundaries.  :func:`install` wraps
each named callable with a timing wrapper that records a span
``(name, start, end, parent, op, n)`` in memory; the harness installs it
in its own process (the client side) and the server child installs it
in its (the server side), so one table traces both ends.  A name that no
longer resolves raises :class:`TraceTargetMissing` naming it — a
refactor that moves a layer boundary has to arrive with a benchmark
change, not silently lose a layer.

Spans nest by call stack: ``parent`` is the index of the enclosing span
in the same process (-1 at top level), and a layer's *self* time is its
spans' duration minus the part their child spans cover.  Clocks are
``time.perf_counter`` (CLOCK_MONOTONIC), so client and server spans
share one time base.
"""

from __future__ import annotations

import importlib
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple, Optional

SPAN_FIELDS = ("name", "start", "end", "parent", "op", "n")


class TraceTargetMissing(LookupError):
    """A ``TARGETS`` entry no longer names a callable."""


class Target(NamedTuple):
    layer: str
    module: str
    attribute: str
    count: Optional[Callable] = None
    """``count(args, result) -> number`` measured at the boundary (work
    done: items, bytes, symbols, frames); stored in the span's ``n``."""


def _len_arg(position: int) -> Callable:
    return lambda args, result: len(args[position])


def _len_result(args, result) -> int:
    return len(result)


# Span names are "<layer>.<callable>"; layers are module names.
TARGETS: tuple[Target, ...] = (
    Target("hashing", "repro.hashing.keyed", "SipHasher.hash64_batch", _len_arg(1)),
    Target(
        "hashing", "repro.hashing.keyed", "SipHasher.hash64_int_batch", _len_arg(1)
    ),
    Target("service.shard", "repro.service.shard", "hash_items"),
    Target("service.shard", "repro.service.shard", "partition_with_hashes"),
    Target("service.shard", "repro.service.shard", "ShardedSet.add_many"),
    Target("service.shard", "repro.service.shard", "ShardedSet.remove_many"),
    Target("core.encoder", "repro.core.encoder", "RatelessEncoder.add_items"),
    Target("core.encoder", "repro.core.encoder", "RatelessEncoder.remove_items"),
    Target("core.encoder", "repro.core.encoder", "RatelessEncoder.produce_block"),
    Target("core.encoder", "repro.core.encoder", "RatelessEncoder.cached_block"),
    Target("core.cellbank", "repro.core.cellbank", "CodedSymbolBank.pack", _len_result),
    Target("core.cellbank", "repro.core.cellbank", "CodedSymbolBank.unpack", _len_arg(1)),
    Target("core.cellbank", "repro.core.cellbank", "CodedSymbolBank.subtract"),
    Target("core.cellbank", "repro.core.cellbank", "CodedSymbolBank.subtract_in_place"),
    Target("core.wire", "repro.core.wire", "SymbolStreamWriter.write_block", _len_result),
    Target("core.wire", "repro.core.wire", "SymbolStreamReader.feed_into", _len_arg(2)),
    Target("core.decoder", "repro.core.decoder", "RatelessDecoder.add_coded_block", _len_arg(1)),
    Target(
        "service.framing",
        "repro.service.framing",
        "encode_frame",
        # frame bytes beyond the body: the framing overhead
        lambda args, result: len(result) - (len(args[1]) if len(args) > 1 else 0),
    ),
    Target("service.framing", "repro.service.framing", "FrameDecoder.feed", _len_result),
    Target("protocol.machine", "repro.protocol.machine", "ReconcilerMachine.start"),
    Target("protocol.machine", "repro.protocol.machine", "ReconcilerMachine.bytes_received"),
    Target("protocol.machine", "repro.protocol.machine", "ReconcilerMachine.tick"),
    Target("protocol.machine", "repro.protocol.machine", "ReconcilerMachine.peer_closed"),
    Target("protocol.machine", "repro.protocol.machine", "ReconcilerMachine.take_output"),
    Target("protocol.machine", "repro.protocol.machine", "ReconcilerMachine.poll_effects", _len_result),
    Target("service.server", "repro.service.server", "ReconciliationServer.add_items"),
    Target("service.server", "repro.service.server", "ReconciliationServer.remove_items"),
    Target("durable", "repro.durable.store", "DurableShardStore.journal_op"),
    Target("durable", "repro.durable.store", "DurableShardStore.checkpoint"),
)

# Importing these first guarantees every module that copied a traced
# function into its namespace (``from x import f``) is loaded, so
# install() can rebind the copy too.
_PRELOAD = ("repro.service", "repro.protocol", "repro.durable")

ROOT_SPAN = "service.client.sync"


class Tracer:
    """Span storage for one process."""

    def __init__(self, process: str) -> None:
        self.process = process
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        """Index of the op in flight; -1 marks warm-up spans."""

    @contextmanager
    def span(self, name: str):
        """A span opened by the harness itself (the per-sync root)."""
        spans, stack = self.spans, self.stack
        record = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op, 0]
        stack.append(len(spans))
        spans.append(record)
        try:
            yield record
        finally:
            record[2] = perf_counter()
            stack.pop()

    def wrap(self, name: str, fn: Callable, count: Optional[Callable]) -> Callable:
        spans, stack, clock = self.spans, self.stack, perf_counter

        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                record[5] = count(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def dump(self, path: Path) -> None:
        path.write_text(
            json.dumps(
                {"process": self.process, "fields": SPAN_FIELDS, "spans": self.spans}
            )
        )


def span_name(target: Target) -> str:
    return f"{target.layer}.{target.attribute.rsplit('.', 1)[-1]}"


def install(tracer: Tracer) -> None:
    """Wrap every ``TARGETS`` callable in this process."""
    for name in _PRELOAD:
        importlib.import_module(name)
    for target in TARGETS:
        where = f"{target.module}.{target.attribute}"
        try:
            owner = importlib.import_module(target.module)
            *path, leaf = target.attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[leaf]
        except (ImportError, AttributeError, KeyError):
            raise TraceTargetMissing(
                f"trace target {where} (layer {target.layer}) no longer "
                "resolves; update benchmarks/e2e/trace.py TARGETS in a "
                "benchmark change"
            ) from None
        name = span_name(target)
        if isinstance(original, classmethod):
            wrapper = classmethod(tracer.wrap(name, original.__func__, target.count))
        elif callable(original):
            wrapper = tracer.wrap(name, original, target.count)
        else:
            raise TraceTargetMissing(f"trace target {where} is not callable")
        setattr(owner, leaf, wrapper)
        if not path:
            # A module-level function: rebind every by-name import of it.
            for module_name, module in list(sys.modules.items()):
                if module_name.startswith("repro") and module is not None:
                    if vars(module).get(leaf) is original:
                        setattr(module, leaf, wrapper)


# -- summarising ----------------------------------------------------------------


def load_spans(path: Path) -> list[list]:
    """The spans of a file written by :meth:`Tracer.dump`."""
    return json.loads(path.read_text())["spans"]


class _Totals:
    """Self time, total time, call count and boundary count per span name."""

    def __init__(self, spans: list[list]) -> None:
        covered = [0.0] * len(spans)
        for name, start, end, parent, op, n in spans:
            if parent >= 0:
                covered[parent] += end - start
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.n: dict[str, float] = {}
        self.top_level_s = 0.0
        for index, (name, start, end, parent, op, n) in enumerate(spans):
            if op < 0:
                continue  # warm-up
            duration = end - start
            self.self_s[name] = self.self_s.get(name, 0.0) + duration - covered[index]
            self.total_s[name] = self.total_s.get(name, 0.0) + duration
            self.calls[name] = self.calls.get(name, 0) + 1
            self.n[name] = self.n.get(name, 0) + n
            if parent < 0:
                self.top_level_s += duration

    def self_of(self, *names: str) -> float:
        return sum(self.self_s.get(name, 0.0) for name in names)


def layer_metrics(
    client_spans: list[list],
    server_spans: list[list],
    *,
    syncs: int,
    diff_items: int,
    client_symbols: int,
    server_stats: dict,
    server_cpu_s: float,
) -> dict[str, float]:
    """Per-sync means of every per-layer metric except ``trace.overhead_x``.

    ``server_stats`` is the delta of the server's ``ServerStats`` over
    the traced list; ``diff_items`` the ground-truth Σd.
    """
    client = _Totals(client_spans)
    server = _Totals(server_spans)
    machine = (
        "protocol.machine.start",
        "protocol.machine.bytes_received",
        "protocol.machine.tick",
        "protocol.machine.peer_closed",
        "protocol.machine.take_output",
        "protocol.machine.poll_effects",
    )
    place = (
        "service.shard.hash_items",
        "service.shard.partition_with_hashes",
        "service.shard.add_many",
        "service.shard.remove_many",
    )
    hashes = ("hashing.hash64_batch", "hashing.hash64_int_batch")
    subtract = ("core.cellbank.subtract", "core.cellbank.subtract_in_place")
    churn = ("service.server.add_items", "service.server.remove_items")

    def both(field: str, *names: str) -> float:
        return sum(
            getattr(side, field).get(name, 0)
            for side in (client, server)
            for name in names
        )

    symbols_in = client.n.get("core.decoder.add_coded_block", 0)
    symbols_sent = server_stats["symbols_sent"]
    totals = {
        "hashing.hash_s": both("self_s", *hashes),
        "hashing.items": both("n", *hashes),
        "service.shard.place_s": both("self_s", *place),
        "core.encoder.client_ingest_s": client.self_of("core.encoder.add_items"),
        "core.encoder.client_produce_s": client.self_of("core.encoder.produce_block"),
        "core.encoder.client_cached_s": client.self_of("core.encoder.cached_block"),
        "core.encoder.server_produce_s": server.self_of("core.encoder.produce_block"),
        "core.encoder.server_cached_s": server.self_of("core.encoder.cached_block"),
        "core.encoder.churn_patch_s": server.self_of(
            "core.encoder.add_items", "core.encoder.remove_items"
        ),
        "core.encoder.produce_calls": both("calls", "core.encoder.produce_block"),
        "core.cellbank.pack_s": both("self_s", "core.cellbank.pack"),
        "core.cellbank.pack_bytes": both("n", "core.cellbank.pack"),
        "core.cellbank.unpack_s": both("self_s", "core.cellbank.unpack"),
        "core.cellbank.unpack_bytes": both("n", "core.cellbank.unpack"),
        "core.cellbank.subtract_s": both("self_s", *subtract),
        "core.wire.write_s": both("self_s", "core.wire.write_block"),
        "core.wire.write_bytes": both("n", "core.wire.write_block"),
        "core.wire.read_s": both("self_s", "core.wire.feed_into"),
        "core.wire.read_bytes": both("n", "core.wire.feed_into"),
        "core.decoder.peel_s": client.self_of("core.decoder.add_coded_block"),
        "core.decoder.symbols_in": symbols_in,
        "service.framing.encode_s": both("self_s", "service.framing.encode_frame"),
        "service.framing.decode_s": both("self_s", "service.framing.feed"),
        "service.framing.frames": both("calls", "service.framing.encode_frame"),
        "service.framing.overhead_bytes": both("n", "service.framing.encode_frame"),
        "protocol.initiator.self_s": client.self_of(*machine),
        "protocol.responder.self_s": server.self_of(*machine),
        "protocol.effects": both("n", "protocol.machine.poll_effects"),
        "service.client.sync_s": client.total_s.get(ROOT_SPAN, 0.0),
        "service.client.wait_s": client.self_of(ROOT_SPAN),
        "service.server.shell_s": max(0.0, server_cpu_s - server.top_level_s),
        "service.server.symbols_sent": symbols_sent,
        "service.server.sessions_dropped": server_stats["sessions_dropped"],
        "service.server.sessions_shed": server_stats["sessions_shed"],
        "service.backends.churn_apply_s": sum(
            server.total_s.get(name, 0.0) for name in churn
        ),
        "durable.journal_s": server.self_of("durable.journal_op"),
        "durable.checkpoint_s": server.self_of("durable.checkpoint"),
        "durable.checkpoints": server.calls.get("durable.checkpoint", 0),
    }
    metrics = {name: value / syncs for name, value in totals.items()}
    metrics["core.decoder.useful_share"] = (
        diff_items / symbols_in if symbols_in else 0.0
    )
    metrics["service.server.overshoot_share"] = (
        1.0 - client_symbols / symbols_sent if symbols_sent else 0.0
    )
    return metrics
