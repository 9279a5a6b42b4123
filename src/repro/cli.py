"""Command-line interface: reconcile files of fixed-width items.

Commands
--------

``repro sketch INPUT -o OUT --symbols M``
    Encode INPUT's items into the first M coded symbols (§6 wire format).
``repro decode SKETCH LOCAL``
    Bob's side: subtract LOCAL's items from a received sketch stream and
    peel; prints the differences.
``repro reconcile FILE_A FILE_B [--scheme NAME]``
    Reconcile two local files with any registered scheme (default:
    the streaming Rateless IBLT) and report the difference plus
    communication statistics.
``repro estimate FILE_A FILE_B``
    Strata-estimate the difference size (what a regular-IBLT deployment
    would do first).
``repro schemes``
    List every scheme in the registry with its capability flags.
``repro serve INPUT --port P --shards N [--workers W]``
    Expose INPUT's items as an asyncio reconciliation service: warm
    per-shard encoders, any number of concurrent clients.  With
    ``--workers W`` (> 1) a supervised pool of W worker processes
    splits the shards across cores (``repro.cluster``); clients route
    transparently and results are byte-identical to ``--workers 1``.
``repro sync INPUT --port P [--push] [-o OUT]``
    Reconcile INPUT's items against a running ``serve`` instance; with
    ``--push`` the server also learns this side's exclusive items.
``repro chaos INPUT --workers W [--schedule FILE] [--seed S]``
    Serve INPUT through a fault-injecting chaos pool: a supervised
    W-worker cluster where every client connection crosses a
    deterministic fault proxy (``repro.chaos``) — latency, jitter,
    partial writes, mid-frame resets — driven by a seeded schedule
    (optionally loaded from a JSON file).  For drills and soak tests.
``repro sync INPUT --transport {tcp,sim,memory} [--peer FILE]``
    Same reconciliation, any transport: ``tcp`` (the default) talks to a
    ``serve`` instance, while ``sim`` and ``memory`` run the peer from
    ``--peer FILE`` in-process — ``sim`` through the discrete-event link
    model (``--bandwidth/--delay/--loss``), ``memory`` through the
    lock-step pump.  All three drive the same sans-io protocol engine
    (``repro.protocol``), so scheme behaviour and wire framing are
    identical across transports.

Item files are either raw binary (fixed-width records, ``--item-size``)
or newline-delimited hex (``--format hex``).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path
from typing import Iterable, Sequence

from repro.api import ReconcileError, available_schemes, scheme_info
from repro.api import reconcile as api_reconcile
from repro.baselines.strata import StrataEstimator
from repro.core.sketch import RatelessSketch
from repro.core.symbols import SymbolCodec
from repro.core.wire import decode_stream, encode_stream
from repro.hashing.keyed import make_hasher


class CliError(Exception):
    """User-facing failure (bad input file, mismatched sizes, ...)."""


def read_items(path: Path, item_size: int | None, file_format: str) -> list[bytes]:
    """Load a file of items; infers the item size for hex input."""
    if not path.exists():
        raise CliError(f"no such file: {path}")
    if file_format == "hex":
        items = []
        for line_no, line in enumerate(path.read_text().splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                items.append(bytes.fromhex(line))
            except ValueError as exc:
                raise CliError(f"{path}:{line_no}: invalid hex: {exc}") from exc
        if not items:
            raise CliError(f"{path}: no items")
        sizes = {len(item) for item in items}
        if len(sizes) != 1:
            raise CliError(f"{path}: items have mixed sizes {sorted(sizes)}")
        actual = sizes.pop()
        if item_size is not None and actual != item_size:
            raise CliError(
                f"{path}: items are {actual} bytes, expected {item_size}"
            )
        return items
    # raw binary, fixed-width records
    if item_size is None:
        raise CliError("--item-size is required for binary files")
    blob = path.read_bytes()
    if not blob:
        raise CliError(f"{path}: no items")
    if len(blob) % item_size:
        raise CliError(
            f"{path}: size {len(blob)} is not a multiple of {item_size}"
        )
    return [blob[i : i + item_size] for i in range(0, len(blob), item_size)]


def build_codec(items: Sequence[bytes], args: argparse.Namespace) -> SymbolCodec:
    hasher = make_hasher(args.hasher, bytes.fromhex(args.key))
    return SymbolCodec(len(items[0]), hasher, checksum_size=args.checksum_size)


def check_unique(items: Iterable[bytes], label: str) -> set[bytes]:
    items = list(items)
    unique = set(items)
    if len(unique) != len(items):
        raise CliError(f"{label}: duplicate items (sets must be duplicate-free)")
    return unique


def read_two_sets(
    args: argparse.Namespace, path_a: str, path_b: str
) -> tuple[set[bytes], set[bytes], int]:
    """Two files' items as duplicate-free sets, plus their one width."""
    items_a = read_items(Path(path_a), args.item_size, args.format)
    items_b = read_items(Path(path_b), args.item_size, args.format)
    if len(items_a[0]) != len(items_b[0]):
        raise CliError("the two files hold items of different sizes")
    return check_unique(items_a, path_a), check_unique(items_b, path_b), len(items_a[0])


def cmd_sketch(args: argparse.Namespace) -> int:
    items = read_items(Path(args.input), args.item_size, args.format)
    unique = check_unique(items, args.input)
    codec = build_codec(items, args)
    sketch = RatelessSketch.from_items(unique, args.symbols, codec)
    blob = encode_stream(codec, sketch.set_size, sketch.bank)
    Path(args.output).write_bytes(blob)
    print(
        f"wrote {args.symbols} coded symbols ({len(blob)} bytes) for "
        f"{len(unique)} items to {args.output}"
    )
    return 0


def cmd_decode(args: argparse.Namespace) -> int:
    local_items = read_items(Path(args.local), args.item_size, args.format)
    local = check_unique(local_items, args.local)
    codec = build_codec(local_items, args)
    bank, remote_size = decode_stream(codec, Path(args.sketch).read_bytes())
    mine = RatelessSketch.from_items(local, len(bank), codec)
    result = RatelessSketch(codec, bank, remote_size).subtract(mine).decode()
    print(f"remote set size : {remote_size}")
    print(f"symbols used    : {result.symbols_used} of {len(bank)}")
    verdict = "yes" if result.success else "NO (need a longer sketch)"
    print(f"decoded         : {verdict}")
    if result.success:
        print(f"missing locally : {len(result.remote)}")
        print(f"extra locally   : {len(result.local)}")
        if args.show_items:
            for item in sorted(result.remote):
                print(f"  + {item.hex()}")
            for item in sorted(result.local):
                print(f"  - {item.hex()}")
    return 0 if result.success else 3


def scheme_params_from_args(args: argparse.Namespace, item_size: int) -> dict:
    """The CLI's codec knobs, narrowed to what the scheme accepts."""
    candidates = {
        "symbol_size": item_size,
        "hasher": args.hasher,
        "key": bytes.fromhex(args.key),
        "checksum_size": args.checksum_size,
    }
    accepted = {f.name for f in fields(scheme_info(args.scheme).param_class)}
    return {k: v for k, v in candidates.items() if k in accepted}


def cmd_reconcile(args: argparse.Namespace) -> int:
    set_a, set_b, width = read_two_sets(args, args.file_a, args.file_b)
    try:
        result = api_reconcile(
            set_a,
            set_b,
            scheme=args.scheme,
            difference_bound=args.difference_bound,
            max_symbols=args.max_symbols,
            **scheme_params_from_args(args, width),
        )
    except (ReconcileError, ValueError) as exc:
        # scheme representation limits (item too wide for the field, bad
        # bound, ...) and convergence failures are user-facing errors
        raise CliError(str(exc)) from exc
    print(f"scheme          : {result.scheme}")
    print(f"|A| = {len(set_a)}, |B| = {len(set_b)}")
    print(f"difference      : {result.difference_size}")
    print(f"coded symbols   : {result.symbols_used} "
          f"(overhead {result.overhead:.2f})")
    print(f"bytes on wire   : {result.bytes_on_wire}")
    if result.rounds > 1:
        print(f"rounds          : {result.rounds}")
    if args.show_items:
        for item in sorted(result.only_in_a):
            print(f"  A-only {item.hex()}")
        for item in sorted(result.only_in_b):
            print(f"  B-only {item.hex()}")
    return 0


def cmd_schemes(args: argparse.Namespace) -> int:
    print(f"{'scheme':22s} {'flags':28s} summary")
    for name in available_schemes():
        info = scheme_info(name)
        caps = info.capabilities
        flags = ",".join(
            label
            for label, on in (
                ("streaming", caps.streaming),
                ("fixed-capacity", caps.fixed_capacity),
                ("estimator", caps.needs_estimator),
                ("incremental", caps.incremental),
            )
            if on
        ) or "-"
        print(f"{name:22s} {flags:28s} {info.summary}")
    return 0


def server_config_from_args(args: argparse.Namespace):
    """The one ``ServerConfig`` ``serve``, ``serve --workers`` and
    ``chaos`` build from their shared limit flags."""
    from repro.service import ServerConfig

    return ServerConfig(
        block_size=args.block_size,
        max_symbols_per_shard=args.max_symbols,
        max_sessions=args.max_sessions,
        max_concurrent_sessions=args.max_clients,
    )


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import ReconciliationServer

    if args.input is None and args.data_dir is None:
        raise CliError("serve needs an INPUT file, a --data-dir, or both")
    if args.input is not None:
        items = read_items(Path(args.input), args.item_size, args.format)
        unique = check_unique(items, args.input)
        params = scheme_params_from_args(args, len(items[0]))
    else:
        # Warm start: everything (items, scheme params, shard count)
        # comes back from the durable data dir's manifest + journal.
        unique = set()
        params = {}
    durable = None
    if args.data_dir is not None and args.checkpoint_every is not None:
        from repro.durable import DurableConfig

        durable = DurableConfig(checkpoint_every=args.checkpoint_every or None)

    if args.workers > 1:
        return _serve_cluster(args, sorted(unique), params, durable)
    config = server_config_from_args(args)

    async def run_server() -> None:
        try:
            server = ReconciliationServer(
                sorted(unique),
                scheme=args.scheme,
                num_shards=args.shards,
                config=config,
                data_dir=args.data_dir,
                durable=durable,
                **params,
            )
        except ValueError as exc:
            # e.g. a scheme that can neither stream nor ship a sketch
            raise CliError(str(exc)) from exc
        served = len(server.backend.sharded)
        host, port = await server.start(args.host, args.port)
        durability = f", durable in {args.data_dir}" if args.data_dir else ""
        print(
            f"serving {served} items ({args.scheme}, "
            f"{server.num_shards} shards{durability}) on {host}:{port}",
            flush=True,
        )
        try:
            await server.wait_finished()
        finally:
            await server.close()
        stats = server.stats
        print(
            f"served {stats.sessions_completed} sessions "
            f"({stats.sessions_dropped} dropped), "
            f"{stats.symbols_sent} symbols / {stats.bytes_sent} bytes, "
            f"{stats.items_pushed} items pushed"
        )

    try:
        asyncio.run(run_server())
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
    return 0


def _serve_cluster(
    args: argparse.Namespace, items: list, params: dict, durable
) -> int:
    """``repro serve --workers N``: the multi-process pool path."""
    import asyncio

    from repro.cluster import ClusterConfig, ClusterError, ClusterSupervisor

    if args.scheme != "riblt":
        raise CliError(
            "--workers > 1 needs the durable warm-riblt backend "
            f"(scheme {args.scheme!r} is not supported)"
        )
    if args.max_sessions is not None:
        raise CliError("--max-sessions does not apply to a worker pool")
    config = ClusterConfig(
        num_workers=args.workers,
        host=args.host,
        entry_port=args.port,
        server=server_config_from_args(args),
    )

    async def run_cluster() -> None:
        sup = ClusterSupervisor(
            items,
            data_dir=args.data_dir,
            scheme=args.scheme,
            num_shards=args.shards,
            config=config,
            durable=durable,
            **params,
        )
        try:
            host, port = await sup.start()
        except ClusterError as exc:
            await sup.close()
            raise CliError(str(exc)) from exc
        mode = (
            "SO_REUSEPORT" if sup.reuse_port_active else "per-worker ports"
        )
        durability = f", durable in {args.data_dir}" if args.data_dir else ""
        print(
            f"serving {sup.total_shards} shards across {args.workers} "
            f"workers ({mode}{durability}) on {host}:{port}",
            flush=True,
        )
        try:
            await sup.wait()
        finally:
            await sup.close()

    try:
        asyncio.run(run_cluster())
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """``repro chaos``: a fault-proxied worker pool for resilience drills."""
    import asyncio

    from repro.chaos import ChaosError, ChaosOrchestrator, FaultSchedule, default_schedule
    from repro.cluster import ClusterConfig, ClusterError

    items = read_items(Path(args.input), args.item_size, args.format)
    unique = check_unique(items, args.input)
    params = scheme_params_from_args(args, len(items[0]))
    if args.schedule is not None:
        path = Path(args.schedule)
        if not path.exists():
            raise CliError(f"no such schedule file: {path}")
        try:
            schedule = FaultSchedule.from_json(path.read_text())
        except ChaosError as exc:
            raise CliError(f"{path}: {exc}") from exc
    else:
        schedule = default_schedule(args.seed)
    config = ClusterConfig(
        num_workers=args.workers,
        host=args.host,
        server=server_config_from_args(args),
    )

    async def run_chaos() -> None:
        orch = ChaosOrchestrator(
            sorted(unique),
            schedule=schedule,
            config=config,
            num_shards=args.shards,
            **params,
        )
        try:
            host, port = await orch.start()
        except ClusterError as exc:
            await orch.close()
            raise CliError(str(exc)) from exc
        print(
            f"chaos: serving {len(unique)} items via {args.workers} "
            f"fault-proxied workers ({len(schedule.specs)} fault specs, "
            f"seed {schedule.seed}) on {host}:{port}",
            flush=True,
        )
        try:
            if args.max_conns:
                total = 0
                while total < args.max_conns:
                    await asyncio.sleep(0.05)
                    total = sum(p.stats.connections for p in orch.proxies)
                while any(p.active_connections for p in orch.proxies):
                    await asyncio.sleep(0.05)
            else:
                await orch.supervisor.wait()
        finally:
            stats = orch.proxy_stats()
            await orch.close()
            print(
                f"chaos: {stats.get('connections', 0)} connections proxied, "
                f"{stats.get('resets', 0)} reset, "
                f"{stats.get('dropped', 0)} dropped, "
                f"{stats.get('bytes_forwarded', 0)} bytes forwarded, "
                f"restarts {tuple(orch.restart_counts)}"
            )

    try:
        asyncio.run(run_chaos())
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
    return 0


def cmd_sync(args: argparse.Namespace) -> int:
    if args.transport != "tcp":
        return _sync_local_transport(args)
    from repro.api import SymbolBudgetExceeded
    from repro.service import ServiceError, sync_once

    if args.port is None:
        raise CliError("--port is required for --transport tcp")
    items = read_items(Path(args.input), args.item_size, args.format)
    unique = check_unique(items, args.input)
    try:
        result = sync_once(
            args.host,
            args.port,
            sorted(unique),
            scheme=args.scheme,
            push=args.push,
            max_symbols=args.max_symbols,
            **scheme_params_from_args(args, len(items[0])),
        )
    except SymbolBudgetExceeded as exc:
        raise CliError(f"symbol budget exhausted: {exc}") from exc
    except (ServiceError, ValueError, ConnectionError, OSError) as exc:
        raise CliError(f"sync failed: {exc}") from exc
    print(f"scheme          : {result.scheme} ({result.num_shards} shards)")
    print(f"missing locally : {len(result.only_in_server)}")
    print(f"extra locally   : {len(result.only_in_client)}")
    print(f"coded symbols   : {result.symbols}")
    print(f"bytes received  : {result.bytes_received}")
    if args.push:
        print(f"items pushed    : {result.pushed}")
    if args.show_items:
        for item in sorted(result.only_in_server):
            print(f"  + {item.hex()}")
        for item in sorted(result.only_in_client):
            print(f"  - {item.hex()}")
    if args.output:
        _write_merged(args, unique | result.only_in_server)
    return 0


def _write_merged(args: argparse.Namespace, merged_items) -> None:
    merged = sorted(merged_items)
    if args.format == "hex":
        Path(args.output).write_text(
            "".join(f"{item.hex()}\n" for item in merged)
        )
    else:
        Path(args.output).write_bytes(b"".join(merged))
    print(f"wrote {len(merged)} reconciled items to {args.output}")


def _sync_local_transport(args: argparse.Namespace) -> int:
    """``repro sync --transport {sim,memory}``: the peer is a local file."""
    from repro.api import ReconcileError

    if not args.peer:
        raise CliError(f"--transport {args.transport} needs --peer FILE")
    if args.push:
        raise CliError(
            f"--push is not supported on --transport {args.transport}: the "
            "in-process peer is read-only (use -o to merge locally)"
        )
    local_set, peer_set, width = read_two_sets(args, args.input, args.peer)
    params = scheme_params_from_args(args, width)
    outcome = None
    try:
        if args.transport == "sim":
            if args.scheme == "merkle":
                # The interactive heal cannot be framed; replay its
                # transcript through the same link model instead.
                from repro.net.protocols.heal_sync import simulate_merkle_sync

                outcome = simulate_merkle_sync(
                    sorted(peer_set),
                    sorted(local_set),
                    bandwidth_bps=args.bandwidth,
                    delay_s=args.delay,
                    **params,
                )
            else:
                from repro.net.protocols.machine_sync import simulate_machine_sync

                outcome = simulate_machine_sync(
                    sorted(peer_set),
                    sorted(local_set),
                    args.scheme,
                    bandwidth_bps=args.bandwidth,
                    delay_s=args.delay,
                    loss_rate=args.loss,
                    seed=args.seed,
                    difference_bound=args.difference_bound or 0,
                    max_symbols=args.max_symbols,
                    **params,
                )
            result = outcome.result
        else:  # memory: the in-process pump behind repro.api.reconcile
            result = api_reconcile(
                sorted(peer_set),
                sorted(local_set),
                scheme=args.scheme,
                difference_bound=args.difference_bound,
                max_symbols=args.max_symbols,
                **params,
            )
    except (ReconcileError, ValueError) as exc:
        raise CliError(str(exc)) from exc
    print(f"scheme          : {result.scheme} ({args.transport} transport)")
    print(f"missing locally : {len(result.only_in_a)}")
    print(f"extra locally   : {len(result.only_in_b)}")
    print(f"coded symbols   : {result.symbols_used}")
    print(f"bytes on wire   : {result.bytes_on_wire}")
    if result.rounds > 1:
        print(f"rounds          : {result.rounds}")
    if outcome is not None:
        # The merkle fallback replays a heal transcript: its link model
        # has no loss, so never claim one was simulated.
        loss = f"loss {args.loss:g}" if args.scheme != "merkle" else "loss n/a"
        print(f"completion time : {outcome.completion_time * 1e3:.1f} ms "
              f"(bw {args.bandwidth / 1e6:g} Mbps, delay {args.delay * 1e3:g} ms, "
              f"{loss})")
        print(f"bytes down/up   : {outcome.bytes_down} / {outcome.bytes_up}")
    if args.show_items:
        for item in sorted(result.only_in_a):
            print(f"  + {item.hex()}")
        for item in sorted(result.only_in_b):
            print(f"  - {item.hex()}")
    if args.output:
        _write_merged(args, local_set | result.only_in_a)
    return 0


def cmd_gossip(args: argparse.Namespace) -> int:
    """Run a synthetic N-node anti-entropy mesh and report convergence."""
    import math
    import random

    from repro.gossip import GossipConfig, GossipMesh, make_nodes, simulate_flooding
    from repro.gossip.mesh import select_pairs

    if args.nodes < 2:
        raise CliError("--nodes must be at least 2")
    if not 0.0 < args.diff < 1.0:
        raise CliError("--diff must be in (0, 1)")
    item_size = args.item_size or 32
    rng = random.Random(args.seed)
    base = sorted({rng.randbytes(item_size) for _ in range(args.set_size)})
    per_node = max(1, round(args.diff * len(base)))
    node_sets = []
    for _ in range(args.nodes):
        missing = set(rng.sample(base, min(per_node, len(base))))
        extras = [rng.randbytes(item_size) for _ in range(per_node)]
        node_sets.append([x for x in base if x not in missing] + extras)

    config = GossipConfig(
        transport=args.transport,
        bandwidth_bps=args.bandwidth,
        delay_s=args.delay,
        loss_rate=args.loss,
        seed=args.seed,
    )
    mesh = GossipMesh(
        make_nodes(node_sets),
        topology=args.topology,
        degree=args.degree,
        fanout=args.fanout,
        seed=args.seed,
        config=config,
    )
    try:
        report = mesh.run_until_converged(max_rounds=args.max_rounds)
    except ValueError as exc:
        raise CliError(str(exc)) from exc

    print(
        f"{args.nodes} nodes, {args.topology} topology, fanout {args.fanout}, "
        f"{args.transport} transport, ~{per_node * 2} diff items/node"
    )
    print(f"{'round':>5} {'full':>5} {'digest':>7} {'clock':>6} "
          f"{'bytes':>10} {'items':>6}")
    for stats in report.per_round:
        print(
            f"{stats.round_no:>5} {stats.full_syncs:>5} "
            f"{stats.digest_skips:>7} {stats.clock_skips:>6} "
            f"{stats.wire_bytes:>10} {stats.items_moved:>6}"
        )
    verdict = "converged" if report.converged else "NOT converged"
    bound = math.ceil(math.log2(args.nodes)) + 2
    print(f"{verdict} in {report.rounds} rounds "
          f"(log2(N)+2 bound: {bound}), {report.wire_bytes} bytes total")

    flooding = simulate_flooding(
        node_sets,
        item_size,
        lambda round_no, frng: select_pairs(mesh.neighbors, args.fanout, frng),
        random.Random(args.seed),
        args.max_rounds,
    )
    ratio = report.wire_bytes / flooding.total_bytes if flooding.total_bytes else 0.0
    print(
        f"flooding baseline: {flooding.total_bytes} bytes over "
        f"{flooding.rounds} rounds -> gossip/flooding = {ratio:.4f}"
    )
    return 0 if report.converged else 3


def cmd_estimate(args: argparse.Namespace) -> int:
    set_a, set_b, _ = read_two_sets(args, args.file_a, args.file_b)
    estimator_a = StrataEstimator.from_items(set_a)
    estimator_b = StrataEstimator.from_items(set_b)
    estimate = estimator_a.estimate(estimator_b)
    true_d = len(set_a ^ set_b)
    print(f"estimated difference : {estimate}")
    print(f"true difference      : {true_d}")
    print(f"estimator wire size  : {estimator_a.wire_size()} bytes")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Rateless IBLT set reconciliation (SIGCOMM 2024 reproduction)",
    )
    parser.add_argument(
        "--item-size", type=int, default=None,
        help="record width in bytes (required for binary files)",
    )
    parser.add_argument(
        "--format", choices=("bin", "hex"), default="bin",
        help="input file format (default: bin)",
    )
    parser.add_argument(
        "--hasher", choices=("blake2b", "siphash"), default="blake2b",
        help="keyed checksum hash family",
    )
    parser.add_argument(
        "--key", default="000102030405060708090a0b0c0d0e0f",
        help="16-byte hash key, hex (share it with the peer)",
    )
    parser.add_argument(
        "--checksum-size", type=int, default=8,
        help="checksum bytes per cell, 1-8 (default 8)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sketch = sub.add_parser("sketch", help="encode a file into coded symbols")
    p_sketch.add_argument("input")
    p_sketch.add_argument("-o", "--output", required=True)
    p_sketch.add_argument("--symbols", type=int, required=True)
    p_sketch.set_defaults(func=cmd_sketch)

    p_decode = sub.add_parser(
        "decode", help="decode a received sketch against a local file"
    )
    p_decode.add_argument("sketch")
    p_decode.add_argument("local")
    p_decode.add_argument("--show-items", action="store_true")
    p_decode.set_defaults(func=cmd_decode)

    p_rec = sub.add_parser("reconcile", help="reconcile two local files")
    p_rec.add_argument("file_a")
    p_rec.add_argument("file_b")
    p_rec.add_argument(
        "--scheme", default="riblt", choices=available_schemes(),
        help="reconciliation scheme from the registry (default: riblt)",
    )
    p_rec.add_argument(
        "--difference-bound", type=int, default=None,
        help="pre-size fixed-capacity schemes for this many differences "
             "(default: run a strata-estimator exchange)",
    )
    p_rec.add_argument("--max-symbols", type=int, default=None)
    p_rec.add_argument("--show-items", action="store_true")
    p_rec.set_defaults(func=cmd_reconcile)

    p_serve = sub.add_parser("serve", help="serve reconciliation sessions over TCP")
    p_serve.add_argument(
        "input", nargs="?", default=None,
        help="items file (optional when --data-dir holds a previous run)",
    )
    p_serve.add_argument(
        "--data-dir", default=None,
        help="persist shard state here (crash-safe snapshots + churn "
             "journal); an existing dir warm-restarts from disk",
    )
    p_serve.add_argument(
        "--checkpoint-every", type=int, default=None,
        help="snapshot after this many journaled mutations "
             "(default 4096; 0 disables auto-checkpointing)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0,
                         help="TCP port (default 0: pick a free one and print it)")
    p_serve.add_argument(
        "--shards", type=int, default=4,
        help="hash-partition the set into this many parallel streams (default 4)",
    )
    p_serve.add_argument(
        "--scheme", default="riblt", choices=available_schemes(),
        help="scheme backing each shard (default: riblt, warm encoders)",
    )
    p_serve.add_argument("--block-size", type=int, default=64,
                         help="coded symbols per frame (default 64)")
    p_serve.add_argument(
        "--max-symbols", type=int, default=1 << 17,
        help="per-shard symbol budget before a session is dropped",
    )
    p_serve.add_argument(
        "--max-sessions", type=int, default=None,
        help="exit after serving this many sessions (default: run forever)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=1,
        help="worker processes sharing the shards (default 1: in-process "
             "server; >1 spawns a supervised pool, one core each)",
    )
    p_serve.add_argument(
        "--max-clients", type=int, default=None,
        help="concurrent-session admission cap (per worker with "
             "--workers > 1); excess connections get a typed BUSY shed "
             "with a retry-after hint instead of queueing",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_chaos = sub.add_parser(
        "chaos", help="serve through a deterministic fault-injection proxy pool"
    )
    p_chaos.add_argument("input", help="items file to serve")
    p_chaos.add_argument("--host", default="127.0.0.1")
    p_chaos.add_argument("--workers", type=int, default=2,
                         help="worker processes behind the proxies (default 2)")
    p_chaos.add_argument(
        "--shards", type=int, default=0,
        help="shard count (default 0: one per worker)",
    )
    p_chaos.add_argument("--block-size", type=int, default=64)
    p_chaos.add_argument("--max-symbols", type=int, default=1 << 17)
    p_chaos.add_argument(
        "--max-clients", type=int, default=None,
        help="per-worker admission cap (BUSY sheds past it)",
    )
    p_chaos.add_argument(
        "--schedule", default=None,
        help="fault schedule JSON file (default: the built-in mix of "
             "latency, jitter, partial writes, and mid-frame resets)",
    )
    p_chaos.add_argument("--seed", type=int, default=0,
                         help="seed for the built-in schedule (default 0)")
    p_chaos.add_argument(
        "--max-conns", type=int, default=None,
        help="exit once this many proxied connections have completed "
             "(default: serve until interrupted)",
    )
    p_chaos.set_defaults(func=cmd_chaos, scheme="riblt", max_sessions=None)

    p_sync = sub.add_parser(
        "sync", help="reconcile a local file against a peer, over any transport"
    )
    p_sync.add_argument("input")
    p_sync.add_argument(
        "--transport", choices=("tcp", "sim", "memory"), default="tcp",
        help="tcp: a running `repro serve`; sim: an in-process peer over a "
             "simulated link; memory: the in-process lock-step pump "
             "(default: tcp)",
    )
    p_sync.add_argument("--host", default="127.0.0.1")
    p_sync.add_argument("--port", type=int, default=None,
                        help="server TCP port (required for --transport tcp)")
    p_sync.add_argument(
        "--peer", default=None,
        help="peer item file (required for --transport sim/memory)",
    )
    p_sync.add_argument(
        "--scheme", default="riblt", choices=available_schemes(),
        help="must match the server's scheme (default: riblt)",
    )
    p_sync.add_argument("--push", action="store_true",
                        help="send the server the items it is missing")
    p_sync.add_argument("--max-symbols", type=int, default=None,
                        help="client-side per-shard symbol budget")
    p_sync.add_argument(
        "--difference-bound", type=int, default=None,
        help="pre-size fixed-capacity schemes (sim/memory transports)",
    )
    p_sync.add_argument("--bandwidth", type=float, default=20e6,
                        help="simulated link bandwidth, bps (default 20e6)")
    p_sync.add_argument("--delay", type=float, default=0.05,
                        help="simulated one-way delay, seconds (default 0.05)")
    p_sync.add_argument("--loss", type=float, default=0.0,
                        help="simulated frame loss rate in [0,1) (default 0)")
    p_sync.add_argument("--seed", type=int, default=0,
                        help="loss-model RNG seed (default 0)")
    p_sync.add_argument("--show-items", action="store_true")
    p_sync.add_argument("-o", "--output", default=None,
                        help="write the reconciled (merged) item file here")
    p_sync.set_defaults(func=cmd_sync)

    p_gossip = sub.add_parser(
        "gossip", help="run a synthetic N-node anti-entropy gossip mesh"
    )
    p_gossip.add_argument("--nodes", type=int, default=32,
                          help="mesh size (default 32)")
    p_gossip.add_argument("--set-size", type=int, default=512,
                          help="shared base set size (default 512)")
    p_gossip.add_argument(
        "--diff", type=float, default=0.01,
        help="per-node difference fraction: each node misses and adds "
             "this fraction of the base set (default 0.01)",
    )
    p_gossip.add_argument("--topology", choices=("ring", "random", "full"),
                          default="random")
    p_gossip.add_argument("--degree", type=int, default=4,
                          help="target average degree, random topology only")
    p_gossip.add_argument("--fanout", type=int, default=2,
                          help="exchanges each node initiates per round")
    p_gossip.add_argument(
        "--transport", choices=("memory", "sim", "service"), default="memory",
        help="how full sessions run: lock-step pump, simulated links, "
             "or real asyncio TCP (default: memory)",
    )
    p_gossip.add_argument("--max-rounds", type=int, default=32)
    p_gossip.add_argument("--seed", type=int, default=0)
    p_gossip.add_argument("--bandwidth", type=float, default=20e6,
                          help="sim link bandwidth, bps (default 20e6)")
    p_gossip.add_argument("--delay", type=float, default=0.001,
                          help="sim one-way delay, seconds (default 0.001)")
    p_gossip.add_argument("--loss", type=float, default=0.0,
                          help="sim frame loss rate in [0,1) (default 0)")
    p_gossip.set_defaults(func=cmd_gossip)

    p_est = sub.add_parser("estimate", help="strata-estimate the difference size")
    p_est.add_argument("file_a")
    p_est.add_argument("file_b")
    p_est.set_defaults(func=cmd_estimate)

    p_sch = sub.add_parser("schemes", help="list registered schemes")
    p_sch.set_defaults(func=cmd_schemes)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout consumer (head, less, ...) went away mid-print; the
        # Unix convention is a quiet exit, not a traceback.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 141


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
