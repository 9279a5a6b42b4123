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
    Expose INPUT's items as an asyncio reconciliation service: one warm
    encoder served as one stream, any number of concurrent clients.
    With ``--workers W`` (> 1) a supervised pool of W worker processes
    splits the shards across cores (``repro.cluster``);
    clients route transparently, one stream per worker, and find the
    same difference as with ``--workers 1``.
``repro chaos INPUT --workers W [--schedule FILE] [--seed S]``
    Serve INPUT through a fault-injecting chaos pool: a supervised
    W-worker cluster where every client connection crosses a
    deterministic fault proxy (``repro.chaos``) — latency, jitter,
    partial writes, mid-frame resets — driven by a seeded schedule
    (optionally loaded from a JSON file).  For drills and soak tests.
``repro sync INPUT [--transport {tcp,sim,memory}] [--port P | --peer FILE]``
    Reconcile INPUT's items with a peer: ``tcp`` (the default) talks to a
    running ``serve`` instance (``--push`` also sends it this side's
    exclusive items), while ``sim`` and ``memory`` run the peer from
    ``--peer FILE`` in-process — ``sim`` through the discrete-event link
    model (``--bandwidth/--delay/--loss``), ``memory`` through the
    lock-step pump.  All three drive the same sans-io protocol engine
    (``repro.protocol``); ``-o OUT`` writes the merged set.
``repro gossip --nodes N``
    Run a synthetic anti-entropy gossip mesh and report convergence.

Item files are either raw binary (fixed-width records, ``--item-size``)
or newline-delimited hex (``--format hex``).

Every command reads its files through one set loader (:func:`load_sets`)
and forwards only the codec flags the user set (:func:`scheme_params`),
so an unset ``--hasher`` is BLAKE2b for the local commands and the
service's SipHash for ``serve``, ``chaos`` and ``sync --transport tcp``.
:func:`main` maps the library's typed failures to ``error: ...`` and
exit status 2; the servers share one runner, :func:`run_host`.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from dataclasses import fields
from pathlib import Path
from typing import Sequence

from repro.api import ReconcileError, available_schemes, get_scheme, scheme_info
from repro.api import reconcile as api_reconcile
from repro.baselines.strata import StrataEstimator
from repro.chaos import ChaosOrchestrator, FaultSchedule, default_schedule
from repro.cluster import ClusterConfig, ClusterError, ClusterSupervisor
from repro.core.sketch import RatelessSketch
from repro.core.wire import decode_stream, encode_stream
from repro.durable import DurabilityError, DurableConfig
from repro.service import (
    FrameError,
    ReconciliationServer,
    ServerConfig,
    ServiceError,
    sync_once,
)


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
    else:  # raw binary, fixed-width records
        if item_size is None:
            raise CliError("--item-size is required for binary files")
        blob = path.read_bytes()
        if len(blob) % item_size:
            raise CliError(f"{path}: size {len(blob)} is not a multiple of {item_size}")
        items = [blob[i : i + item_size] for i in range(0, len(blob), item_size)]
    if not items:
        raise CliError(f"{path}: no items")
    sizes = sorted({len(item) for item in items})
    if len(sizes) != 1:
        raise CliError(f"{path}: items have mixed sizes {sizes}")
    if item_size is not None and sizes[0] != item_size:
        raise CliError(f"{path}: items are {sizes[0]} bytes, expected {item_size}")
    return items


def load_sets(args: argparse.Namespace, *paths: str) -> tuple:
    """The one set loader: each file's items as a duplicate-free set,
    then the one width they all share."""
    sets, widths = [], set()
    for path in paths:
        items = read_items(Path(path), args.item_size, args.format)
        unique = set(items)
        if len(unique) != len(items):
            raise CliError(f"{path}: duplicate items (sets must be duplicate-free)")
        sets.append(unique)
        widths.add(len(items[0]))
    if len(widths) != 1:
        raise CliError("the two files hold items of different sizes")
    return (*sets, widths.pop())


def scheme_params(
    args: argparse.Namespace, width: int | None, scheme: str | None = None
) -> dict:
    """The item width and the codec flags the user set, narrowed to what
    ``scheme`` (default ``--scheme``) accepts.  An unset flag is left
    out, so the library's default for the host applies."""
    candidates = {
        "symbol_size": width,
        "hasher": args.hasher,
        "key": args.key,
        "checksum_size": args.checksum_size,
    }
    accepted = {f.name for f in fields(scheme_info(scheme or args.scheme).param_class)}
    return {k: v for k, v in candidates.items() if v is not None and k in accepted}


def show_items(args: argparse.Namespace, *sides: set, marks=("+", "-")) -> None:
    """``--show-items``: each side's items, sorted, after its mark."""
    if args.show_items:
        for mark, items in zip(marks, sides):
            for item in sorted(items):
                print(f"  {mark} {item.hex()}")


def cmd_sketch(args: argparse.Namespace) -> int:
    unique, width = load_sets(args, args.input)
    codec = get_scheme("riblt", **scheme_params(args, width, "riblt")).codec
    sketch = RatelessSketch.from_items(unique, args.symbols, codec)
    blob = encode_stream(codec, sketch.set_size, sketch.bank)
    Path(args.output).write_bytes(blob)
    print(
        f"wrote {args.symbols} coded symbols ({len(blob)} bytes) for "
        f"{len(unique)} items to {args.output}"
    )
    return 0


def cmd_decode(args: argparse.Namespace) -> int:
    local, width = load_sets(args, args.local)
    codec = get_scheme("riblt", **scheme_params(args, width, "riblt")).codec
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
        show_items(args, result.remote, result.local)
    return 0 if result.success else 3


def cmd_reconcile(args: argparse.Namespace) -> int:
    set_a, set_b, width = load_sets(args, args.file_a, args.file_b)
    result = api_reconcile(
        set_a,
        set_b,
        scheme=args.scheme,
        difference_bound=args.difference_bound,
        max_symbols=args.max_symbols,
        **scheme_params(args, width),
    )
    print(f"scheme          : {result.scheme}")
    print(f"|A| = {len(set_a)}, |B| = {len(set_b)}")
    print(f"difference      : {result.difference_size}")
    print(f"coded symbols   : {result.symbols_used} "
          f"(overhead {result.overhead:.2f})")
    print(f"bytes on wire   : {result.bytes_on_wire}")
    if result.rounds > 1:
        print(f"rounds          : {result.rounds}")
    show_items(args, result.only_in_a, result.only_in_b, marks=("A-only", "B-only"))
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
    return ServerConfig(
        block_size=args.block_size,
        max_symbols=args.max_symbols,
        max_sessions=args.max_sessions,
        max_concurrent_sessions=args.max_clients,
    )


def run_host(make, banner, wait, report=lambda host: None, address=()) -> int:
    """The one runner of ``serve``, ``serve --workers`` and ``chaos``:
    start ``make()`` on ``address`` (closing it if that fails), print its
    banner, ``wait`` on it, then close it and print its ``report`` — on
    Ctrl-C too, which then ends in ``interrupted`` on stderr."""

    async def run() -> None:
        host = make()
        try:
            bound = await host.start(*address)
        except BaseException:
            await host.close()
            raise
        print(banner(host, *bound), flush=True)
        try:
            await wait(host)
        finally:
            await host.close()
            summary = report(host)
            if summary is not None:
                print(summary)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    if args.input is None and args.data_dir is None:
        raise CliError("serve needs an INPUT file, a --data-dir, or both")
    # Without an INPUT, a warm start: items, scheme params and shard
    # count come back from the durable data dir's manifest + journal.
    unique, width = load_sets(args, args.input) if args.input else (set(), None)
    kwargs = dict(
        scheme=args.scheme,
        num_shards=args.shards,
        data_dir=args.data_dir,
        durable=None,
        **scheme_params(args, width),
    )
    if args.data_dir is not None and args.checkpoint_every is not None:
        kwargs["durable"] = DurableConfig(
            checkpoint_every=args.checkpoint_every or None
        )
    durability = f", durable in {args.data_dir}" if args.data_dir else ""
    if args.workers <= 1:
        return run_host(
            lambda: ReconciliationServer(
                sorted(unique), config=server_config_from_args(args), **kwargs
            ),
            lambda server, host, port: (
                f"serving {len(server.backend.sharded)} items ({args.scheme}, "
                f"{server.num_shards} shards{durability}) on {host}:{port}"
            ),
            lambda server: server.wait_finished(),
            lambda server: (
                f"served {server.stats.sessions_completed} sessions "
                f"({server.stats.sessions_dropped} dropped), "
                f"{server.stats.symbols_sent} symbols / {server.stats.bytes_sent} "
                f"bytes, {server.stats.items_pushed} items pushed"
            ),
            address=(args.host, args.port),
        )
    # --workers N: the multi-process pool path
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
    return run_host(
        lambda: ClusterSupervisor(sorted(unique), config=config, **kwargs),
        lambda sup, host, port: (
            f"serving {sup.total_shards} shards across {args.workers} workers "
            f"({'SO_REUSEPORT' if sup.reuse_port_active else 'per-worker ports'}"
            f"{durability}) on {host}:{port}"
        ),
        lambda sup: sup.wait(),
    )


def cmd_chaos(args: argparse.Namespace) -> int:
    """``repro chaos``: a fault-proxied worker pool for resilience drills."""
    unique, width = load_sets(args, args.input)
    if args.schedule is not None:
        schedule = FaultSchedule.from_json(Path(args.schedule).read_text())
    else:
        schedule = default_schedule(args.seed)
    config = ClusterConfig(
        num_workers=args.workers,
        host=args.host,
        server=server_config_from_args(args),
    )
    stats: dict = {}  # the proxies' counters, read before close drops them

    async def wait(orch) -> None:
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
            stats.update(orch.proxy_stats())

    return run_host(
        lambda: ChaosOrchestrator(
            sorted(unique),
            schedule=schedule,
            config=config,
            num_shards=args.shards,
            **scheme_params(args, width),
        ),
        lambda orch, host, port: (
            f"chaos: serving {len(unique)} items via {args.workers} "
            f"fault-proxied workers ({len(schedule.specs)} fault specs, "
            f"seed {schedule.seed}) on {host}:{port}"
        ),
        wait,
        lambda orch: (
            f"chaos: {stats.get('connections', 0)} connections proxied, "
            f"{stats.get('resets', 0)} reset, "
            f"{stats.get('dropped', 0)} dropped, "
            f"{stats.get('bytes_forwarded', 0)} bytes forwarded, "
            f"restarts {tuple(orch.restart_counts)}"
        ),
    )


def cmd_sync(args: argparse.Namespace) -> int:
    sync = _sync_tcp if args.transport == "tcp" else _sync_local_transport
    local, missing, extra = sync(args)
    show_items(args, missing, extra)
    if args.output:
        merged = sorted(local | missing)
        if args.format == "hex":
            Path(args.output).write_text("".join(f"{item.hex()}\n" for item in merged))
        else:
            Path(args.output).write_bytes(b"".join(merged))
        print(f"wrote {len(merged)} reconciled items to {args.output}")
    return 0


def _sync_tcp(args: argparse.Namespace) -> tuple[set, set, set]:
    """``repro sync --transport tcp``: the peer is a running ``serve``."""
    if args.port is None:
        raise CliError("--port is required for --transport tcp")
    unique, width = load_sets(args, args.input)
    result = sync_once(
        args.host,
        args.port,
        sorted(unique),
        scheme=args.scheme,
        push=args.push,
        max_symbols=args.max_symbols,
        **scheme_params(args, width),
    )
    print(f"scheme          : {result.scheme}")
    print(f"missing locally : {len(result.only_in_server)}")
    print(f"extra locally   : {len(result.only_in_client)}")
    print(f"coded symbols   : {result.symbols}")
    print(f"bytes received  : {result.bytes_received}")
    if args.push:
        print(f"items pushed    : {result.pushed}")
    return unique, result.only_in_server, result.only_in_client


def _sync_local_transport(args: argparse.Namespace) -> tuple[set, set, set]:
    """``repro sync --transport {sim,memory}``: the peer is a local file."""
    if not args.peer:
        raise CliError(f"--transport {args.transport} needs --peer FILE")
    if args.push:
        raise CliError(
            f"--push is not supported on --transport {args.transport}: the "
            "in-process peer is read-only (use -o to merge locally)"
        )
    local_set, peer_set, width = load_sets(args, args.input, args.peer)
    params = scheme_params(args, width)
    outcome = None
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
    return local_set, result.only_in_a, result.only_in_b


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
        make_nodes(node_sets, **scheme_params(args, item_size, "riblt")),
        topology=args.topology,
        degree=args.degree,
        fanout=args.fanout,
        seed=args.seed,
        config=config,
    )
    report = mesh.run_until_converged(max_rounds=args.max_rounds)

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
    set_a, set_b, _ = load_sets(args, args.file_a, args.file_b)
    estimator_a = StrataEstimator.from_items(set_a)
    estimator_b = StrataEstimator.from_items(set_b)
    estimate = estimator_a.estimate(estimator_b)
    true_d = len(set_a ^ set_b)
    print(f"estimated difference : {estimate}")
    print(f"true difference      : {true_d}")
    print(f"estimator wire size  : {estimator_a.wire_size()} bytes")
    return 0


def _option(*names: str, **spec):
    """Declare an option once; each subcommand taking it calls the
    result with its parser and its own default and help, if any."""
    return lambda parser, **own: parser.add_argument(*names, **spec, **own)


HOST = _option("--host", default="127.0.0.1")
PORT = _option("--port", type=int)
SCHEME = _option("--scheme", default="riblt", choices=available_schemes())
SHARDS = _option("--shards", type=int)
WORKERS = _option("--workers", type=int)
BLOCK_SIZE = _option("--block-size", type=int, default=64)
MAX_SYMBOLS = _option("--max-symbols", type=int)
MAX_CLIENTS = _option("--max-clients", type=int, default=None)
DIFFERENCE_BOUND = _option("--difference-bound", type=int, default=None)
SHOW_ITEMS = _option("--show-items", action="store_true")
OUTPUT = _option("-o", "--output")
SEED = _option("--seed", type=int, default=0)
TRANSPORT = _option("--transport")
BANDWIDTH = _option("--bandwidth", type=float, default=20e6)
DELAY = _option("--delay", type=float)
LOSS = _option("--loss", type=float, default=0.0)


def _command(sub, func, help: str, **defaults) -> argparse.ArgumentParser:
    """The subcommand ``func`` runs, named after it (``cmd_<name>``)."""
    parser = sub.add_parser(func.__name__.removeprefix("cmd_"), help=help)
    parser.set_defaults(func=func, **defaults)
    return parser


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
        "--hasher", choices=("blake2b", "siphash"), default=None,
        help="keyed checksum hash family (default: siphash for serve, chaos "
             "and sync over tcp, blake2b otherwise)",
    )
    parser.add_argument(
        "--key", type=bytes.fromhex, default=None,
        help="16-byte hash key, hex (share it with the peer)",
    )
    parser.add_argument(
        "--checksum-size", type=int, default=None,
        help="checksum bytes per cell, 1-8 (default 8)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sketch = _command(sub, cmd_sketch, "encode a file into coded symbols")
    p_sketch.add_argument("input")
    OUTPUT(p_sketch, required=True)
    p_sketch.add_argument("--symbols", type=int, required=True)

    p_decode = _command(
        sub, cmd_decode, "decode a received sketch against a local file"
    )
    p_decode.add_argument("sketch")
    p_decode.add_argument("local")
    SHOW_ITEMS(p_decode)

    p_rec = _command(sub, cmd_reconcile, "reconcile two local files")
    p_rec.add_argument("file_a")
    p_rec.add_argument("file_b")
    SCHEME(p_rec, help="reconciliation scheme from the registry (default: riblt)")
    DIFFERENCE_BOUND(
        p_rec,
        help="pre-size fixed-capacity schemes for this many differences "
             "(default: run a strata-estimator exchange)",
    )
    MAX_SYMBOLS(p_rec, default=None)
    SHOW_ITEMS(p_rec)

    p_serve = _command(sub, cmd_serve, "serve reconciliation sessions over TCP")
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
    HOST(p_serve)
    PORT(p_serve, default=0, help="TCP port (default 0: pick a free one and print it)")
    SHARDS(
        p_serve, default=4,
        help="hash-partition the set into this many parallel streams (default 4)",
    )
    SCHEME(p_serve, help="scheme backing the set (default: riblt, a warm encoder)")
    BLOCK_SIZE(p_serve, help="coded symbols per frame (default 64)")
    MAX_SYMBOLS(
        p_serve, default=1 << 17,
        help="symbol budget of a session's stream before it is dropped",
    )
    p_serve.add_argument(
        "--max-sessions", type=int, default=None,
        help="exit after serving this many sessions (default: run forever)",
    )
    WORKERS(
        p_serve, default=1,
        help="worker processes sharing the shards (default 1: in-process "
             "server; >1 spawns a supervised pool, one core each)",
    )
    MAX_CLIENTS(
        p_serve,
        help="concurrent-session admission cap (per worker with "
             "--workers > 1); excess connections get a typed BUSY shed "
             "with a retry-after hint instead of queueing",
    )

    p_chaos = _command(
        sub, cmd_chaos, "serve through a deterministic fault-injection proxy pool",
        scheme="riblt", max_sessions=None,
    )
    p_chaos.add_argument("input", help="items file to serve")
    HOST(p_chaos)
    WORKERS(p_chaos, default=2, help="worker processes behind the proxies (default 2)")
    SHARDS(p_chaos, default=0, help="shard count (default 0: one per worker)")
    BLOCK_SIZE(p_chaos)
    MAX_SYMBOLS(p_chaos, default=1 << 17)
    MAX_CLIENTS(p_chaos, help="per-worker admission cap (BUSY sheds past it)")
    p_chaos.add_argument(
        "--schedule", default=None,
        help="fault schedule JSON file (default: the built-in mix of "
             "latency, jitter, partial writes, and mid-frame resets)",
    )
    SEED(p_chaos, help="seed for the built-in schedule (default 0)")
    p_chaos.add_argument(
        "--max-conns", type=int, default=None,
        help="exit once this many proxied connections have completed "
             "(default: serve until interrupted)",
    )

    p_sync = _command(
        sub, cmd_sync, "reconcile a local file against a peer, over any transport"
    )
    p_sync.add_argument("input")
    TRANSPORT(
        p_sync, choices=("tcp", "sim", "memory"), default="tcp",
        help="tcp: a running `repro serve`; sim: an in-process peer over a "
             "simulated link; memory: the in-process lock-step pump "
             "(default: tcp)",
    )
    HOST(p_sync)
    PORT(p_sync, default=None, help="server TCP port (required for --transport tcp)")
    p_sync.add_argument(
        "--peer", default=None,
        help="peer item file (required for --transport sim/memory)",
    )
    SCHEME(p_sync, help="must match the server's scheme (default: riblt)")
    p_sync.add_argument("--push", action="store_true",
                        help="send the server the items it is missing")
    MAX_SYMBOLS(p_sync, default=None, help="client-side symbol budget per stream")
    DIFFERENCE_BOUND(
        p_sync, help="pre-size fixed-capacity schemes (sim/memory transports)"
    )
    BANDWIDTH(p_sync, help="simulated link bandwidth, bps (default 20e6)")
    DELAY(p_sync, default=0.05, help="simulated one-way delay, seconds (default 0.05)")
    LOSS(p_sync, help="simulated frame loss rate in [0,1) (default 0)")
    SEED(p_sync, help="loss-model RNG seed (default 0)")
    SHOW_ITEMS(p_sync)
    OUTPUT(p_sync, default=None, help="write the reconciled (merged) item file here")

    p_gossip = _command(
        sub, cmd_gossip, "run a synthetic N-node anti-entropy gossip mesh"
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
    TRANSPORT(
        p_gossip, choices=("memory", "sim", "service"), default="memory",
        help="how full sessions run: lock-step pump, simulated links, "
             "or real asyncio TCP (default: memory)",
    )
    p_gossip.add_argument("--max-rounds", type=int, default=32)
    SEED(p_gossip)
    BANDWIDTH(p_gossip, help="sim link bandwidth, bps (default 20e6)")
    DELAY(p_gossip, default=0.001, help="sim one-way delay, seconds (default 0.001)")
    LOSS(p_gossip, help="sim frame loss rate in [0,1) (default 0)")

    p_est = _command(sub, cmd_estimate, "strata-estimate the difference size")
    p_est.add_argument("file_a")
    p_est.add_argument("file_b")

    _command(sub, cmd_schemes, "list registered schemes")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout consumer (head, less, ...) went away mid-print; the
        # Unix convention is a quiet exit, not a traceback.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 141
    except (
        CliError, ReconcileError, ServiceError, FrameError, DurabilityError,
        ClusterError, ValueError, ConnectionError, OSError,
    ) as exc:
        # The one mapping of the library's typed failures (and bad input)
        # to a user-facing error line; anything else is a bug and raises.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
