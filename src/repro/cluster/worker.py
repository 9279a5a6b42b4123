"""Cluster worker process: one shard subset, one server, one journal.

Each worker the supervisor spawns runs this module's :func:`main`: it
opens the shared data directory restricted to its striped shard subset
(:func:`repro.cluster.topology.worker_shards`) — the snapshot's rows of
those shards, ingested into one warm encoder over the stripe whose
prefix it produces on demand, as a fresh server's — journals its churn
to a private segment (``journal.<worker>.log``) so concurrent workers
never interleave writes in one file, and serves sessions whose WELCOME
carries the pool's :class:`~repro.protocol.ClusterInfo` routing tail.

The worker prints exactly one ``READY <port>`` line on stdout once it
is accepting — the supervisor blocks on that line rather than polling
the port — and exits on SIGTERM after a bounded graceful drain.  An
armed :class:`~repro.durable.SimulatedCrash` (``REPRO_CRASH_POINT``)
deliberately escapes the sans-io machine's guard; the session shell
turns it into an immediate ``os._exit(CRASH_EXIT_CODE)`` so fault
tests kill a *real* process mid-write, torn page and all.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
from typing import Optional

from repro.cluster.topology import worker_shards
from repro.durable import DurableConfig, SimulatedCrash, open_durable
from repro.durable.store import journal_segment_name
from repro.protocol.events import ClusterInfo
from repro.service.server import ReconciliationServer, ServerConfig

CRASH_EXIT_CODE = 70
"""Exit status of a worker felled by an injected ``SimulatedCrash``
(distinct from signal deaths, so the supervisor's logs can tell fault
injection from a SIGKILL)."""


class WorkerServer(ReconciliationServer):
    """A :class:`ReconciliationServer` that dies honestly when crashed.

    ``SimulatedCrash`` is a ``BaseException`` precisely so the protocol
    machine's guard cannot swallow it — but inside an asyncio session
    task it would merely kill that task.  A real crash kills the
    *process* with the journal mid-write; ``os._exit`` reproduces that
    (no ``atexit``, no buffered flushes, no graceful close).
    """

    async def _on_connection(self, reader, writer) -> None:
        try:
            await super()._on_connection(reader, writer)
        except SimulatedCrash:
            os._exit(CRASH_EXIT_CODE)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cluster-worker",
        description="one worker of a repro.cluster pool (spawned by the "
        "supervisor; not intended for direct use)",
    )
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--worker", type=int, required=True)
    parser.add_argument("--num-workers", type=int, required=True)
    parser.add_argument("--total-shards", type=int, required=True)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True,
                        help="this worker's private port")
    parser.add_argument("--ports", required=True,
                        help="comma-separated private ports of all workers, "
                        "in worker order (the WELCOME routing tail)")
    parser.add_argument("--entry-port", type=int, default=0,
                        help="shared SO_REUSEPORT entry port; 0 = none "
                        "(per-worker-port fallback mode)")
    parser.add_argument("--server-config", type=json.loads, default={},
                        help="ServerConfig fields as one JSON object")
    parser.add_argument("--no-fsync", action="store_true")
    return parser


async def run(args: argparse.Namespace) -> int:
    owned = list(
        worker_shards(args.total_shards, args.num_workers, args.worker)
    )
    backend = open_durable(
        args.data_dir,
        shard_subset=owned,
        journal_name=journal_segment_name(args.worker),
        # Workers never checkpoint (a snapshot covering only a subset
        # would corrupt the shared store); the supervisor folds
        # segments into one on the next full open.
        config=DurableConfig(checkpoint_every=None, fsync=not args.no_fsync),
    )
    server = WorkerServer(
        backend=backend, config=ServerConfig(**args.server_config)
    )
    server.cluster = ClusterInfo(
        num_workers=args.num_workers,
        worker_index=args.worker,
        total_shards=args.total_shards,
        ports=tuple(int(p) for p in args.ports.split(",")),
    )

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, stop.set)

    await server.start(args.host, args.port)
    if args.entry_port:
        await server.listen(args.host, args.entry_port, reuse_port=True)
    print(f"READY {server.port}", flush=True)
    try:
        await stop.wait()
    finally:
        await server.drain(timeout=5.0)
        backend.close()
    return 0


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return asyncio.run(run(args))
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
