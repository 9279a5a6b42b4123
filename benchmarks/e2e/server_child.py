"""The benchmark's server process: one ``ReconciliationServer`` on loopback.

Launched by ``harness.py`` so the server and the client each get a core.
It knows nothing about workloads or seeds: the harness ships the initial
set and every churn batch down stdin and reads one JSON line per command
from stdout.

Commands are ``op (1 byte) | length (uint32 LE) | payload``:

* ``I`` items   — build the server from these items, answer ``{"port"}``
* ``A`` items   — ``server.add_items``
* ``R`` items   — ``server.remove_items``
* ``O`` int32   — index of the op about to run (tags trace spans)
* ``S``         — answer process CPU, peak RSS and ``ServerStats``
* ``Q`` / EOF   — close the server, dump the trace, exit

EOF on stdin is treated as ``Q`` so a dead harness never leaves the
child behind.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import struct
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

from repro.durable import DurableConfig  # noqa: E402
from repro.service.server import ReconciliationServer  # noqa: E402

HEADER = struct.Struct("<cI")


def _read_exact(stream, size: int) -> bytes:
    chunks = []
    while size:
        chunk = stream.read(size)
        if not chunk:
            return b""
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def _read_command(stream) -> tuple[bytes, bytes]:
    header = _read_exact(stream, HEADER.size)
    if not header:
        return b"Q", b""
    op, length = HEADER.unpack(header)
    return op, _read_exact(stream, length) if length else b""


def _reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _split(payload: bytes, size: int) -> list[bytes]:
    return [payload[i : i + size] for i in range(0, len(payload), size)]


def peak_rss_mb() -> float:
    """This process's peak resident set (``VmHWM``).

    Not ``ru_maxrss``: Linux folds the parent's peak into a child's
    ``ru_maxrss`` at exec, so the server would report the harness's
    memory and the harness its launcher's.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _stats(server: ReconciliationServer) -> dict:
    stats = server.stats
    return {
        "cpu_s": time.process_time(),
        "peak_rss_mb": peak_rss_mb(),
        "sessions_started": stats.sessions_started,
        "sessions_completed": stats.sessions_completed,
        "sessions_dropped": stats.sessions_dropped,
        "sessions_shed": stats.sessions_shed,
        "symbols_sent": stats.symbols_sent,
        "bytes_sent": stats.bytes_sent,
    }


async def serve(args: argparse.Namespace, tracer) -> None:
    loop = asyncio.get_running_loop()
    stdin = sys.stdin.buffer

    async def command() -> tuple[bytes, bytes]:
        # A worker thread blocks on the pipe so sessions keep running.
        return await loop.run_in_executor(None, _read_command, stdin)

    op, payload = await command()
    if op != b"I":
        raise SystemExit(f"expected the initial set first, got {op!r}")
    durable = {}
    if args.data_dir:
        # fsync off: disk flush latency is not measurable in a sandbox.
        durable = {"data_dir": args.data_dir, "durable": DurableConfig(fsync=False)}
    server = ReconciliationServer(
        _split(payload, args.item_size), num_shards=args.shards, **durable
    )
    try:
        _, port = await server.start("127.0.0.1", 0)
        _reply({"port": port})
        while True:
            op, payload = await command()
            if op == b"A":
                server.add_items(_split(payload, args.item_size))
                _reply({"ok": True})
            elif op == b"R":
                server.remove_items(_split(payload, args.item_size))
                _reply({"ok": True})
            elif op == b"O":
                if tracer is not None:
                    tracer.op = struct.unpack("<i", payload)[0]
                _reply({"ok": True})
            elif op == b"S":
                _reply(_stats(server))
            elif op == b"Q":
                break
            else:
                raise SystemExit(f"unknown command {op!r}")
    finally:
        await server.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--item-size", type=int, required=True)
    parser.add_argument("--shards", type=int, required=True)
    parser.add_argument("--data-dir", default="")
    parser.add_argument("--trace-out", default="", help="install tracing, dump here")
    args = parser.parse_args(argv)
    tracer = None
    if args.trace_out:
        import trace as e2e_trace

        tracer = e2e_trace.Tracer("server")
        e2e_trace.install(tracer)
    asyncio.run(serve(args, tracer))
    if tracer is not None:
        tracer.dump(Path(args.trace_out))
    _reply({"bye": True})
    return 0


if __name__ == "__main__":
    sys.exit(main())
