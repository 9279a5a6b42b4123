#!/usr/bin/env python3
"""Record golden wire traffic and results from the reconciliation drivers.

First run against the pre-engine drivers to freeze their observable
behaviour into ``protocol_golden.json``; the protocol-engine tests then
assert the current stack reproduces every recording bit for bit.
Re-running against the current tree regenerates the file — only for an
intentional, documented wire-format change (a ``PROTOCOL_VERSION``
bump), after which every entry the change does not touch must come out
byte-identical.

    PYTHONPATH=src python tests/golden/record_golden.py
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import sys
from pathlib import Path

from repro.api import get_scheme, reconcile, scheme_info, available_schemes

HERE = Path(__file__).resolve().parent
OUT = HERE / "protocol_golden.json"

ITEM = 7

# Mirrors tests/test_api.py so the goldens cover the acceptance fixtures.
FIXTURES: dict[str, tuple[int, int, int]] = {
    "identical": (120, 0, 0),
    "empty": (0, 0, 0),
    "one_diff": (120, 1, 0),
    "disjoint": (0, 25, 25),
    "hundred_diff": (150, 50, 50),
}


def _items(rng: random.Random, count: int) -> list[bytes]:
    out: set[bytes] = set()
    while len(out) < count:
        item = rng.randbytes(ITEM)
        if item != bytes(ITEM):
            out.add(item)
    return sorted(out)


def sets_for(fixture: str) -> tuple[set[bytes], set[bytes]]:
    shared, only_a, only_b = FIXTURES[fixture]
    rng = random.Random(0xAB1DE + len(fixture) * 1009 + shared + only_a)
    pool = _items(rng, shared + only_a + only_b)
    common = set(pool[:shared])
    a = common | set(pool[shared : shared + only_a])
    b = common | set(pool[shared + only_a :])
    return a, b


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record_api_stream() -> dict:
    """The riblt streaming driver: exact wire payload per fixture."""
    from repro.protocol import InitiatorMachine, memory_responder, pump

    out = {}
    for fixture in sorted(FIXTURES):
        a, b = sets_for(fixture)
        per_block = {}
        for block_size in (1, 8):
            handle = get_scheme("riblt", symbol_size=ITEM)
            report = pump(
                InitiatorMachine(handle, sorted(b), capture_payloads=True),
                memory_responder(handle, sorted(a), block_size=block_size),
            )
            payload = bytes(report.payloads[0])
            per_block[str(block_size)] = {
                "payload_hex": payload.hex(),
                "payload_sha256": sha(payload),
                "payload_len": len(payload),
                "bytes_on_wire": report.payload_bytes,
                "symbols_used": report.symbols,
                "rounds": report.rounds,
            }
        out[fixture] = per_block
    return out


def record_api_schemes() -> dict:
    """reconcile() result fields for every scheme x fixture (bounded)."""
    out = {}
    for scheme in available_schemes():
        rows = {}
        for fixture in sorted(FIXTURES):
            a, b = sets_for(fixture)
            d = len(a ^ b)
            result = reconcile(
                a, b, scheme=scheme, symbol_size=ITEM, difference_bound=d
            )
            rows[fixture] = {
                "bytes_on_wire": result.bytes_on_wire,
                "symbols_used": result.symbols_used,
                "rounds": result.rounds,
                "difference_size": result.difference_size,
            }
        out[scheme] = rows
    return out


def record_api_estimator() -> dict:
    """Estimator-composed runs (no difference_bound) for fixed schemes."""
    out = {}
    for scheme in available_schemes():
        if not scheme_info(scheme).capabilities.fixed_capacity:
            continue
        a, b = sets_for("one_diff")
        result = reconcile(a, b, scheme=scheme, symbol_size=ITEM)
        out[scheme] = {
            "bytes_on_wire": result.bytes_on_wire,
            "symbols_used": result.symbols_used,
            "rounds": result.rounds,
        }
    return out


class _RecReader:
    def __init__(self, reader: asyncio.StreamReader, buf: bytearray) -> None:
        self._reader = reader
        self._buf = buf

    async def readexactly(self, n: int) -> bytes:
        data = await self._reader.readexactly(n)
        self._buf.extend(data)
        return data

    async def read(self, n: int = -1) -> bytes:
        data = await self._reader.read(n)
        self._buf.extend(data)
        return data


class _RecWriter:
    def __init__(self, writer: asyncio.StreamWriter, buf: bytearray) -> None:
        self._writer = writer
        self._buf = buf

    def write(self, data: bytes) -> None:
        self._buf.extend(data)
        self._writer.write(data)

    async def drain(self) -> None:
        await self._writer.drain()

    def close(self) -> None:
        self._writer.close()

    async def wait_closed(self) -> None:
        await self._writer.wait_closed()


def record_service() -> dict:
    """One-shard service sessions, both directions, via a recording tap."""
    from repro.protocol import InitiatorMachine
    from repro.service.client import _to_sync_result, run_initiator
    from repro.service.server import ReconciliationServer

    def items_range(lo: int, hi: int) -> list[bytes]:
        return [b"%08d" % i for i in range(lo, hi)]

    async def run_session(server_items, client_items, scheme, **kwargs):
        params = dict(kwargs.pop("params", {}))
        server = ReconciliationServer(
            server_items, scheme=scheme, num_shards=1, **params
        )
        host, port = await server.start()
        up = bytearray()  # client -> server
        down = bytearray()  # server -> client
        reader, writer = await asyncio.open_connection(host, port)
        machine = InitiatorMachine(
            get_scheme(scheme, **params).bound_to(server_items),
            list(client_items),
            capture_payloads=True,
            max_frame=4 << 20,
            **kwargs,
        )
        try:
            report, _ = await run_initiator(
                machine, _RecReader(reader, down), _RecWriter(writer, up)
            )
            result = _to_sync_result(report)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            await server.close()
        return result, bytes(up), bytes(down)

    out = {}

    # Stream mode (riblt): the client->server transcript is deterministic;
    # the server->client payload prefix equals the §4.1 universal stream.
    # Both recordings predate the service-layer SipHash default; they pin
    # the BLAKE2b hasher they were captured under.
    blake2b = {"hasher": "blake2b"}
    result, up, down = asyncio.run(
        run_session(
            items_range(0, 300), items_range(5, 305), "riblt",
            difference_bound=0, max_rounds=4, params=blake2b,
        )
    )
    payload = bytes(result.payloads[0])
    out["stream"] = {
        "client_to_server_hex": up.hex(),
        "payload_hex": payload.hex(),
        "payload_len": len(payload),
        "payload_sha256": sha(payload),
        "symbols": result.symbols,
        "bytes_received": result.bytes_received,
        "only_in_server": len(result.only_in_server),
        "only_in_client": len(result.only_in_client),
    }

    # Sketch mode (regular_iblt) with an undershot initial bound: the
    # RETRY doubling makes the full transcript exercise every frame type.
    result, up, down = asyncio.run(
        run_session(
            items_range(0, 200), items_range(16, 216), "regular_iblt",
            difference_bound=1, max_rounds=8, params=blake2b,
        )
    )
    out["sketch"] = {
        "client_to_server_hex": up.hex(),
        "server_to_client_sha256": sha(down),
        "server_to_client_len": len(down),
        "rounds": result.rounds,
        "bytes_received": result.bytes_received,
        "only_in_server": len(result.only_in_server),
        "only_in_client": len(result.only_in_client),
    }
    return out


def main() -> int:
    record = {
        "item_size": ITEM,
        "api_stream": record_api_stream(),
        "api_schemes": record_api_schemes(),
        "api_estimator": record_api_estimator(),
        "service": record_service(),
        # Pinned at the commit before the (rows, k) lane-matrix rewrite by
        # test_golden_wide_stream_payload_pinned's own recipe; carried over
        # verbatim so a re-record never silently re-bases it.
        "wide_stream": json.loads(OUT.read_text())["wide_stream"],
    }
    OUT.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
