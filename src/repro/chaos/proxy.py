"""A real-socket fault-injection TCP proxy (asyncio).

:class:`ChaosProxy` listens on one address and forwards every accepted
connection to a fixed upstream target, applying the
:class:`~repro.chaos.schedule.FaultSpec` its
:class:`~repro.chaos.schedule.FaultSchedule` assigns to that
connection: added latency and seeded jitter, bandwidth throttling,
partial writes, seeded single-byte corruption, hard mid-stream resets,
blackholes, and outright drops.

Faults are applied per *direction* with independent seeded RNGs, so
the client→server and server→client lanes of one connection degrade
independently and reproducibly.  A reset is a real ``transport.abort``
— the peer sees ECONNRESET mid-frame, exactly the failure the service
layer's typed errors and retry policies must absorb.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Optional, Set

from repro.chaos.schedule import FaultSchedule, FaultSpec

_CHUNK = 1 << 16


@dataclass
class ProxyStats:
    """What the proxy did to traffic (all lifetime totals)."""

    connections: int = 0
    dropped: int = 0
    resets: int = 0
    blackholed: int = 0
    corrupted_bytes: int = 0
    bytes_forwarded: int = 0

    def snapshot(self) -> dict:
        return {
            "connections": self.connections,
            "dropped": self.dropped,
            "resets": self.resets,
            "blackholed": self.blackholed,
            "corrupted_bytes": self.corrupted_bytes,
            "bytes_forwarded": self.bytes_forwarded,
        }


class ChaosProxy:
    """Forward ``(listen) -> (target_host, target_port)`` with faults."""

    def __init__(
        self,
        target_host: str,
        target_port: int,
        schedule: FaultSchedule,
    ) -> None:
        self.target_host = target_host
        self.target_port = target_port
        self.schedule = schedule
        self.stats = ProxyStats()
        self.host: str = ""
        self.port: int = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._conns: Set[asyncio.Task] = set()

    # -- lifecycle ---------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple:
        """Listen and return the ``(host, port)`` clients should dial."""
        if self._server is not None:
            raise RuntimeError("proxy already started")
        self._server = await asyncio.start_server(
            self._on_connection, host, port
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return (self.host, self.port)

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._conns):
            task.cancel()
        for task in list(self._conns):
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._conns.clear()

    async def __aenter__(self) -> "ChaosProxy":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    @property
    def active_connections(self) -> int:
        """Connections currently being proxied (accepted, not yet done)."""
        return len(self._conns)

    # -- per-connection ----------------------------------------------------

    async def _on_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conns.add(task)
        try:
            await self._handle(reader, writer)
        except asyncio.CancelledError:
            pass  # proxy.close() tears down live connections
        finally:
            if task is not None:
                self._conns.discard(task)
            _abort(writer)

    async def _handle(self, reader, writer) -> None:
        index = self.stats.connections
        self.stats.connections += 1
        spec = self.schedule.spec_for(index)
        if spec.drop:
            self.stats.dropped += 1
            return
        if spec.blackhole_s > 0:
            self.stats.blackholed += 1
            await asyncio.sleep(spec.blackhole_s)
            return
        try:
            up_reader, up_writer = await asyncio.open_connection(
                self.target_host, self.target_port
            )
        except (ConnectionError, OSError):
            return
        try:
            await asyncio.gather(
                self._pump(reader, up_writer, spec, index, lane=0),
                self._pump(up_reader, writer, spec, index, lane=1),
            )
        except _Reset:
            self.stats.resets += 1
            _abort(writer)
            _abort(up_writer)
        except (ConnectionError, OSError):
            pass
        finally:
            _abort(up_writer)

    async def _pump(self, reader, writer, spec: FaultSpec, index: int,
                    lane: int) -> None:
        """One direction: read upstream chunks, degrade, forward."""
        rng = self.schedule.rng_for(index, lane)
        forwarded = 0
        while True:
            chunk = await reader.read(_CHUNK)
            if not chunk:
                # Graceful half-close: propagate EOF so the peer's
                # read loop terminates instead of hanging.
                try:
                    writer.write_eof()
                except (ConnectionError, OSError, RuntimeError):
                    pass
                return
            if spec.latency_s or spec.jitter_s:
                await asyncio.sleep(
                    spec.latency_s + rng.uniform(0.0, spec.jitter_s)
                )
            if spec.bandwidth_bps:
                await asyncio.sleep(len(chunk) / spec.bandwidth_bps)
            if spec.corrupt_prob and rng.random() < spec.corrupt_prob:
                pos = rng.randrange(len(chunk))
                flipped = chunk[pos] ^ (1 + rng.randrange(255))
                chunk = chunk[:pos] + bytes([flipped]) + chunk[pos + 1:]
                self.stats.corrupted_bytes += 1
            if spec.reset_after_bytes:
                budget = spec.reset_after_bytes - forwarded
                if budget <= len(chunk):
                    # Forward exactly up to the threshold (a mid-frame
                    # cut needs the partial bytes on the wire), then cut.
                    head = chunk[:max(0, budget)]
                    if head:
                        writer.write(head)
                        try:
                            await writer.drain()
                        except (ConnectionError, OSError):
                            pass
                        forwarded += len(head)
                        self.stats.bytes_forwarded += len(head)
                    raise _Reset()
            for piece in _slices(chunk, spec.chunk_bytes):
                writer.write(piece)
                await writer.drain()
                forwarded += len(piece)
                self.stats.bytes_forwarded += len(piece)


class _Reset(Exception):
    """Internal pump signal: this connection hit its reset threshold."""


def _slices(chunk: bytes, size: int):
    if size <= 0 or size >= len(chunk):
        yield chunk
        return
    for start in range(0, len(chunk), size):
        yield chunk[start:start + size]


def _abort(writer) -> None:
    """Hard-close a writer's transport, ignoring already-dead sockets."""
    try:
        transport = writer.transport
        if transport is not None:
            transport.abort()
    except (ConnectionError, OSError, RuntimeError):
        pass


__all__ = ["ChaosProxy", "ProxyStats"]
