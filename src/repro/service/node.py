""":class:`ServiceNode`: one peer's set, servable and syncable.

The node is the deployment-shaped wrapper: it owns a set of items,
can expose it (:meth:`ServiceNode.start`), can reconcile it against
another node's server (:meth:`ServiceNode.sync_with`), and keeps both
faces consistent — items learned from a sync are applied to the live
server's warm shard encoders, so the next peer that connects already
sees them without any re-encoding.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.service.backends import StaleStream
from repro.service.client import SyncResult, sync
from repro.service.server import ReconciliationServer, ServerConfig


class ServiceNode:
    """A set of fixed-width items plus both service roles.

    >>> import asyncio
    >>> async def demo():
    ...     hub = ServiceNode([b"%08d" % i for i in range(100)], num_shards=4)
    ...     await hub.start()
    ...     edge = ServiceNode([b"%08d" % i for i in range(2, 102)], num_shards=4)
    ...     result = await edge.sync_with(*hub.address)
    ...     await hub.stop()
    ...     return sorted(result.only_in_server)
    >>> asyncio.run(demo())[:2]
    [b'00000000', b'00000001']
    """

    def __init__(
        self,
        items: Iterable[bytes] = (),
        *,
        scheme: str = "riblt",
        num_shards: int = 1,
        config: Optional[ServerConfig] = None,
        data_dir: Optional[object] = None,
        durable: Optional[object] = None,
        **params: object,
    ) -> None:
        self.items: set[bytes] = set(items)
        self.scheme = scheme
        self.num_shards = num_shards
        self.config = config
        self.data_dir = data_dir
        self.durable = durable
        self._server: Optional[ReconciliationServer] = None
        self.params = params

    # -- the set ----------------------------------------------------------

    def add_item(self, item: bytes) -> None:
        if item in self.items:
            raise KeyError(f"duplicate item: {item.hex()}")
        self.items.add(item)
        if self._server is not None:
            self._server.add_item(item)

    def remove_item(self, item: bytes) -> None:
        if item not in self.items:
            raise KeyError(f"item not in set: {item.hex()}")
        self.items.remove(item)
        if self._server is not None:
            self._server.remove_item(item)

    def add_items(self, items: Iterable[bytes]) -> None:
        """Add a batch of items (one warm-bank patch per touched shard)."""
        batch = items if isinstance(items, list) else list(items)
        seen: set[bytes] = set()
        for item in batch:
            if item in self.items or item in seen:
                raise KeyError(f"duplicate item: {item.hex()}")
            seen.add(item)
        self.items.update(batch)
        if self._server is not None:
            self._server.add_items(batch)

    def remove_items(self, items: Iterable[bytes]) -> None:
        """Remove a batch of items."""
        batch = items if isinstance(items, list) else list(items)
        seen: set[bytes] = set()
        for item in batch:
            if item not in self.items or item in seen:
                raise KeyError(f"item not in set: {item.hex()}")
            seen.add(item)
        self.items.difference_update(batch)
        if self._server is not None:
            self._server.remove_items(batch)

    def __contains__(self, item: bytes) -> bool:
        return item in self.items

    def __len__(self) -> int:
        return len(self.items)

    # -- server face ------------------------------------------------------

    @property
    def server(self) -> ReconciliationServer:
        if self._server is None:
            raise RuntimeError("node is not serving; call start() first")
        return self._server

    @property
    def address(self) -> tuple[str, int]:
        return self.server.address

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Expose this node's set; returns the bound ``(host, port)``.

        With ``data_dir`` the served state is durable: a warm restart
        (existing dir, no/same items) recovers the persisted shard
        banks and churn journal, and the node's in-memory set is
        refreshed from the recovered state — including journaled churn
        a crash interrupted.
        """
        if self._server is not None:
            raise RuntimeError("node is already serving")
        self._server = ReconciliationServer(
            sorted(self.items),
            scheme=self.scheme,
            num_shards=self.num_shards,
            config=self.config,
            data_dir=self.data_dir,
            durable=self.durable,
            **self.params,
        )
        if self.data_dir is not None:
            self.items = set(self._server.backend.sharded)
        return await self._server.start(host, port)

    async def stop(self) -> None:
        if self._server is not None:
            await self._server.close()
            self._server = None

    # -- client face ------------------------------------------------------

    async def sync_with(
        self,
        host: str,
        port: int,
        *,
        push: bool = False,
        apply: bool = True,
        retry_on_stale: int = 1,
        **kwargs: object,
    ) -> SyncResult:
        """Reconcile this node's set against a remote server.

        ``apply`` folds the fetched difference into the local set (and
        the live server backend, if serving); ``push`` sends the items
        the remote is missing.  A :class:`StaleStream` — the remote's
        set changed mid-stream — is retried up to ``retry_on_stale``
        times, since the reconnected stream reads the freshly patched
        warm bank.  Pass ``retry=RetryPolicy(...)`` (forwarded to
        :func:`~repro.service.client.sync`) to also survive
        connection-level failures with backoff; the two loops compose —
        reconnects happen inside each stale-stream attempt.
        """
        attempts = max(0, retry_on_stale) + 1
        for attempt in range(attempts):
            try:
                result = await sync(
                    host,
                    port,
                    sorted(self.items),
                    scheme=self.scheme,
                    num_shards=0,
                    push=push,
                    **{**self.params, **kwargs},
                )
                break
            except StaleStream:
                if attempt + 1 == attempts:
                    raise
        if apply:
            self.add_items(
                [item for item in result.only_in_server if item not in self.items]
            )
        return result
