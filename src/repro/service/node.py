""":class:`ServiceNode`: one peer's set, servable and syncable.

The node is the deployment-shaped wrapper: it owns one peer state — a
:class:`~repro.service.backends.ShardBackend` — can expose it
(:meth:`ServiceNode.start`), can reconcile it against another node's
server (:meth:`ServiceNode.sync_with`), and has nothing to keep
consistent between the two faces: items learned from a sync patch the
same warm encoder the server serves, so the next peer that
connects already sees them without any re-encoding.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.service.backends import ShardBackend, StaleStream, open_backend
from repro.service.client import SyncResult, sync
from repro.service.defaults import with_service_hasher
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
        self._seed = list(dict.fromkeys(items))
        self.scheme = scheme
        self.num_shards = num_shards
        self.config = config
        self.data_dir = data_dir
        self.durable = durable
        self._backend: Optional[ShardBackend] = None
        self._server: Optional[ReconciliationServer] = None
        self.params = params

    # -- the set ----------------------------------------------------------

    @property
    def backend(self) -> ShardBackend:
        """This node's peer state, opened on first use.

        A ``data_dir`` node's state lives in its store, which is open
        only between :meth:`start` and :meth:`stop`.
        """
        if self._backend is None:
            if self.data_dir is not None:
                raise RuntimeError(
                    "a data_dir node opens its store in start(); "
                    "its set is not available before that"
                )
            self._open()
        return self._backend

    def _open(self) -> None:
        self._backend = open_backend(
            self._seed,
            scheme=self.scheme,
            num_shards=self.num_shards,
            data_dir=self.data_dir,
            durable=self.durable,
            **with_service_hasher(self.scheme, self.params, self.data_dir),
        )
        # The backend is the set from here on; a store reopened by a later
        # start() is adopted as found, churn and all.
        self._seed = []

    @property
    def items(self) -> frozenset:
        """The node's current set (a read-only snapshot of the backend)."""
        return frozenset(self.backend.sharded)

    def add_item(self, item: bytes) -> None:
        self.add_items([item])

    def remove_item(self, item: bytes) -> None:
        self.remove_items([item])

    def add_items(self, items: Iterable[bytes]) -> None:
        """Add a batch of items (one warm-bank patch pass over every
        touched shard); all-or-nothing, ``KeyError`` on a duplicate."""
        self.backend.add_many(items)

    def remove_items(self, items: Iterable[bytes]) -> None:
        """Remove a batch of items; all-or-nothing, ``KeyError`` if absent."""
        self.backend.remove_many(items)

    def __contains__(self, item: bytes) -> bool:
        return item in self.backend.sharded

    def __len__(self) -> int:
        return len(self.backend.sharded)

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
        banks and churn journal — including journaled churn a crash
        interrupted — and that recovered state *is* the node's set.
        """
        if self._server is not None:
            raise RuntimeError("node is already serving")
        if self._backend is None:
            self._open()
        self._server = ReconciliationServer(
            backend=self._backend, config=self.config
        )
        return await self._server.start(host, port)

    async def stop(self) -> None:
        if self._server is not None:
            await self._server.close()
            self._server = None
        if self.data_dir is not None and self._backend is not None:
            self._backend.close()  # type: ignore[attr-defined]
            self._backend = None

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
                    sorted(self.backend.sharded),
                    scheme=self.scheme,
                    push=push,
                    **{**self.params, **kwargs},
                )
                break
            except StaleStream:
                if attempt + 1 == attempts:
                    raise
        if apply:
            sharded = self.backend.sharded
            self.add_items(
                [item for item in result.only_in_server if item not in sharded]
            )
        return result
