"""The cluster supervisor: spawn, monitor, restart, drain N workers.

:class:`ClusterSupervisor` turns one durable data directory into a
multi-process reconciliation pool.  Boot is a full
:func:`~repro.durable.open_durable` — which folds any per-worker
journal segments left by a previous run — followed by an unconditional
checkpoint, so every worker's subset open starts from a fresh snapshot
and an empty base journal.  Workers are then spawned as real
subprocesses (``python -m repro.cluster.worker``), each owning the
striped shard subset of :func:`~repro.cluster.topology.worker_shards`
and journalling churn to its private ``journal.<worker>.log`` segment.

Routing needs no coordinator on the data path: every worker's WELCOME
carries the same :class:`~repro.protocol.ClusterInfo` tail (worker
count, its own index, total shards, the private-port table), and
:func:`repro.service.client.sync` fans out from whichever worker
answered the entry address.  Two entry modes:

``SO_REUSEPORT`` (where available)
    All workers additionally ``listen()`` on one shared entry port;
    the kernel load-balances accepted connections across them.

per-worker-port fallback
    The entry address is worker 0's private port; clients learn the
    sibling ports from the WELCOME tail and dial them directly.

A worker that dies unexpectedly (SIGKILL, injected crash) is restarted
on the same port with bounded backoff; recovery replays only that
worker's segment, so the restart is warm and touches nothing the
surviving workers own.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import signal
import socket
import sys
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional

from repro.durable import DurableConfig
from repro.durable.store import MANIFEST_NAME
from repro.service.backends import open_backend
from repro.service.defaults import with_service_hasher
from repro.service.server import ServerConfig


class ClusterError(RuntimeError):
    """Supervisor-level failure (worker never came up, bad topology)."""


def reuse_port_available() -> bool:
    """Whether this platform supports ``SO_REUSEPORT`` load balancing."""
    if not hasattr(socket, "SO_REUSEPORT"):
        return False
    try:
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    except OSError:
        return False
    return True


def _free_port(host: str) -> int:
    """An ephemeral port that was free a moment ago (bind-and-release)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        probe.bind((host, 0))
        return probe.getsockname()[1]


@dataclass
class ClusterConfig:
    """Pool-level knobs; per-session knobs are the nested ``server``."""

    num_workers: int = 2
    host: str = "127.0.0.1"
    entry_port: int = 0
    """The port clients dial; 0 picks an ephemeral one."""
    server: ServerConfig = field(default_factory=ServerConfig)
    """Every worker's :class:`~repro.service.server.ServerConfig`
    (block size, budgets, idle deadline, admission limits — all
    per worker), shipped to each worker process whole."""
    reuse_port: Optional[bool] = None
    """``None`` auto-detects; ``True`` requires ``SO_REUSEPORT``;
    ``False`` forces the per-worker-port fallback."""
    max_restarts: int = 5
    """Per-worker unexpected-death budget before the pool gives up."""
    restart_backoff: float = 0.1
    ready_timeout: float = 30.0
    drain_timeout: float = 5.0
    advertise_ports: Optional[List[int]] = None
    """Ports published in the WELCOME routing tail *instead of* the
    workers' real bind ports — one per worker.  This is how a fault
    proxy (:mod:`repro.chaos`) interposes on cluster fan-out: workers
    bind their private ports, clients are routed through the proxies."""


class ClusterSupervisor:
    """Spawn and babysit a pool of worker processes over one data dir.

    ``items``/``scheme``/``num_shards``/``params`` seed a fresh data
    directory exactly as :class:`~repro.service.server
    .ReconciliationServer` would (service hasher default included, so a
    ``workers=N`` pool is byte-identical to a ``workers=1`` server);
    an existing directory is recovered and the seed must match it.
    ``num_shards=0`` on a fresh store defaults to one shard per worker.
    Without ``data_dir`` the pool runs on an ephemeral directory
    (removed in :meth:`close`) with ``fsync`` off unless ``durable``
    says otherwise.
    """

    def __init__(
        self,
        items: Iterable[bytes] = (),
        *,
        data_dir: Optional[object] = None,
        scheme: str = "riblt",
        num_shards: int = 0,
        config: Optional[ClusterConfig] = None,
        durable: Optional[DurableConfig] = None,
        **params: object,
    ) -> None:
        self.config = config or ClusterConfig()
        if self.config.num_workers < 1:
            raise ClusterError("num_workers must be >= 1")
        self._ephemeral = data_dir is None
        if self._ephemeral:
            data_dir = tempfile.mkdtemp(prefix="repro-cluster-")
            if durable is None:
                durable = DurableConfig(fsync=False)
        self.data_dir = Path(data_dir)
        self._seed_items = list(items)
        self._scheme = scheme
        self._num_shards = num_shards
        self._durable = durable
        self._params = dict(params)
        self.total_shards: int = 0
        self.ports: List[int] = []
        self.entry_port: int = 0
        self._reuse = False
        self._procs: List[Optional[asyncio.subprocess.Process]] = []
        self._monitors: List[asyncio.Task] = []
        self._restarts: List[int] = []
        self._exit_codes: List[List[int]] = []
        self._closing = False
        self._started = False
        self._failed = asyncio.Event()
        self._failure: Optional[BaseException] = None

    # -- boot --------------------------------------------------------------

    async def start(self) -> tuple:
        """Initialise the store, spawn every worker, await their READYs.

        Returns the entry ``(host, port)`` clients should dial.
        """
        if self._started:
            raise ClusterError("cluster already started")
        self._started = True
        cfg = self.config
        self.total_shards = await asyncio.to_thread(self._prepare_store)
        if self.total_shards < cfg.num_workers:
            raise ClusterError(
                f"{self.total_shards} shards cannot feed "
                f"{cfg.num_workers} workers (need >= 1 shard each)"
            )
        if cfg.reuse_port is None:
            self._reuse = reuse_port_available()
        else:
            self._reuse = cfg.reuse_port
            if self._reuse and not reuse_port_available():
                raise ClusterError("SO_REUSEPORT requested but unavailable")
        if (
            cfg.advertise_ports is not None
            and len(cfg.advertise_ports) != cfg.num_workers
        ):
            raise ClusterError(
                f"advertise_ports has {len(cfg.advertise_ports)} entries "
                f"for {cfg.num_workers} workers"
            )
        self.ports = [_free_port(cfg.host) for _ in range(cfg.num_workers)]
        if self._reuse:
            self.entry_port = cfg.entry_port or _free_port(cfg.host)
        else:
            if cfg.entry_port:
                # Fallback mode has no separate entry socket: the entry
                # address IS worker 0's private port.
                self.ports[0] = cfg.entry_port
            self.entry_port = self.ports[0]
        self._procs = [None] * cfg.num_workers
        self._restarts = [0] * cfg.num_workers
        self._exit_codes = [[] for _ in range(cfg.num_workers)]
        for index in range(cfg.num_workers):
            self._procs[index] = await self._spawn(index)
        for index in range(cfg.num_workers):
            await self._wait_ready(index)
        self._monitors = [
            asyncio.ensure_future(self._monitor(index))
            for index in range(cfg.num_workers)
        ]
        return (cfg.host, self.entry_port)

    def _prepare_store(self) -> int:
        """Full open (folds stale segments), checkpoint, report shards."""
        num_shards = self._num_shards
        if num_shards == 0 and not (self.data_dir / MANIFEST_NAME).exists():
            num_shards = self.config.num_workers
        backend = open_backend(
            self._seed_items,
            scheme=self._scheme,
            num_shards=num_shards,
            data_dir=self.data_dir,
            durable=self._durable,
            **with_service_hasher(self._scheme, self._params, self.data_dir),
        )
        try:
            # Unconditional: subset opens replay only their own segment,
            # so the base journal must be empty when workers start.
            backend.checkpoint()
            return backend.num_shards
        finally:
            backend.close()

    async def _spawn(self, index: int) -> asyncio.subprocess.Process:
        cfg = self.config
        advertised = cfg.advertise_ports or self.ports
        argv = [
            sys.executable,
            "-m",
            "repro.cluster.worker",
            "--data-dir", str(self.data_dir),
            "--worker", str(index),
            "--num-workers", str(cfg.num_workers),
            "--total-shards", str(self.total_shards),
            "--host", cfg.host,
            "--port", str(self.ports[index]),
            "--ports", ",".join(str(p) for p in advertised),
            "--entry-port", str(self.entry_port if self._reuse else 0),
            "--server-config", json.dumps(asdict(cfg.server)),
        ]
        if self._durable is not None and not self._durable.fsync:
            argv.append("--no-fsync")
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing else src_root + os.pathsep + existing
        )
        return await asyncio.create_subprocess_exec(
            *argv, stdout=asyncio.subprocess.PIPE, env=env
        )

    async def _wait_ready(self, index: int) -> None:
        proc = self._procs[index]
        assert proc is not None and proc.stdout is not None
        try:
            line = await asyncio.wait_for(
                proc.stdout.readline(), timeout=self.config.ready_timeout
            )
        except asyncio.TimeoutError:
            line = b""
        text = line.decode("ascii", "replace").strip()
        if not text.startswith("READY "):
            proc.kill()
            await proc.wait()
            raise ClusterError(
                f"worker {index} never reported READY "
                f"(got {text!r}, exit {proc.returncode})"
            )
        port = int(text.split()[1])
        if port != self.ports[index]:
            proc.kill()
            await proc.wait()
            raise ClusterError(
                f"worker {index} bound port {port}, expected "
                f"{self.ports[index]}"
            )

    # -- supervision -------------------------------------------------------

    async def _monitor(self, index: int) -> None:
        """Restart worker ``index`` whenever it dies unexpectedly."""
        cfg = self.config
        while not self._closing:
            proc = self._procs[index]
            assert proc is not None
            code = await proc.wait()
            if self._closing:
                return
            self._exit_codes[index].append(code)
            self._restarts[index] += 1
            if self._restarts[index] > cfg.max_restarts:
                self._fail(
                    ClusterError(
                        f"worker {index} died {self._restarts[index]} times "
                        f"(last exit {code}); giving up"
                    )
                )
                return
            await asyncio.sleep(cfg.restart_backoff * self._restarts[index])
            if self._closing:
                return
            try:
                self._procs[index] = await self._spawn(index)
                await self._wait_ready(index)
            except ClusterError as exc:
                self._fail(exc)
                return

    def _fail(self, exc: BaseException) -> None:
        if self._failure is None:
            self._failure = exc
        self._failed.set()

    async def wait(self) -> None:
        """Block until the pool gives up on a worker (or forever)."""
        await self._failed.wait()
        if self._failure is not None:
            raise self._failure

    def kill_worker(self, index: int, sig: int = signal.SIGKILL) -> int:
        """Send ``sig`` to worker ``index`` (fault testing); returns its pid."""
        proc = self._procs[index]
        if proc is None or proc.returncode is not None:
            raise ClusterError(f"worker {index} is not running")
        proc.send_signal(sig)
        return proc.pid

    @property
    def entry_address(self) -> tuple:
        return (self.config.host, self.entry_port)

    @property
    def reuse_port_active(self) -> bool:
        """Whether the pool shares one ``SO_REUSEPORT`` entry socket
        (``False`` = per-worker-port fallback, entry = worker 0)."""
        return self._reuse

    @property
    def restart_counts(self) -> tuple:
        """How many times each worker has been restarted so far."""
        return tuple(self._restarts)

    @property
    def unexpected_exits(self) -> tuple:
        """Per worker, the exit codes of its unexpected deaths (fault
        tests assert a :data:`~repro.cluster.worker.CRASH_EXIT_CODE`
        here to prove an injected crash really killed the process)."""
        return tuple(tuple(codes) for codes in self._exit_codes)

    # -- shutdown ----------------------------------------------------------

    async def close(self) -> None:
        """Graceful drain: SIGTERM every worker, bounded wait, SIGKILL."""
        if self._closing:
            return
        self._closing = True
        for task in self._monitors:
            task.cancel()
        for task in self._monitors:
            try:
                await task
            except (asyncio.CancelledError, ClusterError):
                pass
        live = [
            proc
            for proc in self._procs
            if proc is not None and proc.returncode is None
        ]
        for proc in live:
            try:
                proc.terminate()
            except ProcessLookupError:
                pass
        if live:
            waits = [asyncio.ensure_future(p.wait()) for p in live]
            done, pending = await asyncio.wait(
                waits, timeout=self.config.drain_timeout
            )
            if pending:
                for proc in live:
                    if proc.returncode is None:
                        try:
                            proc.kill()
                        except ProcessLookupError:
                            pass
                await asyncio.gather(*pending)
        if self._ephemeral:
            await asyncio.to_thread(
                shutil.rmtree, self.data_dir, ignore_errors=True
            )

    async def __aenter__(self) -> "ClusterSupervisor":
        try:
            await self.start()
        except BaseException:
            await self.close()
            raise
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()
