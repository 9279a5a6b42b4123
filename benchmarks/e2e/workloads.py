"""Seeded workloads and ground truth for the end-to-end sync benchmark.

A workload is a server set plus an endless, seeded stream of ops.  Each
op optionally churns the server (adds + removes) and then syncs one
client whose set differs from the server's by exactly ``d`` items.  The
harness keeps the ground truth — the server set and each client set —
so every diff the program returns is compared exactly.

Nothing here imports ``repro``: the program under test receives only the
item lists this module generates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Optional

NUM_SHARDS = 4

DEFAULT_SEED = 20240804
ALTERNATE_SEED = 7
"""The two documented seeds: every acceptance check runs on both."""


@dataclass(frozen=True)
class Workload:
    """Shape of one workload; why each was chosen is in ``BENCHMARK.json``
    and, with how the sizes were probed, in the README."""

    name: str
    set_size: int
    item_size: int
    cycle: tuple[int, ...]
    """Staleness d of each op in one cycle.  The harness only ever runs
    whole cycles, and the order inside a cycle is reshuffled from the
    seed, so the d mix — and with it bytes and symbols per sync — does
    not depend on where the clock stopped the run or on the seed."""
    churn: int = 0
    """Items added *and* items removed on the server before each sync."""
    durable: bool = False
    """Serve from a ``data_dir=`` (journal + checkpoints, ``fsync=False``)."""


# 65 % in sync, 30 % slightly stale (d in [1, 64], itself heavy-tailed),
# 5 % far behind.  d=64 fills the 85th to 95th percentile, so sync_s_p90
# is a typical d=64 sync, not the slowest sync of some smaller d.
_FLEET_CYCLE = (0,) * 13 + (1, 2, 4, 16, 64, 64) + (2000,)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(name="big_diff", set_size=20_000, item_size=8, cycle=(2_500,)),
        # d=64, not smaller: below that a shard sees a handful of
        # differences and symbols per sync jump between a few block
        # sizes, which 100 ops do not average out across seeds.
        Workload(
            name="big_set_small_diff", set_size=150_000, item_size=8, cycle=(64,)
        ),
        Workload(name="ledger_items", set_size=10_000, item_size=92, cycle=(350,)),
        Workload(
            name="fleet_mix_churn",
            set_size=10_000,
            item_size=8,
            cycle=_FLEET_CYCLE,
            churn=256,
            durable=True,
        ),
    )
}


def scaled(workload: Workload, scale: float) -> Workload:
    """The same shape at a fraction of the size (``--smoke`` only)."""
    if scale == 1.0:
        return workload

    def shrink(value: int, floor: int) -> int:
        return max(floor, int(value * scale))

    return replace(
        workload,
        set_size=shrink(workload.set_size, 256),
        cycle=tuple(shrink(d, 1) if d else 0 for d in workload.cycle),
        churn=shrink(workload.churn, 8) if workload.churn else 0,
    )


@dataclass
class Op:
    """One churn-then-sync step with its expected exact diff."""

    index: int
    adds: list[bytes]
    removes: list[bytes]
    client_items: list[bytes]
    only_in_server: set[bytes]
    only_in_client: set[bytes]

    @property
    def d(self) -> int:
        return len(self.only_in_server) + len(self.only_in_client)


class OpStream:
    """The seeded op list of one workload, with the server ground truth.

    Two streams built from the same ``(workload, seed)`` yield identical
    ops forever, which is how the traced phase replays the untraced one.
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self._rng = random.Random(f"{workload.name}:{seed}")
        self._members: set[bytes] = set()
        self.server: list[bytes] = self._fresh(workload.set_size)
        self._members.update(self.server)
        self._pending: list[int] = []
        self.ops_drawn = 0

    def _fresh(self, count: int) -> list[bytes]:
        """``count`` distinct items, none of them in the server set."""
        size = self.workload.item_size
        randbytes = self._rng.randbytes
        out: list[bytes] = []
        seen: set[bytes] = set()
        while len(out) < count:
            item = randbytes(size)
            if item not in self._members and item not in seen:
                seen.add(item)
                out.append(item)
        return out

    def _pop_random(self, items: list[bytes], count: int) -> list[bytes]:
        """Remove ``count`` random entries from ``items`` (swap-pop)."""
        out = []
        randrange = self._rng.randrange
        for _ in range(count):
            pos = randrange(len(items))
            items[pos], items[-1] = items[-1], items[pos]
            out.append(items.pop())
        return out

    def next_op(self, d: Optional[int] = None) -> Op:
        """The next op: of staleness ``d``, or (the timed ops) of the next
        staleness in the shuffled cycle."""
        workload = self.workload
        if d is None:
            if not self._pending:
                self._pending = list(workload.cycle)
                self._rng.shuffle(self._pending)
            d = self._pending.pop()
        adds: list[bytes] = []
        removes: list[bytes] = []
        if workload.churn:
            removes = self._pop_random(self.server, workload.churn)
            self._members.difference_update(removes)
            adds = self._fresh(workload.churn)
            self.server.extend(adds)
            self._members.update(adds)
        # The client lacks `missing` server items and holds `extra` of
        # its own: an exact symmetric difference of d.
        missing = d // 2
        client = list(self.server)
        only_in_server = set(self._pop_random(client, missing))
        only_in_client = self._fresh(d - missing)
        client.extend(only_in_client)
        op = Op(
            index=self.ops_drawn,
            adds=adds,
            removes=removes,
            client_items=client,
            only_in_server=only_in_server,
            only_in_client=set(only_in_client),
        )
        self.ops_drawn += 1
        return op
