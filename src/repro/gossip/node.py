"""One gossip peer: a warm shard backend, a version clock, a set digest.

A :class:`GossipNode` is the per-peer state of the anti-entropy mesh
(:mod:`repro.gossip.mesh`).  Its set lives in the *same*
:class:`~repro.service.backends.ShardBackend` family the asyncio service
serves — for the default Rateless IBLT scheme that is the warm
:class:`~repro.service.backends.WarmRibltBackend`, so every
reconciliation session a node ever answers re-reads one continuously
patched coded-symbol bank instead of re-encoding its set (§4.1's
universality, now N-directional).

Cheap staleness machinery, per the rate-compatible / pooled-sketch
designs (PAPERS.md: Mitzenmacher et al.; SNIPPETS.md: bami's
``PeerClock``):

* a **version clock** — the sum of the sharded set's per-shard
  versions, bumped by every mutation (including pushes applied by a
  responder session);
* a **set digest** (:class:`SetDigest`) — the backend's cell 0
  (:meth:`~repro.service.backends.ShardBackend.digest`): the XOR of the
  items' keyed checksums, plus the count.  Equal sets always match;
  unequal sets collide with probability ~2^-(8·checksum bytes).  On a
  riblt node it is read from the warm prefixes' cached cell 0, which
  every mutation's patch keeps current (pushes a served session applied
  included), so there is no second copy to maintain;
* a :class:`PeerView` per neighbour — what this node last heard of the
  peer's clock/digest and the version pair at the last confirmed sync,
  which lets a round skip a neighbour with provably nothing new before
  a single byte moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.api.registry import Scheme
from repro.protocol.machine import InitiatorMachine, ResponderMachine
from repro.service.backends import ShardBackend, open_backend


@dataclass(frozen=True)
class SetDigest:
    """A node's cheap set fingerprint: (version clock, XOR checksum, count)."""

    version: int
    xor64: int
    count: int

    def matches(self, other: "SetDigest") -> bool:
        """Same set contents (whp) — versions may differ."""
        return self.xor64 == other.xor64 and self.count == other.count


@dataclass
class PeerView:
    """Everything a node knows about one neighbour's staleness."""

    peer_version: int = -1
    """The peer's version clock, as of the last digest heard from it."""
    peer_digest: Optional[SetDigest] = None
    in_sync: bool = False
    synced_local_version: int = -1
    """This node's own clock when the pair last confirmed sync."""
    synced_peer_version: int = -1
    """The peer's clock when the pair last confirmed sync."""
    last_exchange_round: int = -1
    """Mesh round of the last actual exchange (digest or full)."""
    suspect: bool = False
    """A round to this peer failed and it has not succeeded since."""
    failures: int = 0
    """Consecutive failed rounds (drives the contact backoff)."""
    next_contact_round: int = 0
    """Earliest mesh round this node will initiate to a suspect peer."""


class GossipNode:
    """A mesh peer: one set, one warm backend, per-neighbour clocks."""

    #: Contact-interval cap for failing peers, in mesh rounds: a peer's
    #: backoff doubles per consecutive failure (2, 4, 8, ...) up to here.
    MAX_BACKOFF_ROUNDS = 16

    def __init__(
        self,
        node_id: int,
        items: Iterable[bytes] = (),
        *,
        handle: Optional[Scheme] = None,
        scheme: str = "riblt",
        num_shards: int = 1,
        backend: Optional[ShardBackend] = None,
        **params: object,
    ) -> None:
        # ``backend=`` adopts live shard state — e.g. a durable backend
        # recovered from disk, so the node's version clock (and therefore
        # the digest peers compare against their stale guard) survives a
        # restart instead of resetting to zero.
        if backend is None:
            backend = open_backend(
                items, scheme=handle or scheme, num_shards=num_shards, **params
            )
        elif handle is not None or num_shards != 1 or params or list(items):
            raise ValueError(
                "backend= is exclusive: the backend already fixes the "
                "items, handle, shard count, and parameters"
            )
        self.node_id = node_id
        self.backend: ShardBackend = backend
        self.handle: Scheme = backend.handle
        self.views: Dict[int, PeerView] = {}

    # -- the set ----------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotone mutation clock (sum of per-shard versions)."""
        return sum(self.backend.sharded.versions)

    def __len__(self) -> int:
        return len(self.backend.sharded)

    def __contains__(self, item: bytes) -> bool:
        return item in self.backend.sharded

    def items(self) -> list:
        """The set as a sorted list (deterministic machine construction)."""
        return sorted(self.backend.sharded)

    def add(self, item: bytes) -> None:
        """Local churn: add one item (warm bank patched)."""
        self.add_many([item])

    def remove(self, item: bytes) -> None:
        """Local churn: drop one item."""
        self.backend.remove(item)

    def add_many(self, items: Iterable[bytes]) -> None:
        """Batch churn: one warm-bank patch pass over every touched shard."""
        self.backend.add_many(items)

    def learn(self, items: Iterable[bytes]) -> int:
        """Absorb items gained from a peer (duplicates are fine).

        Returns how many were actually new.  This is the apply side of a
        reconciliation round: the initiator feeds ``only_in_remote``
        here, and a sim-transport round feeds the responder the pushed
        items the same way.
        """
        fresh = [item for item in dict.fromkeys(items)
                 if item not in self.backend.sharded]
        if fresh:
            self.add_many(fresh)
        return len(fresh)

    def digest(self) -> SetDigest:
        """The current set digest: the backend's cell 0 under this clock."""
        cell = self.backend.digest()
        return SetDigest(self.version, cell.checksums[0], cell.counts[0])

    # -- peer clocks -------------------------------------------------------

    def view_of(self, peer_id: int) -> PeerView:
        view = self.views.get(peer_id)
        if view is None:
            view = self.views[peer_id] = PeerView()
        return view

    def note_peer_digest(
        self, peer_id: int, digest: SetDigest, round_no: int
    ) -> None:
        """Record a digest heard from ``peer_id`` (any direction)."""
        view = self.view_of(peer_id)
        if digest.version < view.peer_version:
            return  # stale reordered information
        view.peer_version = digest.version
        view.peer_digest = digest
        view.last_exchange_round = round_no
        if view.in_sync and digest.version != view.synced_peer_version:
            view.in_sync = False  # the peer moved on since we synced

    def mark_synced(
        self, peer_id: int, peer_digest: SetDigest, round_no: int
    ) -> None:
        """The pair just confirmed equal sets; pin both clocks."""
        view = self.view_of(peer_id)
        view.in_sync = True
        view.peer_version = peer_digest.version
        view.peer_digest = peer_digest
        view.synced_local_version = self.version
        view.synced_peer_version = peer_digest.version
        view.last_exchange_round = round_no

    def mark_failed(self, peer_id: int, round_no: int) -> PeerView:
        """A round to ``peer_id`` died; suspect it and back off contact.

        Each consecutive failure doubles the contact interval (2, 4,
        8, ... rounds, capped at :attr:`MAX_BACKOFF_ROUNDS`) so a dead
        or overwhelmed peer is not re-hammered at full rate every
        round, while a recovering one is still probed within a bounded
        window.
        """
        view = self.view_of(peer_id)
        view.suspect = True
        view.failures += 1
        view.in_sync = False  # whatever we believed, the round disproved
        view.next_contact_round = round_no + min(
            1 << view.failures, self.MAX_BACKOFF_ROUNDS
        )
        return view

    def mark_contact_ok(self, peer_id: int) -> None:
        """A round to ``peer_id`` succeeded; restore the normal cadence.

        One success clears suspicion entirely — the peer is back inside
        the ordinary ``refresh_every`` window immediately.
        """
        view = self.views.get(peer_id)
        if view is not None and view.suspect:
            view.suspect = False
            view.failures = 0
            view.next_contact_round = 0

    def in_backoff(self, peer_id: int, round_no: int) -> bool:
        """True while a suspect peer's contact interval has not elapsed."""
        view = self.views.get(peer_id)
        return (
            view is not None
            and view.suspect
            and round_no < view.next_contact_round
        )

    def can_skip(self, peer_id: int, round_no: int, refresh_every: int) -> bool:
        """True when a round to ``peer_id`` may be skipped byte-free.

        Conservative: requires a confirmed sync, no local mutation since,
        no *observed* peer mutation since, and a recent enough exchange
        (``refresh_every`` rounds) so a peer that changed without ever
        initiating back cannot be ignored forever.
        """
        view = self.views.get(peer_id)
        if view is None or not view.in_sync:
            return False
        if self.version != view.synced_local_version:
            return False
        if view.peer_version != view.synced_peer_version:
            return False
        return (round_no - view.last_exchange_round) < refresh_every

    # -- protocol machines -------------------------------------------------

    def initiator(
        self,
        *,
        push: bool = True,
        max_symbols: Optional[int] = None,
        difference_bound: int = 0,
        use_estimator: bool = False,
    ) -> InitiatorMachine:
        """A fresh initiator (Bob side) over this node's current set."""
        return InitiatorMachine(
            self.handle,
            self.items(),
            push=push,
            max_symbols=max_symbols,
            difference_bound=difference_bound,
            use_estimator=use_estimator,
        )

    def responder(
        self,
        *,
        block_size: int = 8,
        slow_start: bool = False,
        max_symbols: Optional[int] = None,
        budget_grace: float = 0.0,
        use_estimator: bool = False,
    ) -> ResponderMachine:
        """A fresh responder (Alice side) serving this node's backend."""
        return ResponderMachine(
            self.backend,
            self.handle,
            block_size=block_size,
            slow_start=slow_start,
            max_symbols=max_symbols,
            budget_grace=budget_grace,
            use_estimator=use_estimator,
        )
