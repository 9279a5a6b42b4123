"""The N-node mesh: topology, round scheduling, convergence tracking.

A :class:`GossipMesh` wires :class:`~repro.gossip.node.GossipNode`s into
a neighbourhood graph (ring, random regular-ish, or full) and runs
periodic anti-entropy rounds: each round, every node initiates
``fanout`` push-pull exchanges with randomly chosen neighbours, each
resolved at the cheapest tier (clock skip → digest exchange → full
rateless session; :mod:`repro.gossip.rounds`).

Transports
----------

``memory`` / ``service``
    Pairs run sequentially within a round and apply their diffs
    immediately, so updates chain transitively inside one round — the
    classic epidemic shape.  ``service`` additionally pushes every full
    session through real asyncio TCP against the responder's warm
    backend.
``sim``
    All of a round's full sessions ride their own
    :class:`~repro.net.link.Link` on ONE shared
    :class:`~repro.net.simulator.Simulator`, starting at the same
    virtual instant — a round is the concurrent thing it would be on a
    real network, and ``round_time`` is its virtual makespan.  Because
    sessions overlap, diffs (including pushes) are buffered and applied
    when the round's event heap drains; a mid-round mutation would
    otherwise invalidate every concurrent stream cursor reading the
    same warm bank (:class:`~repro.service.backends.StaleStream`).

Convergence is checked with the same digests the wire tier uses: the
mesh has converged when every node's :class:`SetDigest` matches (equal
XOR lane and count ⇒ equal sets, whp — tests verify exact equality
separately).
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.gossip.node import GossipNode
from repro.gossip.rounds import (
    SESSION_FAILURES,
    GossipConfig,
    PairRound,
    run_round,
)
from repro.gossip.stats import ConvergenceReport, MeshRoundStats
from repro.net.protocols.machine_sync import MAX_SIM_EVENTS, LinkSession
from repro.net.simulator import Simulator

#: Per-item overhead charged when a sim-round delivers pushed items out
#: of band (count prefix + shard hint, mirroring a PUSH frame header).
PUSH_HEADER_BYTES = 10

TOPOLOGIES = ("ring", "random", "full")


def build_topology(
    n: int, kind: str, degree: int, rng: random.Random
) -> List[set]:
    """Neighbour sets for ``n`` nodes; always connected, undirected.

    ``ring`` links i↔i+1; ``random`` starts from that ring (guaranteed
    connectivity) and adds random edges until the average degree reaches
    ``degree``; ``full`` links every pair.
    """
    if n < 2:
        raise ValueError(f"a mesh needs at least 2 nodes, got {n}")
    if kind not in TOPOLOGIES:
        raise ValueError(f"unknown topology {kind!r} (want {TOPOLOGIES})")
    neighbors: List[set] = [set() for _ in range(n)]

    def link(a: int, b: int) -> None:
        if a != b:
            neighbors[a].add(b)
            neighbors[b].add(a)

    if kind == "full":
        for i in range(n):
            neighbors[i] = set(range(n)) - {i}
        return neighbors
    for i in range(n):  # the connectivity ring
        link(i, (i + 1) % n)
    if kind == "random":
        target_edges = max(n, (n * degree) // 2)
        edges = n  # the ring's
        attempts = 0
        while edges < target_edges and attempts < 50 * target_edges:
            a = rng.randrange(n)
            b = rng.randrange(n)
            attempts += 1
            if a != b and b not in neighbors[a]:
                link(a, b)
                edges += 1
    return neighbors


def select_pairs(
    neighbors: Sequence[set], fanout: int, rng: random.Random
) -> List[Tuple[int, int]]:
    """One round's (initiator, responder) schedule, deterministic in rng.

    Every node initiates to ``fanout`` distinct random neighbours (all
    of them when it has fewer).  Stand-alone so the flooding baseline
    can replay the *identical* schedule from an identically seeded rng.
    """
    pairs: List[Tuple[int, int]] = []
    for node_id in range(len(neighbors)):
        candidates = sorted(neighbors[node_id])
        picks = (
            candidates
            if len(candidates) <= fanout
            else rng.sample(candidates, fanout)
        )
        pairs.extend((node_id, peer) for peer in picks)
    return pairs


class GossipMesh:
    """Epidemic reconciliation over a fixed neighbourhood graph."""

    def __init__(
        self,
        nodes: Iterable[GossipNode],
        *,
        topology: str = "random",
        degree: int = 4,
        fanout: int = 2,
        seed: int = 0,
        config: Optional[GossipConfig] = None,
    ) -> None:
        self.nodes = list(nodes)
        if len({node.node_id for node in self.nodes}) != len(self.nodes):
            raise ValueError("node ids must be unique")
        self.config = config or GossipConfig()
        self.fanout = fanout
        self.seed = seed
        self.rng = random.Random(seed)
        self.topology = topology
        self.neighbors = build_topology(
            len(self.nodes), topology, degree, random.Random(seed ^ 0x70B0)
        )
        self.round_no = 0
        self.history: List[MeshRoundStats] = []

    # -- convergence -------------------------------------------------------

    @property
    def converged(self) -> bool:
        """All node digests match (equal sets, whp)."""
        first = self.nodes[0].digest()
        return all(
            node.digest().matches(first) for node in self.nodes[1:]
        )

    # -- rounds ------------------------------------------------------------

    def run_round(self) -> MeshRoundStats:
        """Run one full mesh round; returns (and records) its stats."""
        self.round_no += 1
        pairs = select_pairs(self.neighbors, self.fanout, self.rng)
        stats = MeshRoundStats(self.round_no)
        if self.config.transport == "sim":
            self._run_sim_round(pairs, stats)
        else:
            for initiator_id, responder_id in pairs:
                outcome = run_round(
                    self.nodes[initiator_id],
                    self.nodes[responder_id],
                    self.round_no,
                    self.config,
                )
                stats.absorb(outcome)
        self.history.append(stats)
        return stats

    def run_until_converged(self, max_rounds: int = 32) -> ConvergenceReport:
        """Anti-entropy until every digest matches (or the cap is hit).

        ``report.rounds`` counts the rounds actually executed; the mesh
        is checked after each, so a converged mesh costs one more round
        of (cheap) digest confirmation only if you keep calling this.
        """
        start = len(self.history)
        for _ in range(max_rounds):
            self.run_round()
            if self.converged:
                break
        executed = self.history[start:]
        return ConvergenceReport(
            converged=self.converged,
            rounds=len(executed),
            per_round=executed,
        )

    # -- the shared-simulator round (sim transport) ------------------------

    def _run_sim_round(
        self, pairs: List[Tuple[int, int]], stats: MeshRoundStats
    ) -> None:
        """All full sessions of one round, concurrent in virtual time.

        Cheap tiers resolve first (they are a frame each way at most);
        every pair that needs a full session then gets its own link on
        one shared simulator.  Machines run with ``push`` disabled and
        every diff — both directions — is applied after the event heap
        drains, so no concurrent stream cursor ever observes a mutation
        (see the module docstring).
        """
        config = self.config
        sessions: List[Tuple[PairRound, LinkSession]] = []
        sim = Simulator()
        for initiator_id, responder_id in pairs:
            pair = PairRound(
                self.nodes[initiator_id],
                self.nodes[responder_id],
                self.round_no,
                config,
            )
            outcome = pair.cheap_tiers()
            if outcome is not None:
                stats.absorb(outcome)
                continue
            # push=False: pushes are delivered after the round.
            session = pair.link_session(sim, push=False)
            session.start()
            sessions.append((pair, session))
        sim.run(max_events=MAX_SIM_EVENTS)
        for pair, session in sessions:
            try:
                report, wire_bytes, completed_at = session.result()
            except SESSION_FAILURES as exc:
                stats.absorb(pair.failed(exc))
                continue
            delivered = 0
            if config.push and report.only_in_local:
                exclusives = sorted(report.only_in_local)
                delivered = pair.y.learn(exclusives)
                wire_bytes += PUSH_HEADER_BYTES + sum(
                    len(item) for item in exclusives
                )
            stats.absorb(
                pair.done(report, wire_bytes, delivered, completed_at)
            )
