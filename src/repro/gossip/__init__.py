"""``repro.gossip`` — N-node anti-entropy over the protocol engine.

Every other layer of this repo reconciles exactly two peers.  This
package is the paper's headline deployment shape (§1, §7: block and
transaction relay) — an epidemic mesh where each node repeatedly
repairs against a changing neighbourhood — built entirely out of the
existing pieces:

* each :class:`GossipNode` stores its set in the same warm
  :class:`~repro.service.backends.ShardBackend` the asyncio service
  serves (one continuously patched coded-symbol bank, never re-encoded
  per peer);
* every full exchange drives the sans-io
  :class:`~repro.protocol.InitiatorMachine` /
  :class:`~repro.protocol.ResponderMachine` pair over a pluggable
  transport, each through that transport's one driver — the lock-step
  memory loop (:func:`repro.protocol.pump.drive`), one lossy
  :class:`~repro.net.protocols.machine_sync.LinkSession` per pair on a
  shared discrete-event simulator, or real asyncio TCP via
  :class:`~repro.service.ReconciliationServer`;
* but *most* exchanges never get that far: per-peer version clocks
  (:class:`~repro.gossip.node.PeerView`) skip provably-unchanged
  neighbours for free, and a ~14-byte :class:`SetDigest` exchange
  confirms already-equal sets before any coded symbol moves — so a
  round costs O(diff), not O(set).

Quick start::

    from repro.gossip import GossipMesh, GossipNode, make_nodes

    nodes = make_nodes(node_sets)          # list[set[bytes]]
    mesh = GossipMesh(nodes, topology="random", fanout=2, seed=7)
    report = mesh.run_until_converged()
    assert report.converged

CLI: ``repro gossip --nodes 32 --diff 0.01`` runs a synthetic mesh and
prints the per-round tier/byte breakdown against naive flooding.
"""

from typing import Iterable, Optional, Sequence

from repro.api.registry import Scheme, get_scheme
from repro.gossip.mesh import GossipMesh, build_topology, select_pairs
from repro.gossip.node import GossipNode, PeerView, SetDigest
from repro.gossip.rounds import (
    SESSION_FAILURES,
    GossipConfig,
    decode_digest,
    encode_digest,
    run_round,
)
from repro.gossip.stats import (
    ConvergenceReport,
    FloodingReport,
    MeshRoundStats,
    RoundOutcome,
    simulate_flooding,
)

# Re-export: the simulated-link driver lives with the other simulators.
from repro.net.protocols.machine_sync import run_link_session


def make_nodes(
    node_sets: Sequence[Iterable[bytes]],
    *,
    handle: Optional[Scheme] = None,
    scheme: str = "riblt",
    num_shards: int = 1,
    **params: object,
) -> list:
    """Build one :class:`GossipNode` per input set, sharing one scheme
    handle (and therefore one keyed hash — peers that disagree on the
    key cannot reconcile, exactly as in the two-party transports)."""
    handle = get_scheme(handle or scheme, **params).bound_to(*node_sets)
    return [
        GossipNode(node_id, members, handle=handle, num_shards=num_shards)
        for node_id, members in enumerate(node_sets)
    ]


__all__ = [
    "ConvergenceReport",
    "FloodingReport",
    "GossipConfig",
    "GossipMesh",
    "GossipNode",
    "MeshRoundStats",
    "PeerView",
    "RoundOutcome",
    "SESSION_FAILURES",
    "SetDigest",
    "build_topology",
    "decode_digest",
    "encode_digest",
    "make_nodes",
    "run_link_session",
    "run_round",
    "select_pairs",
    "simulate_flooding",
]
