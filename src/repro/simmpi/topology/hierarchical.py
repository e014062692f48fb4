"""Two-level (node-aware) communicator strategy.

Models the hierarchical exchange every scalable distributed partitioner
implements (dKaMinPar's node-aggregated message queues, ChainerMN's
``hierarchical`` communicator): ranks sharing a node move data over shared
memory, and the node's *leader* carries one aggregated message per remote
node instead of ``ranks_per_node**2`` rank-pair messages.

For an Alltoallv the protocol is:

1. **intra-node gather** — every rank hands its off-node payload to its
   node leader (shared-memory copy);
2. **inter-node exchange** — each leader sends one aggregated message per
   remote node, carrying all rank-pair payloads between the two nodes,
   with the per-rank-pair sub-counts re-encoded as ``uint32`` headers;
3. **intra-node scatter** — the receiving leader splits the aggregate and
   delivers each piece to its destination rank (shared-memory copy).

Broadcasts and reductions follow the same shape: reduce to the leader
inside the node, run the collective among leaders only, fan the result
back out.

Payload movement in the simulator is untouched — the rendezvous and its
``execute`` closure run exactly as under ``flat``, so partitions and the
:meth:`~repro.simmpi.metrics.CommStats.signature` record stay
bit-identical.  What this class computes is the *metering*: a
sum-preserving intra/inter classification of each rank's metered bytes,
plus the separate ``wire_intra``/``wire_inter`` model of what the
two-level protocol itself would put on each wire.  The tiered machine
models (:class:`repro.simmpi.timing.TieredMachineModel`) price the wire
model per tier; the classification feeds the volume breakdowns.

Per-op rules (``b`` = the rank's metered ``bytes_sent``), one for each op
:class:`~repro.simmpi.comm.SimComm` emits:

* **pairwise** (``alltoallv`` and its ``alltoall`` count header):
  ``intra``/``inter`` split ``b`` by the destination's node.  Wire: the
  intra bytes move once locally; a non-leader's inter bytes pay an extra
  local gather hop to the leader; off-node bytes whose destination is not
  its node's leader pay the remote scatter hop; count headers cross the
  network re-encoded at 4 bytes per off-node entry.
* **reductions** (``allreduce``, ``barrier``): non-leaders reduce onto
  their leader (intra); only leaders enter the inter-node phase, so a
  node injects one contribution instead of ``node_size`` — the classic
  hierarchical-allreduce saving.
* **concatenations** (``allgather``, ``allgatherv``): every rank's
  contribution must reach every node, so ``b`` is inter on multi-node
  topologies; non-leaders pay the local gather hop and leaders the local
  fan-out hop.
* **``bcast``**: only the root's bytes count; intra on a single node,
  else off-node (cross-rack over racks), with a local fan-out hop where
  the root's node has peers.
* **``checkpoint``**: always inter — snapshot payloads leave the node for
  stable storage regardless of topology (documented exception to the
  node-locality rules).
* anything else (an op no rule names): conservatively all-inter.

Latency hops per round: pairwise ops cost ``n_nodes - 1`` inter hops plus
``3 * (max_node_size - 1)`` intra hops (gather, local exchange, scatter);
tree ops cost ``ceil(log2 n_nodes)`` inter plus ``2 * ceil(log2
max_node_size)`` intra (reduce up, broadcast down).  A single-node
topology degenerates to all-intra; one-rank nodes degenerate to ``flat``.

Rack topologies (``hierarchical:RxK``) add a third tier: payload is
classified ``intra`` (same node) / ``inter`` (off-node, same rack) /
``xrack`` (off-rack), still summing to the rank's metered bytes, and the
wire model grows a ``wire_xrack`` leg — cross-rack traffic is
*rack-leader* injected (the lowest rank of a rack aggregates its nodes'
off-rack messages), so the rack tier's bandwidth bound is the busiest
rack's uplink.  Latency adds ``n_racks - 1`` (pairwise) or ``ceil(log2
n_racks)`` (tree) cross-rack hops while the inter hop count narrows to
the within-rack node count.  Without racks every formula reduces to the
two-tier form above, bit-identically.

The split runs **once per metered round, for every rank at once**
(:meth:`HierarchicalCommunicator.tier_matrix`), where the backend records
the round — not once per rank at its deposit: the ranks deposit only what
they hold (their metered bytes and, for pairwise ops, the
per-destination byte vector).  Ranks are packed node-major and nodes
rack-major, so every locality class is a contiguous span of the
destination axis and one ``np.add.reduceat`` over the stacked ``P x P``
matrix sums it for all sources.  The rule one rank at a time — what the
ranks used to evaluate — is the test oracle
(``tests/reference/tiers.py``).
"""

from __future__ import annotations

from math import ceil, log2
from typing import Optional, Tuple

import numpy as np

from repro.simmpi.topology.model import Topology

#: Pairwise exchanges: payload addressed to explicit destination ranks,
#: latency scaling with the participant count.  ``alltoall`` is the count
#: header an ``alltoallv`` round is prefixed with.
_PAIRWISE_OPS = frozenset({"alltoall", "alltoallv"})
#: Ops reduced to a single value (leaders-only inter phase).
_REDUCE_OPS = frozenset({"allreduce", "barrier"})
#: Ops concatenating every rank's contribution onto every rank.
_CONCAT_OPS = frozenset({"allgather", "allgatherv"})

#: Wire bytes per count-header entry after uint32 re-encoding.  Ghost
#: exchange counts are int64 rank-side, but no aggregated node-pair
#: message carries anywhere near 2**32 records, so the two-level protocol
#: ships the sub-counts narrowed — half the header traffic.
COUNT_WIRE_BYTES = 4


class HierarchicalCommunicator:
    """Node-aware two-level metering strategy.

    :meth:`tier_matrix` classifies all ranks of one metered round at once
    (called where the round is recorded) and :meth:`hops` gives each op's
    latency structure.  Flat metering has no strategy object at all (see
    :func:`repro.simmpi.topology.create_communicator`).
    """

    name = "hierarchical"

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        #: Shared rank -> node map, reused by every event's TierMetering.
        self.node_map = topology.node_of_ranks()
        #: Shared rank -> rack map (None without a rack tier), reused by
        #: every event's TierMetering like :attr:`node_map`.
        self.rack_map = (topology.rack_of_ranks()
                         if topology.has_racks else None)
        # what tier_matrix reads of the topology, once per run: ranks are
        # packed node-major and nodes rack-major, so a node / rack is one
        # slice of the rank / node axis and reduceat sums it
        n, rpn = topology.nprocs, topology.ranks_per_node
        ranks = np.arange(n)
        self._ranks = ranks
        self._node_starts = np.arange(0, n, rpn)
        self._leader_of = ranks - ranks % rpn
        self._leader = ranks % rpn == 0
        #: ranks whose node holds more than one rank (a leader fans out)
        self._has_peers = np.minimum(rpn, n - self._leader_of) > 1
        if topology.multi_rack:
            stride = topology.ranks_per_rack
            self._rack_node_starts = np.arange(
                0, topology.n_nodes, topology.nodes_per_rack)
            self._rack_leader = ranks % stride == 0
            #: ranks whose rack holds more than one node
            self._rack_has_peers = np.minimum(
                stride, n - (ranks - ranks % stride)) > rpn

    def _locality_sums(self, m: np.ndarray):
        """Per source rank, the sum of ``m[src, dst]`` over every
        destination, over the source's own node and over its own rack
        (= every destination when there is one rack)."""
        per_node = np.add.reduceat(m, self._node_starts, axis=1,
                                   dtype=np.int64)
        total = per_node.sum(axis=1)
        node = per_node[self._ranks, self.node_map]
        if not self.topology.multi_rack:
            return total, node, total
        per_rack = np.add.reduceat(per_node, self._rack_node_starts, axis=1)
        return total, node, per_rack[self._ranks, self.rack_map]

    def tier_matrix(
        self,
        op: str,
        nbytes: np.ndarray,
        dest: Optional[np.ndarray] = None,
        root: Optional[int] = None,
        counts: bool = False,
    ) -> np.ndarray:
        """Every rank's tier bytes for one metered round, as an int64
        ``(nprocs, 4)`` matrix ``(intra, inter, wire_intra, wire_inter)``
        on rack-less topologies, or ``(nprocs, 6)`` with ``xrack`` and
        ``wire_xrack`` after each pair on rack topologies: ``(intra,
        inter, xrack, wire_intra, wire_inter, wire_xrack)``.

        Called once per round, where the backend records it, with the
        metering inputs the ranks deposited: ``nbytes[r]`` is rank ``r``'s
        metered payload, ``dest[r, d]`` its bytes addressed to rank ``d``
        for pairwise ops (diagonal zero; None for every other op),
        ``root`` the root of a ``bcast``, and ``counts`` flags the
        count-header round of an Alltoallv.  The classification entries
        of a row sum to its ``nbytes`` at either width; the ``wire_*``
        columns are the separate protocol model and need not."""
        topo = self.topology
        b = np.asarray(nbytes, dtype=np.int64)
        multi = topo.multi_node
        multi_rack = topo.multi_rack
        leader = self._leader

        def out(intra, inter, wire_intra, wire_inter, xrack=0, wire_xrack=0):
            cols = ((intra, inter, xrack, wire_intra, wire_inter, wire_xrack)
                    if topo.has_racks
                    else (intra, inter, wire_intra, wire_inter))
            matrix = np.empty((topo.nprocs, len(cols)), dtype=np.int64)
            for j, col in enumerate(cols):
                matrix[:, j] = col
            return matrix

        if op in _PAIRWISE_OPS and dest is not None:
            dest = np.asarray(dest, dtype=np.int64)
            total, intra, in_rack = self._locality_sums(dest)  # self slot 0
            off_node = total - intra
            # wire model: local delivery + gather-to-leader for a
            # non-leader's outbound off-node bytes + remote scatter for
            # off-node bytes not addressed to the remote leader
            gather_leg = np.where(leader, 0, off_node)
            remote_leaders = (
                dest[:, ::topo.ranks_per_node].sum(axis=1)
                - dest[self._ranks, self._leader_of])
            scatter_leg = off_node - remote_leaders
            wire_intra = intra + gather_leg + scatter_leg
            inter = in_rack - intra
            xrack = total - in_rack
            if not counts:
                return out(intra, inter, wire_intra, inter, xrack, xrack)
            nnz_total, nnz_node, nnz_rack = self._locality_sums(dest != 0)
            return out(intra, inter, wire_intra,
                       COUNT_WIRE_BYTES * (nnz_rack - nnz_node), xrack,
                       COUNT_WIRE_BYTES * (nnz_total - nnz_rack))

        if op in _REDUCE_OPS:
            if not multi:
                return out(b, 0, b, 0)
            # non-leaders reduce onto their leader; a leader injects the
            # node's reduced value upward and fans the result back down
            # if the node has peers
            up = np.where(leader, b, 0)
            wire_intra = np.where(leader & ~self._has_peers, 0, b)
            if not multi_rack:
                return out(b - up, up, wire_intra, up)
            # a rack leader carries the rack's value across racks and
            # redistributes the global result to its peer node leaders
            xrack = np.where(self._rack_leader, b, 0)
            rack_fanout = np.where(self._rack_has_peers, xrack, 0)
            return out(b - up, up - xrack, wire_intra,
                       up - xrack + rack_fanout, xrack, xrack)

        if op in _CONCAT_OPS:
            if not multi:
                return out(b, 0, b, 0)
            # the contribution must reach every node: inter by nature;
            # non-leaders also pay the local gather, leaders the fan-out
            local_leg = np.where(~leader | self._has_peers, b, 0)
            if multi_rack:
                return out(0, 0, local_leg, b, b, b)
            return out(0, b, local_leg, b)

        if op == "bcast":
            if root is None:
                return out(0, 0, 0, 0)
            sent = np.where(self._ranks == root, b, 0)
            if not multi:
                return out(sent, 0, sent, 0)
            fanout = np.where(self._has_peers, sent, 0)
            if multi_rack:
                return out(0, 0, fanout, sent, sent, sent)
            return out(0, sent, fanout, sent)

        if op == "checkpoint":
            # snapshots leave the node for stable storage regardless of
            # topology (documented exception: never charged to the rack
            # tier); non-leaders stage through the leader's writer
            return out(0, b, np.where(leader, 0, b) if multi else 0, b)

        # unknown op: conservatively charge every metered byte to the
        # widest tier the topology has
        if not multi:
            return out(b, 0, b, 0)
        if multi_rack:
            return out(0, 0, 0, 0, b, b)
        return out(0, b, 0, b)

    def hops(self, op: str) -> Tuple[int, ...]:
        """``(intra, inter)`` latency hops, with a third cross-rack entry
        appended on rack topologies (legacy values preserved otherwise:
        on a rack topology the inter entry narrows to the within-rack
        node count)."""
        topo = self.topology
        n_nodes = topo.n_nodes
        width = topo.max_node_size
        racked = topo.has_racks
        peers = topo.max_nodes_per_rack if racked else n_nodes
        n_racks = topo.n_racks
        if op in _PAIRWISE_OPS:
            intra = 3 * (width - 1)
            inter = peers - 1
            xrack = n_racks - 1
            if n_nodes == 1:
                intra = width - 1  # no gather/scatter legs, plain local
        else:
            intra = 2 * (ceil(log2(width)) if width > 1 else 0)
            inter = ceil(log2(peers)) if peers > 1 else 0
            xrack = ceil(log2(n_racks)) if n_racks > 1 else 0
            if n_nodes == 1:
                intra = ceil(log2(width)) if width > 1 else 0
        if racked:
            return intra, inter, xrack
        return intra, inter

