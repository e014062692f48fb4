"""Hierarchical (node-aware) communicator strategy.

Models the hierarchical exchange every scalable distributed partitioner
implements (dKaMinPar's node-aggregated message queues, ChainerMN's
``hierarchical`` communicator): ranks sharing a node move data over shared
memory, and the node's *leader* carries one aggregated message per remote
node instead of ``ranks_per_node**2`` rank-pair messages.

For an Alltoallv the protocol is:

1. **intra-node gather** — every rank hands its off-node payload to its
   node leader (shared-memory copy);
2. **inter-node exchange** — each leader sends one aggregated message per
   remote node, carrying all rank-pair payloads between the two nodes;
3. **intra-node scatter** — the receiving leader splits the aggregate and
   delivers each piece to its destination rank (shared-memory copy).

Broadcasts and reductions follow the same shape: reduce to the leader
inside the node, run the collective among leaders only, fan the result
back out.

Payload movement in the simulator is untouched — the rendezvous and its
``execute`` closure run exactly as under ``flat``, so partitions and the
:meth:`~repro.simmpi.metrics.CommStats.signature` record stay
bit-identical.  What this class computes is the *metering*: the
``wire_intra``/``wire_inter`` model of what the hierarchical protocol
itself would put on each wire, per rank, summed where the round is
recorded to the two numbers of a
:class:`~repro.simmpi.metrics.TierMetering` — the per-tier totals the
reports read.  No machine model prices them: every modeled time is the
flat model's (:mod:`repro.simmpi.timing`).

Per-op wire rules (``b`` = the rank's metered ``bytes_sent``), one for
each op :class:`~repro.simmpi.comm.SimComm` emits, and none for anything
else:

* **pairwise** (``alltoallv``): read off the round's per-destination
  byte matrix.  Bytes to the rank's own node move once locally; a
  non-leader's off-node bytes pay an extra local gather hop to the
  leader; off-node bytes whose destination is not its node's leader pay
  the remote scatter hop.  Off-node bytes cross the network
  (``wire_inter``) unchanged.  An exchange that carries a reduction
  operand adds the reduction rule's wires for the operand bytes.
* **reductions** (``allreduce``, ``barrier``): non-leaders reduce onto
  their leader (intra); only leaders enter the inter-node phase, so a
  node injects one contribution instead of ``node_size`` — the classic
  hierarchical-allreduce saving.
* **concatenations** (``allgatherv``): every rank's
  contribution must reach every node, so ``b`` is on the network on
  multi-node topologies; non-leaders pay the local gather hop and leaders
  the local fan-out hop.

A single-node topology degenerates to all-intra; one-rank nodes
degenerate to ``flat``.  The inter tier is one network spanning every
node, as the paper's machine (one Gemini torus) has.

The rules run **once per metered round, for every rank at once**
(:meth:`HierarchicalCommunicator.wire_columns`), where the backend
records the round, from the traffic the round's ``execute`` read off the
contributions — the ranks deposit no metering input.  Ranks are packed
node-major, so a node is a contiguous span of the destination axis and
one ``np.add.reduceat`` over the exchange's ``P x P`` byte matrix sums
it for all sources.  The per-rank columns live only until
:meth:`HierarchicalCommunicator.tiers` sums them, so a round's record is
two integers whatever the rank count.  The rule one rank at a time is the
test oracle (``tests/reference/tiers.py``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.simmpi.metrics import TierMetering
from repro.simmpi.topology.model import Topology

#: Pairwise exchanges: payload addressed to explicit destination ranks.
_PAIRWISE_OPS = frozenset({"alltoallv"})
#: Ops reduced to a single value (leaders-only inter phase).
_REDUCE_OPS = frozenset({"allreduce", "barrier"})
#: Ops concatenating every rank's contribution onto every rank.
_CONCAT_OPS = frozenset({"allgatherv"})


class HierarchicalCommunicator:
    """Node-aware metering strategy.

    :meth:`tiers` meters all ranks of one metered round at once (called
    where the round is recorded).  Flat metering has no strategy object
    at all (see :func:`repro.simmpi.topology.create_communicator`).
    """

    name = "hierarchical"

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        # what tiers reads of the topology, once per run: ranks are
        # packed node-major, so a node is one slice of the rank axis and
        # reduceat sums it
        n, rpn = topology.nprocs, topology.ranks_per_node
        ranks = np.arange(n)
        self._ranks = ranks
        self._node_of = topology.node_of_ranks()
        self._node_starts = np.arange(0, n, rpn)
        self._leader_of = ranks - ranks % rpn
        self._leader = ranks % rpn == 0
        #: ranks whose node holds more than one rank (a leader fans out)
        self._has_peers = np.minimum(rpn, n - self._leader_of) > 1

    def _locality_sums(self, m: np.ndarray):
        """Per source rank, the sum of ``m[src, dst]`` over every
        destination and over the source's own node."""
        per_node = np.add.reduceat(m, self._node_starts, axis=1,
                                   dtype=np.int64)
        return per_node.sum(axis=1), per_node[self._ranks, self._node_of]

    def tiers(self, op: str, traffic: np.ndarray,
              reduced: Optional[np.ndarray] = None) -> TierMetering:
        """The tier view of one metered round: :meth:`wire_columns`
        summed to per-tier totals.

        Called once per round, where the backend records it, with the
        round's ``traffic``: each rank's metered bytes ``b``, or for an
        ``alltoallv`` its ``P x P`` per-destination bytes (diagonal
        zero) and, if the exchange carries a reduction, each rank's
        operand bytes ``reduced``."""
        intra, inter = self.wire_columns(op, traffic, reduced)
        return TierMetering(wire_intra=int(intra.sum()),
                            wire_inter=int(inter.sum()))

    def wire_columns(self, op: str, traffic: np.ndarray,
                     reduced: Optional[np.ndarray] = None):
        """Each rank's ``(wire_intra, wire_inter)`` bytes of one round,
        as two ``(nprocs,)`` int64 columns — the protocol's
        wire model, which need not sum to the metered bytes.  An
        exchange's ``reduced`` operand bytes add the reduction rule's
        columns to the exchange's.  An op no rule names is a
        ``ValueError``."""
        topo = self.topology
        multi = topo.multi_node
        leader = self._leader

        def out(wire_intra, wire_inter):
            return tuple(np.broadcast_to(np.asarray(v, dtype=np.int64),
                                         (topo.nprocs,))
                         for v in (wire_intra, wire_inter))

        if op in _PAIRWISE_OPS:
            dest = traffic
            total, intra = self._locality_sums(dest)  # self slot 0
            off_node = total - intra
            # local delivery + gather-to-leader for a non-leader's
            # outbound off-node bytes + remote scatter for off-node bytes
            # not addressed to the remote leader; the off-node bytes go
            # on the network unchanged
            gather_leg = np.where(leader, 0, off_node)
            remote_leaders = (
                dest[:, ::topo.ranks_per_node].sum(axis=1)
                - dest[self._ranks, self._leader_of])
            scatter_leg = off_node - remote_leaders
            wires = out(intra + gather_leg + scatter_leg, off_node)
            if reduced is None:
                return wires
            return tuple(a + b for a, b in zip(
                wires, self.wire_columns("allreduce", reduced)))

        b = traffic
        if op in _REDUCE_OPS:
            if not multi:
                return out(b, 0)
            # non-leaders reduce onto their leader; a leader injects the
            # node's reduced value upward and fans the result back down
            # if the node has peers
            return out(np.where(leader & ~self._has_peers, 0, b),
                       np.where(leader, b, 0))

        if op in _CONCAT_OPS:
            if not multi:
                return out(b, 0)
            # the contribution must reach every node: inter by nature;
            # non-leaders also pay the local gather, leaders the fan-out
            local_leg = np.where(~leader | self._has_peers, b, 0)
            return out(local_leg, b)

        raise ValueError(f"no tier rule for op {op!r}")
