"""The hierarchical strategy's tier rule, one rank at a time — the oracle
for :meth:`HierarchicalCommunicator.tier_matrix`, which classifies every
rank of a collective at once.

:func:`tier_contribution` is the rule as the ranks used to evaluate it at
every deposit, moved here verbatim (``self.topology`` became the first
argument).  :func:`tier_row` asks the production matrix for one rank's
row, so the hand-computed tuples of ``test_topology.py`` /
``test_rack_tier.py`` read the code that runs.
"""

from typing import Optional, Tuple

import numpy as np

from repro.simmpi.topology import Topology
from repro.simmpi.topology.hierarchical import (
    _CONCAT_OPS,
    _PAIRWISE_OPS,
    _REDUCE_OPS,
)


def tier_contribution(
    topo: Topology,
    op: str,
    rank: int,
    nbytes: int,
    dest_bytes: Optional[np.ndarray] = None,
    root: Optional[int] = None,
) -> Tuple[int, ...]:
    """The 6-tuple ``(intra, inter, xrack, wire_intra, wire_inter,
    wire_xrack)``; the classification entries sum to ``nbytes``."""
    b = int(nbytes)
    multi = topo.multi_node
    multi_rack = topo.multi_rack
    leader = topo.is_leader(rank)
    my_node = topo.node_of(rank)

    def out(intra, inter, wire_intra, wire_inter, xrack=0, wire_xrack=0):
        return intra, inter, xrack, wire_intra, wire_inter, wire_xrack

    if op in _PAIRWISE_OPS and dest_bytes is not None:
        # contiguous packing (ranks node-major, nodes rack-major) turns
        # every locality class into a slice sum — no O(P) boolean masks
        dest = np.asarray(dest_bytes, dtype=np.int64)
        node_lo = topo.leader_of(rank)
        node_hi = node_lo + topo.node_size(my_node)
        total = int(dest.sum())
        intra = int(dest[node_lo:node_hi].sum())  # self slot is zero
        off_node = total - intra
        # wire model: local delivery + gather-to-leader for a
        # non-leader's outbound off-node bytes + remote scatter for
        # off-node bytes not addressed to the remote leader
        gather_leg = 0 if leader else off_node
        leaders_total = int(dest[::topo.ranks_per_node].sum())
        scatter_leg = off_node - (leaders_total - int(dest[node_lo]))
        wire_intra = intra + gather_leg + scatter_leg
        if multi_rack:
            rack_lo, rack_hi = topo.rack_span(topo.rack_of(rank))
            in_rack = int(dest[rack_lo:rack_hi].sum())
            inter = in_rack - intra
            xrack = total - in_rack
        else:
            inter, xrack = off_node, 0
        return out(intra, inter, wire_intra, inter, xrack, xrack)

    if op in _REDUCE_OPS:
        if not multi:
            return out(b, 0, b, 0)
        if not leader:
            return out(b, 0, b, 0)
        # leader injects the node's reduced value upward and fans the
        # result back down if the node has peers
        fanout = b if topo.node_size(my_node) > 1 else 0
        if multi_rack and topo.is_rack_leader(rank):
            # rack leader carries the rack's value across racks and
            # redistributes the global result to its peer node leaders
            rack_lo, rack_hi = topo.rack_span(topo.rack_of(rank))
            rack_nodes = -(-(rack_hi - rack_lo) // topo.ranks_per_node)
            rack_fanout = b if rack_nodes > 1 else 0
            return out(0, 0, fanout, rack_fanout, b, b)
        return out(0, b, fanout, b)

    if op in _CONCAT_OPS:
        if not multi:
            return out(b, 0, b, 0)
        # the contribution must reach every node: inter by nature;
        # non-leaders also pay the local gather, leaders the fan-out
        local_leg = b if (not leader or topo.node_size(my_node) > 1) else 0
        if multi_rack:
            return out(0, 0, local_leg, b, b, b)
        return out(0, b, local_leg, b)

    if op == "bcast":
        if root is None or rank != root or b == 0:
            return out(0, 0, 0, 0)
        if not multi:
            return out(b, 0, b, 0)
        fanout = b if topo.node_size(my_node) > 1 else 0
        if multi_rack:
            return out(0, 0, fanout, b, b, b)
        return out(0, b, fanout, b)

    if op == "checkpoint":
        # snapshots leave the node for stable storage regardless of
        # topology (documented exception: never charged to the rack
        # tier); non-leaders stage through the leader's writer
        gather_leg = 0 if (leader or not multi) else b
        return out(0, b, gather_leg, b)

    # unknown op: conservatively charge every metered byte to the
    # widest tier the topology has
    if not multi:
        return out(b, 0, b, 0)
    if multi_rack:
        return out(0, 0, 0, 0, b, b)
    return out(0, b, 0, b)


def tier_row(comm, op, rank, nbytes, dest_bytes=None,
             root=None) -> Tuple[int, ...]:
    """Row ``rank`` of ``comm.tier_matrix`` when that rank meters
    ``nbytes`` (and ``dest_bytes``, if given) and its peers nothing."""
    nprocs = comm.topology.nprocs
    per_rank = np.zeros(nprocs, dtype=np.int64)
    per_rank[rank] = nbytes
    dest = None
    if dest_bytes is not None:
        dest = np.zeros((nprocs, nprocs), dtype=np.int64)
        dest[rank] = dest_bytes
    matrix = comm.tier_matrix(op, per_rank, dest, root)
    return tuple(int(v) for v in matrix[rank])
