"""The hierarchical strategy's tier rule, one rank at a time — the oracle
for :meth:`HierarchicalCommunicator.wire_columns`, which meters every
rank of a collective at once, and for :meth:`HierarchicalCommunicator.
tiers`, which reduces those columns to a ``TierMetering``'s six numbers.

:func:`tier_contribution` is the wire rule as the ranks used to evaluate
it at every deposit (``self.topology`` became the first argument; the
byte classification that rode beside it left with the record's per-rank
columns).  :func:`tier_metering` reduces its rows the slow way, rank by
rank with dicts.  :func:`tier_hops` is the latency rule the strategy's ``hops``
method carried, amended so that an exchange in which nobody sends pays
the tree.  :func:`tier_row` asks the production code for one rank's row,
so the hand-computed tuples of ``test_topology.py`` read the code that
runs.
"""

from math import ceil, log2
from typing import List, Optional, Tuple

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
) -> Tuple[int, ...]:
    """The wire pair ``(wire_intra, wire_inter)`` of one rank.  A
    pairwise op reads ``dest_bytes``, the rank's bytes per destination."""
    b = int(nbytes)
    multi = topo.multi_node
    leader = topo.is_leader(rank)
    my_node = topo.node_of(rank)

    if op in _PAIRWISE_OPS:
        # contiguous packing (ranks node-major) turns a node into a slice
        # sum — no O(P) boolean mask
        dest = np.asarray(dest_bytes, dtype=np.int64)
        node_lo = topo.leader_of(rank)
        node_hi = node_lo + topo.node_size(my_node)
        total = int(dest.sum())
        intra = int(dest[node_lo:node_hi].sum())  # self slot is zero
        off_node = total - intra
        # local delivery + gather-to-leader for a non-leader's outbound
        # off-node bytes + remote scatter for off-node bytes not
        # addressed to the remote leader
        gather_leg = 0 if leader else off_node
        leaders_total = int(dest[::topo.ranks_per_node].sum())
        scatter_leg = off_node - (leaders_total - int(dest[node_lo]))
        return intra + gather_leg + scatter_leg, off_node

    if op in _REDUCE_OPS:
        if not multi or not leader:
            return b, 0
        # leader injects the node's reduced value upward and fans the
        # result back down if the node has peers
        fanout = b if topo.node_size(my_node) > 1 else 0
        return fanout, b

    if op in _CONCAT_OPS:
        if not multi:
            return b, 0
        # the contribution must reach every node: on the network by
        # nature; non-leaders also pay the local gather, leaders the
        # fan-out
        local_leg = b if (not leader or topo.node_size(my_node) > 1) else 0
        return local_leg, b

    if op == "checkpoint":
        # snapshots leave the node for stable storage regardless of
        # topology (documented exception); non-leaders stage through the
        # leader's writer
        gather_leg = 0 if (leader or not multi) else b
        return gather_leg, b

    raise ValueError(f"no tier rule for op {op!r}")


def tier_hops(topo: Topology, op: str, sends: bool) -> Tuple[int, int]:
    """``(intra, inter)`` latency hops of a round; ``sends`` says whether
    any rank sends off-rank in it."""
    n_nodes = topo.n_nodes
    width = topo.max_node_size
    if op in _PAIRWISE_OPS and sends:
        intra = 3 * (width - 1)
        inter = n_nodes - 1
        if n_nodes == 1:
            intra = width - 1  # no gather/scatter legs, plain local
    else:
        intra = 2 * (ceil(log2(width)) if width > 1 else 0)
        inter = ceil(log2(n_nodes)) if n_nodes > 1 else 0
        if n_nodes == 1:
            intra = ceil(log2(width)) if width > 1 else 0
    return intra, inter


def tier_rows(columns) -> List[Tuple[int, ...]]:
    """Each rank's ``tier_contribution``-ordered pair of
    :meth:`HierarchicalCommunicator.wire_columns`' ``columns``."""
    return [tuple(int(v) for v in row) for row in zip(*columns)]


def tier_metering(topo: Topology, op: str, traffic: np.ndarray):
    """The six numbers a ``TierMetering`` of the round holds, as a dict,
    from :func:`tier_contribution` rank by rank: per-tier totals, the
    busiest rank's ``wire_intra``, the busiest node's summed
    ``wire_inter``, and :func:`tier_hops`."""
    nbytes = traffic.sum(axis=1) if traffic.ndim == 2 else traffic
    rows = [tier_contribution(
                topo, op, r, nbytes[r],
                dest_bytes=traffic[r] if traffic.ndim == 2 else None)
            for r in range(topo.nprocs)]
    per_node: dict = {}
    for r, (_, inter) in enumerate(rows):
        node = topo.node_of(r)
        per_node[node] = per_node.get(node, 0) + inter
    hops = tier_hops(topo, op, bool(np.asarray(nbytes).any()))
    return dict(
        wire_intra=sum(row[0] for row in rows),
        wire_inter=sum(row[1] for row in rows),
        max_wire_intra=max(row[0] for row in rows),
        max_node_wire_inter=max(per_node.values()),
        intra_hops=hops[0], inter_hops=hops[1])


def tier_row(comm, op, rank, nbytes, dest_bytes=None) -> Tuple[int, ...]:
    """Row ``rank`` of ``comm.wire_columns`` when that rank meters
    ``nbytes`` (for a pairwise op: ``dest_bytes`` per destination) and its
    peers nothing."""
    nprocs = comm.topology.nprocs
    if dest_bytes is None:
        traffic = np.zeros(nprocs, dtype=np.int64)
        traffic[rank] = nbytes
    else:
        traffic = np.zeros((nprocs, nprocs), dtype=np.int64)
        traffic[rank] = dest_bytes
    return tier_rows(comm.wire_columns(op, traffic))[rank]
