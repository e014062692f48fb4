"""The hierarchical strategy's tier rule, one rank at a time — the oracle
for :meth:`HierarchicalCommunicator.wire_columns`, which meters every
rank of a collective at once, and for :meth:`HierarchicalCommunicator.
tiers`, which sums those columns to a ``TierMetering``'s two numbers —
an exchange's row plus, where it carries a reduction operand, that
operand's ``allreduce`` row.

:func:`tier_contribution` is the wire rule as the ranks used to evaluate
it at every deposit (``self.topology`` became the first argument; the
byte classification that rode beside it left with the record's per-rank
columns; the node, its leader and its span are derived here from
``ranks_per_node``, as :class:`Topology` no longer answers them one rank
at a time).  :func:`tier_metering` sums its rows the slow way, rank by
rank.  :func:`tier_row` asks the production code for one rank's row,
so the hand-computed tuples of ``test_topology.py`` read the code that
runs.
"""

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
    # ranks are packed node-major: the node's leader is its lowest rank,
    # and the node spans up to ranks_per_node ranks from there
    rpn = topo.ranks_per_node
    node_lo = rank - rank % rpn
    node_hi = min(node_lo + rpn, topo.nprocs)
    leader = rank == node_lo
    has_peers = node_hi - node_lo > 1

    if op in _PAIRWISE_OPS:
        # contiguous packing turns a node into a slice sum — no O(P)
        # boolean mask
        dest = np.asarray(dest_bytes, dtype=np.int64)
        total = int(dest.sum())
        intra = int(dest[node_lo:node_hi].sum())  # self slot is zero
        off_node = total - intra
        # local delivery + gather-to-leader for a non-leader's outbound
        # off-node bytes + remote scatter for off-node bytes not
        # addressed to the remote leader
        gather_leg = 0 if leader else off_node
        leaders_total = int(dest[::rpn].sum())
        scatter_leg = off_node - (leaders_total - int(dest[node_lo]))
        return intra + gather_leg + scatter_leg, off_node

    if op in _REDUCE_OPS:
        if not multi or not leader:
            return b, 0
        # leader injects the node's reduced value upward and fans the
        # result back down if the node has peers
        fanout = b if has_peers else 0
        return fanout, b

    if op in _CONCAT_OPS:
        if not multi:
            return b, 0
        # the contribution must reach every node: on the network by
        # nature; non-leaders also pay the local gather, leaders the
        # fan-out
        local_leg = b if (not leader or has_peers) else 0
        return local_leg, b

    raise ValueError(f"no tier rule for op {op!r}")


def tier_rows(columns) -> List[Tuple[int, ...]]:
    """Each rank's ``tier_contribution``-ordered pair of
    :meth:`HierarchicalCommunicator.wire_columns`' ``columns``."""
    return [tuple(int(v) for v in row) for row in zip(*columns)]


def tier_metering(topo: Topology, op: str, traffic: np.ndarray,
                  reduced: Optional[np.ndarray] = None):
    """The two numbers a ``TierMetering`` of the round holds, as a dict,
    from :func:`tier_contribution` rank by rank: the per-tier totals.  An
    exchange's ``reduced`` operand bytes add each rank's ``allreduce``
    row to its exchange row."""
    nbytes = traffic.sum(axis=1) if traffic.ndim == 2 else traffic
    rows = [tier_contribution(
                topo, op, r, nbytes[r],
                dest_bytes=traffic[r] if traffic.ndim == 2 else None)
            for r in range(topo.nprocs)]
    if reduced is not None:
        rows = [tuple(a + b for a, b in zip(
                    row, tier_contribution(topo, "allreduce", r, reduced[r])))
                for r, row in enumerate(rows)]
    return dict(wire_intra=sum(row[0] for row in rows),
                wire_inter=sum(row[1] for row in rows))


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
