"""Distributed operations over a :class:`~repro.dist.distgraph.DistGraph`.

:class:`ExchangePlan` is the static halo-exchange pattern (build once, reuse
every superstep) used by the analytics engine and SpMV: after one gid
round-trip at construction, each exchange moves *values only* — the
optimization real codes (Zoltan, Trilinos) apply when the communication
pattern is fixed.  The partitioner itself uses the paper's dynamic
``ExchangeUpdates`` instead (:mod:`repro.core.exchange`), which ships
(vertex, part) pairs for updated vertices only.

All plan traffic funnels through ``SimComm.Alltoallv``, so exchange
plans are communicator-strategy-agnostic: under a topology-aware
strategy (:mod:`repro.simmpi.topology`) the very same exchanges are
metered as two-level (intra-node gather, aggregated inter-node message,
intra-node scatter) without any change here — values, counts, and the
communication record stay bit-identical.

Read-only contract: both :meth:`ExchangePlan.pull` and
:meth:`ExchangePlan.push` consume their received buffer read-only (indexed
assignment / ``ufunc.at`` reads *from* it into the caller's ``values``),
so the receive side may be a sealed view shared across in-process ranks.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.dist.distgraph import DistGraph
from repro.dist.packing import bucket_by_rank
from repro.graph.gather import neighbor_gather
from repro.simmpi.comm import SimComm

_COMBINE = {
    "replace": None,
    "min": np.minimum,
    "max": np.maximum,
    "sum": np.add,
}


class ExchangePlan:
    """Static owner↔ghost exchange plan for one DistGraph.

    * :meth:`pull` — owners push authoritative values to ghost copies
      (ghost entries of ``values`` are overwritten).
    * :meth:`push` — ghost contributions flow back to owners and are
      combined (min/max/sum) into the owned entries.
    """

    def __init__(self, comm: SimComm, dg: DistGraph) -> None:
        self.dg = dg
        nprocs = comm.size
        with comm.phase("plan"):
            # ghosts grouped by owner (owner-major, gid-minor: ghost gids
            # are pre-sorted, so the stable O(n) bucketing reproduces the
            # old lexsort order exactly)
            order, self.recv_counts = bucket_by_rank(nprocs, dg.ghost_owners)
            self.recv_lids = order + dg.n_local
            gids_sorted = dg.ghost_gids[order]
            # one-time gid round-trip tells each owner what to send where
            requested, req_counts = comm.Alltoallv(gids_sorted, self.recv_counts)
            self.send_lids = dg.owned_lids(requested)
            self.send_counts = req_counts

    def pull(self, comm: SimComm, values: np.ndarray) -> np.ndarray:
        """Overwrite ghost entries of ``values`` with the owners' entries.

        ``values`` has one entry per local vertex (owned then ghosts);
        modified in place and returned.
        """
        sendbuf = np.ascontiguousarray(values[self.send_lids])
        recvbuf, _ = comm.Alltoallv(sendbuf, self.send_counts)
        values[self.recv_lids] = recvbuf
        return values

    def push(self, comm: SimComm, values: np.ndarray, op: str = "sum") -> np.ndarray:
        """Combine ghost entries back into the owners' entries.

        With ``op="sum"`` owned entries accumulate all ghost contributions;
        with min/max they fold element-wise.  Ghost entries are untouched
        (typically re-synchronized with a following :meth:`pull`).
        """
        combine = _COMBINE[op]
        if combine is None:
            raise ValueError("push requires a combining op (min/max/sum)")
        sendbuf = np.ascontiguousarray(values[self.recv_lids])
        recvbuf, _ = comm.Alltoallv(sendbuf, self.recv_counts)
        if recvbuf.size:
            combine.at(values, self.send_lids, recvbuf)
        return values


def distributed_bfs_levels(
    comm: SimComm, dg: DistGraph, plan: ExchangePlan, source_gid: int
) -> np.ndarray:
    """Level-synchronous distributed BFS; returns levels of *owned*
    vertices (-1 if unreachable)."""
    INF = np.int64(np.iinfo(np.int64).max // 2)
    levels = np.full(dg.n_total, INF, dtype=np.int64)
    frontier = np.empty(0, dtype=np.int64)
    if dg.n_local and source_gid in set(dg.owned_gids.tolist()):
        lid = int(dg.owned_lids(np.array([source_gid]))[0])
        levels[lid] = 0
        frontier = np.array([lid], dtype=np.int64)
    plan.pull(comm, levels)
    depth = 0
    while True:
        depth += 1
        if frontier.size:
            neigh, _ = neighbor_gather(dg.offsets, dg.adj, frontier)
            comm.charge(neigh.size)
            levels[neigh[levels[neigh] > depth]] = depth
        # fold ghost discoveries to owners, then re-broadcast to ghosts
        plan.push(comm, levels, op="min")
        plan.pull(comm, levels)
        # Only owned vertices expand: a rank owns every edge incident to its
        # owned vertices, so cross-rank steps surface as ghost updates at the
        # neighbor's owner, which expands them on its own side.
        owned = levels[: dg.n_local]
        frontier = np.flatnonzero(owned == depth).astype(np.int64)
        total = comm.allreduce(int(frontier.size), op="sum")
        if total == 0:
            break
    owned = levels[: dg.n_local].copy()
    owned[owned >= INF] = -1
    return owned
