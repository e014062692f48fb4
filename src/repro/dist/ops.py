"""Distributed operations over a :class:`~repro.dist.distgraph.DistGraph`.

:class:`ExchangePlan` is the package's one static owner → copy exchange
(build once, reuse every superstep): after one gid round trip in
:func:`connect_plan` each exchange moves values only, as Zoltan and Epetra
do for a fixed pattern.  :func:`ghost_plan` is its halo case (the
analytics, BFS, the multilevel LP coarsener), and takes no round: the
build's ghost routing already made that round trip.  Table III's 1-D SpMV
is the halo of a partition-placed DistGraph, and its 2-D expand and fold
are a :meth:`~ExchangePlan.pull` and a ``push(op="sum")`` of connected
plans.  The partitioner itself uses the paper's dynamic
``ExchangeUpdates`` (:mod:`repro.core.exchange`), which ships (vertex,
part) pairs for updated vertices only.

All plan traffic funnels through ``SimComm.Alltoallv``, so a
topology-aware communicator (:mod:`repro.simmpi.topology`) meters the very
same exchanges as two-level with no change here.  :meth:`~ExchangePlan.pull`
and :meth:`~ExchangePlan.push` only read their received buffer, so it may
be a sealed view shared across in-process ranks.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.dist.distgraph import DistGraph
from repro.dist.packing import bucket_by_rank
from repro.graph.gather import neighbor_gather
from repro.simmpi.comm import SimComm
from repro.simmpi.stepping import Steps, steppable

_COMBINE = {"min": np.minimum, "max": np.maximum, "sum": np.add}


class ExchangePlan:
    """Static owner → copy exchange plan.

    This rank keeps copies of ``gids`` (ascending, owned by ``owners``) at
    positions ``slots`` of a copy array; every owner holds its values at
    the positions of its ascending ``owned_gids`` in an owner array.  The
    two arrays may be one (the halo: owned entries, then ghosts).

    * :meth:`pull` — owners' values overwrite the copies.
    * :meth:`push` — copies flow back to their owners and are combined
      (min/max/sum) into the owner array.

    Plans come from :func:`connect_plan` (collective: a gid round trip)
    or, for a halo, :func:`ghost_plan` (read off the build); the
    constructor only stores what they computed.
    """

    def __init__(
        self, copy_slots: np.ndarray, copy_counts: np.ndarray,
        owned_slots: np.ndarray, owned_counts: np.ndarray,
    ) -> None:
        self.copy_slots = copy_slots
        self.copy_counts = copy_counts
        self.owned_slots = owned_slots
        self.owned_counts = owned_counts

    @steppable
    def pull(
        self, comm: SimComm, owned: np.ndarray,
        copies: Optional[np.ndarray] = None,
    ) -> Steps[np.ndarray]:
        """Overwrite the copies (in ``copies``, default ``owned``) with
        the owners' entries of ``owned``; returns the copy array."""
        copies = owned if copies is None else copies
        recvbuf, _ = yield from comm.Alltoallv(owned[self.owned_slots],
                                               self.owned_counts)
        copies[self.copy_slots] = recvbuf
        return copies

    @steppable
    def push(
        self, comm: SimComm, copies: np.ndarray,
        owned: Optional[np.ndarray] = None, op: str = "sum",
    ) -> Steps[np.ndarray]:
        """Combine the copies of ``copies`` into their owners' entries of
        ``owned`` (default ``copies``); returns the owner array.

        With ``op="sum"`` owned entries accumulate all contributions; with
        min/max they fold element-wise.  Copies are untouched (typically
        re-synchronized with a following :meth:`pull`).
        """
        if op not in _COMBINE:
            raise ValueError("push requires a combining op (min/max/sum)")
        owned = copies if owned is None else owned
        recvbuf, _ = yield from comm.Alltoallv(copies[self.copy_slots],
                                               self.copy_counts)
        if recvbuf.size:
            _COMBINE[op].at(owned, self.owned_slots, recvbuf)
        return owned


@steppable
def connect_plan(
    comm: SimComm, gids: np.ndarray, owners: np.ndarray, slots: np.ndarray,
    owned_gids: np.ndarray,
) -> Steps[ExchangePlan]:
    """The plan by which this rank keeps copies of ``gids`` (ascending,
    owned by ``owners``) at ``slots`` of its copy array, while it owns
    ``owned_gids`` (ascending).  Collective: one gid round trip tells each
    owner what to send where."""
    with comm.phase("plan"):
        # copies grouped owner-major, gid-minor (stable O(n) bucketing)
        order, copy_counts = bucket_by_rank(comm.size, owners)
        asked, owned_counts = yield from comm.Alltoallv(gids[order],
                                                        copy_counts)
        owned_slots = np.searchsorted(owned_gids, asked)
        if asked.size and (
            owned_slots.max() >= owned_gids.size
            or np.any(owned_gids[owned_slots] != asked)
        ):
            raise ValueError(
                f"rank {comm.rank}: peers asked for gids it does not own"
            )
    return ExchangePlan(slots[order], copy_counts, owned_slots, owned_counts)


def ghost_plan(dg: DistGraph) -> ExchangePlan:
    """The halo plan of ``dg``: ghosts are the copies (local ids
    ``n_local ..``), owned vertices the owner entries.

    Read off the build, with no round: the ghost routing of
    :func:`~repro.dist.build.build_dist_graph` already told each owner
    which of its vertices every peer keeps, as the ``(vertex, rank)`` send
    pairs.  Both sides are owner-major, gid-minor: the ghosts bucketed by
    owner, and the send pairs' vertices bucketed by destination — the
    very order in which :func:`connect_plan`'s round trip would ask."""
    nprocs = dg.dist.nprocs
    order, copy_counts = bucket_by_rank(nprocs, dg.ghost_owners)
    pairs, owned_counts = bucket_by_rank(nprocs, dg.send_rank_adj)
    sources = np.repeat(np.arange(dg.n_local, dtype=np.int64),
                        np.diff(dg.send_rank_offsets))
    return ExchangePlan(order + dg.n_local, copy_counts, sources[pairs],
                        owned_counts)


@steppable
def distributed_bfs_levels(
    comm: SimComm, dg: DistGraph, plan: ExchangePlan, source_gid: int
) -> Steps[np.ndarray]:
    """Level-synchronous distributed BFS; returns levels of *owned*
    vertices (-1 if unreachable)."""
    INF = np.int64(np.iinfo(np.int64).max // 2)
    levels = np.full(dg.n_total, INF, dtype=np.int64)
    frontier = np.empty(0, dtype=np.int64)
    if dg.n_local and source_gid in set(dg.owned_gids.tolist()):
        lid = int(dg.owned_lids(np.array([source_gid]))[0])
        levels[lid] = 0
        frontier = np.array([lid], dtype=np.int64)
    yield from plan.pull(comm, levels)
    depth = 0
    while True:
        depth += 1
        if frontier.size:
            neigh, _ = neighbor_gather(dg.offsets, dg.adj, frontier)
            comm.charge(neigh.size)
            levels[neigh[levels[neigh] > depth]] = depth
        # fold ghost discoveries to owners, then re-broadcast to ghosts
        yield from plan.push(comm, levels, op="min")
        yield from plan.pull(comm, levels)
        # Only owned vertices expand: a rank owns every edge incident to its
        # owned vertices, so cross-rank steps surface as ghost updates at the
        # neighbor's owner, which expands them on its own side.
        owned = levels[: dg.n_local]
        frontier = np.flatnonzero(owned == depth).astype(np.int64)
        total = yield from comm.Allreduce(np.array([frontier.size]))
        if total[0] == 0:
            break
    owned = levels[: dg.n_local].copy()
    owned[owned >= INF] = -1
    return owned
