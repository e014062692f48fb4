"""Construct a :class:`~repro.dist.distgraph.DistGraph` inside an SPMD run.

Each rank slices its owned vertices' adjacency from the input graph,
discovers the ghost layer, converts global ids to local ids, and
precomputes the per-vertex neighbor-rank lists used by the paper's
``ExchangeUpdates`` (Algorithm 3 recomputes ``toSend`` from the edges each
exchange; precomputing at build time sends the identical messages).

The input :class:`~repro.graph.csr.Graph` is shared read-only across rank
threads — this models the load phase (in the paper each rank reads its
slice from parallel I/O) and is excluded from partitioning-time metering
via the ``"build"`` phase tag.

Dtypes follow one rule (:func:`repro.dist.wire.stored_dtype`): the tables
that are only gathered from — ``ghost_in_adj`` (owned lids),
``send_rank_adj`` (ranks) and ``degrees_full`` — are stored at 4 bytes when
their values fit; the index arrays ``offsets`` and ``l2g`` stay int64, and
the local ``adj`` takes the width of the input's adjacency: int64 for an
input graph, 4 bytes for a V-cycle's coarse level (whose ids all fit).
The ghost → owned incidence is built on first use
(:meth:`DistGraph.ghost_touch_sources`), not here.
"""

from __future__ import annotations

import numpy as np

from repro.dist.distgraph import DistGraph, ghost_arcs
from repro.dist.distribution import Distribution
from repro.dist.packing import bucket_by_rank
from repro.dist.wire import stored_dtype
from repro.graph.csr import Graph
from repro.graph.gather import neighbor_gather, sorted_unique
from repro.simmpi.comm import SimComm
from repro.simmpi.stepping import Steps, steppable


def _localize(
    dist: Distribution, owned_gids: np.ndarray, neighbor_gids: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map neighbor gids → local ids; returns (local_adj, ghost_gids, owners).

    One gather through a gid → lid table: ghosts are the off-rank neighbors
    in ascending gid order (bitmap + prefix sum), numbered after the owned
    vertices.  O(n) transient per rank, as ``Distribution``'s owner array.
    """
    present = np.zeros(dist.n, dtype=bool)
    present[neighbor_gids] = True
    present[owned_gids] = False
    ghost_gids = np.flatnonzero(present)
    # local ids are below the level's vertex count: they fit the width of
    # the gids they replace
    table = np.cumsum(present, dtype=neighbor_gids.dtype)
    table += owned_gids.size - 1
    table[owned_gids] = np.arange(owned_gids.size)
    local_adj = table[neighbor_gids]
    return local_adj, ghost_gids, dist.owner(ghost_gids).astype(np.int32)


def _send_rank_lists(
    nprocs: int,
    n_local: int,
    sources: np.ndarray,
    targets: np.ndarray,
    ghost_owners: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per owned vertex, the sorted unique off-rank owners of its neighbors
    (ranks in the elected dtype)."""
    key = np.multiply(sources, nprocs, dtype=np.int64)
    key += ghost_owners[targets]
    key = sorted_unique(key)
    sr_offsets = np.zeros(n_local + 1, dtype=np.int64)
    np.cumsum(np.bincount(key // nprocs, minlength=n_local),
              out=sr_offsets[1:])
    return sr_offsets, (key % nprocs).astype(stored_dtype(nprocs - 1))


@steppable
def _ghost_routing(
    comm: SimComm,
    ghost_gids: np.ndarray,
    ghost_owners: np.ndarray,
    sr_adj: np.ndarray,
) -> Steps[np.ndarray]:
    """One-time collective: learn each send pair's destination ghost slot.

    Every rank tells each ghost's owner *where in its own ghost array* that
    ghost lives (ghosts grouped owner-major, gid-minor).  The owner's
    incoming chunk from rank ``r`` is therefore ordered by its owned gids
    that are ghosts on ``r`` — exactly its ``(vertex, r)`` send pairs in
    vertex order — so one stable bucketing of ``sr_adj`` aligns the slots
    with ``send_rank_adj``.  Compact-wire sends then address ghost copies
    by these precomputed slots instead of 64-bit gids, and the same two
    bucketings are the halo plan (:func:`repro.dist.ops.ghost_plan`).
    """
    order, gcounts = bucket_by_rank(comm.size, ghost_owners)
    # order[i] is the ghost-array position of the i-th outgoing entry
    slots_in, _ = yield from comm.Alltoallv(order, gcounts)
    if slots_in.size != sr_adj.size:
        raise AssertionError(
            f"rank {comm.rank}: ghost routing received {slots_in.size} "
            f"slots for {sr_adj.size} send pairs"
        )
    send_ghost_slot = np.empty(sr_adj.size, dtype=np.uint32)
    perm, _ = bucket_by_rank(comm.size, sr_adj)
    send_ghost_slot[perm] = slots_in
    return send_ghost_slot


@steppable
def build_dist_graph(
    comm: SimComm, graph: Graph, dist: Distribution
) -> Steps[DistGraph]:
    """SPMD: build this rank's local view of ``graph`` under ``dist``.

    Must be called collectively (all ranks).  ``graph`` must be undirected
    (symmetric CSR) so that owning a vertex implies owning all its incident
    edges, the invariant the partitioner's bookkeeping relies on.
    """
    if dist.n != graph.n:
        raise ValueError(
            f"distribution covers {dist.n} vertices, graph has {graph.n}"
        )
    if dist.nprocs != comm.size:
        raise ValueError(
            f"distribution built for {dist.nprocs} ranks, comm has {comm.size}"
        )
    with comm.phase("build"):
        rank = comm.rank
        owned_gids = dist.owned(rank)
        neighbor_gids, counts = neighbor_gather(
            graph.offsets, graph.adj, owned_gids
        )
        offsets = np.zeros(owned_gids.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        local_adj, ghost_gids, ghost_owners = _localize(
            dist, owned_gids, neighbor_gids
        )
        l2g = np.concatenate([owned_gids, ghost_gids])
        # ghost degrees read from the shared input (static data; a real MPI
        # build exchanges them once — volume negligible and one-time)
        degrees_full = graph.degrees[l2g].astype(
            stored_dtype(graph.num_directed_edges))
        sources, targets = ghost_arcs(offsets, local_adj, owned_gids.size)
        sr_offsets, sr_adj = _send_rank_lists(
            comm.size, owned_gids.size, sources, targets, ghost_owners
        )
        del sources, targets
        send_ghost_slot = yield from _ghost_routing(
            comm, ghost_gids, ghost_owners, sr_adj)
        (max_ghost_global,) = (yield from comm.Allreduce(
            np.array([ghost_gids.size]), op="max")).tolist()
        # sanity rendezvous: global edge count must be conserved
        (total_local,) = (yield from comm.Allreduce(
            np.array([local_adj.size]), op="sum")).tolist()
        if total_local != graph.num_directed_edges:
            raise AssertionError(
                f"edge conservation violated: {total_local} != "
                f"{graph.num_directed_edges}"
            )
        return DistGraph(
            dist=dist,
            rank=rank,
            offsets=offsets,
            adj=local_adj,
            l2g=l2g,
            ghost_owners=ghost_owners,
            degrees_full=degrees_full,
            send_rank_offsets=sr_offsets,
            send_rank_adj=sr_adj,
            send_ghost_slot=send_ghost_slot,
            max_ghost_global=max_ghost_global,
            global_n=graph.n,
            global_m=graph.num_edges,
        )
