"""Distributed coarsening: clustering + contraction, one level at a time.

Clustering (the "matcher") runs in one of two modes:

* ``"lp"`` — size-constrained label-propagation clustering, distributed:
  every owned vertex adopts the cluster holding the heaviest share of its
  incident edge weight, subject to a cluster-mass cap.  Cluster ids are
  *global vertex ids* of the current level, so cross-rank membership needs
  no negotiation; ghost labels are resolved through the static
  halo exchange (:func:`repro.dist.ops.ghost_plan`) and
  cluster masses through a sparse delta Allgatherv.  This is the
  coarsening of KaHIP/dKaMinPar adapted to the BSP skeleton.
* ``"hem"`` — heavy-edge matching on each rank's owned-induced subgraph,
  reusing the shared-memory matcher
  (:func:`repro.multilevel.kernels.heavy_edge_matching`) verbatim.
  Clusters never cross ranks (the ParMETIS-style local-matching
  compromise), so no label exchange is needed.

Contraction then Allgathers the owned labels.  The coarse weighted graph is
a pure function of those labels and the replicated fine level, so it is
assembled once per address space — where the Allgatherv executes
(``SimComm.Allgatherv(then=)``) — and every rank gets the same sealed arrays
(in-process) or a private copy (per process).  Each rank is still *charged*
its own share of the aggregation — the model describes a distributed
contraction; the simulator just does not repeat identical work P times — and
rebuilds its ghost routing via :func:`repro.dist.build.build_dist_graph`.
Cluster-mass and edge-weight conservation are checked at every contraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.dist.build import build_dist_graph
from repro.dist.distgraph import DistGraph
from repro.dist.distribution import Distribution, random_owner, rank_order
from repro.dist.ops import ghost_plan
from repro.dist.wire import stored_dtype
from repro.graph.csr import Graph
from repro.graph.gather import expand_ranges
from repro.multilevel.kernels import (
    HEM_ROUNDS,
    LP_CLUSTER_ITERS,
    MIN_SHRINK,
    cluster_cap,
    cluster_map,
    contract,
    heavy_edge_matching,
    lp_admission_round,
)
from repro.simmpi.comm import SimComm
from repro.simmpi.stepping import Steps, steppable


@dataclass
class MLLevel:
    """One hierarchy level, as seen by one rank.

    The global ``graph``/``eweights``/``vweights``/``fine2coarse`` arrays are
    read-only and shared by the ranks of an address space (the simulator's
    shared-input convention); ``dg`` and ``ew_local`` are this rank's view.
    ``fine2coarse`` maps the *finer* level's gids onto this level's, in
    :func:`~repro.dist.wire.stored_dtype` of this level's largest id, as
    this level's ``graph.adj`` and ``dg.adj`` are.  Edge weights count fine
    edges, so they are integers: ``eweights`` and ``ew_local`` are stored at
    ``np.min_scalar_type`` of the largest one (one byte on a mesh) and
    widened only where they are summed.

    ``graph`` and ``eweights`` exist to be contracted: ``build_hierarchy``
    sets them to None once the next level is made (or coarsening stops), and
    uncoarsening reads only the rest; ``size`` keeps the graph's ``(n, m)``.
    """

    graph: Optional[Graph]
    dist: Distribution
    dg: DistGraph
    eweights: Optional[np.ndarray]  # global, aligned with graph.adj
    ew_local: np.ndarray      # this rank's arcs, aligned with dg.adj
    vweights: np.ndarray      # global per-vertex mass
    fine2coarse: Optional[np.ndarray]
    size: Tuple[int, int]     # (vertices, undirected edges) of ``graph``


def local_eweights(graph: Graph, eweights: np.ndarray, dg: DistGraph) -> np.ndarray:
    """Slice the global per-arc weights down to this rank's arcs.

    The local CSR is the concatenation of the owned gids' global adjacency
    slices (in owned-gid order), so the same ``expand_ranges`` index that
    built ``dg.adj`` selects the matching weights.
    """
    owned = dg.owned_gids
    starts = graph.offsets[owned]
    counts = graph.offsets[owned + 1] - starts
    return eweights[expand_ranges(starts, counts)]


@steppable
def make_level0(
    comm: SimComm,
    graph: Graph,
    dist: Distribution,
    vertex_weights: Optional[np.ndarray],
) -> Steps[MLLevel]:
    """The finest level: unit (integer) edge weights, given (or unit)
    vertex weights."""
    dg = yield from build_dist_graph(comm, graph, dist)
    # 0-stride views: every consumer indexes or sums them, none writes
    eweights = np.broadcast_to(
        stored_dtype(graph.adj.size).type(1), (graph.adj.size,)
    )
    vweights = (
        np.asarray(vertex_weights, dtype=np.float64)
        if vertex_weights is not None
        else np.broadcast_to(np.float64(1.0), (graph.n,))
    )
    return MLLevel(
        graph=graph, dist=dist, dg=dg, eweights=eweights,
        ew_local=eweights[: dg.adj.size],
        vweights=vweights, fine2coarse=None, size=(graph.n, graph.num_edges),
    )


# ---------------------------------------------------------------------------
# clustering
# ---------------------------------------------------------------------------

def _cluster_rng(params, rank: int, level: int) -> np.random.Generator:
    return np.random.default_rng(params.seed + 7919 * rank + 131 * (level + 1))


@steppable
def lp_cluster_labels(
    comm: SimComm,
    level: MLLevel,
    num_parts: int,
    params,
    level_index: int,
) -> Steps[np.ndarray]:
    """Distributed size-constrained LP clustering; returns owned labels.

    Labels are global vertex ids of the current level (initially every
    vertex is its own singleton cluster).  Each round runs the shared
    :func:`~repro.multilevel.kernels.lp_admission_round` over the owned
    vertices, under :func:`~repro.multilevel.kernels.cluster_cap`;
    then mass deltas are reconciled by a sparse Allgatherv, and ghost
    labels are re-pulled through the exchange plan.
    """
    dg = level.dg
    n = dg.n_local
    max_cluster = cluster_cap(level.vweights, num_parts)
    rng = _cluster_rng(params, dg.rank, level_index)
    labels = dg.l2g.copy()
    vw = level.vweights[dg.owned_gids]
    # cluster mass, dense over this level's global ids (cluster id == gid)
    mass = level.vweights.astype(np.float64)  # a fresh, writable copy
    srcs = np.repeat(np.arange(n, dtype=np.int64), dg.local_degrees)
    with comm.phase("coarsen"):
        plan = ghost_plan(dg)
        for _ in range(LP_CLUSTER_ITERS):
            cand, old, tgt = lp_admission_round(
                srcs, dg.adj, level.ew_local, labels, vw, mass, max_cluster,
                rng)
            # scoring: key sort + reduceat over local arcs, plus the
            # per-vertex selection passes
            comm.charge(3.0 * level.ew_local.size + float(n))
            # reconcile cluster masses: aggregate this rank's deltas
            # sparsely into (cluster id, weight bits) pairs, Allgatherv,
            # apply everywhere (deterministic order: rank-major
            # concatenation)
            delta_ids = np.concatenate([tgt, old])
            delta_w = np.concatenate([vw[cand], -vw[cand]])
            uid, uinv = np.unique(delta_ids, return_inverse=True)
            usum = np.bincount(uinv, weights=delta_w, minlength=uid.size)
            pairs = np.column_stack([uid, usum.view(np.int64)])
            comm.charge(2.0 * delta_ids.size)
            merged, _ = yield from comm.Allgatherv(pairs.reshape(-1))
            np.add.at(mass, merged[0::2], merged[1::2].view(np.float64))
            yield from plan.pull(comm, labels)
            # a rank that moved a vertex sent a pair: none arrived, no move
            if merged.size == 0:
                break
    return labels[:n].copy()


def hem_cluster_labels(
    comm: SimComm,
    level: MLLevel,
    params,
    level_index: int,
) -> np.ndarray:
    """Heavy-edge matching on the owned-induced subgraph; returns owned
    labels (global ids; matched pairs share the lower partner's gid).

    Cross-rank edges are never matched — the standard local-matching
    compromise of distributed multilevel partitioners — so the result
    needs no collective (the work charged here rides the contraction's
    Allgatherv).  Runs the shared-memory matcher the baseline uses, once
    per rank on its own subgraph.
    """
    dg = level.dg
    n = dg.n_local
    # the owned-induced subgraph is a compaction of the local rows: owned
    # lids ascend with gids, so each row stays sorted and duplicate-free
    # (unless the input graph's rows were not: then scipy canonicalises)
    owned_arc = dg.adj < n
    kept = np.zeros(owned_arc.size + 1, dtype=stored_dtype(owned_arc.size))
    np.cumsum(owned_arc, out=kept[1:])
    sub = sparse.csr_matrix(
        (level.ew_local[owned_arc],
         dg.adj[owned_arc].astype(stored_dtype(n - 1), copy=False),
         kept[dg.offsets]),
        shape=(n, n),
    )
    del kept, owned_arc
    if not sub.has_canonical_format:
        sub.sum_duplicates()
    rng = _cluster_rng(params, dg.rank, level_index)
    match = heavy_edge_matching(sub, rng)
    # the proposal rounds + claim/two-hop passes over the local subgraph
    comm.charge(HEM_ROUNDS * 2.0 * sub.nnz + float(n))
    return dg.owned_gids[match] if n else np.empty(0, dtype=np.int64)


# ---------------------------------------------------------------------------
# contraction
# ---------------------------------------------------------------------------

@steppable
def allgather_owned(
    comm: SimComm, dist: Distribution, owned_values: np.ndarray,
    then: Optional[Callable[[np.ndarray], Any]] = None,
) -> Steps[Any]:
    """Allgatherv one int64 per owned vertex; returns the values of all
    ``dist.n`` vertices indexed by global id (read-only where ranks share
    results) — or ``then`` of it, evaluated once where the collective
    executes (see :meth:`SimComm.Allgatherv`)."""

    def scatter(chunks: np.ndarray, _counts: np.ndarray) -> Any:
        full = np.empty(dist.n, dtype=np.int64)
        full[np.concatenate([dist.owned(r) for r in range(comm.size)])] = chunks
        return full if then is None else then(full)

    return (yield from comm.Allgatherv(owned_values.astype(np.int64),
                                       then=scatter))


@steppable
def contract_level(
    comm: SimComm,
    level: MLLevel,
    owned_labels: np.ndarray,
    params,
    level_index: int,
    min_vertices: int,
) -> Steps[Optional[MLLevel]]:
    """Contract the clustering into the next coarser level.

    Allgathers owned labels; the kernels' cluster map and contraction and
    the coarse level's distribution run once where that collective
    executes, and each rank wraps the shared arrays and rebuilds its view
    through :func:`build_dist_graph`.  Returns None on every rank when the
    clustering stagnated or the coarse graph would drop below
    ``min_vertices``: the current level is then the coarsest.
    """
    dg = level.dg
    seed = params.seed + 211 * (level_index + 1)

    def contract_once(full: np.ndarray) -> Tuple[int, Optional[Tuple]]:
        # the replicated half: a pure function of the level and the labels,
        # returning plain arrays, which the comm layer can seal or copy
        g = level.graph
        nc, fine2coarse = cluster_map(full, g.n)
        if nc < min_vertices or 1.0 - nc / max(g.n, 1) < MIN_SHRINK:
            return nc, None
        arrays = contract(g.offsets, g.adj, level.eweights, level.vweights,
                          fine2coarse, nc, level_index)
        # the coarse level's random distribution, made once here too: its
        # owner table and rank order, which every rank wraps
        owner = random_owner(nc, comm.size, seed)
        return nc, arrays + (fine2coarse, owner, rank_order(owner, comm.size))

    with comm.phase("coarsen"):
        # each rank contributes the labels of its owned vertices and is
        # charged its share of the aggregation, which executes once
        comm.charge(2.0 * dg.adj.size + float(dg.n_local))
        # every rank receives the one evaluation's result, so the stop
        # decision is already collective
        nc, arrays = yield from allgather_owned(
            comm, level.dist, owned_labels, then=contract_once)
        if arrays is None:
            return None
    offsets, adj, cw, cvw, fine2coarse, owner, by_rank = arrays
    coarse = Graph(offsets, adj, directed=False, validate=False)
    cdist = Distribution(owner, comm.size, by_rank=by_rank)
    cdg = yield from build_dist_graph(comm, coarse, cdist)
    return MLLevel(
        graph=coarse, dist=cdist, dg=cdg, eweights=cw,
        ew_local=local_eweights(coarse, cw, cdg),
        vweights=cvw, fine2coarse=fine2coarse, size=(nc, coarse.num_edges),
    )
