"""The multilevel rules, each defined once: heavy-edge matching, the
size-constrained LP admission round, the cluster map and the contraction.

The baseline (:mod:`repro.baselines.multilevel`) applies them to the whole
graph; the V-cycle (:mod:`repro.multilevel.coarsen`) matches and clusters
each rank's owned vertices and contracts once per level.  The baseline's
partitions are pinned by ``tests/baselines/test_pin.py``, the V-cycle's
by the goldens.  Matching and clustering take a SciPy CSR adjacency with
positive edge weights and no diagonal.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy import sparse

from repro.dist.wire import stored_dtype

#: Label-propagation clustering rounds per level (the KaHIP default).
LP_CLUSTER_ITERS = 3

#: Heavy-edge matching's propose / accept-mutual rounds.
HEM_ROUNDS = 4

#: A level whose clustering shrinks the vertex count by less than this
#: fraction has stagnated; coarsening stops there (hub-dominated graphs).
MIN_SHRINK = 0.02

#: Coarsening size target, in vertices per part: coarsening stops once a
#: level has at most ``COARSEST_FACTOR * num_parts`` vertices.
COARSEST_FACTOR = 30


# ---------------------------------------------------------------------------
# segment utilities (per-vertex aggregation over sorted edge arrays)
# ---------------------------------------------------------------------------

def segment_best_label(
    src: np.ndarray, lab: np.ndarray, w: np.ndarray, n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """For every vertex, the neighbor label with maximum total edge weight.

    Returns ``(best_label, best_weight)``; vertices with no edges get
    label -1 / weight 0, and among labels of equal weight the smallest wins.
    Labels are non-negative and ``n * (lab.max() + 1) < 2**63``: the arcs
    are grouped by the one key ``src * (lab.max() + 1) + lab``.
    """
    best_label = np.full(n, -1, dtype=np.int64)
    best_weight = np.zeros(n, dtype=np.float64)
    if src.size == 0:
        return best_label, best_weight
    span = int(lab.max()) + 1
    if lab.min() < 0 or n * span >= 2 ** 63:
        raise ValueError(f"labels must lie in [0, 2**63 / n): got "
                         f"{int(lab.min())}..{span - 1} with n = {n}")
    # the ``lexsort((lab, src))`` permutation: equal keys keep input order in
    # both, so a group's weights add in the same order; arcs in CSR order
    # cost one verification pass
    key = np.multiply(src, span, dtype=np.int64)
    key += lab
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    # integer weights may be one byte wide: sum them in int64
    sums = np.add.reduceat(
        w[order], starts, dtype=np.int64 if w.dtype.kind in "iu" else None)
    first_arc = order[starts]
    g_src = src[first_arc]
    # per source, the first group that attains the segment maximum — the one
    # a stable sort by descending sum puts first, ties included
    heads = np.flatnonzero(np.r_[True, g_src[1:] != g_src[:-1]])
    seg_max = np.maximum.reduceat(sums, heads)
    at_max = np.flatnonzero(
        sums == np.repeat(seg_max, np.diff(np.r_[heads, sums.size]))
    )
    sel = at_max[np.searchsorted(at_max, heads)]
    best_label[g_src[sel]] = lab[first_arc[sel]]
    best_weight[g_src[sel]] = sums[sel]
    return best_label, best_weight


# ---------------------------------------------------------------------------
# coarsening
# ---------------------------------------------------------------------------

def heavy_edge_matching(
    adj: sparse.csr_matrix, rng: np.random.Generator
) -> np.ndarray:
    """Parallel-style heavy-edge matching: propose → accept mutual."""
    n = adj.shape[0]
    coo = adj.tocoo()
    src, dst, w = coo.row, coo.col, coo.data
    match = np.full(n, -1, dtype=np.int64)
    for _ in range(HEM_ROUNDS):
        free = match < 0
        keep = free[src] & free[dst]
        if not np.any(keep):
            break
        # jitter weights so hub ties break randomly instead of by id
        noise = 1.0 + 1e-6 * rng.random(int(keep.sum()))
        best, _ = segment_best_label(src[keep], dst[keep], w[keep] * noise, n)
        cand = np.flatnonzero(best >= 0)
        mutual = cand[best[best[cand]] == cand]
        a = mutual[mutual < best[mutual]]  # each pair once
        match[a] = best[a]
        match[best[a]] = a

    # claim round: unmatched vertices grab any still-free heavy neighbor
    # (one winner per target, lowest proposer wins — METIS-style greedy)
    free = match < 0
    keep = free[src] & free[dst]
    if np.any(keep):
        best, _ = segment_best_label(src[keep], dst[keep], w[keep], n)
        cand = np.flatnonzero(best >= 0)
        order = np.argsort(best[cand], kind="stable")
        tgt_sorted = best[cand][order]
        first = np.empty(tgt_sorted.size, dtype=bool)
        if first.size:
            first[0] = True
            first[1:] = tgt_sorted[1:] != tgt_sorted[:-1]
        winners = cand[order][first]
        tgts = tgt_sorted[first]
        ok = winners != tgts
        winners, tgts = winners[ok], tgts[ok]
        # a vertex may appear as both winner and target; targets win
        taken = np.zeros(n, dtype=bool)
        taken[tgts] = True
        ok = ~taken[winners]
        winners, tgts = winners[ok], tgts[ok]
        match[winners] = tgts
        match[tgts] = winners

    # two-hop round: leaves hanging off a common (matched) hub pair up —
    # the modern-METIS remedy for star subgraphs that stall matching
    free = match < 0
    if np.any(free[src]):
        sel = free[src]
        best, _ = segment_best_label(src[sel], dst[sel], w[sel], n)
        leaves = np.flatnonzero((best >= 0) & free)
        hubs = best[leaves]
        order = np.lexsort((leaves, hubs))
        lv = leaves[order]
        hb = hubs[order]
        same_hub = np.zeros(lv.size, dtype=bool)
        same_hub[1:] = hb[1:] == hb[:-1]
        # pair consecutive leaves under one hub: positions (0,1), (2,3), ...
        pos = np.arange(lv.size)
        hub_start = np.zeros(lv.size, dtype=np.int64)
        new_hub = np.flatnonzero(~same_hub)
        hub_start[new_hub] = pos[new_hub]
        hub_start = np.maximum.accumulate(hub_start)
        within = pos - hub_start
        is_second = (within % 2 == 1) & same_hub
        b = lv[is_second]
        a = lv[np.flatnonzero(is_second) - 1]
        match[a] = b
        match[b] = a

    solo = match < 0
    match[solo] = np.flatnonzero(solo)
    # group label = smaller endpoint, so both partners land in one group
    return np.minimum(np.arange(match.size, dtype=np.int64), match)


def cluster_cap(vweights: np.ndarray, num_parts: int) -> float:
    """KaHIP's cluster-mass cap ``max(W / (2p), max vertex weight)``: at
    least ``2p`` clusters survive, so a ``p``-way partition exists."""
    return max(float(vweights.sum()) / (2 * num_parts), float(vweights.max()))


def lp_admission_round(
    src: np.ndarray, dst: np.ndarray, w: np.ndarray, labels: np.ndarray,
    vweights: np.ndarray, mass: np.ndarray, max_cluster: float,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One round of size-constrained LP clustering (KaHIP's coarsening):
    each of the ``n = vweights.size`` sources of ``(src, dst, w)`` picks its
    heaviest neighbouring cluster (``labels``: these ``n``, then any ghosts);
    movers, in one random order (no draw if none), are admitted while the
    target's ``mass`` plus theirs stays within ``max_cluster``.  Applies the
    moves to ``labels``; returns ``(moved, old, new)`` for the caller to
    update ``mass``."""
    n = vweights.size
    best, _ = segment_best_label(src, labels[dst], w, n)
    cand = np.flatnonzero((best >= 0) & (best != labels[:n]))
    if cand.size:
        cand = cand[rng.permutation(cand.size)]
        room = mass[best[cand]] + vweights[cand] <= max_cluster
        cand = cand[room]
    tgt = best[cand]
    old = labels[cand]
    labels[cand] = tgt
    return cand, old, tgt


def lp_clustering(
    adj: sparse.csr_matrix, vweights: np.ndarray, num_parts: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Size-constrained label propagation clustering of the whole graph:
    :data:`LP_CLUSTER_ITERS` admission rounds under :func:`cluster_cap`."""
    coo = adj.tocoo()
    labels = np.arange(adj.shape[0], dtype=np.int64)
    mass = vweights.astype(np.float64)  # per-label mass, a fresh copy
    max_cluster = cluster_cap(vweights, num_parts)
    for _ in range(LP_CLUSTER_ITERS):
        moved, old, new = lp_admission_round(
            coo.row, coo.col, coo.data, labels, vweights, mass, max_cluster,
            rng)
        np.subtract.at(mass, old, vweights[moved])
        np.add.at(mass, new, vweights[moved])
    return labels


def cluster_map(labels: np.ndarray, n: int) -> Tuple[int, np.ndarray]:
    """Number the clusters of ``labels`` (ids in ``[0, n)``) ``0 .. nc-1``
    in label order by a presence bitmap's prefix sum; returns ``(nc, fine →
    coarse map)``, the map in ``stored_dtype(nc - 1)``: the index dtype
    scipy keeps, so :func:`contract` copies no endpoint."""
    present = np.zeros(n, dtype=bool)
    present[labels] = True
    nc = int(np.count_nonzero(present))
    fine2coarse = np.cumsum(present, dtype=stored_dtype(nc - 1))
    del present
    fine2coarse -= 1
    return nc, fine2coarse[labels]


def aggregate_coarse_arcs(
    cs: np.ndarray, cd: np.ndarray, weights: np.ndarray, nc: int
) -> sparse.csr_matrix:
    """Sum the fine arcs ``(cs[i], cd[i], weights[i])``, none of them a
    self-arc, into one weighted arc per coarse ``(src, dst)`` pair.  COO →
    CSR bucketing, not a global key sort; returns canonical CSR (arcs in
    ascending ``(src, dst)`` order) whose data keeps ``weights``' dtype."""
    coarse = sparse.coo_matrix((weights, (cs, cd)), shape=(nc, nc)).tocsr()
    coarse.sum_duplicates()
    return coarse


def contract(
    offsets: np.ndarray, adj: np.ndarray, eweights: np.ndarray,
    vweights: np.ndarray, fine2coarse: np.ndarray, nc: int, level: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Contract the CSR ``(offsets, adj)``, with integer-valued per-arc
    ``eweights`` and per-vertex ``vweights``, through :func:`cluster_map`'s
    ``(nc, fine2coarse)`` into the coarse ``(offsets, adj, eweights,
    vweights)``: ids in ``fine2coarse``'s dtype, edge weights at
    ``np.min_scalar_type`` of the largest, one live copy per array.  An
    AssertionError names ``level`` if vertex or edge weight is lost."""
    cd = fine2coarse[adj]
    cs = np.repeat(fine2coarse, np.diff(offsets))
    inter = cs != cd
    cs = cs[inter]
    cd = cd[inter]
    # edge weights are integer counts of fine edges, so both totals and
    # the check below are exact; they are summed in the width of the total
    fine_ew = int(eweights.sum())
    w = eweights[inter].astype(stored_dtype(fine_ew), copy=False)
    del inter
    kept_in = int(w.sum())
    csr = aggregate_coarse_arcs(cs, cd, w, nc)
    del cs, cd, w
    cvw = np.bincount(fine2coarse, weights=vweights, minlength=nc)
    # conservation invariants: vertex mass (maybe float) to rounding, edge
    # weight exactly, up to the intra-cluster weight folded away
    kept_vw, fine_vw = float(cvw.sum()), float(vweights.sum())
    kept_ew = int(csr.data.sum()) + fine_ew - kept_in
    for what, ok, kept, fine in (
        ("vertex", np.isclose(kept_vw, fine_vw), kept_vw, fine_vw),
        ("edge", kept_ew == fine_ew, float(kept_ew), float(fine_ew)),
    ):
        if not ok:
            raise AssertionError(f"contraction of level {level} lost "
                                 f"{what} weight: {fine!r} -> {kept!r}")
    # exact-size copies: the CSR's arrays may be views of the pre-dedup
    # buffers; the weights take the width of the largest
    return (csr.indptr.astype(np.int64), csr.indices.copy(),
            csr.data.astype(np.min_scalar_type(csr.data.max(initial=0))),
            cvw)
