"""Shared-memory coarsening kernels (matching, clustering, contraction).

These are the per-address-space building blocks of the multilevel family,
factored out of :mod:`repro.baselines.multilevel` so the distributed
coarsener (:mod:`repro.multilevel.coarsen`) reuses the exact same kernels:
the baseline applies them to the whole graph, a simulated rank applies
them to its owned subgraph.  Their outputs are pinned — the baseline's
partitions stay bit-identical (enforced by its tests and the goldens).

All kernels operate on a SciPy CSR adjacency with positive edge weights
and no diagonal.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy import sparse


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
    adj: sparse.csr_matrix, rng: np.random.Generator, rounds: int = 4
) -> np.ndarray:
    """Parallel-style heavy-edge matching: propose → accept mutual."""
    n = adj.shape[0]
    coo = adj.tocoo()
    src, dst, w = coo.row, coo.col, coo.data
    match = np.full(n, -1, dtype=np.int64)
    for _ in range(rounds):
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


def lp_clustering(
    adj: sparse.csr_matrix,
    vweights: np.ndarray,
    max_cluster: float,
    rng: np.random.Generator,
    iters: int = 3,
) -> np.ndarray:
    """Size-constrained label propagation clustering (KaHIP coarsening)."""
    n = adj.shape[0]
    coo = adj.tocoo()
    src, dst, w = coo.row.astype(np.int64), coo.col.astype(np.int64), coo.data
    labels = np.arange(n, dtype=np.int64)
    weight_of = vweights.astype(np.float64).copy()  # per-label mass
    for _ in range(iters):
        lab = labels[dst]
        best, _ = segment_best_label(src, lab, w, n)
        movable = (best >= 0) & (best != labels)
        cand = np.flatnonzero(movable)
        if cand.size == 0:
            break
        # admit in random order while the target cluster has headroom
        cand = cand[rng.permutation(cand.size)]
        tgt = best[cand]
        room = weight_of[tgt] + vweights[cand] <= max_cluster
        cand, tgt = cand[room], tgt[room]
        np.subtract.at(weight_of, labels[cand], vweights[cand])
        np.add.at(weight_of, tgt, vweights[cand])
        labels[cand] = tgt
    return labels


def aggregate_coarse_arcs(
    cs: np.ndarray, cd: np.ndarray, weights: np.ndarray, nc: int
) -> sparse.csr_matrix:
    """Sum the fine arcs ``(cs[i], cd[i], weights[i])`` into one weighted
    arc per coarse ``(src, dst)`` pair, dropping self-arcs.  COO → CSR
    bucketing, not a global key sort; returns canonical CSR (arcs in
    ascending ``(src, dst)`` order) whose data keeps ``weights``' dtype.

    Inputs without self-arcs are used as given: a caller that compacted
    them, in the index dtype scipy keeps, holds the only copy."""
    off_diag = cs != cd
    if not off_diag.all():
        cs, cd, weights = cs[off_diag], cd[off_diag], weights[off_diag]
    del off_diag
    coarse = sparse.coo_matrix((weights, (cs, cd)), shape=(nc, nc)).tocsr()
    coarse.sum_duplicates()
    return coarse


def contract(
    adj: sparse.csr_matrix, vweights: np.ndarray, labels: np.ndarray
) -> Tuple[sparse.csr_matrix, np.ndarray, np.ndarray]:
    """Contract label groups into coarse vertices; returns
    (coarse adj, coarse vweights, fine→coarse mapping)."""
    uniq, mapping = np.unique(labels, return_inverse=True)
    nc = uniq.size
    coo = adj.tocoo()
    coarse = aggregate_coarse_arcs(
        mapping[coo.row], mapping[coo.col], coo.data, nc
    )
    cvw = np.bincount(mapping, weights=vweights.astype(np.float64), minlength=nc)
    return coarse, cvw, mapping.astype(np.int64)
