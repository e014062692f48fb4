"""From-scratch multilevel graph partitioner (ParMETIS / KaHIP stand-ins).

The classic three-phase scheme the paper compares against:

1. **Coarsening** — repeatedly contract the graph to a small weighted
   graph.  ``quality="default"`` uses heavy-edge matching (the
   METIS/ParMETIS family); ``quality="high"`` uses size-constrained
   label-propagation clustering, the coarsening of Meyerhenke, Sanders &
   Schulz 2015 (KaHIP), plus a heavier refinement schedule.
2. **Initial partitioning** — greedy graph growing from random seeds at the
   coarsest level (George & Liu-style), best of several restarts.
3. **Uncoarsening** — project the partition up and apply boundary
   FM-flavored refinement (positive-gain moves under a balance cap) at
   every level.

The implementation is deliberately faithful to the family's resource
profile, which drives the paper's Table II story: multilevel methods store
the whole level hierarchy (high memory), coarsen poorly on heavy-skew
graphs (hub vertices resist matching), and do far more work per edge than
single-level label propagation.  A hierarchy-size budget emulates the
out-of-memory failures ParMETIS shows on the paper's larger irregular
inputs: exceeding it raises :class:`MultilevelResourceError`, our analog of
the empty cells in Table II.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.core.quality import Partition
from repro.graph.builders import to_scipy
from repro.graph.csr import Graph
from repro.multilevel.kernels import contract, heavy_edge_matching, lp_clustering


class MultilevelResourceError(MemoryError):
    """Coarsening hierarchy exceeded its memory budget (ParMETIS-OOM analog).

    Carries the hierarchy ``level`` at which the failure occurred and the
    ``requested`` allocation size (edges the level would have added) so
    callers can report *where* a graph refused to coarsen, not just that
    it did.
    """

    def __init__(self, message: str, *, level: int = -1,
                 requested: int = 0) -> None:
        super().__init__(message)
        self.level = int(level)
        self.requested = int(requested)


@dataclass
class _Level:
    """One level of the coarsening hierarchy."""

    adj: sparse.csr_matrix        # weighted symmetric adjacency, no diagonal
    vweights: np.ndarray          # fine-vertex mass of each coarse vertex
    mapping: Optional[np.ndarray]  # fine lid -> coarse lid (None at finest)


@dataclass
class MultilevelResult(Partition):
    wall_seconds: float
    levels: int
    coarsest_n: int
    quality_mode: str
    history: List[Tuple[int, int]] = field(default_factory=list)  # (n, nnz)


# ---------------------------------------------------------------------------
# segment utilities (per-vertex aggregation over sorted edge arrays)
# ---------------------------------------------------------------------------

def _part_weight_sums(
    src: np.ndarray, part_of_dst: np.ndarray, w: np.ndarray, n: int, p: int
) -> np.ndarray:
    """Dense (n, p) matrix of per-vertex edge weight to each part."""
    key = src * np.int64(p) + part_of_dst
    return np.bincount(key, weights=w, minlength=n * p).reshape(n, p)


# ---------------------------------------------------------------------------
# initial partition at the coarsest level
# ---------------------------------------------------------------------------

def _graph_growing(
    adj: sparse.csr_matrix,
    vweights: np.ndarray,
    num_parts: int,
    rng: np.random.Generator,
    restarts: int = 4,
) -> np.ndarray:
    """Greedy BFS region growing, repeatedly feeding the lightest part."""
    n = adj.shape[0]
    if num_parts >= n:
        return np.arange(n, dtype=np.int64) % num_parts
    indptr, indices = adj.indptr, adj.indices
    best_parts: Optional[np.ndarray] = None
    best_cut = np.inf
    coo = adj.tocoo()
    for _ in range(max(1, restarts)):
        parts = np.full(n, -1, dtype=np.int64)
        load = np.zeros(num_parts, dtype=np.float64)
        frontiers: List[List[int]] = [[] for _ in range(num_parts)]
        seeds = rng.choice(n, size=num_parts, replace=False)
        for k, s in enumerate(seeds):
            parts[s] = k
            load[k] += vweights[s]
            frontiers[k].extend(indices[indptr[s]:indptr[s + 1]].tolist())
        remaining = int(n - num_parts)
        while remaining > 0:
            k = int(np.argmin(load))
            v = -1
            fk = frontiers[k]
            while fk:
                u = fk.pop()
                if parts[u] < 0:
                    v = u
                    break
            if v < 0:  # frontier exhausted: grab any unassigned vertex
                unass = np.flatnonzero(parts < 0)
                v = int(unass[rng.integers(unass.size)])
            parts[v] = k
            load[k] += vweights[v]
            frontiers[k].extend(indices[indptr[v]:indptr[v + 1]].tolist())
            remaining -= 1
        cut = float(coo.data[parts[coo.row] != parts[coo.col]].sum()) / 2.0
        if cut < best_cut:
            best_cut = cut
            best_parts = parts
    assert best_parts is not None
    return best_parts


# ---------------------------------------------------------------------------
# FM-flavored boundary refinement
# ---------------------------------------------------------------------------

def _rebalance_level(
    adj: sparse.csr_matrix,
    vweights: np.ndarray,
    parts: np.ndarray,
    num_parts: int,
    max_load: float,
    max_rounds: int = 20,
) -> np.ndarray:
    """Drain overweight parts by evicting their least-attached vertices.

    FM-style refinement only takes positive-gain moves and so cannot repair
    imbalance inherited from coarser levels; this pass moves boundary
    vertices of over-cap parts to their best under-cap alternative
    (accepting cut loss), exactly what METIS's balance phase does.
    """
    n = adj.shape[0]
    coo = adj.tocoo()
    src, dst, w = coo.row.astype(np.int64), coo.col.astype(np.int64), coo.data
    load = np.bincount(parts, weights=vweights, minlength=num_parts)
    for _ in range(max_rounds):
        over = load > max_load
        if not np.any(over):
            break
        pw = _part_weight_sums(src, parts[dst], w, n, num_parts)
        rows = np.arange(n)
        in_over = over[parts]
        ext = pw.copy()
        ext[rows, parts] = -np.inf
        ext[:, over] = -np.inf  # never feed another overweight part
        tgt = np.argmax(ext, axis=1)
        gain = ext[rows, tgt] - pw[rows, parts]
        cand = np.flatnonzero(in_over & np.isfinite(ext[rows, tgt]))
        if cand.size == 0:
            # no boundary escape routes: teleport lightest vertices
            cand = np.flatnonzero(in_over)
            tgt[cand] = np.argmin(load)
            gain[cand] = 0.0
            if cand.size == 0:
                break
        # evict cheapest-cut-loss first, only as much mass as needed
        cand = cand[np.argsort(gain[cand])[::-1]]
        moved_any = False
        excess = load - max_load
        for v in cand:
            x = parts[v]
            if excess[x] <= 0:
                continue
            t = int(tgt[v])
            if load[t] + vweights[v] > max_load:
                continue
            parts[v] = t
            load[x] -= vweights[v]
            load[t] += vweights[v]
            excess[x] -= vweights[v]
            moved_any = True
        if not moved_any:
            break
    return parts


def _refine_level(
    adj: sparse.csr_matrix,
    vweights: np.ndarray,
    parts: np.ndarray,
    num_parts: int,
    max_load: float,
    passes: int,
) -> np.ndarray:
    """Positive-gain boundary moves under a balance cap, Jacobi-style."""
    n = adj.shape[0]
    coo = adj.tocoo()
    src, dst, w = coo.row.astype(np.int64), coo.col.astype(np.int64), coo.data
    load = np.bincount(parts, weights=vweights, minlength=num_parts)
    for _ in range(passes):
        pw = _part_weight_sums(src, parts[dst], w, n, num_parts)
        rows = np.arange(n)
        internal = pw[rows, parts]
        ext = pw.copy()
        ext[rows, parts] = -np.inf
        tgt = np.argmax(ext, axis=1)
        gain = ext[rows, tgt] - internal
        cand = np.flatnonzero((gain > 0) & np.isfinite(ext[rows, tgt]))
        if cand.size == 0:
            break
        # best gains first; admit while the target part stays under cap
        cand = cand[np.argsort(gain[cand])[::-1]]
        t = tgt[cand]
        vw = vweights[cand]
        # running load check per target part
        order = np.argsort(t, kind="stable")
        tt, vv = t[order], vw[order]
        csum = np.cumsum(vv)
        starts = np.searchsorted(tt, np.arange(num_parts))
        base = np.where(starts > 0, csum[starts - 1], 0.0)
        within = csum - base[tt]
        ok_sorted = load[tt] + within <= max_load
        ok = np.zeros(cand.size, dtype=bool)
        ok[order] = ok_sorted
        movers = cand[ok]
        if movers.size == 0:
            break
        old = parts[movers]
        new = tgt[movers]
        np.subtract.at(load, old, vweights[movers])
        np.add.at(load, new, vweights[movers])
        parts[movers] = new
    return parts


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def multilevel_partition(
    graph: Graph,
    num_parts: int,
    *,
    quality: str = "default",
    balance: float = 0.03,
    seed: int = 0,
    coarsest_factor: int = 30,
    memory_budget_factor: float = 8.0,
    max_levels: int = 40,
) -> MultilevelResult:
    """Partition with the multilevel scheme.

    Parameters
    ----------
    quality:
        ``"default"`` — matching coarsening + 3 refinement passes/level
        (ParMETIS-like); ``"high"`` — label-propagation coarsening + 8
        passes (KaHIP-like: better cut, slower).
    balance:
        Allowed vertex imbalance (ParMETIS default 3%).
    memory_budget_factor:
        The hierarchy (sum of nnz over all levels) may not exceed this
        multiple of the input nnz; violating it raises
        :class:`MultilevelResourceError` — the OOM analog for skewed graphs
        that refuse to coarsen.
    """
    if quality not in ("default", "high"):
        raise ValueError(f"unknown quality mode {quality!r}")
    if num_parts < 1:
        raise ValueError("num_parts must be >= 1")
    if num_parts > graph.n:
        raise ValueError(f"cannot cut {graph.n} vertices into {num_parts} parts")
    if graph.directed:
        raise ValueError("multilevel partitions undirected (symmetric) graphs")
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)

    adj = to_scipy(graph)
    adj.setdiag(0)
    adj.eliminate_zeros()
    vweights = np.ones(graph.n, dtype=np.float64)
    levels: List[_Level] = [_Level(adj, vweights, None)]
    budget = memory_budget_factor * max(adj.nnz, 1)
    stored = adj.nnz
    history = [(graph.n, adj.nnz)]

    coarsest_target = max(coarsest_factor * num_parts, 256)
    while levels[-1].adj.shape[0] > coarsest_target and len(levels) < max_levels:
        cur = levels[-1]
        n_cur = cur.adj.shape[0]
        if quality == "high":
            max_cluster = max(
                cur.vweights.sum() / (2.0 * num_parts), cur.vweights.max()
            )
            labels = lp_clustering(cur.adj, cur.vweights, max_cluster, rng)
        else:
            labels = heavy_edge_matching(cur.adj, rng)
        coarse, cvw, mapping = contract(cur.adj, cur.vweights, labels)
        shrink = 1.0 - coarse.shape[0] / n_cur
        stored += coarse.nnz
        if stored > budget:
            raise MultilevelResourceError(
                f"level {len(levels)}: allocating {coarse.nnz} coarse edges "
                f"brings the hierarchy to {stored} stored edges > budget "
                f"{budget:.0f} (input refuses to coarsen)",
                level=len(levels),
                requested=int(coarse.nnz),
            )
        if shrink < 0.02:  # stagnation (hub-dominated graphs resist matching)
            if coarse.shape[0] > 8 * coarsest_target:
                raise MultilevelResourceError(
                    f"level {len(levels)}: coarsening stagnated at "
                    f"{coarse.shape[0]} vertices (target {coarsest_target}); "
                    f"storing the requested {coarse.nnz} coarse edges per "
                    f"further level would not fit the hierarchy budget",
                    level=len(levels),
                    requested=int(coarse.nnz),
                )
            break
        levels.append(_Level(coarse, cvw, mapping))
        history.append((coarse.shape[0], coarse.nnz))

    coarsest = levels[-1]
    parts = _graph_growing(coarsest.adj, coarsest.vweights, num_parts, rng)

    total_vw = float(vweights.sum())
    max_load = (1.0 + balance) * total_vw / num_parts
    passes = 8 if quality == "high" else 3
    parts = _rebalance_level(
        coarsest.adj, coarsest.vweights, parts, num_parts, max_load
    )
    parts = _refine_level(
        coarsest.adj, coarsest.vweights, parts, num_parts, max_load, passes
    )
    for i in range(len(levels) - 1, 0, -1):
        mapping = levels[i].mapping
        assert mapping is not None
        parts = parts[mapping]  # project onto the next finer level
        fine = levels[i - 1]
        parts = _rebalance_level(
            fine.adj, fine.vweights, parts, num_parts, max_load
        )
        parts = _refine_level(
            fine.adj, fine.vweights, parts, num_parts, max_load, passes
        )
    return MultilevelResult(
        parts=parts.astype(np.int64),
        num_parts=num_parts,
        wall_seconds=time.perf_counter() - t0,
        levels=len(levels),
        coarsest_n=coarsest.adj.shape[0],
        quality_mode=quality,
        history=history,
    )
