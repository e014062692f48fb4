"""SCC: extraction of the largest strongly connected component.

The paper's kernel ([29]) finds the giant SCC of a directed graph with the
trim + forward-backward scheme:

1. **Trim** — iteratively discard vertices with zero in- or out-degree
   among the remaining vertices (they are singleton SCCs).
2. **Pivot** — pick the remaining vertex with the largest
   ``in-degree × out-degree`` product (a giant-SCC member with high
   probability).
3. **FW-BW** — BFS from the pivot along out-edges and along in-edges; the
   intersection of the two reachable sets is the pivot's SCC — for web
   graphs, the giant one.

Requires the directed adjacency attached by
:func:`repro.analytics.engine.attach_directed`.
"""

from __future__ import annotations

import numpy as np

from repro.dist.distgraph import DistGraph
from repro.dist.ops import ExchangePlan
from repro.graph.gather import neighbor_gather
from repro.simmpi.comm import SimComm
from repro.simmpi.stepping import Steps, steppable


@steppable
def _directed_reach(
    comm: SimComm,
    dg: DistGraph,
    plan: ExchangePlan,
    offsets: np.ndarray,
    adj: np.ndarray,
    start_owned: np.ndarray,
    alive: np.ndarray,
) -> Steps[np.ndarray]:
    """Mask (owned+ghost) of vertices reachable from ``start_owned`` along
    the given local arcs, restricted to ``alive`` vertices."""
    reach = np.zeros(dg.n_total, dtype=np.int64)
    reach[start_owned] = 1
    yield from plan.pull(comm, reach)
    expanded = np.zeros(dg.n_local, dtype=bool)
    owned_alive = alive[: dg.n_local]
    while True:
        frontier = np.flatnonzero(
            (reach[: dg.n_local] == 1) & ~expanded & owned_alive
        )
        total = yield from comm.Allreduce(np.array([frontier.size]))
        if total[0] == 0:
            break
        expanded[frontier] = True
        if frontier.size:
            neigh, _ = neighbor_gather(offsets, adj, frontier)
            comm.charge(neigh.size)
            reach[neigh[(reach[neigh] == 0) & alive[neigh]]] = 1
        # ghost discoveries fold back to their owners, then owners'
        # authoritative state refreshes every ghost copy
        yield from plan.push(comm, reach, op="max")
        yield from plan.pull(comm, reach)
    return reach.astype(bool)


@steppable
def largest_scc(
    comm: SimComm,
    dg: DistGraph,
    plan: ExchangePlan,
    *,
    max_trim_rounds: int = 30,
) -> Steps[np.ndarray]:
    """Per owned vertex: 1 if in the largest SCC, else 0."""
    if dg.dir_out_offsets is None or dg.dir_in_offsets is None:
        raise ValueError(
            "largest_scc needs directed adjacency; pass directed= to "
            "run_analytic"
        )
    out_off, out_adj = dg.dir_out_offsets, dg.dir_out_adj
    in_off, in_adj = dg.dir_in_offsets, dg.dir_in_adj

    alive = np.ones(dg.n_total, dtype=bool)
    # --- trim: repeatedly drop vertices with no alive in- or out-neighbor
    for _ in range(max_trim_rounds):
        owned_alive = np.flatnonzero(alive[: dg.n_local])
        dropped = 0
        if owned_alive.size:
            o_neigh, o_counts = neighbor_gather(out_off, out_adj, owned_alive)
            i_neigh, i_counts = neighbor_gather(in_off, in_adj, owned_alive)
            comm.charge(o_neigh.size + i_neigh.size + owned_alive.size)
            o_src = np.repeat(np.arange(owned_alive.size), o_counts)
            i_src = np.repeat(np.arange(owned_alive.size), i_counts)
            out_deg = np.bincount(
                o_src, weights=alive[o_neigh].astype(np.float64),
                minlength=owned_alive.size,
            )
            in_deg = np.bincount(
                i_src, weights=alive[i_neigh].astype(np.float64),
                minlength=owned_alive.size,
            )
            trim = owned_alive[(out_deg == 0) | (in_deg == 0)]
            dropped = trim.size
            alive[trim] = False
        alive_f = alive.astype(np.int64)
        yield from plan.pull(comm, alive_f)
        alive = alive_f.astype(bool)
        total = yield from comm.Allreduce(np.array([dropped]))
        if total[0] == 0:
            break

    # --- pivot: max alive in*out degree product, gid tiebreak; each rank
    # offers its best as a float64 (score, gid) pair (gids < 2**53 are
    # exact in float64)
    owned_alive = np.flatnonzero(alive[: dg.n_local])
    if owned_alive.size:
        o_deg = np.diff(out_off)[owned_alive]
        i_deg = np.diff(in_off)[owned_alive]
        score = (o_deg.astype(np.float64) + 1) * (i_deg.astype(np.float64) + 1)
        best = int(np.argmax(score))
        local_best = [score[best], dg.l2g[owned_alive[best]]]
    else:
        local_best = [-1.0, -1.0]
    pairs, _ = yield from comm.Allgatherv(
        np.array(local_best, dtype=np.float64))
    scores, gids = pairs[0::2], pairs[1::2]
    pivot_gid = int(gids[np.lexsort((gids, scores))[-1]])
    if pivot_gid < 0:
        return np.zeros(dg.n_local, dtype=np.int64)

    start = np.empty(0, dtype=np.int64)
    if dg.dist.owner(pivot_gid) == dg.rank:
        start = dg.owned_lids(np.array([pivot_gid]))

    fwd = yield from _directed_reach(comm, dg, plan, out_off, out_adj,
                                     start, alive)
    bwd = yield from _directed_reach(comm, dg, plan, in_off, in_adj,
                                     start, alive)
    scc = fwd & bwd & alive
    return scc[: dg.n_local].astype(np.int64)
