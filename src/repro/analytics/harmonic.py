"""HC: harmonic centrality of ``k`` sample sources (multi-source BFS).

The paper computes harmonic centrality *of* 100 vertices: for each sampled
source s, ``HC(s) = sum over reachable v of 1 / d(s, v)`` — k full BFS
traversals, the most expensive kernel in Fig. 8."""

from __future__ import annotations

import numpy as np

from repro.dist.distgraph import DistGraph
from repro.dist.ops import ExchangePlan, distributed_bfs_levels
from repro.simmpi.comm import SimComm
from repro.simmpi.stepping import Steps, steppable


@steppable
def harmonic_centrality(
    comm: SimComm,
    dg: DistGraph,
    plan: ExchangePlan,
    *,
    num_sources: int = 100,
    seed: int = 7,
) -> Steps[np.ndarray]:
    """Per owned vertex: its harmonic centrality if it is one of the
    ``num_sources`` sampled vertices, else 0.

    Sources are drawn deterministically from the global id space, so every
    rank agrees without extra communication.
    """
    rng = np.random.default_rng(seed)
    k = min(num_sources, dg.global_n)
    sources = rng.choice(dg.global_n, size=k, replace=False)
    out = np.zeros(dg.n_local, dtype=np.float64)
    for s in sources:
        levels = yield from distributed_bfs_levels(comm, dg, plan, int(s))
        reached = levels > 0
        local_hc = (1.0 / levels[reached]).sum() if np.any(reached) else 0.0
        hc = (yield from comm.Allreduce(np.array([local_hc])))[0]
        owner = dg.dist.owner(int(s))
        if owner == dg.rank:
            lid = int(dg.owned_lids(np.array([s]))[0])
            out[lid] = hc
    return out
