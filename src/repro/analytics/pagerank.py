"""PageRank (PR): damped power iteration over the distributed graph."""

from __future__ import annotations

import numpy as np

from repro.analytics.engine import segment_sums
from repro.dist.distgraph import DistGraph
from repro.dist.ops import ExchangePlan
from repro.simmpi.comm import SimComm
from repro.simmpi.stepping import Steps, steppable


@steppable
def pagerank(
    comm: SimComm,
    dg: DistGraph,
    plan: ExchangePlan,
    *,
    iters: int = 20,
    damping: float = 0.85,
) -> Steps[np.ndarray]:
    """SPMD PageRank; returns the owned vertices' scores (summing to ~1
    globally, with dangling mass redistributed uniformly).

    Each superstep pulls fresh ghost contributions (one Alltoallv — the
    traffic a good partition shrinks), then accumulates neighbor
    contributions locally.
    """
    if not 0.0 < damping < 1.0:
        raise ValueError("damping must be in (0, 1)")
    n = dg.global_n
    deg = dg.degrees_full.astype(np.float64)  # owned + ghost degrees
    x = np.full(dg.n_total, 1.0 / n, dtype=np.float64)
    contrib = np.zeros(dg.n_total, dtype=np.float64)
    for _ in range(max(1, iters)):
        comm.charge(dg.adj.size + 2 * dg.n_local)
        np.divide(x, np.maximum(deg, 1.0), out=contrib)
        contrib[: dg.n_local][dg.local_degrees == 0] = 0.0
        yield from plan.pull(comm, contrib)
        sums = segment_sums(dg, contrib[dg.adj])
        # dangling vertices spread their mass uniformly
        local_dangling = np.array(
            [x[: dg.n_local][dg.local_degrees == 0].sum()])
        dangling = (yield from comm.Allreduce(local_dangling))[0]
        x[: dg.n_local] = (
            (1.0 - damping) / n + damping * (sums + dangling / n)
        )
        yield from plan.pull(comm, x)
    return x[: dg.n_local].copy()
