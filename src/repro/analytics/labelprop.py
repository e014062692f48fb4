"""LP: label-propagation community detection (Raghavan et al. [26])."""

from __future__ import annotations

import numpy as np

from repro.dist.distgraph import DistGraph
from repro.dist.ops import ExchangePlan
from repro.multilevel.kernels import segment_best_label
from repro.simmpi.comm import SimComm
from repro.simmpi.stepping import Steps, steppable


@steppable
def label_propagation_communities(
    comm: SimComm,
    dg: DistGraph,
    plan: ExchangePlan,
    *,
    iters: int = 10,
) -> Steps[np.ndarray]:
    """Community label per owned vertex after ``iters`` sweeps.

    Each vertex adopts the most frequent label among its neighbors
    (lowest label breaks ties) — the matcher's plurality kernel on unit
    weights; labels start as global ids.  Fixed sweep count as in the
    paper's analytics suite — LP is used as a benchmark kernel, not run to
    convergence.
    """
    n = dg.n_local
    labels = dg.l2g.copy()
    srcs = np.repeat(np.arange(n, dtype=np.int64), dg.local_degrees)
    unit = np.ones(dg.adj.size)
    for _ in range(max(1, iters)):
        comm.charge(2 * dg.adj.size)  # gather + sort-dominated sweep
        best, _w = segment_best_label(srcs, labels[dg.adj], unit, n)
        upd = (best >= 0) & (best != labels[:n])
        labels[:n][upd] = best[upd]
        yield from plan.pull(comm, labels)
        if (yield from comm.Allreduce(np.array([upd.sum()])))[0] == 0:
            break
    return labels[:n].copy()
