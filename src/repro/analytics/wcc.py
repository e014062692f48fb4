"""WCC: weakly connected components by min-label propagation."""

from __future__ import annotations

import numpy as np

from repro.dist.distgraph import DistGraph
from repro.dist.ops import ExchangePlan
from repro.simmpi.comm import SimComm
from repro.simmpi.stepping import Steps, steppable


@steppable
def weakly_connected_components(
    comm: SimComm, dg: DistGraph, plan: ExchangePlan
) -> Steps[np.ndarray]:
    """Component id (= minimum member gid) per owned vertex.

    Classic hook-free label propagation: every vertex repeatedly adopts the
    minimum label in its closed neighborhood; converges in O(component
    diameter) supersteps.
    """
    n = dg.n_local
    labels = dg.l2g.copy()
    srcs = np.repeat(np.arange(n, dtype=np.int64), dg.local_degrees)
    while True:
        comm.charge(dg.adj.size + n)
        mins = labels[:n].copy()
        np.minimum.at(mins, srcs, labels[dg.adj])
        changed = np.flatnonzero(mins < labels[:n])
        labels[changed] = mins[changed]
        # owned labels are authoritative (each rank owns all incident edges
        # of its vertices), so refreshing ghosts is the only traffic needed;
        # every owned vertex re-evaluates while any rank changed something
        yield from plan.pull(comm, labels)
        if (yield from comm.Allreduce(np.array([changed.size])))[0] == 0:
            break
    return labels[:n].copy()
