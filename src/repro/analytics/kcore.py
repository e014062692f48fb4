"""KC: approximate k-core decomposition by iterated h-indices.

Lü et al. (2016) show that repeatedly replacing each vertex's value by the
h-index of its neighbors' values converges from the degrees to the core
numbers; a bounded number of rounds gives the paper's "approximate K-core
decomposition" (it is exact once converged)."""

from __future__ import annotations

import numpy as np

from repro.dist.distgraph import DistGraph
from repro.dist.ops import ExchangePlan
from repro.graph.gather import neighbor_gather_with_sources
from repro.simmpi.comm import SimComm
from repro.simmpi.stepping import Steps, steppable


def _segment_h_index(
    values: np.ndarray, srcs: np.ndarray, n: int
) -> np.ndarray:
    """h-index per source: the largest h with >= h entries >= h.

    ``values``/``srcs`` are parallel arrays grouped per source vertex.
    """
    out = np.zeros(n, dtype=np.int64)
    if values.size == 0:
        return out
    # sort within each source by descending value
    order = np.lexsort((-values, srcs))
    s = srcs[order]
    v = values[order]
    starts = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    first_of = np.zeros(s.size, dtype=np.int64)
    first_of[starts] = starts
    first_of = np.maximum.accumulate(first_of)
    rank_within = np.arange(s.size, dtype=np.int64) - first_of + 1
    ok = v >= rank_within
    h = np.where(ok, rank_within, 0)
    np.maximum.at(out, s, h)
    return out


@steppable
def kcore_decomposition(
    comm: SimComm,
    dg: DistGraph,
    plan: ExchangePlan,
    *,
    max_rounds: int = 50,
) -> Steps[np.ndarray]:
    """Core number per owned vertex (exact at convergence; ``max_rounds``
    bounds the superstep count like the paper's approximate variant)."""
    core = dg.degrees_full.astype(np.int64).copy()
    all_owned = np.arange(dg.n_local, dtype=np.int64)
    for _ in range(max(1, max_rounds)):
        changed = 0
        if dg.n_local:
            neigh, srcs, _c = neighbor_gather_with_sources(
                dg.offsets, dg.adj, all_owned
            )
            comm.charge(2 * neigh.size)
            h = _segment_h_index(core[neigh], srcs, dg.n_local)
            new = np.minimum(core[: dg.n_local], h)
            changed = int(np.count_nonzero(new != core[: dg.n_local]))
            core[: dg.n_local] = new
        yield from plan.pull(comm, core)
        total = yield from comm.Allreduce(np.array([changed]))
        if total[0] == 0:
            break
    return core[: dg.n_local].copy()
