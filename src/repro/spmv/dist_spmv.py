"""Metered distributed SpMV (the Table III experiment).

``run_spmv`` executes ``iters`` repetitions of ``y = A x`` under a 1-D or
2-D layout inside the simulated-MPI runtime, on the partitioner's own
distribution layer.  1-D: a rank's rows are its owned vertices in the
partition-placed :class:`~repro.dist.distgraph.DistGraph`, and x's remote
entries are their ghosts, refreshed by a pull of the halo plan.  2-D
(:class:`~repro.spmv.layout.Layout2D`): x expands by a pull and partial
rows fold by a ``push(op="sum")`` of two
:class:`~repro.dist.ops.ExchangePlan` instances.  Plans are built once —
the static-pattern optimization Epetra applies — and each iteration moves
values only.  The result carries the metered stats and the modeled
per-iteration time; correctness is checked against a scipy reference in
the tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from repro.analytics.engine import segment_sums
from repro.dist.build import build_dist_graph
from repro.dist.distribution import Distribution, PartitionDistribution
from repro.dist.ops import connect_plan, ghost_plan
from repro.graph.csr import Graph
from repro.simmpi.comm import SimComm
from repro.simmpi.metrics import CommStats
from repro.simmpi.backends import Backend, create_runtime
from repro.simmpi.stepping import Steps
from repro.simmpi.timing import CLUSTER_LIKE, MachineModel, TimeModel
from repro.spmv.layout import Layout2D


def reference_x(n: int) -> np.ndarray:
    """Deterministic dense test vector (same on every rank, no comm)."""
    gid = np.arange(n, dtype=np.int64)
    return ((gid * 2654435761 % 1000) / 1000.0 + 0.1).astype(np.float64)


@dataclass
class SpmvResult:
    y: np.ndarray
    stats: CommStats
    wall_seconds: float
    iters: int
    layout: str
    machine: MachineModel = CLUSTER_LIKE

    @property
    def modeled_seconds(self) -> float:
        """Modeled time of the SpMV iterations (setup excluded)."""
        model = TimeModel(self.machine)
        return model.total_time(self.stats.filtered(["spmv"]))

    @property
    def modeled_per_iteration(self) -> float:
        return self.modeled_seconds / max(self.iters, 1)


def _rank_spmv_1d(
    comm: SimComm, graph: Graph, dist: Distribution, iters: int
) -> Steps[Tuple[np.ndarray, np.ndarray]]:
    # rows are the owned vertices' adjacency, x's ghosts their halo
    dg = yield from build_dist_graph(comm, graph, dist)
    x = np.zeros(dg.n_total, dtype=np.float64)
    x[: dg.n_local] = reference_x(graph.n)[dg.owned_gids]
    plan = yield from ghost_plan(comm, dg)
    y = np.zeros(dg.n_local, dtype=np.float64)
    for _ in range(iters):
        with comm.phase("spmv"):
            comm.charge(dg.adj.size)
            yield from plan.pull(comm, x)
            y = segment_sums(dg, x[dg.adj])
    return dg.owned_gids, y


def _rank_spmv_2d(
    comm: SimComm, graph: Graph, dist: Distribution, iters: int
) -> Steps[Tuple[np.ndarray, np.ndarray]]:
    owned = dist.owned(comm.rank)
    with comm.phase("build"):
        layout = Layout2D.build(graph, dist.owner_table, comm.rank, comm.size)
        x_owned = reference_x(graph.n)[owned]
    # expand: x of my block's columns from their 1-D owners; fold: my
    # partial rows to their y owners.  Entries this rank owns stay local.
    ghost = np.flatnonzero(layout.x_owner != comm.rank)
    expand = yield from connect_plan(comm, layout.col_gids[ghost],
                                     layout.x_owner[ghost], ghost, owned)
    away = np.flatnonzero(layout.y_owner != comm.rank)
    fold = yield from connect_plan(comm, layout.row_gids[away],
                                   layout.y_owner[away], away, owned)
    local_cols = np.flatnonzero(layout.x_owner == comm.rank)
    local_src = np.searchsorted(owned, layout.col_gids[local_cols])
    home = np.flatnonzero(layout.y_owner == comm.rank)
    home_dst = np.searchsorted(owned, layout.row_gids[home])
    x_compact = np.zeros(layout.col_gids.size, dtype=np.float64)
    y = np.zeros(owned.size, dtype=np.float64)
    for _ in range(iters):
        with comm.phase("spmv"):
            comm.charge(layout.matrix.nnz)
            x_compact[local_cols] = x_owned[local_src]
            yield from expand.pull(comm, x_owned, x_compact)
            partial = layout.matrix @ x_compact
            y[:] = 0.0
            np.add.at(y, home_dst, partial[home])
            yield from fold.push(comm, partial, y, op="sum")
    return owned, y


def run_spmv(
    graph: Graph,
    distribution: np.ndarray,
    *,
    layout: str = "1d",
    nprocs: int = 16,
    iters: int = 100,
    machine: MachineModel = CLUSTER_LIKE,
    backend: Union[str, None, Backend] = None,
) -> SpmvResult:
    """Run ``iters`` SpMVs of the graph's adjacency under a layout.

    ``distribution`` is a per-vertex owner/part array with values in
    ``[0, nprocs)`` — produced by block, random, multilevel, or XtraPuLP
    partitioning (parts == ranks, as in Table III).
    """
    distribution = np.asarray(distribution, dtype=np.int64)
    if distribution.shape != (graph.n,):
        raise ValueError("distribution must assign every vertex")
    if layout not in ("1d", "2d"):
        raise ValueError("layout must be '1d' or '2d'")
    dist = PartitionDistribution(distribution, nprocs)

    runtime = create_runtime(backend, nprocs=nprocs)
    try:
        t0 = time.perf_counter()
        rank_spmv = _rank_spmv_1d if layout == "1d" else _rank_spmv_2d
        per_rank = runtime.run(rank_spmv, graph, dist, iters)
        wall = time.perf_counter() - t0
    finally:
        runtime.close()

    y = np.zeros(graph.n, dtype=np.float64)
    for rows, vals in per_rank:
        y[rows] = vals
    return SpmvResult(
        y=y,
        stats=runtime.stats,
        wall_seconds=wall,
        iters=iters,
        layout=layout,
        machine=machine,
    )
