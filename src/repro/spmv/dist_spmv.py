"""Metered distributed SpMV (the Table III experiment).

``run_spmv`` executes ``iters`` repetitions of ``y = A x`` under a 1-D or
2-D layout inside the simulated-MPI runtime.  Communication plans (who
needs which x entries, who folds which partials) are built once — the
static-pattern optimization Epetra applies — and each iteration moves
values only.  The result carries the metered stats and the modeled
per-iteration time; correctness is checked against a scipy reference in
the tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from repro.dist.packing import bucket_by_rank
from repro.graph.csr import Graph
from repro.simmpi.comm import SimComm
from repro.simmpi.metrics import CommStats
from repro.simmpi.backends import Backend, create_runtime
from repro.simmpi.timing import CLUSTER_LIKE, MachineModel, TimeModel
from repro.spmv.layout import Layout1D, Layout2D


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


def _value_plan(
    comm: SimComm, need_gids: np.ndarray, need_owner: np.ndarray,
    my_index_of: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Build a static fetch plan: I will receive values for ``need_gids``
    (owned by ``need_owner``) in a deterministic order; owners learn which
    of their entries (positions in their owned array ``my_index_of``
    domain) to send.

    Returns (recv_order, recv_counts, send_idx, send_counts) where
    ``recv_order`` permutes ``need_gids`` into arrival order.
    """
    # owner-major grouping via the O(n) stable bucketing; ``need_gids`` is
    # ascending (np.unique-derived), so this matches the old lexsort order
    order, counts = bucket_by_rank(comm.size, need_owner)
    requested, req_counts = comm.Alltoallv(need_gids[order], counts)
    send_idx = np.searchsorted(my_index_of, requested)
    if requested.size and (
        send_idx.max(initial=0) >= my_index_of.size
        or np.any(my_index_of[send_idx] != requested)
    ):
        raise AssertionError("value plan requested entries I do not own")
    return order, counts, send_idx, req_counts


def _rank_spmv_1d(
    comm: SimComm, graph: Graph, owner: np.ndarray, iters: int
) -> Tuple[np.ndarray, np.ndarray]:
    with comm.phase("build"):
        layout = Layout1D.build(graph, owner, comm.rank, comm.size)
        x_owned = reference_x(graph.n)[layout.rows]
    with comm.phase("plan"):
        ghost = np.flatnonzero(layout.col_owner != comm.rank)
        recv_order, recv_counts, send_idx, send_counts = _value_plan(
            comm, layout.col_gids[ghost], layout.col_owner[ghost], layout.rows
        )
        local_cols = np.flatnonzero(layout.col_owner == comm.rank)
        local_src = np.searchsorted(layout.rows, layout.col_gids[local_cols])
    x_compact = np.zeros(layout.col_gids.size, dtype=np.float64)
    y = np.zeros(layout.rows.size, dtype=np.float64)
    for _ in range(iters):
        with comm.phase("spmv"):
            comm.charge(layout.matrix.nnz)
            x_compact[local_cols] = x_owned[local_src]
            values, _ = comm.Alltoallv(x_owned[send_idx], send_counts)
            x_compact[ghost[recv_order]] = values
            y = layout.matrix @ x_compact
    return layout.rows, y


def _rank_spmv_2d(
    comm: SimComm, graph: Graph, parts: np.ndarray, iters: int
) -> Tuple[np.ndarray, np.ndarray]:
    with comm.phase("build"):
        layout = Layout2D.build(graph, parts, comm.rank, comm.size)
        x_owned = reference_x(graph.n)[layout.owned_x]
    with comm.phase("plan"):
        # expand plan: fetch x for my block's columns from their 1-D owners
        ghost = np.flatnonzero(layout.x_owner != comm.rank)
        x_order, x_counts, x_send_idx, x_send_counts = _value_plan(
            comm, layout.col_gids[ghost], layout.x_owner[ghost], layout.owned_x
        )
        local_cols = np.flatnonzero(layout.x_owner == comm.rank)
        local_src = np.searchsorted(layout.owned_x, layout.col_gids[local_cols])
        # fold plan: my partial rows go to their y owners.  One gid
        # round-trip at setup tells each owner where to accumulate.
        away = np.flatnonzero(layout.y_owner != comm.rank)
        fold_order, fold_counts = bucket_by_rank(
            comm.size, layout.y_owner[away]
        )
        incoming_gids, _ = comm.Alltoallv(
            layout.row_gids[away][fold_order], fold_counts
        )
        acc_idx = np.searchsorted(layout.owned_x, incoming_gids)
        home = np.flatnonzero(layout.y_owner == comm.rank)
        home_dst = np.searchsorted(layout.owned_x, layout.row_gids[home])
    x_compact = np.zeros(layout.col_gids.size, dtype=np.float64)
    y = np.zeros(layout.owned_x.size, dtype=np.float64)
    for _ in range(iters):
        with comm.phase("spmv"):
            comm.charge(layout.matrix.nnz)
            # expand
            x_compact[local_cols] = x_owned[local_src]
            values, _ = comm.Alltoallv(x_owned[x_send_idx], x_send_counts)
            x_compact[ghost[x_order]] = values
            # local block multiply
            partial = layout.matrix @ x_compact
            # fold
            folded, _ = comm.Alltoallv(partial[away][fold_order], fold_counts)
            y[:] = 0.0
            if home.size:
                np.add.at(y, home_dst, partial[home])
            if folded.size:
                np.add.at(y, acc_idx, folded)
    return layout.owned_x, y


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
    if distribution.size and distribution.max() >= nprocs:
        raise ValueError("distribution references more parts than nprocs")
    if layout not in ("1d", "2d"):
        raise ValueError("layout must be '1d' or '2d'")

    runtime = create_runtime(backend, nprocs=nprocs, meter_compute=False)
    try:
        t0 = time.perf_counter()
        if layout == "1d":
            per_rank = runtime.run(_rank_spmv_1d, graph, distribution, iters)
        else:
            per_rank = runtime.run(_rank_spmv_2d, graph, distribution, iters)
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
