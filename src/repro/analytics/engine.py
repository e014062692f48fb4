"""Runner and shared helpers for the distributed analytics.

:func:`run_analytic` wires one kernel through the simulated-MPI runtime:
distribute the graph by the chosen partition (or strategy), build its halo
plan (:func:`repro.dist.ops.ghost_plan`), run the kernel SPMD, and assemble
a global result plus the modeled end-to-end time — the quantity Fig. 8
compares across partitioning strategies.  :func:`segment_sums` is also the
local multiply of Table III's 1-D SpMV.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple, Union

import numpy as np

from repro.dist.build import build_dist_graph
from repro.dist.distgraph import DistGraph
from repro.dist.distribution import Distribution, make_distribution
from repro.dist.ops import ghost_plan
from repro.graph.csr import Graph
from repro.simmpi.comm import SimComm
from repro.simmpi.metrics import CommStats
from repro.simmpi.backends import Backend, create_runtime
from repro.simmpi.stepping import Steps
from repro.simmpi.timing import BLUE_WATERS_LIKE, MachineModel, TimeModel


@dataclass
class AnalyticResult:
    """Global output of one analytic run."""

    name: str
    values: np.ndarray          # one entry per global vertex
    stats: CommStats
    wall_seconds: float
    machine: MachineModel = BLUE_WATERS_LIKE

    @property
    def modeled_seconds(self) -> float:
        """Modeled parallel time of the kernel itself (build/plan excluded)."""
        model = TimeModel(self.machine)
        keep = [
            e.tag for e in self.stats.events if e.tag not in ("build", "plan")
        ]
        return model.total_time(self.stats.filtered(keep))


def segment_sums(dg: DistGraph, values_of_neighbors: np.ndarray) -> np.ndarray:
    """Per-owned-vertex sum of an array aligned with ``dg.adj``."""
    src = np.repeat(
        np.arange(dg.n_local, dtype=np.int64), dg.local_degrees
    )
    return np.bincount(src, weights=values_of_neighbors, minlength=dg.n_local)


def attach_directed(dg: DistGraph, directed: Graph) -> None:
    """Attach out/in directed adjacency (local ids) to a DistGraph built on
    the symmetric closure of ``directed``.

    Every directed arc incident to an owned vertex has both endpoints in
    the owned+ghost lid space (the symmetric closure's ghost layer covers
    the union of in- and out-neighborhoods), so arcs localize directly.
    """
    if not directed.directed:
        raise ValueError("attach_directed expects a directed graph")

    def localize(gids: np.ndarray) -> np.ndarray:
        out = np.empty(gids.size, dtype=np.int64)
        owner = dg.dist.owner(gids)
        mine = owner == dg.rank
        if np.any(mine):
            out[mine] = dg.owned_lids(gids[mine])
        if np.any(~mine):
            out[~mine] = dg.ghost_lids(gids[~mine])
        return out

    from repro.graph.gather import neighbor_gather

    owned = dg.owned_gids
    out_nbrs, out_counts = neighbor_gather(directed.offsets, directed.adj, owned)
    dg.dir_out_offsets = np.zeros(dg.n_local + 1, dtype=np.int64)
    np.cumsum(out_counts, out=dg.dir_out_offsets[1:])
    dg.dir_out_adj = localize(out_nbrs)

    rev = directed.reversed()
    in_nbrs, in_counts = neighbor_gather(rev.offsets, rev.adj, owned)
    dg.dir_in_offsets = np.zeros(dg.n_local + 1, dtype=np.int64)
    np.cumsum(in_counts, out=dg.dir_in_offsets[1:])
    dg.dir_in_adj = localize(in_nbrs)


def run_analytic(
    graph: Graph,
    kernel: Callable[..., np.ndarray],
    *,
    nprocs: int,
    distribution: Union[str, Distribution, np.ndarray] = "block",
    machine: MachineModel = BLUE_WATERS_LIKE,
    directed: Optional[Graph] = None,
    name: Optional[str] = None,
    backend: Union[str, None, Backend] = None,
    **kernel_kwargs: Any,
) -> AnalyticResult:
    """Run ``kernel(comm, dg, plan, **kwargs)`` SPMD and gather its output.

    ``kernel`` is a :func:`~repro.simmpi.stepping.steppable` routine, as
    every kernel of this package is, and returns one value per *owned*
    vertex; the runner reassembles the global array.  ``distribution`` may
    be a strategy name, a Distribution, or a partition array (parts ==
    ranks, the Fig. 8 setup).
    ``directed`` optionally supplies the directed original whose in/out
    adjacency SCC-style kernels need; ``graph`` must then be its symmetric
    closure.
    """
    if isinstance(distribution, np.ndarray):
        dist: Distribution = make_distribution(
            "partition", graph.n, nprocs, parts=distribution
        )
    elif isinstance(distribution, str):
        dist = make_distribution(distribution, graph.n, nprocs)
    else:
        dist = distribution
    if directed is not None and directed.n != graph.n:
        raise ValueError("directed graph does not match the symmetric closure")

    def rank_main(comm: SimComm) -> Steps[Tuple[np.ndarray, np.ndarray]]:
        dg = yield from build_dist_graph(comm, graph, dist)
        if directed is not None:
            with comm.phase("build"):
                attach_directed(dg, directed)
        plan = yield from ghost_plan(comm, dg)
        with comm.phase(name or getattr(kernel, "__name__", "analytic")):
            values = yield from kernel(comm, dg, plan, **kernel_kwargs)
        return dg.owned_gids, np.asarray(values)

    runtime = create_runtime(backend, nprocs=nprocs)
    try:
        t0 = time.perf_counter()
        per_rank = runtime.run(rank_main)
        wall = time.perf_counter() - t0
    finally:
        runtime.close()
    first = per_rank[0][1]
    values = np.empty(graph.n, dtype=first.dtype)
    for gids, vals in per_rank:
        values[gids] = vals
    return AnalyticResult(
        name=name or getattr(kernel, "__name__", "analytic"),
        values=values,
        stats=runtime.stats,
        wall_seconds=wall,
        machine=machine,
    )
