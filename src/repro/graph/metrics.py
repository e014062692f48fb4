"""Whole-graph metrics: BFS, approximate diameter, Table I statistics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.graph.csr import Graph
from repro.graph.gather import neighbor_gather, sorted_unique


def bfs_levels(graph: Graph, source: int) -> np.ndarray:
    """Breadth-first levels from ``source`` (-1 for unreachable vertices).

    Frontier-at-a-time with vectorized neighbor gathers — the standard
    level-synchronous formulation the paper's init stage is built on.
    """
    if not 0 <= source < graph.n:
        raise ValueError(f"source {source} out of range for n={graph.n}")
    levels = np.full(graph.n, -1, dtype=np.int64)
    levels[source] = 0
    frontier = np.array([source], dtype=np.int64)
    depth = 0
    while frontier.size:
        depth += 1
        neigh, _ = neighbor_gather(graph.offsets, graph.adj, frontier)
        frontier = sorted_unique(neigh[levels[neigh] < 0])
        levels[frontier] = depth
    return levels


def approximate_diameter(
    graph: Graph, *, sweeps: int = 10, seed: Optional[int] = None
) -> int:
    """The paper's diameter estimate: iterated BFS sweeps, each starting
    from a random vertex of the previous sweep's farthest level."""
    if graph.n == 0:
        return 0
    rng = np.random.default_rng(seed)
    source = int(rng.integers(graph.n))
    best = 0
    for _ in range(max(1, sweeps)):
        levels = bfs_levels(graph, source)
        ecc = int(levels.max())
        best = max(best, ecc)
        farthest = np.flatnonzero(levels == ecc)
        if farthest.size == 0:
            break
        source = int(rng.choice(farthest))
    return best


@dataclass(frozen=True)
class GraphStatsRow:
    """One row of the Table I analog."""

    name: str
    n: int
    m: int
    davg: float
    dmax: int
    diameter: int

    def formatted(self) -> str:
        return (
            f"{self.name:<16s} n={self.n:>9d}  m={self.m:>10d}  "
            f"davg={self.davg:6.1f}  dmax={self.dmax:>7d}  D~={self.diameter:>4d}"
        )


def graph_stats_row(
    name: str, graph: Graph, *, diameter_sweeps: int = 10, seed: int = 1
) -> GraphStatsRow:
    """Compute the Table I statistics (n, m, davg, dmax, approximate
    diameter) for one graph."""
    return GraphStatsRow(
        name=name,
        n=graph.n,
        m=graph.num_edges,
        davg=graph.avg_degree,
        dmax=graph.max_degree,
        diameter=approximate_diameter(graph, sweeps=diameter_sweeps, seed=seed),
    )
