"""Partition structure analysis beyond the paper's headline metrics.

Tools a downstream user needs to understand *why* a partition behaves the
way it does in an application: per-part boundary sizes, the part-adjacency
(quotient) graph with inter-part edge volumes, part contiguity (connected
parts localize better), and per-rank communication estimates for a halo-
exchange workload — the quantity Fig. 8's analytics actually pay for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.core.quality import PartitionQuality, partition_quality
from repro.graph.csr import Graph
from repro.graph.gather import neighbor_gather, sorted_unique


def boundary_vertices(graph: Graph, parts: np.ndarray) -> np.ndarray:
    """Mask of vertices with at least one neighbor in another part."""
    parts = np.asarray(parts)
    src, dst = graph.edges()
    cut = parts[src] != parts[dst]
    mask = np.zeros(graph.n, dtype=bool)
    mask[src[cut]] = True
    return mask


def boundary_sizes(graph: Graph, parts: np.ndarray, num_parts: int) -> np.ndarray:
    """Per part: number of its vertices on the boundary."""
    mask = boundary_vertices(graph, parts)
    return np.bincount(
        np.asarray(parts)[mask], minlength=num_parts
    ).astype(np.int64)


def part_adjacency(
    graph: Graph, parts: np.ndarray, num_parts: int
) -> np.ndarray:
    """Quotient matrix Q where ``Q[i, j]`` is the number of undirected
    edges between parts i and j (diagonal = interior edges)."""
    parts = np.asarray(parts, dtype=np.int64)
    src, dst = graph.edges()
    lo = np.minimum(parts[src], parts[dst])
    hi = np.maximum(parts[src], parts[dst])
    key = lo * np.int64(num_parts) + hi
    # both stored arcs of an undirected edge map to the same (lo, hi) cell
    upper = (
        np.bincount(key, minlength=num_parts * num_parts) // 2
    ).reshape(num_parts, num_parts)
    return upper + np.triu(upper, 1).T


def ghost_counts(graph: Graph, parts: np.ndarray, num_parts: int) -> np.ndarray:
    """Per part: distinct remote vertices adjacent to the part — the x/halo
    entries a rank owning that part must fetch every superstep (the SpMV /
    analytics communication driver)."""
    parts = np.asarray(parts, dtype=np.int64)
    src, dst = graph.edges()
    remote = parts[src] != parts[dst]
    key = sorted_unique(parts[src][remote] * np.int64(graph.n) + dst[remote])
    return np.bincount(key // graph.n, minlength=num_parts)


def part_connectivity(
    graph: Graph, parts: np.ndarray, num_parts: int
) -> np.ndarray:
    """Per part: number of connected components of the induced subgraph
    (1 = contiguous part; contiguity helps locality-sensitive workloads)."""
    parts = np.asarray(parts, dtype=np.int64)
    out = np.zeros(num_parts, dtype=np.int64)
    visited = np.zeros(graph.n, dtype=bool)
    for k in range(num_parts):
        members = np.flatnonzero(parts == k)
        comps = 0
        for seed_v in members:
            if visited[seed_v]:
                continue
            comps += 1
            frontier = np.array([seed_v], dtype=np.int64)
            visited[seed_v] = True
            while frontier.size:
                neigh, _ = neighbor_gather(graph.offsets, graph.adj, frontier)
                same = neigh[(parts[neigh] == k) & ~visited[neigh]]
                frontier = sorted_unique(same)
                visited[frontier] = True
        out[k] = comps
    return out


@dataclass(frozen=True)
class PartitionReport:
    """Full structural report for one partition."""

    quality: PartitionQuality
    boundary_fraction: float        # boundary vertices / n
    max_ghosts: int                 # worst per-part halo size
    total_ghosts: int               # sum of per-part halo sizes
    quotient_density: float         # fraction of part pairs sharing an edge
    contiguous_parts: int           # parts with exactly one component

    def formatted(self) -> str:
        return (
            f"{self.quality.formatted()}\n"
            f"boundary={100 * self.boundary_fraction:.1f}% of vertices  "
            f"ghosts: max={self.max_ghosts} total={self.total_ghosts}\n"
            f"quotient density={self.quotient_density:.2f}  "
            f"contiguous parts={self.contiguous_parts}/"
            f"{self.quality.num_parts}"
        )


def analyze_partition(
    graph: Graph, parts: np.ndarray, num_parts: int
) -> PartitionReport:
    """Compute the full :class:`PartitionReport`."""
    ghosts = ghost_counts(graph, parts, num_parts)
    q = part_adjacency(graph, parts, num_parts)
    off = ~np.eye(num_parts, dtype=bool)
    pairs = num_parts * (num_parts - 1) // 2
    density = (
        float(np.count_nonzero(np.triu(q, 1))) / pairs if pairs else 0.0
    )
    connectivity = part_connectivity(graph, parts, num_parts)
    _ = off
    return PartitionReport(
        quality=partition_quality(graph, parts, num_parts),
        boundary_fraction=(
            float(boundary_vertices(graph, parts).mean()) if graph.n else 0.0
        ),
        max_ghosts=int(ghosts.max()) if num_parts else 0,
        total_ghosts=int(ghosts.sum()),
        quotient_density=density,
        contiguous_parts=int(np.count_nonzero(connectivity == 1)),
    )
