"""Trivial partitioning strategies (§V.B, §V.E).

These are the only methods that work at the paper's extreme scale besides
XtraPuLP, and the four-way comparison of Fig. 8 (EdgeBlock / VertexBlock /
Random / XtraPuLP) is built on them.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.dist.distribution import block_sizes
from repro.graph.csr import Graph


def random_partition(
    graph: Graph, num_parts: int, *, seed: Optional[int] = 0
) -> np.ndarray:
    """Uniform random part per vertex.

    Expected cut ratio ≈ (p-1)/p — the paper's reference point for
    "nearly every edge is cut".
    """
    if num_parts < 1:
        raise ValueError("num_parts must be >= 1")
    rng = np.random.default_rng(seed)
    return rng.integers(0, num_parts, size=graph.n, dtype=np.int64)


def vertex_block_partition(graph: Graph, num_parts: int) -> np.ndarray:
    """Contiguous vertex-id blocks of (near-)equal vertex count.

    "VertexBlock partitioning stores roughly the same number of vertices
    and all their adjacencies in each node."  Quality depends entirely on
    how much locality the vertex ordering carries (crawl order: a lot;
    social snapshots: none).
    """
    if num_parts < 1:
        raise ValueError("num_parts must be >= 1")
    return np.repeat(np.arange(num_parts, dtype=np.int64),
                     block_sizes(graph.n, num_parts))


def edge_block_partition(graph: Graph, num_parts: int) -> np.ndarray:
    """Contiguous vertex-id blocks of (near-)equal *edge* count.

    "EdgeBlock partitioning stores a contiguous set of vertices and all
    their adjacencies in each node such that each node has approximately
    the same number of edges" — equalizes the degree sum per part by
    cutting the degree prefix-sum at p-quantiles.
    """
    if num_parts < 1:
        raise ValueError("num_parts must be >= 1")
    deg = graph.degrees.astype(np.float64)
    csum = np.cumsum(deg)
    total = csum[-1] if graph.n else 0.0
    if total == 0:
        return vertex_block_partition(graph, num_parts)
    # vertex v belongs to the part whose edge-quantile bucket its prefix
    # midpoint falls into
    targets = total * (np.arange(1, num_parts + 1)) / num_parts
    parts = np.searchsorted(targets, csum - deg / 2.0, side="right")
    return np.minimum(parts, num_parts - 1).astype(np.int64)
