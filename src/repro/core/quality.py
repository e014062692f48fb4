"""Partition quality metrics (§II and §V.B of the paper).

All metrics operate on the full graph plus a global part assignment, so
they are usable on any partitioner's output (XtraPuLP, baselines,
ParMETIS-like) for apples-to-apples comparison.  :class:`Partition` is
that assignment as the partitioners the figures compare return it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Sequence

import numpy as np

from repro.graph.csr import Graph


@dataclass
class Partition:
    """A label vector with ``parts[v]`` in ``[0, num_parts)`` for every
    vertex ``v``; construction rejects anything else."""

    parts: np.ndarray
    num_parts: int

    def __post_init__(self) -> None:
        self.parts = parts = np.asarray(self.parts)
        if self.num_parts < 1:
            raise ValueError(f"num_parts must be >= 1, got {self.num_parts}")
        if parts.ndim != 1:
            raise ValueError(f"parts must be 1-D, got shape {parts.shape}")
        if parts.size and (parts.min() < 0 or parts.max() >= self.num_parts):
            raise ValueError("part labels out of range")

    def quality(self, graph: Graph) -> "PartitionQuality":
        return partition_quality(graph, self.parts, self.num_parts)


def _check(graph: Graph, parts: np.ndarray, num_parts: int) -> np.ndarray:
    parts = Partition(parts, num_parts).parts
    if parts.shape != (graph.n,):
        raise ValueError(f"parts must have shape ({graph.n},), got {parts.shape}")
    return parts


def edge_cut(graph: Graph, parts: np.ndarray, num_parts: int) -> int:
    """``|C(G, Π)|``: number of undirected edges with endpoints in
    different parts."""
    parts = _check(graph, parts, num_parts)
    src, dst = graph.edges()
    return int(np.count_nonzero(parts[src] != parts[dst]) // 2)


def edge_cut_ratio(graph: Graph, parts: np.ndarray, num_parts: int) -> float:
    """Cut edges / total edges — Fig. 4's first metric (lower is better)."""
    m = graph.num_edges
    return edge_cut(graph, parts, num_parts) / m if m else 0.0


def cut_edges_per_part(graph: Graph, parts: np.ndarray, num_parts: int) -> np.ndarray:
    """``|C(G, π_k)|`` for every part: cut edges with ≥1 endpoint in k.

    Each cut edge contributes once to both endpoint parts.
    """
    parts = _check(graph, parts, num_parts)
    src, dst = graph.edges()
    cut = parts[src] != parts[dst]
    # every undirected cut edge appears twice (both directions); counting
    # the src side of each stored arc hits each (edge, endpoint-part) once
    return np.bincount(parts[src][cut], minlength=num_parts).astype(np.int64)


def scaled_max_cut_ratio(graph: Graph, parts: np.ndarray, num_parts: int) -> float:
    """max_k |C(G, π_k)| / (m / p) — Fig. 4's second metric."""
    m = graph.num_edges
    if m == 0:
        return 0.0
    per_part = cut_edges_per_part(graph, parts, num_parts)
    return float(per_part.max() / (m / num_parts))


def vertex_counts(
    graph: Graph,
    parts: np.ndarray,
    num_parts: int,
    weights: "np.ndarray | None" = None,
) -> np.ndarray:
    parts = _check(graph, parts, num_parts)
    if weights is None:
        return np.bincount(parts, minlength=num_parts).astype(np.int64)
    return np.bincount(
        parts, weights=np.asarray(weights, dtype=np.float64),
        minlength=num_parts,
    )


def edge_counts(graph: Graph, parts: np.ndarray, num_parts: int) -> np.ndarray:
    """Per-part edge size as the sum of member degrees (the incident-edge
    count the partitioner balances; interior edges count twice)."""
    parts = _check(graph, parts, num_parts)
    return np.bincount(
        parts, weights=graph.degrees.astype(np.float64), minlength=num_parts
    ).astype(np.int64)


def vertex_balance(
    graph: Graph,
    parts: np.ndarray,
    num_parts: int,
    weights: "np.ndarray | None" = None,
) -> float:
    """max part vertex count (or weight) / (total / p); 1.0 is perfect."""
    counts = vertex_counts(graph, parts, num_parts, weights)
    total = counts.sum()
    return float(counts.max() / (total / num_parts)) if total else 0.0


def edge_balance(graph: Graph, parts: np.ndarray, num_parts: int) -> float:
    """max part edge size / (total / p), degree-based (Fig. 5's 'Max Edge
    Imbalance')."""
    counts = edge_counts(graph, parts, num_parts)
    total = counts.sum()
    return float(counts.max() / (total / num_parts)) if total else 0.0


@dataclass(frozen=True)
class PartitionQuality:
    """Bundle of every §V.B metric for one (graph, partition) pair."""

    num_parts: int
    cut: int
    cut_ratio: float
    max_cut_ratio: float
    vertex_balance: float
    edge_balance: float

    def formatted(self) -> str:
        return (
            f"p={self.num_parts:<4d} cut={self.cut:<10d} "
            f"ratio={self.cut_ratio:6.4f}  maxcut={self.max_cut_ratio:6.3f}  "
            f"vbal={self.vertex_balance:5.3f}  ebal={self.edge_balance:5.3f}"
        )


def partition_quality(
    graph: Graph, parts: np.ndarray, num_parts: int
) -> PartitionQuality:
    return PartitionQuality(
        num_parts=num_parts,
        cut=edge_cut(graph, parts, num_parts),
        cut_ratio=edge_cut_ratio(graph, parts, num_parts),
        max_cut_ratio=scaled_max_cut_ratio(graph, parts, num_parts),
        vertex_balance=vertex_balance(graph, parts, num_parts),
        edge_balance=edge_balance(graph, parts, num_parts),
    )


def performance_ratios(
    results: Mapping[str, Sequence[float]]
) -> Dict[str, float]:
    """The paper's "performance ratio": geometric mean, over tests, of each
    method's metric divided by the best metric on that test.

    ``results[method][t]`` is method's metric value on test ``t`` (lower
    better); 1.0 means the method was best on every test.
    """
    methods = list(results)
    if not methods:
        return {}
    arr = np.array([results[m] for m in methods], dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise ValueError("each method needs the same, non-empty test list")
    best = arr.min(axis=0)
    best = np.where(best <= 0, 1e-12, best)
    ratios = np.maximum(arr, 1e-12) / best
    geo = np.exp(np.log(ratios).mean(axis=1))
    return dict(zip(methods, geo.tolist()))
