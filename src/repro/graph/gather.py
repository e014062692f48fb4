"""Vectorized multi-range gathers over CSR adjacency.

The inner loops of label propagation, BFS, and boundary detection all need
"for every vertex in this set, visit all its neighbors".  A Python loop over
vertices is orders of magnitude too slow; these helpers express the access
as a single fancy-index gather, which is the idiom the scientific-Python
optimization guidance calls for (vectorize the loop, mind contiguity).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def expand_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``[arange(s, s + c) for s, c in zip(starts, counts)]``
    without a Python loop.

    Returns an index array of length ``counts.sum()``.
    """
    counts = np.asarray(counts, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # For each output slot, the base is starts[i] minus the running prefix of
    # counts; adding a global arange then walks each range.
    prefix = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=prefix[1:])
    return np.repeat(starts - prefix, counts) + np.arange(total, dtype=np.int64)


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Ascending distinct elements of ``values`` (flattened, dtype kept).

    Use instead of ``np.unique`` without a ``return_*`` keyword, which from
    NumPy 2.3 hashes and is 10-80x slower than this sort + neighbour
    compare on integer keys (DESIGN.md §4; ``tests/test_no_bare_unique.py``).
    """
    ordered = np.sort(values, axis=None)
    keep = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def neighbor_gather(
    offsets: np.ndarray, adj: np.ndarray, verts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Gather the concatenated neighbor lists of ``verts``.

    Returns ``(neighbors, counts)`` where ``neighbors`` is the concatenation
    of each vertex's adjacency slice and ``counts[i]`` is ``degree(verts[i])``.
    """
    verts = np.asarray(verts, dtype=np.int64)
    starts = offsets[verts]
    counts = offsets[verts + 1] - starts
    idx = expand_ranges(starts, counts)
    return adj[idx], counts


def neighbor_gather_with_sources(
    offsets: np.ndarray, adj: np.ndarray, verts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Like :func:`neighbor_gather` but also returns, for every gathered
    neighbor, the *position in verts* of its source vertex.

    ``(neighbors, sources, counts)`` with ``len(neighbors) == len(sources)``;
    ``sources`` indexes into ``verts`` (0..len(verts)-1), which is exactly
    the row index needed for per-vertex ``bincount`` aggregation.
    """
    neighbors, counts = neighbor_gather(offsets, adj, verts)
    sources = np.repeat(np.arange(len(verts), dtype=np.int64), counts)
    return neighbors, sources, counts
