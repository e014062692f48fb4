"""Frozen compressed-sparse-row graph.

The paper stores the distributed graph in "a distributed one-dimensional
compressed sparse row-like representation"; this class is the single-address
-space building block: a validated, immutable CSR with NumPy storage.

Conventions
-----------
* Vertices are ``0 .. n-1``.  ``offsets`` is int64; ``adj`` is int64,
  unless it is handed in as int32: a V-cycle's coarse levels store their
  ids at 4 bytes end to end (:mod:`repro.multilevel.coarsen`).
* The adjacency is *directed storage*: ``adj[offsets[v]:offsets[v+1]]`` are
  the out-neighbors of ``v``.  An **undirected** graph stores each edge in
  both directions (symmetric CSR), which is how every partitioning algorithm
  here consumes it; ``num_undirected_edges`` is then ``adj.size // 2``.
* Self-loops and parallel edges are removed by the builders by default.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.graph.gather import neighbor_gather


class Graph:
    """Immutable CSR graph.

    Use :func:`repro.graph.builders.from_edges` (or a generator) rather than
    calling this constructor with hand-built arrays.
    """

    __slots__ = ("offsets", "adj", "n", "directed", "_degrees")

    def __init__(
        self,
        offsets: np.ndarray,
        adj: np.ndarray,
        *,
        directed: bool = False,
        validate: bool = True,
    ) -> None:
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        adj = np.asarray(adj)
        adj = np.ascontiguousarray(
            adj, dtype=np.int32 if adj.dtype == np.int32 else np.int64)
        if validate:
            if offsets.ndim != 1 or adj.ndim != 1:
                raise ValueError("offsets and adj must be 1-D")
            if offsets.size == 0:
                raise ValueError("offsets must have at least one entry")
            if offsets[0] != 0 or offsets[-1] != adj.size:
                raise ValueError(
                    f"offsets must start at 0 and end at adj size "
                    f"({offsets[0]}..{offsets[-1]} vs {adj.size})"
                )
            if np.any(np.diff(offsets) < 0):
                raise ValueError("offsets must be non-decreasing")
            n = offsets.size - 1
            if adj.size and (adj.min() < 0 or adj.max() >= n):
                raise ValueError("adjacency targets out of range")
        self.offsets = offsets
        self.adj = adj
        self.n = int(offsets.size - 1)
        self.directed = bool(directed)
        self._degrees: Optional[np.ndarray] = None
        self.offsets.setflags(write=False)
        self.adj.setflags(write=False)

    # -- basic properties ----------------------------------------------------

    @property
    def num_directed_edges(self) -> int:
        """Number of stored (directed) adjacency entries."""
        return int(self.adj.size)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (``adj.size // 2`` for symmetric CSR);
        for directed graphs, the number of arcs."""
        return self.adj.size if self.directed else self.adj.size // 2

    @property
    def degrees(self) -> np.ndarray:
        """Out-degree of every vertex (== undirected degree for symmetric CSR)."""
        if self._degrees is None:
            d = np.diff(self.offsets)
            d.setflags(write=False)
            self._degrees = d
        return self._degrees

    @property
    def avg_degree(self) -> float:
        return self.adj.size / self.n if self.n else 0.0

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max()) if self.n else 0

    def neighbors(self, v: int) -> np.ndarray:
        """Read-only view of ``v``'s adjacency slice."""
        return self.adj[self.offsets[v]:self.offsets[v + 1]]

    def neighbor_block(self, verts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenated neighbor lists + per-vertex counts for a vertex set."""
        return neighbor_gather(self.offsets, self.adj, verts)

    def edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """All stored arcs as ``(src, dst)`` arrays (both directions for
        undirected graphs)."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        return src, self.adj.copy()

    def unique_edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """Each undirected edge once, as ``(u, v)`` with ``u < v``.

        For directed graphs, returns all arcs unchanged.
        """
        src, dst = self.edges()
        if self.directed:
            return src, dst
        keep = src < dst
        return src[keep], dst[keep]

    # -- structure checks ------------------------------------------------------

    def has_self_loops(self) -> bool:
        src, dst = self.edges()
        return bool(np.any(src == dst))

    def reversed(self) -> "Graph":
        """Graph with every arc flipped (in-adjacency CSR)."""
        src, dst = self.edges()
        order = np.argsort(dst, kind="stable")
        new_src = dst[order]
        new_dst = src[order]
        offsets = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(new_src, minlength=self.n), out=offsets[1:])
        return Graph(offsets, new_dst, directed=self.directed, validate=False)

    # -- dunder conveniences -----------------------------------------------------

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return (
            f"Graph(n={self.n}, m={self.num_edges}, {kind}, "
            f"davg={self.avg_degree:.1f}, dmax={self.max_degree})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.directed == other.directed
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.adj, other.adj)
        )

    def __hash__(self) -> int:  # identity hash; arrays are frozen but big
        return id(self)

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.n))
