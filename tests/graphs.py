"""Graphs and graph helpers only the tests use: tiny deterministic shapes,
a 2-D grid, the bridge to networkx (the oracle several tests compare
against) and the symmetry check.  ``tests/graph/test_ingest.py`` pins the
shapes' CSR arrays, so a fixture cannot drift under the tests built on it.
"""

import numpy as np

from repro.graph import Graph, from_edges


def ring(n: int) -> Graph:
    """Cycle graph 0-1-2-...-(n-1)-0."""
    if n < 3:
        raise ValueError("ring needs n >= 3")
    src = np.arange(n, dtype=np.int64)
    dst = (src + 1) % n
    return from_edges(n, src, dst)


def path_graph(n: int) -> Graph:
    """Path 0-1-...-(n-1)."""
    if n < 2:
        raise ValueError("path needs n >= 2")
    src = np.arange(n - 1, dtype=np.int64)
    return from_edges(n, src, src + 1)


def star(n: int) -> Graph:
    """Star with center 0 and n-1 leaves."""
    if n < 2:
        raise ValueError("star needs n >= 2")
    dst = np.arange(1, n, dtype=np.int64)
    src = np.zeros(n - 1, dtype=np.int64)
    return from_edges(n, src, dst)


def grid2d(nx: int, ny: int, *, diagonals: bool = False) -> Graph:
    """2-D grid mesh (5-point stencil; 9-point with ``diagonals``)."""
    if nx < 1 or ny < 1:
        raise ValueError("grid dimensions must be >= 1")
    ids = np.arange(nx * ny, dtype=np.int64).reshape(nx, ny)
    pieces = []  # views; flattened straight into the endpoint arrays
    pieces.append((ids[:-1, :], ids[1:, :]))    # down
    pieces.append((ids[:, :-1], ids[:, 1:]))    # right
    if diagonals:
        pieces.append((ids[:-1, :-1], ids[1:, 1:]))
        pieces.append((ids[:-1, 1:], ids[1:, :-1]))
    src = np.concatenate([p[0] for p in pieces], axis=None)
    dst = np.concatenate([p[1] for p in pieces], axis=None)
    return from_edges(nx * ny, src, dst)


def to_networkx(graph: Graph):
    import networkx as nx

    g = nx.DiGraph() if graph.directed else nx.Graph()
    g.add_nodes_from(range(graph.n))
    src, dst = graph.unique_edges()
    g.add_edges_from(zip(src.tolist(), dst.tolist()))
    return g


def is_symmetric(graph: Graph) -> bool:
    """True iff every stored arc has its reverse stored too."""
    src, dst = graph.edges()
    fwd = np.sort(src * np.int64(graph.n) + dst)
    rev = np.sort(dst * np.int64(graph.n) + src)
    return bool(np.array_equal(fwd, rev))
