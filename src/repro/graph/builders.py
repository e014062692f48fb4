"""Builders: edge lists / scipy / networkx  →  :class:`~repro.graph.csr.Graph`."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.graph.csr import Graph
from repro.graph.gather import sorted_unique


def _clean_edges(
    n: int,
    src: np.ndarray,
    dst: np.ndarray,
    *,
    symmetrize: bool,
    dedup: bool,
    drop_self_loops: bool,
) -> Tuple[np.ndarray, np.ndarray]:
    src = np.asarray(src, dtype=np.int64).ravel()
    dst = np.asarray(dst, dtype=np.int64).ravel()
    if src.shape != dst.shape:
        raise ValueError("src and dst must have equal length")
    if src.size and (
        src.min() < 0 or dst.min() < 0 or src.max() >= n or dst.max() >= n
    ):
        raise ValueError(f"edge endpoints out of range for n={n}")
    if drop_self_loops:
        ok = src != dst
        src, dst = src[ok], dst[ok]
    if symmetrize:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    if dedup and src.size:
        # sort by (src, dst) once; uniqueness on the combined key
        key = sorted_unique(src * np.int64(n) + dst)
        src = key // n
        dst = key % n
    elif src.size:
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
    return src, dst


def from_edges(
    n: int,
    src: np.ndarray,
    dst: np.ndarray,
    *,
    directed: bool = False,
    dedup: bool = True,
    drop_self_loops: bool = True,
) -> Graph:
    """Build a graph from parallel endpoint arrays.

    Undirected graphs (default) are symmetrized: each input pair produces
    both arcs.  Duplicate edges and self-loops are removed unless disabled.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    src, dst = _clean_edges(
        n, src, dst,
        symmetrize=not directed, dedup=dedup, drop_self_loops=drop_self_loops,
    )
    offsets = np.zeros(n + 1, dtype=np.int64)
    if src.size:
        np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
    return Graph(offsets, dst, directed=directed, validate=False)


def from_scipy(matrix, *, directed: bool = False) -> Graph:
    """Build from a scipy sparse matrix (nonzero pattern = adjacency)."""
    from scipy import sparse

    m = sparse.coo_matrix(matrix)
    if m.shape[0] != m.shape[1]:
        raise ValueError("adjacency matrix must be square")
    return from_edges(m.shape[0], m.row, m.col, directed=directed)


def to_scipy(graph: Graph):
    """CSR graph → ``scipy.sparse.csr_matrix`` of the 0/1 adjacency."""
    from scipy import sparse

    data = np.ones(graph.adj.size, dtype=np.float64)
    return sparse.csr_matrix(
        (data, graph.adj.copy(), graph.offsets.copy()), shape=(graph.n, graph.n)
    )


def from_networkx(g, *, directed: Optional[bool] = None) -> Graph:
    """Build from a networkx graph; node labels must be 0..n-1 integers or
    they are relabeled in sorted order."""
    import networkx as nx

    if directed is None:
        directed = g.is_directed()
    nodes = sorted(g.nodes())
    relabel = {u: i for i, u in enumerate(nodes)}
    edges = np.array(
        [(relabel[u], relabel[v]) for u, v in g.edges()], dtype=np.int64
    ).reshape(-1, 2)
    return from_edges(len(nodes), edges[:, 0], edges[:, 1], directed=directed)


def to_networkx(graph: Graph):
    import networkx as nx

    g = nx.DiGraph() if graph.directed else nx.Graph()
    g.add_nodes_from(range(graph.n))
    src, dst = graph.unique_edges()
    g.add_edges_from(zip(src.tolist(), dst.tolist()))
    return g


def symmetrize(graph: Graph) -> Graph:
    """Undirected closure of a directed graph (each arc becomes an edge).

    The paper treats "all graph edges as undirected edges" for
    partitioning, while SCC and PageRank-style analytics may consume the
    directed original; this is the bridge between the two views.
    """
    if not graph.directed:
        return graph
    src, dst = graph.edges()
    return from_edges(graph.n, src, dst, directed=False)


def relabel(graph: Graph, permutation: np.ndarray) -> Graph:
    """Renumber vertices: new id of old vertex ``v`` is ``permutation[v]``.

    Vertex order strongly affects block distributions (the paper notes
    running times "depend on the initial vertex ordering"); this is the tool
    benches use to scramble or localize orderings.
    """
    perm = np.asarray(permutation, dtype=np.int64)
    if perm.shape != (graph.n,) or not np.array_equal(
        np.sort(perm), np.arange(graph.n)
    ):
        raise ValueError("permutation must be a bijection on 0..n-1")
    src, dst = graph.edges()
    return from_edges(
        graph.n, perm[src], perm[dst], directed=graph.directed, dedup=True
    )
