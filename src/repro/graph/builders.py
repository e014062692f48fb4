"""Builders: edge lists  →  :class:`~repro.graph.csr.Graph`  →  scipy."""

from __future__ import annotations

import numpy as np

from repro.graph.csr import Graph


#: Key of an arc to drop; sorts behind every real ``src * n + dst``.
_DROPPED = np.iinfo(np.int64).max


def _arc_keys(
    n: int,
    src: np.ndarray,
    dst: np.ndarray,
    *,
    directed: bool,
    drop_self_loops: bool,
) -> np.ndarray:
    """Validate the endpoints and return every arc as ``src * n + dst`` in
    one fresh int64 buffer (both directions unless ``directed``).

    int32 endpoints (``read_edge_list``'s parse) are read as they are: the
    products are formed in int64 (``dtype=``), never in the input dtype.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    # reshape, not ravel: a strided column stays a view
    src, dst = (
        (e if isinstance(e, np.ndarray) and e.dtype == np.int32
         else np.asarray(e, dtype=np.int64)).reshape(-1)
        for e in (src, dst)
    )
    if src.shape != dst.shape:
        raise ValueError("src and dst must have equal length")
    if src.size and (
        src.min() < 0 or dst.min() < 0 or src.max() >= n or dst.max() >= n
    ):
        raise ValueError(f"edge endpoints out of range for n={n}")
    arcs = np.empty((1 if directed else 2, src.size), dtype=np.int64)
    np.multiply(src, n, out=arcs[0], dtype=np.int64)
    arcs[0] += dst
    if not directed:
        np.multiply(dst, n, out=arcs[1], dtype=np.int64)
        arcs[1] += src
    if drop_self_loops:
        arcs[:, src == dst] = _DROPPED
    return arcs.reshape(-1)


def _csr_from_keys(
    n: int, key: np.ndarray, *, directed: bool, dedup: bool
) -> Graph:
    """Turn the :func:`_arc_keys` buffer into the graph: sorted in place by
    (src, dst), compressed only if an arc repeats, then reduced to ``adj``
    where it lies."""
    key.sort()
    key = key[: np.searchsorted(key, _DROPPED)]
    if dedup and key.size:
        keep = np.ones(key.size, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        if not keep.all():
            key = key[keep]
    # arcs of sources below v are the keys below v * n
    offsets = np.searchsorted(key, np.arange(n + 1, dtype=np.int64) * n)
    np.remainder(key, n, out=key)
    return Graph(offsets, key, directed=directed, validate=False)


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
    key = _arc_keys(
        n, src, dst, directed=directed, drop_self_loops=drop_self_loops
    )
    return _csr_from_keys(n, key, directed=directed, dedup=dedup)


def to_scipy(graph: Graph):
    """CSR graph → ``scipy.sparse.csr_matrix`` of the 0/1 adjacency."""
    from scipy import sparse

    data = np.ones(graph.adj.size, dtype=np.float64)
    return sparse.csr_matrix(
        (data, graph.adj.copy(), graph.offsets.copy()), shape=(graph.n, graph.n)
    )


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
