"""Graph I/O: edge-list text, METIS format, and NumPy binary round-trips."""

from __future__ import annotations

import os
from typing import Union

import numpy as np

from repro.graph.builders import _arc_keys, _csr_from_keys, from_edges
from repro.graph.csr import Graph

PathLike = Union[str, os.PathLike]


def write_edge_list(graph: Graph, path: PathLike, *, header: bool = True) -> None:
    """Write one ``u v`` line per undirected edge (or arc, if directed)."""
    src, dst = graph.unique_edges()
    with open(path, "w") as f:
        if header:
            kind = "directed" if graph.directed else "undirected"
            f.write(f"# repro edge list: n={graph.n} m={len(src)} {kind}\n")
        np.savetxt(f, np.column_stack([src, dst]), fmt="%d")


def read_edge_list(
    path: PathLike, *, n: int | None = None, directed: bool | None = None
) -> Graph:
    """Read a whitespace edge list (``#`` comments ignored).

    ``n`` and ``directed`` default to what a ``write_edge_list`` header
    records, if present; else ``n`` is ``max endpoint + 1`` (which silently
    drops trailing isolated vertices — pass ``n`` for graphs that may have
    them) and the graph is undirected.
    """
    with open(path) as f:
        first = f.readline()
    header = first.split() if first.startswith("#") else []
    # by path: loadtxt is ~1.6x faster when it opens the file itself.  The
    # block is parsed at half the bytes when every id fits int32; an id of
    # 2**31 or more (or a malformed token, which the int64 parse reports as
    # it always did) fails that parse and the file is read again as int64
    try:
        data = np.loadtxt(path, comments="#", dtype=np.int32, ndmin=2)
    except (ValueError, OverflowError):
        data = np.loadtxt(path, comments="#", dtype=np.int64, ndmin=2)
    if n is None:
        n = next((int(t[2:]) for t in header if t.startswith("n=")), None)
    if directed is None:
        directed = "directed" in header
    data = data.reshape(-1, 2) if data.size == 0 else data[:, :2]
    if n is None:
        n = int(data.max(initial=-1)) + 1
    key = _arc_keys(
        n, data[:, 0], data[:, 1], directed=directed, drop_self_loops=True
    )
    del data  # the parsed block is not held through the sort
    return _csr_from_keys(n, key, directed=directed, dedup=True)


def write_metis(graph: Graph, path: PathLike) -> None:
    """Write the METIS/Chaco ascii format (1-indexed adjacency lists).

    Only defined for undirected graphs without self-loops — the format the
    paper's ParMETIS baseline consumes.
    """
    if graph.directed:
        raise ValueError("METIS format requires an undirected graph")
    if graph.has_self_loops():
        raise ValueError("METIS format forbids self-loops")
    with open(path, "w") as f:
        f.write(f"{graph.n} {graph.num_edges}\n")
        for v in range(graph.n):
            neigh = graph.neighbors(v) + 1
            f.write(" ".join(map(str, neigh.tolist())) + "\n")


def read_metis(path: PathLike) -> Graph:
    """Read a METIS/Chaco ascii graph (plain, unweighted flavor)."""
    with open(path) as f:
        lines = [ln for ln in (raw.rstrip("\n") for raw in f)
                 if not ln.lstrip().startswith("%")]
    if not lines or not lines[0].strip():
        raise ValueError("empty METIS file")
    head = lines[0].split()
    n, m = int(head[0]), int(head[1])
    # isolated vertices appear as empty adjacency lines; trailing blanks
    # beyond the declared n (or a missing final newline) are tolerated
    while len(lines) - 1 > n and not lines[-1].strip():
        lines.pop()
    while len(lines) - 1 < n:
        lines.append("")
    if len(lines) - 1 != n:
        raise ValueError(
            f"METIS header says {n} vertices, file has {len(lines) - 1}"
        )
    # one tokenisation of the body; a non-integer token is a ValueError
    tokens = [line.split() for line in lines[1:]]
    counts = np.fromiter(map(len, tokens), dtype=np.int64, count=n)
    src = np.repeat(np.arange(n, dtype=np.int64), counts)
    dst = np.array([t for row in tokens for t in row], dtype=np.int64) - 1
    g = from_edges(n, src, dst)
    if g.num_edges != m:
        raise ValueError(
            f"METIS header says {m} edges, adjacency lists give {g.num_edges}"
        )
    return g


def save_npz(graph: Graph, path: PathLike) -> None:
    """Binary save (compressed npz of the CSR arrays)."""
    np.savez_compressed(
        path,
        offsets=graph.offsets,
        adj=graph.adj,
        directed=np.array(graph.directed),
    )


def load_npz(path: PathLike) -> Graph:
    with np.load(path) as data:
        # each access decompresses into a fresh array: nothing to copy
        return Graph(
            data["offsets"], data["adj"], directed=bool(data["directed"])
        )
