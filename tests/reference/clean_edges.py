"""The edge-list → CSR path ``repro.graph.builders`` carried until PR 21
(``_clean_edges`` + the ``bincount`` offsets of ``from_edges``), moved here
verbatim as the oracle for the one-buffer builder that replaced it.  It
makes about ten arc-sized temporaries; the builder makes one."""

import numpy as np

from repro.graph.csr import Graph
from repro.graph.gather import sorted_unique


def _clean_edges(n, src, dst, *, symmetrize, dedup, drop_self_loops):
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


def reference_from_edges(
    n, src, dst, *, directed=False, dedup=True, drop_self_loops=True
):
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
