"""The ``np.unique``-based replicated contraction that
``repro.multilevel.coarsen.contract_level`` carried until PR 16, moved here
verbatim as the oracle for the shared COO → CSR aggregation kernel and the
bitmap relabel that replaced it."""

import numpy as np


def reference_contract(graph, eweights, vweights, full):
    """``full[v]`` is the cluster label (a gid of this level) of vertex
    ``v``.  Returns ``(offsets, adj, eweights, vweights, fine2coarse)`` of
    the coarse level."""
    g = graph
    uniq, fine2coarse = np.unique(full, return_inverse=True)
    fine2coarse = fine2coarse.astype(np.int64)
    nc = int(uniq.size)
    # weighted coarse arcs: aggregate fine arcs by (coarse src, coarse
    # dst) key; keys sort ascending == CSR order
    src = np.repeat(np.arange(g.n, dtype=np.int64), g.degrees)
    cs = fine2coarse[src]
    cd = fine2coarse[g.adj]
    off_diag = cs != cd
    key = cs[off_diag] * np.int64(nc) + cd[off_diag]
    uk, kinv = np.unique(key, return_inverse=True)
    cw = np.bincount(kinv, weights=eweights[off_diag], minlength=uk.size)
    csrc = uk // nc
    cdst = uk % nc
    coffsets = np.zeros(nc + 1, dtype=np.int64)
    np.cumsum(np.bincount(csrc, minlength=nc), out=coffsets[1:])
    cvw = np.bincount(fine2coarse, weights=vweights, minlength=nc)
    return coffsets, cdst, cw, cvw, fine2coarse
