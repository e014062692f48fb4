"""Vectorized per-part move-capacity enforcement.

The paper's implementation updates ``Cv``/``Wv`` atomically after *every*
move, so within one sweep a rank stops assigning vertices to part ``k`` as
soon as its size estimate ``S(k) + mult * C(k)`` crosses the bound.  Our
sweeps are vectorized over vertex blocks, so the same semantics are
recovered by post-selection: given the block's move candidates (in vertex
order, matching the paper's sequential scan), admit them first-come until
the part's capacity — ``(limit_k - est_k) / mult`` in the relevant unit
(vertices, or degree sum for the edge constraint) — is exhausted.
"""

from __future__ import annotations

import numpy as np


def enforce_count_capacity(
    tgt: np.ndarray, cap: np.ndarray
) -> np.ndarray:
    """Keep-mask over candidates: at most ``cap[k]`` candidates may target
    part ``k``; earlier candidates (lower index = paper's scan order) win.

    Parameters
    ----------
    tgt:
        Target part per candidate, candidates in vertex order.
    cap:
        Per-part admission capacity (float or int; non-positive = closed).
    """
    tgt = np.asarray(tgt, dtype=np.int64)
    if tgt.size == 0:
        return np.zeros(0, dtype=bool)
    order = np.argsort(tgt, kind="stable")
    sorted_tgt = tgt[order]
    # position of each candidate within its part group
    group_start = np.searchsorted(sorted_tgt, np.arange(cap.size, dtype=np.int64))
    pos = np.arange(sorted_tgt.size, dtype=np.int64) - group_start[sorted_tgt]
    keep_sorted = pos < np.floor(np.maximum(cap, 0.0))[sorted_tgt]
    keep = np.zeros(tgt.size, dtype=bool)
    keep[order] = keep_sorted
    return keep


def enforce_weight_capacity(
    tgt: np.ndarray, weights: np.ndarray, cap: np.ndarray
) -> np.ndarray:
    """Keep-mask with weighted capacity: per part, admit candidates in scan
    order while the running sum of their ``weights`` stays within
    ``cap[k]``.

    Used for the edge constraint (weights = vertex degrees) and for the
    cut constraint (weights = signed cut deltas; the running-sum rule stops
    admissions once the cumulative delta would exceed the headroom).
    """
    tgt = np.asarray(tgt, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if tgt.size == 0:
        return np.zeros(0, dtype=bool)
    order = np.argsort(tgt, kind="stable")
    sorted_tgt = tgt[order]
    w_sorted = weights[order]
    # exact per-group running sums (a global cumsum minus group offsets
    # suffers float cancellation): pad each part's candidates into its own
    # row of a (parts x widest-group) matrix and cumsum along the rows —
    # every row is an independent sequential prefix sum, so the float
    # addition order (and hence the result) is bit-identical to summing
    # each group on its own
    bounds = np.searchsorted(
        sorted_tgt, np.arange(cap.size + 1, dtype=np.int64)
    )
    n = w_sorted.size
    width = int(np.diff(bounds).max())
    if cap.size * width <= max(8 * n, 4096):
        pos = np.arange(n, dtype=np.int64) - bounds[:-1][sorted_tgt]
        mat = np.zeros((cap.size, width), dtype=np.float64)
        mat[sorted_tgt, pos] = w_sorted
        np.cumsum(mat, axis=1, out=mat)
        within = mat[sorted_tgt, pos]
    else:
        # degenerate padding (one giant group among many near-empty
        # parts — the common case at hundreds of parts): per-part slices,
        # visiting only the parts that have candidates
        within = np.empty_like(w_sorted)
        for k in np.flatnonzero(np.diff(bounds)):
            lo, hi = bounds[k], bounds[k + 1]
            np.cumsum(w_sorted[lo:hi], out=within[lo:hi])
    keep_sorted = within <= np.maximum(cap, 0.0)[sorted_tgt]
    keep = np.zeros(tgt.size, dtype=bool)
    keep[order] = keep_sorted
    return keep
