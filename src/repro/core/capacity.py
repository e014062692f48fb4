"""Vectorized per-part move-capacity enforcement.

The paper's implementation updates ``Cv``/``Wv`` atomically after *every*
move, so within one sweep a rank stops assigning vertices to part ``k`` as
soon as its size estimate ``S(k) + mult * C(k)`` crosses the bound.  Our
sweeps are vectorized over vertex blocks, so the same semantics are
recovered by post-selection: given the block's move candidates (in vertex
order, matching the paper's sequential scan), admit them first-come until
the part's capacity — ``(limit_k - est_k) / mult`` in the relevant unit
(vertex weight, degree sum for the edge constraint, signed cut delta for
the cut constraint) — is exhausted.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np


def enforce_weight_capacity(
    tgt: np.ndarray, pairs: Sequence[Tuple[np.ndarray, np.ndarray]]
) -> np.ndarray:
    """Keep-mask over candidates targeting parts ``tgt`` (in scan order):
    for every ``(weights, cap)`` pair, admit a candidate while the running
    sum of ``weights`` over its part's candidates so far stays within
    ``cap[k]`` (non-positive = closed); the pairs' masks are ANDed.

    One call per block with all of its constraints — vertex weight, degree
    (edge constraint), signed cut delta (the running sum may dip and
    recover) — so the candidates are grouped by target once.
    """
    tgt = np.asarray(tgt, dtype=np.int64)
    n = tgt.size
    if n == 0:
        return np.zeros(0, dtype=bool)
    p = pairs[0][1].size
    # NumPy radix-sorts a stable argsort of 8- / 16-bit keys
    order = np.argsort(tgt.astype(np.min_scalar_type(p - 1)), kind="stable")
    sorted_tgt = tgt[order]
    sizes = np.bincount(sorted_tgt, minlength=p)
    starts = np.cumsum(sizes) - sizes
    pos = np.arange(n) - starts[sorted_tgt]
    # exact per-group running sums (a global cumsum minus group offsets
    # suffers float cancellation): pad each part's candidates into its own
    # row of a (parts x widest-group) matrix and cumsum along the rows —
    # every row is an independent sequential prefix sum, so the float
    # addition order (and hence the result) is bit-identical to summing
    # each group on its own
    sel, wide = slice(None), ()
    row, nrows, width = sorted_tgt, p, int(sizes.max())
    if p * width > max(8 * n, 4096):
        # degenerate padding (one giant group among many near-empty parts
        # — the common case at hundreds of parts): rows only for parts
        # that have candidates, and the few groups wider than 8n / groups,
        # which would set the padding, get a cumsum of their own instead
        narrow = sizes * np.count_nonzero(sizes) <= 8 * n
        sel = np.flatnonzero(narrow[sorted_tgt])
        pos = pos[sel]
        row = np.cumsum(pos == 0) - 1  # a group's first candidate opens a row
        nrows, width = row[-1] + 1, int(sizes[narrow].max())
        wide = [slice(starts[k], starts[k] + sizes[k])
                for k in np.flatnonzero(~narrow)]
    within = np.empty(n, dtype=np.float64)
    keep_sorted = np.ones(n, dtype=bool)
    for weights, cap in pairs:
        w = np.asarray(weights, dtype=np.float64)[order]
        mat = np.zeros((nrows, width), dtype=np.float64)
        mat[row, pos] = w[sel]
        np.cumsum(mat, axis=1, out=mat)
        within[sel] = mat[row, pos]
        for group in wide:
            np.cumsum(w[group], out=within[group])
        keep_sorted &= within <= np.maximum(cap, 0.0)[sorted_tgt]
    keep = np.empty(n, dtype=bool)
    keep[order] = keep_sorted
    return keep
