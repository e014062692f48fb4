"""The two-``lexsort`` ``segment_best_label`` that
``repro.multilevel.kernels`` carried until PR 18, kept verbatim as the
oracle for the one-key stable sort + segmented first maximum that
replaced it."""

from typing import Tuple

import numpy as np


def segment_best_label(
    src: np.ndarray, lab: np.ndarray, w: np.ndarray, n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """For every vertex, the neighbor label with maximum total edge weight.

    Returns ``(best_label, best_weight)``; vertices with no edges get
    label -1 / weight 0.
    """
    best_label = np.full(n, -1, dtype=np.int64)
    best_weight = np.zeros(n, dtype=np.float64)
    if src.size == 0:
        return best_label, best_weight
    order = np.lexsort((lab, src))
    s, l, ww = src[order], lab[order], w[order]
    group = np.empty(s.size, dtype=bool)
    group[0] = True
    group[1:] = (s[1:] != s[:-1]) | (l[1:] != l[:-1])
    starts = np.flatnonzero(group)
    sums = np.add.reduceat(ww, starts)
    g_src = s[starts]
    g_lab = l[starts]
    # pick the max-sum group per source (stable: first max wins)
    order2 = np.lexsort((-sums, g_src))
    g_src2 = g_src[order2]
    first = np.empty(g_src2.size, dtype=bool)
    first[0] = True
    first[1:] = g_src2[1:] != g_src2[:-1]
    sel = order2[first]
    best_label[g_src[sel]] = g_lab[sel]
    best_weight[g_src[sel]] = sums[sel]
    return best_label, best_weight
