"""The 2-D matrix layout for distributed SpMV (the 1-D layout is the
partition-placed :class:`~repro.dist.distgraph.DistGraph` itself).

``Layout2D`` — the Boman–Devine–Rajamanickam SC'13 mapping [6] the paper
uses to turn a 1-D vertex partition into a 2-D nonzero distribution:
with a ``pr × pc`` process grid (``p = pr * pc``), part ``k`` lives at grid
position ``(k mod pr, k div pr)``, and nonzero ``A(i, j)`` is stored at
grid cell ``(part(i) mod pr, part(j) div pr)``.  x entries then fan out
only along a grid column (expand) and partial sums only along a grid row
(fold) — ≈ ``2·sqrt(p)`` fan-out instead of ``p``, the whole point of
Table III's 2-D columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy import sparse

from repro.graph.csr import Graph
from repro.graph.gather import sorted_unique


def grid_shape(p: int) -> Tuple[int, int]:
    """Nearly-square factorization pr × pc = p (pr <= pc)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    pr = int(np.sqrt(p))
    while p % pr:
        pr -= 1
    return pr, p // pr


@dataclass
class Layout2D:
    """Per-rank 2-D block under the [6] mapping."""

    rank: int
    nprocs: int
    pr: int
    pc: int
    grid_row: int
    grid_col: int
    matrix: sparse.csr_matrix  # compacted local block
    row_gids: np.ndarray       # global row id per compacted local row
    col_gids: np.ndarray       # global col id per compacted local column
    x_owner: np.ndarray        # owner rank of each compacted column's x
    y_owner: np.ndarray        # owner rank of each compacted row's y

    @classmethod
    def build(
        cls, graph: Graph, parts: np.ndarray, rank: int, nprocs: int
    ) -> "Layout2D":
        pr, pc = grid_shape(nprocs)
        a, b = rank % pr, rank // pr
        parts = np.asarray(parts, dtype=np.int64)
        src, dst = graph.edges()
        mine = ((parts[src] % pr) == a) & ((parts[dst] // pr) == b)
        s, d = src[mine], dst[mine]
        row_gids = sorted_unique(s)
        col_gids = sorted_unique(d)
        mat = sparse.coo_matrix(
            (
                np.ones(s.size),
                (np.searchsorted(row_gids, s), np.searchsorted(col_gids, d)),
            ),
            shape=(row_gids.size, col_gids.size),
        ).tocsr()
        return cls(
            rank=rank,
            nprocs=nprocs,
            pr=pr,
            pc=pc,
            grid_row=a,
            grid_col=b,
            matrix=mat,
            row_gids=row_gids,
            col_gids=col_gids,
            x_owner=parts[col_gids] if col_gids.size else np.empty(0, np.int64),
            y_owner=parts[row_gids] if row_gids.size else np.empty(0, np.int64),
        )
