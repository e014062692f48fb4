"""Matrix/vector layouts for distributed SpMV.

``Layout1D`` — row distribution: rank r owns the rows (and the matching x/y
entries) that a :class:`~repro.dist.distribution.Distribution` assigns it;
each SpMV pulls the ghost x entries its rows' columns touch.

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
from typing import List, Tuple

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
class Layout1D:
    """Per-rank row block + the x entries it must fetch each SpMV."""

    rank: int
    nprocs: int
    rows: np.ndarray          # global row ids owned (sorted)
    matrix: sparse.csr_matrix  # local rows × compacted columns
    col_gids: np.ndarray      # global id of each compacted column
    col_owner: np.ndarray     # owning rank of each compacted column

    @classmethod
    def build(
        cls, graph: Graph, owner: np.ndarray, rank: int, nprocs: int
    ) -> "Layout1D":
        rows = np.flatnonzero(owner == rank).astype(np.int64)
        src, dst = graph.edges()
        mine = owner[src] == rank
        s, d = src[mine], dst[mine]
        row_l = np.searchsorted(rows, s)
        col_gids = sorted_unique(d)
        col_l = np.searchsorted(col_gids, d)
        mat = sparse.coo_matrix(
            (np.ones(s.size), (row_l, col_l)),
            shape=(rows.size, col_gids.size),
        ).tocsr()
        return cls(
            rank=rank,
            nprocs=nprocs,
            rows=rows,
            matrix=mat,
            col_gids=col_gids,
            col_owner=owner[col_gids].astype(np.int64),
        )


@dataclass
class Layout2D:
    """Per-rank 2-D block under the [6] mapping."""

    rank: int
    nprocs: int
    pr: int
    pc: int
    grid_row: int
    grid_col: int
    owned_x: np.ndarray        # global ids whose x/y this rank owns (1-D part)
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
            owned_x=np.flatnonzero(parts == rank).astype(np.int64),
            matrix=mat,
            row_gids=row_gids,
            col_gids=col_gids,
            x_owner=parts[col_gids] if col_gids.size else np.empty(0, np.int64),
            y_owner=parts[row_gids] if row_gids.size else np.empty(0, np.int64),
        )
