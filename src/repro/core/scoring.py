"""Block scoring for the label-propagation phases: one entry, two kernels.

Every LP phase asks the same question of a block of vertices: *which part
attracts each vertex most, and is that strictly better than where it
sits?*  The score of part ``k`` for vertex ``i`` is

``score[i, k] = tally[i, k] * part_weight[k]``, forced to 0 where a
constraint blocks the move: ``est_k[k] + add_i[i] > limit``

with ``tally`` the (unit / neighbour-degree / per-arc weighted) sum over
``i``'s neighbours in ``k``.  Vertex ``i`` becomes a move candidate iff
``max_k score[i, k] > score[i, current part]``; its target is the
lowest-numbered part attaining the maximum.  Scores are non-negative, so
a part without neighbours of ``i`` (score 0) can never be a target.

:func:`score_block` gathers the block's arcs once, as ``row·p + part``
keys (:meth:`RankState.gather_block`), and hands them to one of two
kernels with identical outputs:

* :func:`score_dense` materialises the ``nb × p`` score matrix and
  ``argmax``es it — the right shape when most of the matrix is occupied;
* :func:`score_sparse` sorts the keys, run-length-reduces them to the
  occupied ``(row, part)`` entries and picks each row's best by segment
  reduction — the rating-map idea of dKaMinPar's label propagation
  (arXiv:2303.01417); nothing in it is O(``nb · p``).

The kernel is chosen per block from the matrix's occupancy bound
``arcs / (nb · p)`` (see :data:`SPARSE_MIN_PARTS`,
:data:`SPARSE_MAX_OCCUPANCY`) — a property of the input, not an option.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.state import RankState

#: ``(est_k, add_i, limit)``: part ``k`` is closed to row ``i`` when
#: ``est_k[k] + add_i[i] > limit``.
Constraint = Tuple[np.ndarray, np.ndarray, float]
#: ``(est_c, maxc)``: the cut constraint of edge refinement — closed when
#: ``est_c[k] + (deg[i] - 2 * plain[i, k]) > maxc``.
CutConstraint = Tuple[np.ndarray, float]
Scored = Tuple[
    np.ndarray, np.ndarray, Optional[np.ndarray], Optional[np.ndarray]
]

#: The sparse kernel pays a sort of the block's arcs to skip ~10 passes
#: over the ``nb × p`` matrix.  Measured by timing both kernels on every
#: block of twelve full pipelines (webcrawl 2^15, social 2^16, rmat 14 × 32
#: at p = 64 … 256, 4 ranks): sparse / dense time is 0.3–0.9 where
#: ``arcs / (nb · p)`` < 0.15, crosses 1 between 0.2 (degree- and
#: arc-weighted tallies, whose sort carries the weights) and 0.4 (unit
#: tallies), and reaches 1.9 above.  Summed scoring time: always dense
#: 18.9 s, always sparse 14.4 s, threshold 0.15 / 0.20 / 0.25 / 0.30 /
#: 0.40 → 14.6 / 13.4 / 13.0 / 13.0 / 13.3 s.  Below ``SPARSE_MIN_PARTS``
#: a dense row is a few cache lines, cheaper than the sparse kernel's
#: per-row bookkeeping on the tiny blocks of many-rank runs.
SPARSE_MIN_PARTS = 64
SPARSE_MAX_OCCUPANCY = 0.25

#: Up to this many cells a constraint is tested on the whole block, not
#: only where it can bind (:func:`_corner`): finding the corner is five
#: small calls, more than a 2-D test of the 32 × 16 matrices that
#: many-rank runs score by the thousand.
PRUNE_MIN_CELLS = 4096

_EMPTY = np.empty(0, dtype=np.int64)
_ZERO = np.zeros(1, dtype=np.int64)


def score_block(
    state: RankState,
    lids: np.ndarray,
    *,
    tally: Union[str, np.ndarray] = "unit",
    part_weight: Optional[np.ndarray] = None,
    constraints: Sequence[Constraint] = (),
    cut: Optional[CutConstraint] = None,
    plain_counts: bool = False,
) -> Scored:
    """Score one block of owned vertices; return its move candidates.

    Parameters
    ----------
    lids:
        The block's owned local ids, all assigned to a part (a
        ``ValueError`` otherwise: a row's own label indexes its scores).
    tally:
        ``"unit"`` (plurality), ``"degree"`` (neighbours weighted by their
        degree) or a non-negative per-arc weight array aligned with
        ``state.dg.adj``.
    part_weight:
        Optional non-negative per-part factor on the tally.
    constraints, cut:
        Blocking rules, see :data:`Constraint` / :data:`CutConstraint`.
    plain_counts:
        Also return the unweighted tallies the cut bookkeeping needs.

    Returns ``(cand, target, n_x, n_w)``: positions in ``lids`` of the
    candidates (ascending), their target parts, and — with
    ``plain_counts`` or ``cut``, else None — each candidate's neighbour
    count in its current and in its target part.  Charges the block's
    work to ``state`` (:meth:`RankState.gather_block`).
    """
    p = state.num_parts
    nb = lids.size
    x = state.parts[lids]
    if nb and x.min() < 0:
        raise ValueError(
            f"lid {int(lids[np.argmin(x)])} is UNASSIGNED: a block scores "
            f"assigned vertices only")
    key, w_arc, counts = state.gather_block(lids, tally)
    want_counts = plain_counts or cut is not None
    if key.size == 0:
        # isolated or all-UNASSIGNED neighbourhoods: every score is 0
        none = _EMPTY if want_counts else None
        return _EMPTY, _EMPTY, none, none
    kernel = (
        score_sparse
        if p >= SPARSE_MIN_PARTS
        and key.size < SPARSE_MAX_OCCUPANCY * nb * p
        else score_dense
    )
    return kernel(nb, p, x, key, w_arc, part_weight, constraints, cut,
                  counts, want_counts)


def _corner(cells: int, est_k: np.ndarray, add_i: np.ndarray, limit: float):
    """Masks of the ``(rows, parts)`` among which ``est_k[k] + add_i[i] >
    limit`` can hold: None for nowhere, ``(None, None)`` for everywhere —
    and for a block of at most :data:`PRUNE_MIN_CELLS` cells.

    Float addition is monotone in each operand: a part that takes the
    largest addend is open to every row, a row that fits the fullest part
    fits every part, so testing the remaining corner alone writes exactly
    the zeros the full test would (finite inputs; a NaN poisons a max).
    """
    if cells <= PRUNE_MIN_CELLS:
        return None, None
    parts = est_k + add_i.max() > limit
    if not parts.any():
        return None
    rows = est_k.max() + add_i > limit
    return (None, None) if rows.all() and parts.all() else (rows, parts)


def _close_cells(
    scores: np.ndarray, est_k: np.ndarray, add_i: np.ndarray, limit: float,
    plain: Optional[np.ndarray] = None,
) -> None:
    """Zero ``scores[i, k]`` where ``est_k[k] + add_i[i] > limit`` — with
    ``plain``, the cut rule ``est_k[k] + (add_i[i] - 2 plain[i, k]) >
    limit``, whose addend ``add_i[i]`` bounds from above."""
    if (corner := _corner(scores.size, est_k, add_i, limit)) is None:
        return
    rows, parts = corner
    if rows is None:
        twice = 0.0 if plain is None else 2.0 * plain
        scores[(est_k + (add_i[:, None] - twice)) > limit] = 0.0
    else:
        rows, parts = np.flatnonzero(rows), np.flatnonzero(parts)
        twice = 0.0 if plain is None else 2.0 * plain[rows[:, None], parts]
        r, c = np.nonzero((est_k[parts] + (add_i[rows, None] - twice)) > limit)
        scores[rows[r], parts[c]] = 0.0


def _close_entries(
    scores: np.ndarray, erow: np.ndarray, epart: np.ndarray,
    est_k: np.ndarray, add_i: np.ndarray, limit: float,
    plain: Optional[np.ndarray] = None,
) -> None:
    """:func:`_close_cells` for the sparse kernel's occupied entries
    (``scores`` / ``erow`` / ``epart`` / ``plain``: one value per entry)."""
    if (corner := _corner(scores.size, est_k, add_i, limit)) is None:
        return
    rows, parts = corner
    sel = slice(None)
    if rows is not None:
        sel = np.flatnonzero(parts[epart])
        sel = sel[rows[erow[sel]]]
    twice = 0.0 if plain is None else 2.0 * plain[sel]
    blocked = (est_k[epart[sel]] + (add_i[erow[sel]] - twice)) > limit
    scores[blocked if rows is None else sel[blocked]] = 0.0


def score_dense(
    nb: int,
    p: int,
    x: np.ndarray,
    key: np.ndarray,
    w_arc: Optional[np.ndarray],
    part_weight: Optional[np.ndarray],
    constraints: Sequence[Constraint],
    cut: Optional[CutConstraint],
    counts: np.ndarray,
    want_counts: bool,
) -> Scored:
    """The ``nb × p`` matrix kernel (``x``: current part of each row;
    ``key`` / ``w_arc``: the gathered arcs' ``row·p + part`` and tally
    weight, at least one; ``counts``: row degrees)."""
    plain = None
    if w_arc is None or want_counts:
        plain = np.bincount(key, minlength=nb * p).reshape(nb, p)
    if w_arc is None:
        scores = plain.astype(np.float64)
    else:
        scores = np.bincount(key, weights=w_arc, minlength=nb * p)
        scores = scores.reshape(nb, p)
    if part_weight is not None:
        scores *= part_weight
    for est_k, add_i, limit in constraints:
        _close_cells(scores, est_k, add_i, limit)
    if cut is not None:
        _close_cells(scores, cut[0], counts, cut[1], plain)
    target = np.argmax(scores, axis=1)
    r = np.arange(nb)
    cand = np.flatnonzero(scores[r, target] > scores[r, x])
    target = target[cand]
    if not want_counts:
        return cand, target, None, None
    return cand, target, plain[cand, x[cand]], plain[cand, target]


def _sorted_runs(
    key: np.ndarray, bound: int, w_arc: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Sort ``key`` (values in ``[0, bound)``; overwritten), stably when
    weights ride along; return ``(sorted key, run starts, weights in
    sorted order)``."""
    n = key.size
    if w_arc is None:
        # equal keys are indistinguishable: a plain value sort will do,
        # and block-local keys usually fit the faster 32-bit sort
        ks = key.astype(np.int32) if bound <= np.iinfo(np.int32).max else key
        ks.sort()
        w_sorted = None
    else:
        # float weights must be summed in arc order per key to match the
        # dense bincount bit for bit.  Packing the arc index below the key
        # makes a value sort stable, at a fraction of argsort's cost.
        bits = (n - 1).bit_length()
        if int(bound).bit_length() + bits <= 63:
            key <<= bits
            key |= np.arange(n, dtype=np.int64)
            key.sort()
            w_sorted = w_arc[key & ((1 << bits) - 1)]
            key >>= bits
            ks = key
        else:
            order = np.argsort(key, kind="stable")
            ks = key[order]
            w_sorted = w_arc[order]
    starts = np.flatnonzero(ks[1:] != ks[:-1])
    starts += 1
    return ks, np.concatenate((_ZERO, starts)), w_sorted


def score_sparse(
    nb: int,
    p: int,
    x: np.ndarray,
    key: np.ndarray,
    w_arc: Optional[np.ndarray],
    part_weight: Optional[np.ndarray],
    constraints: Sequence[Constraint],
    cut: Optional[CutConstraint],
    counts: np.ndarray,
    want_counts: bool,
) -> Scored:
    """The occupied-entries kernel; same contract as :func:`score_dense`
    (and it sorts ``key`` in place)."""
    n = key.size
    # one entry per occupied (row, part) cell, ordered by row then part
    ks, starts, w_sorted = _sorted_runs(key, nb * p, w_arc)
    ekey = ks[starts].astype(np.int64, copy=False)  # int64 indexes fastest
    erow = ekey // p
    epart = ekey - erow * p
    plain = np.diff(starts, append=n)
    if w_sorted is None:
        scores = plain.astype(np.float64)
    else:
        scores = np.bincount(
            np.repeat(np.arange(starts.size), plain), weights=w_sorted
        )
    if part_weight is not None:
        scores *= part_weight[epart]
    for est_k, add_i, limit in constraints:
        _close_entries(scores, erow, epart, est_k, add_i, limit)
    if cut is not None:
        _close_entries(scores, erow, epart, cut[0], counts, cut[1], plain)
    # rows present among the entries; rows without entries never move
    rstarts = np.concatenate(
        (_ZERO, np.flatnonzero(erow[1:] != erow[:-1]) + 1)
    )
    rid = np.repeat(
        np.arange(rstarts.size), np.diff(rstarts, append=erow.size)
    )
    best = np.maximum.reduceat(scores, rstarts)
    # lowest part id attaining the row's best = its first such entry
    at_best = np.flatnonzero(scores == best[rid])
    r_best = rid[at_best]
    first = at_best[np.concatenate(([True], r_best[1:] != r_best[:-1]))]
    # score (and count) in the current part; 0 where it has no neighbours
    here = np.flatnonzero(epart == x[erow])
    cur = np.zeros(rstarts.size)
    cur[rid[here]] = scores[here]
    sel = np.flatnonzero(best > cur)
    win = first[sel]
    cand = erow[rstarts[sel]]
    target = epart[win]
    if not want_counts:
        return cand, target, None, None
    n_cur = np.zeros(rstarts.size, dtype=np.int64)
    n_cur[rid[here]] = plain[here]
    return cand, target, n_cur[sel], plain[win]
