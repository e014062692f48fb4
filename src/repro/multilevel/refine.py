"""Edge-weighted refinement for the uncoarsening half of the V-cycle.

The flat pipeline's :func:`repro.core.refinement.vertex_refine_phase`
scores a move by the plain neighbor-count plurality — correct on the
unit-weight input graph, wrong on coarse levels where a single coarse arc
stands in for many fine edges.  This phase is the same ratcheted,
capacity-constrained plurality sweep with the tally weighted by the
coarse edge weights, so minimizing the weighted cut at any level
minimizes the *fine* cut it represents (contraction conserves cut
weight: a coarse cut arc's weight is exactly the fine cut weight of the
edges it aggregated).

Frontier seeding: after projection every vertex inherits its cluster's
part, so the only vertices whose move can change the cut are those with
an arc leaving their cluster — the projection hands exactly those lids
to the sweeper as the initial active set, and the late cleanup pass
catches stragglers.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.capacity import enforce_weight_capacity
from repro.core.frontier import FrontierSweeper
from repro.core.scoring import score_block
from repro.core.state import RankState
from repro.simmpi.comm import SimComm


def weighted_cut(
    comm: SimComm, state: RankState, ew_local: np.ndarray
) -> float:
    """Global edge-weighted cut (each undirected edge counted once).

    Every arc of an owned vertex is stored locally and each undirected
    edge has exactly two owned endpoints across all ranks, so summing the
    cut arcs rank-wise double-counts every cut edge exactly once.
    """
    dg = state.dg
    srcs = np.repeat(
        np.arange(dg.n_local, dtype=np.int64), dg.local_degrees
    )
    cut_arcs = state.parts[srcs] != state.parts[dg.adj]
    comm.charge(2.0 * ew_local.size)
    local = float(ew_local[cut_arcs].sum())
    return comm.allreduce(local, op="sum") / 2.0


def ml_refine_phase(
    comm: SimComm,
    state: RankState,
    ew_local: np.ndarray,
    iters: int,
    seed_lids: Optional[np.ndarray] = None,
) -> None:
    """Run ``iters`` weighted refinement iterations at one level.

    Mirrors ``vertex_refine_phase`` — ratcheted ``Maxv`` vertex-weight
    cap, multiplier-scaled per-part admission, frontier sweeps — with the
    plurality tally weighted by ``ew_local`` (this rank's per-arc coarse
    edge weights, aligned with ``state.dg.adj``).
    """
    p = state.num_parts
    imb_v = state.target_max_vertices
    with comm.phase("ml_refine"):
        Sv = state.compute_vertex_sizes(comm).astype(np.float64)
        maxv = max(float(Sv.max()), imb_v)
        sweeper = FrontierSweeper(
            state,
            phase="ml_refine",
            cleanup_iter=max(0, iters - 2),
            seed_lids=seed_lids,
        )
        for _ in range(iters):
            maxv = max(min(maxv, float(Sv.max())), imb_v)  # ratchet down only
            mult = state.mult(comm)
            Cv = np.zeros(p, dtype=np.float64)
            for lids in sweeper.blocks():
                est = Sv + mult * Cv
                vw = state.vweights[lids]
                cand, w, _, _ = score_block(
                    state, lids, tally=ew_local,
                    constraints=[(est, vw, maxv)],
                )
                if cand.size:
                    cap = (maxv - est) / max(mult, 1e-12)
                    keep = enforce_weight_capacity(w, [(vw[cand], cap)])
                    cand, w = cand[keep], w[keep]
                if cand.size:
                    moved = lids[cand]
                    old = state.parts[moved]
                    state.parts[moved] = w
                    mw = state.vweights[moved]
                    Cv += np.bincount(w, weights=mw, minlength=p)
                    Cv -= np.bincount(old, weights=mw, minlength=p)
                    sweeper.note_moves(moved)
            sweeper.exchange(comm)
            Cv_global = comm.Allreduce(Cv, op="sum")
            Sv += Cv_global
            state.iter_tot += 1
        state.Sv = Sv
