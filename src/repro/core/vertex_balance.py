"""XtraPuLP vertex balancing phase (Algorithm 4).

Weighted label propagation: part k's attractiveness is its degree-weighted
neighbor tally times ``Wv(k) = max(Imb_v / est_k - 1, 0)`` where
``est_k = Sv(k) + mult * Cv(k)`` — the global size at the last Allreduce
plus this rank's local delta scaled by the dynamic multiplier (§III.C).
The weight hits zero once the estimate reaches the target ``Imb_v``, so a
rank may admit at most ``(Imb_v - est_k) / mult`` new vertices into part k
per sweep; :mod:`repro.core.capacity` enforces exactly that admission rule
over the vectorized blocks, recovering the paper's per-move atomic-update
semantics.

Sweeps run over the active set maintained by
:class:`repro.core.frontier.FrontierSweeper`: after the first iteration of
a phase only vertices that moved or saw a neighbor move are re-scored.
"""

from __future__ import annotations

import numpy as np

from repro.core.capacity import enforce_weight_capacity
from repro.core.frontier import FrontierSweeper
from repro.core.scoring import score_block
from repro.core.state import RankState
from repro.simmpi.comm import SimComm


def _rebalance_isolated(
    state: RankState,
    iso: np.ndarray,
    Sv: np.ndarray,
    Cv: np.ndarray,
    imb_v: float,
    mult: float,
) -> np.ndarray:
    """Move degree-0 vertices from overweight to underweight parts.

    Label propagation can never pull a vertex into a part none of its
    neighbors belong to, so parts seeded in isolated regions would starve
    forever.  Degree-0 vertices have zero cut impact and can be placed
    anywhere; this (documented) extension beyond Algorithm 4 reassigns them
    to the parts with headroom, capacity-limited like every other move.
    """
    if iso.size == 0:
        return iso
    est = Sv + mult * Cv
    movers = iso[est[state.parts[iso]] > imb_v]
    if movers.size == 0:
        return movers
    vw = state.vweights
    gaps = np.maximum((imb_v - est) / max(mult, 1e-12), 0.0)
    # fill the most-underweight parts first; one slot per mean mover weight
    mean_w = float(vw[movers].mean())
    slot_counts = np.ceil(gaps / max(mean_w, 1e-12)).astype(np.int64)
    # descending by gap with *ascending part id* breaking ties — the
    # reversed ascending argsort put the highest part id first among equal
    # gaps, making slot order depend on how many parts happened to tie
    order = np.argsort(-gaps, kind="stable")
    slots = np.repeat(order, slot_counts[order])
    take = min(movers.size, slots.size)
    movers = movers[:take]
    new = slots[:take]
    keep = enforce_weight_capacity(new, [(vw[movers], gaps)])
    movers, new = movers[keep], new[keep]
    if movers.size == 0:
        return movers
    old = state.parts[movers]
    state.parts[movers] = new
    Cv += np.bincount(new, weights=vw[movers], minlength=state.num_parts)
    Cv -= np.bincount(old, weights=vw[movers], minlength=state.num_parts)
    return movers


def vertex_balance_phase(comm: SimComm, state: RankState, iters: int) -> None:
    """Run ``iters`` balancing iterations (Algorithm 4)."""
    p = state.num_parts
    dg = state.dg
    imb_v = state.target_max_vertices
    iso = np.flatnonzero(dg.local_degrees == 0).astype(np.int64)
    with comm.phase("vertex_balance"):
        from repro.core.initialization import reseed_dead_parts

        reseed_dead_parts(comm, state)
        Sv = state.compute_vertex_sizes(comm).astype(np.float64)
        sweeper = FrontierSweeper(state, phase="vertex_balance")
        for _ in range(iters):
            maxv = max(float(Sv.max()), imb_v)
            mult = state.mult(comm)
            Cv = np.zeros(p, dtype=np.float64)
            # isolated vertices sit outside label propagation (no neighbors
            # to seed a frontier from), so they are reconsidered every
            # iteration regardless of the active set
            moved_iso = _rebalance_isolated(state, iso, Sv, Cv, imb_v, mult)
            sweeper.note_moves(moved_iso)
            for lids in sweeper.blocks():
                est = Sv + mult * Cv
                vw = state.vweights[lids]
                Wv = np.maximum(imb_v / np.maximum(est, 1.0) - 1.0, 0.0)
                cand, w, _, _ = score_block(
                    state, lids, tally="degree", part_weight=Wv,
                    # a part is full for vertex v once est + w(v) exceeds Maxv
                    constraints=[(est, vw, maxv)],
                )
                if cand.size:
                    # admission capacity: weight reaches 0 at est == Imb_v
                    cap = (imb_v - est) / max(mult, 1e-12)
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
        state.Sv = Sv  # last agreed totals, for phase-boundary snapshots
