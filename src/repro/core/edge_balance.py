"""XtraPuLP edge balancing and refinement stage (§III.E).

Same skeleton as the vertex phases, with three coupled quantities tracked
per part: vertices ``Sv``, edges ``Se`` (sum of member degrees — the
incrementally-trackable edge size), and cut edges ``Sc`` (cut edges
touching the part).  Neighbor tallies are weighted by
``Re * We(k) + Rc * Wc(k)``:

* ``We(k) = max(Imb_e / est_e(k) - 1, 0)`` attracts vertices to parts
  underweight in edges;
* ``Wc(k) = max(Maxc / est_c(k) - 1, 0)`` attracts to parts underweight in
  cut, which both balances the per-part cut and lowers its max;
* ``Re`` ramps while the edge-balance constraint is unmet, then freezes and
  ``Rc`` ramps (the paper's two-regime bias schedule).

Moving vertex ``v`` (degree d, n_x neighbors in old part x, n_w in new part
w) changes cut sizes by ``ΔSc(x) = 2 n_x − d`` and ``ΔSc(w) = d − 2 n_w``;
other parts are unchanged.  The (X, Y)-scheduled multiplier throttles all
three estimates, and per-part admissions are capacity-limited in vertex,
degree, and cut units (:mod:`repro.core.capacity`).

Both phases sweep the :class:`repro.core.frontier.FrontierSweeper` active
set: a full first iteration, then only vertices that moved or saw a
neighbor (owned or ghost) move.
"""

from __future__ import annotations

import numpy as np

from repro.core.capacity import enforce_weight_capacity
from repro.core.frontier import FrontierSweeper
from repro.core.scoring import score_block
from repro.core.state import RankState
from repro.simmpi.comm import SimComm


def _commit(
    state: RankState,
    moved: np.ndarray,
    new: np.ndarray,
    deg: np.ndarray,
    n_x: np.ndarray,
    n_w: np.ndarray,
    Cv: np.ndarray,
    Ce: np.ndarray,
    Cc: np.ndarray,
) -> None:
    """Apply the admitted moves of owned lids ``moved`` (degrees ``deg``,
    ``n_x`` / ``n_w`` neighbours in the old / new part) to parts ``new``;
    fold the deltas into Cv/Ce/Cc."""
    if moved.size == 0:
        return
    p = state.num_parts
    old = state.parts[moved]
    mw = state.vweights[moved]
    state.parts[moved] = new
    Cv += np.bincount(new, weights=mw, minlength=p)
    Cv -= np.bincount(old, weights=mw, minlength=p)
    Ce += np.bincount(new, weights=deg, minlength=p)
    Ce -= np.bincount(old, weights=deg, minlength=p)
    Cc += np.bincount(old, weights=2.0 * n_x - deg, minlength=p)
    Cc += np.bincount(new, weights=deg - 2.0 * n_w, minlength=p)


def _finish_iteration(
    comm: SimComm,
    state: RankState,
    sweeper: FrontierSweeper,
    Sv: np.ndarray,
    Se: np.ndarray,
    Sc: np.ndarray,
    Cv: np.ndarray,
    Ce: np.ndarray,
    Cc: np.ndarray,
) -> None:
    sweeper.exchange(comm)
    deltas = comm.Allreduce(np.stack([Cv, Ce, Cc]), op="sum")
    Sv += deltas[0]
    Se += deltas[1]
    Sc += deltas[2]
    state.iter_tot += 1


def edge_balance_phase(comm: SimComm, state: RankState, iters: int) -> None:
    """Edge balancing iterations (the §III.E analog of Algorithm 4)."""
    p = state.num_parts
    imb_v = state.target_max_vertices
    imb_e = state.target_max_edges
    params = state.params
    degrees = state.degrees_f64
    with comm.phase("edge_balance"):
        from repro.core.initialization import reseed_dead_parts

        reseed_dead_parts(comm, state)
        Sv = state.compute_vertex_sizes(comm).astype(np.float64)
        Se = state.compute_edge_sizes(comm).astype(np.float64)
        Sc = state.compute_cut_sizes(comm).astype(np.float64)
        re_bias = params.re_init
        rc_bias = params.rc_init
        maxv = max(float(Sv.max()), imb_v)
        maxe = max(float(Se.max()), imb_e)
        sweeper = FrontierSweeper(state, phase="edge_balance")
        for _ in range(iters):
            # ratchet: balancing must not push any maximum above its entry level
            maxv = max(min(maxv, float(Sv.max())), imb_v)
            maxe = max(min(maxe, float(Se.max())), imb_e)
            maxc = max(float(Sc.max()), 1.0)
            mult = state.mult(comm)
            if float(Se.max()) > imb_e:
                re_bias += params.re_step
            else:
                rc_bias += params.rc_step
            Cv = np.zeros(p, dtype=np.float64)
            Ce = np.zeros(p, dtype=np.float64)
            Cc = np.zeros(p, dtype=np.float64)
            for lids in sweeper.blocks():
                est_v = Sv + mult * Cv
                est_e = Se + mult * Ce
                est_c = Sc + mult * Cc
                We = np.maximum(imb_e / np.maximum(est_e, 1.0) - 1.0, 0.0)
                Wc = np.maximum(maxc / np.maximum(est_c, 1.0) - 1.0, 0.0)
                vw = state.vweights[lids]
                deg = degrees[lids]
                cand, w, n_x, n_w = score_block(
                    state, lids, tally="degree",
                    part_weight=re_bias * We + rc_bias * Wc,
                    constraints=[(est_v, vw, maxv), (est_e, deg, maxe)],
                    plain_counts=True,
                )
                if cand.size:
                    cap_v = (maxv - est_v) / max(mult, 1e-12)
                    # two-tier edge capacity: a part below the target fills
                    # only to Imb_e (the We weight's zero-crossing); a part
                    # already above it may still take cut-balancing moves up
                    # to the ratcheted maximum
                    limit_e = np.where(est_e < imb_e, imb_e, maxe)
                    cap_e = (limit_e - est_e) / max(mult, 1e-12)
                    keep = enforce_weight_capacity(
                        w, [(vw[cand], cap_v), (deg[cand], cap_e)]
                    )
                    cand = cand[keep]
                    moved = lids[cand]
                    _commit(state, moved, w[keep], deg[cand],
                            n_x[keep], n_w[keep], Cv, Ce, Cc)
                    sweeper.note_moves(moved)
            _finish_iteration(comm, state, sweeper, Sv, Se, Sc, Cv, Ce, Cc)
        state.Sv, state.Se, state.Sc = Sv, Se, Sc  # for boundary snapshots


def edge_refine_phase(comm: SimComm, state: RankState, iters: int) -> None:
    """Edge-stage refinement: plurality moves constrained by the current
    vertex, edge, *and* cut maxima (the paper's final stage)."""
    p = state.num_parts
    imb_v = state.target_max_vertices
    imb_e = state.target_max_edges
    degrees = state.degrees_f64
    with comm.phase("edge_refine"):
        Sv = state.compute_vertex_sizes(comm).astype(np.float64)
        Se = state.compute_edge_sizes(comm).astype(np.float64)
        Sc = state.compute_cut_sizes(comm).astype(np.float64)
        maxv = max(float(Sv.max()), imb_v)
        maxe = max(float(Se.max()), imb_e)
        # late full cleanup pass, damped by the remaining active sweeps
        # (see vertex refinement)
        sweeper = FrontierSweeper(
            state, phase="edge_refine", cleanup_iter=max(0, iters - 3)
        )
        for _ in range(iters):
            # ratchet: the vertex/edge maxima may only tighten
            maxv = max(min(maxv, float(Sv.max())), imb_v)
            maxe = max(min(maxe, float(Se.max())), imb_e)
            maxc = max(float(Sc.max()), 1.0)
            mult = state.mult(comm)
            Cv = np.zeros(p, dtype=np.float64)
            Ce = np.zeros(p, dtype=np.float64)
            Cc = np.zeros(p, dtype=np.float64)
            for lids in sweeper.blocks():
                est_v = Sv + mult * Cv
                est_e = Se + mult * Ce
                est_c = Sc + mult * Cc
                vw = state.vweights[lids]
                deg = degrees[lids]
                cand, w, n_x, n_w = score_block(
                    state, lids, tally="unit",
                    constraints=[(est_v, vw, maxv), (est_e, deg, maxe)],
                    cut=(est_c, maxc),
                )
                if cand.size:
                    cap_v = (maxv - est_v) / max(mult, 1e-12)
                    cap_e = (maxe - est_e) / max(mult, 1e-12)
                    cap_c = (maxc - est_c) / max(mult, 1e-12)
                    gain = deg[cand] - 2.0 * n_w  # ΔSc at the target
                    keep = enforce_weight_capacity(w, [
                        (vw[cand], cap_v), (deg[cand], cap_e), (gain, cap_c),
                    ])
                    cand = cand[keep]
                    moved = lids[cand]
                    _commit(state, moved, w[keep], deg[cand],
                            n_x[keep], n_w[keep], Cv, Ce, Cc)
                    sweeper.note_moves(moved)
            _finish_iteration(comm, state, sweeper, Sv, Se, Sc, Cv, Ce, Cc)
        state.Sv, state.Se, state.Sc = Sv, Se, Sc  # for boundary snapshots
