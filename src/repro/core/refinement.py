"""XtraPuLP vertex refinement phase (Algorithm 5).

Constrained plurality label propagation (an FM-refinement variant): each
vertex moves to the part holding most of its neighbors, provided the
target's estimated size stays below ``Maxv`` — the imbalance target
``Imb_v`` once the constraint is satisfied, otherwise the current worst
part size.  ``Maxv`` is *ratcheted* (never allowed to grow across
iterations of one refinement phase), so refinement can only maintain or
improve the worst imbalance — the paper's "without increasing the size of
any part greater than the current most imbalanced part", made robust
against the BSP attractor creep that per-iteration recomputation allows.
Per-part admissions obey the same multiplier-scaled capacity rule as the
balance phase.  Sweeps run over the
:class:`repro.core.frontier.FrontierSweeper` active set (full first
iteration, moved-or-touched vertices afterwards).
"""

from __future__ import annotations

import numpy as np

from repro.core.capacity import enforce_weight_capacity
from repro.core.frontier import FrontierSweeper
from repro.core.scoring import score_block
from repro.core.state import RankState
from repro.simmpi.comm import SimComm


def vertex_refine_phase(comm: SimComm, state: RankState, iters: int) -> None:
    """Run ``iters`` refinement iterations (Algorithm 5)."""
    p = state.num_parts
    imb_v = state.target_max_vertices
    with comm.phase("vertex_refine"):
        Sv = state.compute_vertex_sizes(comm).astype(np.float64)
        maxv = max(float(Sv.max()), imb_v)
        # one late exhaustive cleanup pass catches moves the active-set
        # approximation missed; it sits a few iterations before the end so
        # the remaining active sweeps damp the simultaneous-move overshoot
        # a full BSP sweep commits when the state is not yet a fixed point
        sweeper = FrontierSweeper(
            state, phase="vertex_refine", cleanup_iter=max(0, iters - 3)
        )
        for _ in range(iters):
            maxv = max(min(maxv, float(Sv.max())), imb_v)  # ratchet down only
            mult = state.mult(comm)
            Cv = np.zeros(p, dtype=np.float64)
            for lids in sweeper.blocks():
                est = Sv + mult * Cv
                vw = state.vweights[lids]
                cand, w, _, _ = score_block(
                    state, lids, tally="unit",
                    # part full for vertex v once est + w(v) would exceed Maxv
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
        state.Sv = Sv  # last agreed totals, for phase-boundary snapshots
