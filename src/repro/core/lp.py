"""The one constrained label-propagation phase (Algorithms 4–5, §III.E).

Every XtraPuLP phase is the same loop.  Per iteration: refresh the limits;
sweep the active set block by block — estimate the global sizes as
``S + mult · C`` (last Allreduced totals plus this rank's deltas, scaled
by the dynamic multiplier of §III.C), score the block
(:func:`repro.core.scoring.score_block`), admit candidates first-come
within each part's throttled capacity ``(bound − est) / mult``
(:mod:`repro.core.capacity`: the paper's per-move atomic updates,
recovered for vectorized blocks), commit them into ``C`` — then
ExchangeUpdates, whose closing consensus also sums the ``[d × p]`` delta
block into the totals: the paper's exchange and ``AllReduce(C)`` are one
round.
What differs between phases is a rule set, a :class:`PhaseSpec`;
:data:`SPECS` holds the five the pipeline runs (tabulated in DESIGN.md
§4), and a sixth is one more literal, not one more loop.

Tracked totals per part: ``v`` vertex weight, ``e`` sum of member degrees
(the incrementally trackable edge size), ``c`` cut edges touching the
part.  Moving a vertex of degree ``deg`` with ``n_x`` / ``n_w`` neighbours
in its old / new part changes their cut sizes by ``2 n_x − deg`` and
``deg − 2 n_w``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.core.capacity import enforce_weight_capacity
from repro.core.frontier import FrontierSweeper
from repro.core.initialization import reseed_dead_parts
from repro.core.params import PulpParams
from repro.core.scoring import score_block
from repro.core.state import RankState
from repro.simmpi.comm import SimComm
from repro.simmpi.stepping import Steps, steppable

_LIMITS = ("recompute", "ratchet")
_CAPS = (None, "target", "limit", "two_tier", "gain")
_TALLIES = ("unit", "degree", "arc")
_WEIGHTS = (None, "vertex", "edge_cut")


class Constraint(NamedTuple):
    """One tracked per-part total and the rules that bound it.

    ``limit`` — how the bound ``Max`` is refreshed every iteration from the
    Allreduced totals: ``"recompute"`` takes ``max(S.max(), target)``
    (target: ``Imb_v`` / ``Imb_e``; 1 for ``c``); ``"ratchet"`` also never
    lets it grow within the phase, so the phase can only maintain or
    improve the worst imbalance — the paper's "without increasing the size
    of any part greater than the current most imbalanced part", robust
    against the creep per-iteration recomputation allows BSP sweeps.

    ``cap`` — None tracks the total without bounding moves by it.
    Otherwise the constraint gates scoring (a part is closed to a vertex
    that would push its estimate over ``Max``) and admits moves up to
    ``(bound − est) / mult``, with bound ``"target"`` (where the balance
    weight reaches zero), ``"limit"`` (``Max``), ``"two_tier"`` (a part
    below the target fills only to it; one above may still take moves up
    to ``Max``) or, for ``c``, ``"gain"``: ``Max``, in units of the signed
    cut delta at the target, gated by the scoring cut rule.
    """

    total: str
    limit: str
    cap: Optional[str]


@dataclass(frozen=True)
class PhaseSpec:
    """The rule set of one phase; validated at construction."""

    #: phase tag of the communication record (and of ``sweep_log``)
    tag: str
    #: :class:`~repro.core.params.PulpParams` field holding the iteration count
    iters: str
    #: neighbour tally: ``"unit"`` plurality, ``"degree"``-weighted, or
    #: per-``"arc"`` weights handed to :func:`lp_phase`
    tally: str
    #: tracked totals, a prefix of v, e, c: rows of the delta block
    constraints: Tuple[Constraint, ...]
    #: per-part factor on the tally: ``"vertex"`` is ``Wv = max(Imb_v /
    #: est_v − 1, 0)``; ``"edge_cut"`` is ``Re·We + Rc·Wc`` with ``Wc``
    #: against ``Maxc``, ``Re`` ramping while the edge target is unmet and
    #: ``Rc`` after (the paper's two-regime bias schedule)
    part_weight: Optional[str] = None
    #: revive parts without connected members at entry
    reseed: bool = False
    #: rebalance degree-0 vertices every iteration
    isolated: bool = False
    #: one exhaustive cleanup sweep, this many iterations before the end:
    #: it catches moves the active set missed, and the active sweeps left
    #: damp the simultaneous-move overshoot a full BSP sweep commits
    cleanup: Optional[int] = None

    def __post_init__(self) -> None:
        def check(what, value, allowed):
            if value not in allowed:
                raise ValueError(
                    f"PhaseSpec {self.tag!r}: unknown {what} {value!r} "
                    f"(one of {allowed})")

        check("tally", self.tally, _TALLIES)
        check("part_weight", self.part_weight, _WEIGHTS)
        check("iters field", self.iters,
              tuple(f.name for f in fields(PulpParams)))
        check("totals", self.totals, (("v",), ("v", "e", "c")))
        for c in self.constraints:
            check("limit rule", c.limit, _LIMITS)
            check("capacity rule", c.cap, _CAPS)
            if c.cap is not None and (c.cap == "gain") != (c.total == "c"):
                raise ValueError(
                    f"PhaseSpec {self.tag!r}: 'gain' caps the cut total "
                    f"and nothing else does, got {c}")
        if self.part_weight == "edge_cut" and len(self.constraints) != 3:
            raise ValueError(
                f"PhaseSpec {self.tag!r}: 'edge_cut' weights need v, e, c")

    @property
    def totals(self) -> Tuple[str, ...]:
        return tuple(c.total for c in self.constraints)


_RATCHET_V = Constraint("v", "ratchet", "limit")
_RATCHET_E = Constraint("e", "ratchet", "limit")

#: The phases of the pipeline, by tag.
SPECS = {s.tag: s for s in (
    # Algorithm 4: degree-weighted tallies times Wv; admission stops where
    # Wv reaches zero.  Degree-0 vertices sit outside label propagation.
    PhaseSpec(
        tag="vertex_balance", iters="balance_iters", tally="degree",
        part_weight="vertex",
        constraints=(Constraint("v", "recompute", "target"),),
        reseed=True, isolated=True,
    ),
    # Algorithm 5: constrained plurality (an FM-refinement variant).
    PhaseSpec(
        tag="vertex_refine", iters="refine_iters", tally="unit",
        constraints=(_RATCHET_V,), cleanup=3,
    ),
    # Algorithm 5 on a coarse level: a coarse arc stands in for many fine
    # edges, so the plurality is weighted by the coarse edge weights —
    # contraction conserves cut weight, so minimizing the weighted cut at
    # any level minimizes the fine cut it represents.
    PhaseSpec(
        tag="ml_refine", iters="refine_iters", tally="arc",
        constraints=(_RATCHET_V,), cleanup=2,
    ),
    # §III.E balance: Re·We + Rc·Wc attracts to parts underweight in edges,
    # then in cut, which both balances the per-part cut and lowers its max.
    PhaseSpec(
        tag="edge_balance", iters="balance_iters", tally="degree",
        part_weight="edge_cut",
        constraints=(_RATCHET_V, Constraint("e", "ratchet", "two_tier"),
                     Constraint("c", "recompute", None)),
        reseed=True,
    ),
    # §III.E refinement: plurality constrained by the vertex, edge *and*
    # cut maxima (the paper's final stage).
    PhaseSpec(
        tag="edge_refine", iters="refine_iters", tally="unit",
        constraints=(_RATCHET_V, _RATCHET_E,
                     Constraint("c", "recompute", "gain")),
        cleanup=3,
    ),
)}

#: The edge stage's bias schedule (§III.E): ``Re`` starts at ``RE_INIT``
#: and grows by ``RE_STEP`` per iteration while the edge target is unmet;
#: ``Rc`` starts at ``RC_INIT`` and grows by ``RC_STEP`` once it is met.
RE_INIT = RE_STEP = RC_INIT = RC_STEP = 1.0


def _attraction(target: float, est: np.ndarray) -> np.ndarray:
    """``max(target / est − 1, 0)``: zero once ``est`` reaches the target."""
    return np.maximum(target / np.maximum(est, 1.0) - 1.0, 0.0)


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
    # fill the most-underweight parts first; one slot per mean mover
    # weight, at most one per mover (the same prefix is taken below)
    mean_w = float(vw[movers].mean())
    slot_counts = np.ceil(
        np.minimum(gaps / max(mean_w, 1e-12), movers.size)).astype(np.int64)
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


@steppable
def lp_phase(
    comm: SimComm,
    state: RankState,
    spec: PhaseSpec,
    iters: int,
    *,
    arc_weights: Optional[np.ndarray] = None,
    seed_lids: Optional[np.ndarray] = None,
) -> Steps[None]:
    """Run ``iters`` iterations of the phase ``spec`` describes.

    ``arc_weights`` (aligned with ``state.dg.adj``) is the tally of an
    ``"arc"`` spec.  ``seed_lids`` starts the first sweep from that active
    set instead of all owned vertices — after a projection only vertices
    with an arc leaving their cluster can change the cut.
    """
    if (spec.tally == "arc") != (arc_weights is not None):
        raise ValueError(
            f"phase {spec.tag!r} tallies by {spec.tally!r}: arc_weights "
            f"must be given for an 'arc' spec and only for one")
    p = state.num_parts
    cons = spec.constraints
    d = len(cons)
    targets = (state.target_max_vertices, state.target_max_edges, 1.0)[:d]
    tally = arc_weights if spec.tally == "arc" else spec.tally
    # v / e constraints that gate and cap: (row, capacity rule)
    capped = [(i, c.cap) for i, c in enumerate(cons[:2]) if c.cap is not None]
    cut_rule = d == 3 and cons[2].cap == "gain"
    with comm.phase(spec.tag):
        if spec.reseed:
            yield from reseed_dead_parts(comm, state)
        S = (yield from state.part_totals(comm, spec.totals)).copy()
        limits = [np.inf] * d
        re_bias, rc_bias = RE_INIT, RC_INIT
        if d == 3:
            degrees = state.degrees_f64
        if spec.isolated:
            iso = np.flatnonzero(state.dg.local_degrees == 0).astype(np.int64)
        sweeper = FrontierSweeper(
            state, phase=spec.tag, seed_lids=seed_lids,
            cleanup_iter=(None if spec.cleanup is None
                          else max(0, iters - spec.cleanup)),
        )
        for it in range(iters):
            tops = [float(row.max()) for row in S]
            for i, c in enumerate(cons):
                top = tops[i]
                if c.limit == "ratchet":
                    top = min(limits[i], top)
                limits[i] = max(top, targets[i])
            mult = state.mult(comm)
            throttle = max(mult, 1e-12)
            if spec.part_weight == "edge_cut":
                if tops[1] > targets[1]:
                    re_bias += RE_STEP
                else:
                    rc_bias += RC_STEP
            # the deltas of this iteration, deposited as they are (a [p]
            # vector when only v is tracked)
            C = np.zeros((d, p), dtype=np.float64)
            if spec.isolated:
                # isolated vertices have no neighbours to seed a frontier
                # from: reconsidered every iteration whatever the active set
                sweeper.note_moves(_rebalance_isolated(
                    state, iso, S[0], C[0], targets[0], mult))
            for lids in sweeper.blocks():
                est = S + mult * C
                vw = state.vweights[lids]
                add = (vw,) if d == 1 else (vw, degrees[lids])
                weight = None
                if spec.part_weight == "vertex":
                    weight = _attraction(targets[0], est[0])
                elif spec.part_weight == "edge_cut":
                    weight = (re_bias * _attraction(targets[1], est[1])
                              + rc_bias * _attraction(limits[2], est[2]))
                cand, new, n_x, n_w = score_block(
                    state, lids, tally=tally, part_weight=weight,
                    constraints=[(est[i], add[i], limits[i])
                                 for i, _ in capped],
                    cut=(est[2], limits[2]) if cut_rule else None,
                    plain_counts=d == 3,
                )
                if cand.size == 0:
                    continue
                pairs = []
                for i, rule in capped:
                    bound = limits[i]
                    if rule == "target":
                        bound = targets[i]
                    elif rule == "two_tier":
                        bound = np.where(
                            est[i] < targets[i], targets[i], bound)
                    pairs.append((add[i][cand], (bound - est[i]) / throttle))
                if cut_rule:
                    gain = add[1][cand] - 2.0 * n_w  # ΔSc at the target
                    pairs.append((gain, (limits[2] - est[2]) / throttle))
                keep = enforce_weight_capacity(new, pairs)
                cand, new = cand[keep], new[keep]
                if cand.size == 0:
                    continue
                moved = lids[cand]
                old = state.parts[moved]
                state.parts[moved] = new
                moved_w = [w[cand] for w in add]
                for row, w in zip(C, moved_w):
                    row += np.bincount(new, weights=w, minlength=p)
                    row -= np.bincount(old, weights=w, minlength=p)
                if d == 3:
                    deg = moved_w[1]
                    C[2] += np.bincount(
                        old, weights=2.0 * n_x[keep] - deg, minlength=p)
                    C[2] += np.bincount(
                        new, weights=deg - 2.0 * n_w[keep], minlength=p)
                sweeper.note_moves(moved)
            S += yield from sweeper.exchange(comm, C if d > 1 else C[0],
                                             last=it == iters - 1)
            state.iter_tot += 1
