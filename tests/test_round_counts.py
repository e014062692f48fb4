"""Guard: every round carries information.

On the paper's rank axis a round is priced almost entirely in latency, so
a round whose content every rank already has is pure cost.  These counts
are exact: an ``edge_refine`` phase of ``k`` iterations is one Allreduce
of its stacked ``v`` / ``e`` / ``c`` totals at entry, then per iteration
the ExchangeUpdates round (one sparse exchange, no count header) and the
delta Allreduce; initialization's dead-part check is one alive-count
Allreduce, taken by the first ``vertex_balance`` and not repeated by init;
V-cycle coarsening takes no Allreduce at all — heavy-edge matching is
rank-local, the contraction's stop decision arrives with its Allgatherv,
and an LP-clustering round's one ``(cluster id, weight delta)``
Allgatherv already says whether any rank moved.
"""

from collections import Counter

import pytest

from repro.core import PulpParams, xtrapulp
from repro.core.initialization import initialize
from repro.core.lp import SPECS, lp_phase
from repro.core.state import RankState
from repro.dist import build_dist_graph, make_distribution
from repro.graph import rmat
from repro.simmpi import run_spmd

PARTS = 8


@pytest.mark.parametrize("iters", [1, 4])
def test_edge_refine_records_one_entry_round(iters):
    g = rmat(9, 8, seed=3)
    dist = make_distribution("random", g.n, 3, seed=1)

    def main(comm):
        dg = build_dist_graph(comm, g, dist)
        state = RankState(dg=dg, num_parts=PARTS, params=PulpParams(seed=1))
        initialize(comm, state)
        lp_phase(comm, state, SPECS["edge_refine"], iters)

    _, stats = run_spmd(3, main)
    ops = [e.op for e in stats.events if e.tag == "edge_refine"]
    assert ops == ["allreduce"] + ["alltoallv", "allreduce"] * iters
    entry = next(e for e in stats.events if e.tag == "edge_refine")
    assert entry.bytes_sent.tolist() == [3 * PARTS * 8] * 3


@pytest.mark.parametrize("coarsen", ["hem", "lp"])
def test_coarsening_records_no_allreduce(coarsen):
    result = xtrapulp(
        rmat(10, 8, seed=11), PARTS, nprocs=3, backend="serial",
        params=PulpParams(seed=123, multilevel=True, ml_coarsen=coarsen),
    )
    ops = Counter(e.op for e in result.stats.events if e.tag == "coarsen")
    assert result.multilevel.levels >= 2
    assert "allreduce" not in ops, ops
    if coarsen == "hem":
        # one contraction Allgatherv per level made, and nothing else
        assert ops == {"allgatherv": result.multilevel.levels - 1}


def test_flat_run_records_one_alive_count_before_the_first_totals():
    """Init's dead-part check is the first ``vertex_balance``'s: a flat run
    records exactly one alive-count Allreduce (``p`` int64 counts) before
    the phase's first stacked entry totals."""
    result = xtrapulp(rmat(9, 8, seed=3), PARTS, nprocs=3, backend="serial",
                      params=PulpParams(seed=1))
    events = result.stats.events
    first_vb = next(i for i, e in enumerate(events)
                    if e.tag == "vertex_balance")
    # before the entry totals, the only Allreduce of p counts is the
    # phase's own alive count: init takes none
    alive = [e for e in events[:first_vb + 1]
             if e.op == "allreduce" and e.max_bytes == PARTS * 8]
    assert len(alive) == 1 and alive[0] is events[first_vb]
    entry = events[first_vb + 1]
    assert (entry.op, entry.tag) == ("allreduce", "vertex_balance")
