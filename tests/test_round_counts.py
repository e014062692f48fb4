"""Guard: every round carries information, and an LP iteration is one.

On the paper's rank axis a round is priced almost entirely in latency, so
a round whose content every rank already has is pure cost, and so is a
round that could have ridden another.  These counts are exact: an
``edge_refine`` phase of ``k`` iterations is one Allreduce of its stacked
``v`` / ``e`` / ``c`` totals at entry, then per iteration one
ExchangeUpdates round — a sparse exchange with no count header, whose
closing consensus also sums the iteration's delta block (the paper's
``AllReduce(C)``), bit for bit what a separate Allreduce returns;
initialization's dead-part check is one alive-count Allreduce, taken by
the first ``vertex_balance`` and not repeated by init; V-cycle coarsening
takes no Allreduce at all — heavy-edge matching is rank-local, the
contraction's stop decision arrives with its Allgatherv, and an
LP-clustering round's one ``(cluster id, weight delta)`` Allgatherv
already says whether any rank moved.

No round tells a rank what it already holds.  Hybrid initialization is
the candidates' Allgatherv — every rank then draws the same roots and
labels its owned roots and its ghost copies of roots itself — and then,
per BFS round, one ExchangeUpdates round whose consensus sums
``[assigned this round, connected owned vertices still unassigned]``;
the loop stops when no connected vertex is left, or none was reached,
and the leftovers are exchanged only when a connected one is among them.
Random and block initialization are one exchange each; nothing checks
the assignment collectively.  The halo plan is read off the build, so an
analytics run's setup is the build's three rounds and no record holds a
``plan``-tagged halo round or a ``bcast``.
"""

from collections import Counter

import numpy as np
import pytest

from repro.analytics import run_analytic, weakly_connected_components
from repro.baselines import vertex_block_partition
from repro.core import PulpParams, xtrapulp
from repro.core.initialization import initialize
from repro.core.lp import SPECS, lp_phase
from repro.core.state import RankState
from repro.dist import build_dist_graph, make_distribution
from repro.graph import from_edges, rmat
from repro.simmpi import run_spmd
from repro.spmv import run_spmv

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
    assert ops == ["allreduce"] + ["alltoallv"] * iters
    entry = next(e for e in stats.events if e.tag == "edge_refine")
    assert entry.bytes_sent.tolist() == [3 * PARTS * 8] * 3


@pytest.mark.parametrize("backend", ["serial", "threads", "procs"])
def test_fused_delta_totals_equal_a_separate_allreduce(monkeypatch, backend):
    """Non-integer vertex weights make the delta sums order-sensitive: the
    totals each iteration's exchange returns are, bit for bit, what an
    Allreduce of the same deltas returns."""
    from repro.core import frontier
    from repro.simmpi.stepping import steppable

    exchange = frontier.exchange_updates

    @steppable
    def checked(comm, *args, operand=None, **kwargs):
        ghost_lids, total = yield from exchange.__wrapped__(
            comm, *args, operand=operand, **kwargs)
        alone = yield from comm.Allreduce(operand)
        seen.setdefault(comm.rank, []).append(
            (total.dtype, total.tobytes()) == (alone.dtype, alone.tobytes()))
        return ghost_lids, total

    seen = {}
    monkeypatch.setattr(frontier, "exchange_updates", checked)
    g = rmat(9, 8, seed=3)
    weights = np.random.default_rng(5).random(g.n) * 3.0 + 0.1
    dist = make_distribution("random", g.n, 3, seed=1)

    def main(comm):
        dg = build_dist_graph(comm, g, dist)
        state = RankState(dg=dg, num_parts=PARTS, params=PulpParams(seed=1))
        state.set_vertex_weights(weights[dg.owned_gids], weights.sum())
        initialize(comm, state)
        for tag in ("vertex_balance", "vertex_refine"):
            lp_phase(comm, state, SPECS[tag], 3)
        return seen[comm.rank]

    checks, _ = run_spmd(3, main, backend=backend)
    assert [len(c) for c in checks] == [6] * 3  # every iteration and rank
    assert all(all(c) for c in checks)


@pytest.mark.parametrize("coarsen", ["hem", "lp"])
def test_coarsening_records_no_allreduce(coarsen):
    result = xtrapulp(
        rmat(10, 8, seed=11), PARTS, nprocs=3, backend="serial",
        params=PulpParams(seed=123, multilevel=True, ml_coarsen=coarsen),
    )
    ops = Counter(e.op for e in result.stats.events if e.tag == "coarsen")
    levels = result.multilevel.levels
    assert levels >= 2
    assert "allreduce" not in ops, ops
    if coarsen == "hem":
        # one contraction Allgatherv per level made, and nothing else
        assert ops == {"allgatherv": levels - 1}
    # uncoarsening: one projection Allgatherv per level, and nothing else
    project = Counter(e.op for e in result.stats.events if e.tag == "project")
    assert project == {"allgatherv": levels - 1}, project


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


def _ring_with(n_ring: int, pairs: int, isolated: int):
    """A ring of ``n_ring`` vertices, then ``pairs`` disjoint edges, then
    ``isolated`` degree-0 vertices."""
    src = list(range(n_ring)) + [n_ring + 2 * k for k in range(pairs)]
    dst = [(i + 1) % n_ring for i in range(n_ring)] + [
        n_ring + 2 * k + 1 for k in range(pairs)]
    return from_edges(n_ring + 2 * pairs + isolated, np.array(src),
                      np.array(dst))


def _init_ops(graph, strategy="hybrid", parts=4):
    dist = make_distribution("random", graph.n, 3, seed=1)

    def main(comm):
        dg = build_dist_graph(comm, graph, dist)
        state = RankState(dg=dg, num_parts=parts, params=PulpParams(
            seed=1, init_strategy=strategy))
        initialize(comm, state)

    _, stats = run_spmd(3, main)
    return [e.op for e in stats.events if e.tag == "init"]


def test_hybrid_init_on_a_connected_graph():
    """Every connected vertex is reached in the fourth BFS round, so the
    counts its exchange sums end the loop: no fifth round assigns
    nothing, and the isolated leftovers, which no rank holds a copy of,
    are not exchanged."""
    assert _init_ops(_ring_with(24, 0, 5)) == (
        ["allgatherv"] + ["alltoallv"] * 4)


def test_hybrid_init_with_unreached_components():
    """The seventh BFS round assigns nothing while connected vertices are
    still unassigned (pairs no root landed in): its exchange moves no
    record and its counts end the loop, and the one exchange after it
    carries the leftovers' random labels."""
    assert _init_ops(_ring_with(12, 30, 0)) == (
        ["allgatherv"] + ["alltoallv"] * 7 + ["alltoallv"])


@pytest.mark.parametrize("strategy", ["random", "block"])
def test_random_and_block_init_are_one_exchange(strategy):
    assert _init_ops(_ring_with(24, 0, 5), strategy) == ["alltoallv"]


def _no_told_rounds(stats):
    return [(e.op, e.tag) for e in stats.events
            if e.op == "bcast" or e.tag == "plan"]


@pytest.mark.parametrize("multilevel", [False, True])
def test_partitioner_records_no_bcast_or_plan_round(multilevel):
    result = xtrapulp(rmat(9, 8, seed=3), PARTS, nprocs=3,
                      params=PulpParams(seed=1, multilevel=multilevel))
    assert not _no_told_rounds(result.stats)


def test_halo_users_take_no_plan_round():
    """The analytics and the 1-D SpMV read their halo plan off the build:
    an analytics run's setup is the build's three rounds."""
    g = rmat(9, 8, seed=3)
    parts = vertex_block_partition(g, 3)
    analytic = run_analytic(g, weakly_connected_components, nprocs=3,
                            distribution=parts)
    spmv = run_spmv(g, parts, layout="1d", nprocs=3, iters=2)
    assert not _no_told_rounds(analytic.stats)
    assert not _no_told_rounds(spmv.stats)
    tags = [e.tag for e in analytic.stats.events]
    assert tags[:4] == ["build"] * 3 + ["weakly_connected_components"]
