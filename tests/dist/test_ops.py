"""Static exchange plans (the halo and the general owner → copy case) and
distributed BFS."""

import numpy as np
import pytest

from repro.dist import (
    build_dist_graph, connect_plan, distributed_bfs_levels, ghost_plan,
)
from repro.dist.distribution import make_distribution
from repro.graph import bfs_levels, from_edges, rmat, rand_hd
from repro.simmpi import run_spmd
from tests.graphs import ring


def run_with_plan(graph, nprocs, fn, kind="random", seed=0):
    dist = make_distribution(kind, graph.n, nprocs, seed=seed)

    def main(comm):
        dg = build_dist_graph(comm, graph, dist)
        plan = ghost_plan(dg)
        return fn(comm, dg, plan)

    return run_spmd(nprocs, main)[0]


@pytest.mark.parametrize("nprocs", [1, 2, 4])
def test_pull_refreshes_ghosts(nprocs):
    g = rmat(8, 10, seed=3)

    def fn(comm, dg, plan):
        values = np.zeros(dg.n_total, dtype=np.int64)
        values[: dg.n_local] = dg.owned_gids * 7  # owner authoritative
        plan.pull(comm, values)
        # every ghost now equals its owner's value
        np.testing.assert_array_equal(
            values[dg.n_local:], dg.ghost_gids * 7
        )
        return True

    assert all(run_with_plan(g, nprocs, fn))


@pytest.mark.parametrize("op,combine", [("sum", np.add), ("min", np.minimum),
                                        ("max", np.maximum)])
def test_push_combines_at_owner(op, combine):
    g = ring(12)
    nprocs = 3

    def fn(comm, dg, plan):
        values = np.zeros(dg.n_total, dtype=np.int64)
        values[: dg.n_local] = 10
        values[dg.n_local:] = dg.rank + 1  # ghost contributions
        plan.push(comm, values, op=op)
        return dg.owned_gids.copy(), values[: dg.n_local].copy()

    results = run_with_plan(g, nprocs, fn, kind="block")
    # reference: each vertex starts at 10, combined with (src_rank+1) for
    # every rank holding it as a ghost
    dist = make_distribution("block", g.n, nprocs)
    expected = np.full(g.n, 10, dtype=np.int64)
    for r in range(nprocs):
        owned = set(dist.owned(r).tolist())
        ghosts = set()
        for gid in owned:
            for u in g.neighbors(gid):
                if int(dist.owner(int(u))) != r:
                    ghosts.add(int(u))
        for gh in ghosts:
            expected[gh] = combine(expected[gh], r + 1)
    got = np.empty(g.n, dtype=np.int64)
    for gids, vals in results:
        got[gids] = vals
    np.testing.assert_array_equal(got, expected)


def test_push_requires_combining_op():
    g = ring(6)

    def fn(comm, dg, plan):
        with pytest.raises(ValueError):
            plan.push(comm, np.zeros(dg.n_total), op="replace")
        comm.barrier()
        return True

    assert all(run_with_plan(g, 2, fn, kind="block"))


def test_pull_float_payload():
    g = ring(9)

    def fn(comm, dg, plan):
        values = np.zeros(dg.n_total, dtype=np.float64)
        values[: dg.n_local] = dg.owned_gids + 0.25
        plan.pull(comm, values)
        np.testing.assert_allclose(values[dg.n_local:], dg.ghost_gids + 0.25)
        return True

    assert all(run_with_plan(g, 3, fn))


N_GIDS = 12


def run_general_plan(nprocs, fn, misroute=0):
    """A plan between two arrays: rank ``r`` owns gids ``r, r + p, ...`` of
    ``0 .. N_GIDS-1`` and keeps a copy of every other gid, in descending gid
    order.  ``misroute`` shifts the owner every copy is requested from."""

    def main(comm):
        owned = np.arange(comm.rank, N_GIDS, nprocs)
        gids = np.setdiff1d(np.arange(N_GIDS), owned)
        slots = np.arange(gids.size)[::-1]
        plan = connect_plan(comm, gids, (gids + misroute) % nprocs, slots,
                            owned)
        return fn(comm, plan, owned, gids, slots)

    return run_spmd(nprocs, main)[0]


def test_general_pull_fills_a_separate_copy_array():
    def fn(comm, plan, owned, gids, slots):
        values = 100.0 * owned
        copies = np.full(gids.size, -1.0)
        assert plan.pull(comm, values, copies) is copies
        np.testing.assert_array_equal(copies[slots], 100.0 * gids)
        np.testing.assert_array_equal(values, 100.0 * owned)
        return True

    assert all(run_general_plan(3, fn))


def test_general_push_combines_into_a_separate_owner_array():
    nprocs = 3

    def fn(comm, plan, owned, gids, slots):
        copies = np.empty(gids.size, dtype=np.int64)
        copies[slots] = gids + 1000 * comm.rank
        totals = np.zeros(owned.size, dtype=np.int64)
        assert plan.push(comm, copies, totals, op="sum") is totals
        others = nprocs * (nprocs - 1) // 2 - comm.rank
        np.testing.assert_array_equal(
            totals, (nprocs - 1) * owned + 1000 * others
        )
        return True

    assert all(run_general_plan(nprocs, fn))


def test_request_for_an_unowned_gid_raises():
    with pytest.raises(ValueError, match="does not own"):
        run_general_plan(3, lambda *args: True, misroute=1)


@pytest.mark.parametrize("nprocs", [1, 2, 4])
@pytest.mark.parametrize("source", [0, 77])
def test_distributed_bfs_matches_serial(nprocs, source):
    g = rmat(8, 12, seed=6)
    ref = bfs_levels(g, source)

    def fn(comm, dg, plan):
        levels = distributed_bfs_levels(comm, dg, plan, source)
        return dg.owned_gids.copy(), levels

    results = run_with_plan(g, nprocs, fn)
    got = np.empty(g.n, dtype=np.int64)
    for gids, levels in results:
        got[gids] = levels
    np.testing.assert_array_equal(got, ref)


def test_distributed_bfs_disconnected():
    g = from_edges(6, np.array([0, 1]), np.array([1, 2]))

    def fn(comm, dg, plan):
        return dg.owned_gids.copy(), distributed_bfs_levels(comm, dg, plan, 0)

    results = run_with_plan(g, 2, fn, kind="block")
    got = np.empty(g.n, dtype=np.int64)
    for gids, levels in results:
        got[gids] = levels
    np.testing.assert_array_equal(got, [0, 1, 2, -1, -1, -1])


def test_distributed_bfs_high_diameter():
    g = rand_hd(512, 6, seed=2)
    ref = bfs_levels(g, 0)

    def fn(comm, dg, plan):
        return dg.owned_gids.copy(), distributed_bfs_levels(comm, dg, plan, 0)

    results = run_with_plan(g, 4, fn, kind="block")
    got = np.empty(g.n, dtype=np.int64)
    for gids, levels in results:
        got[gids] = levels
    np.testing.assert_array_equal(got, ref)
