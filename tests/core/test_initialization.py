"""Algorithm 2 initialization + alternatives + dead-part reseeding."""

import numpy as np
import pytest

from repro.core.initialization import initialize, reseed_dead_parts
from repro.core.params import PulpParams
from repro.core.state import RankState
from repro.dist import build_dist_graph, make_distribution
from repro.graph import from_edges, rmat, rand_hd
from repro.simmpi import run_spmd
from tests.graphs import ring


def init_global(graph, p, nprocs, strategy="hybrid", seed=42):
    dist = make_distribution("random", graph.n, nprocs, seed=seed)
    params = PulpParams(init_strategy=strategy, seed=seed)

    def main(comm):
        dg = build_dist_graph(comm, graph, dist)
        state = RankState(dg=dg, num_parts=p, params=params)
        initialize(comm, state)
        # ghost consistency: every ghost equals the owner's value
        return (
            dg.owned_gids.copy(),
            state.parts[: dg.n_local].copy(),
            dg.ghost_gids.copy(),
            state.parts[dg.n_local:].copy(),
        )

    results = run_spmd(nprocs, main)[0]
    parts = np.empty(graph.n, dtype=np.int64)
    for gids, owned, _, _ in results:
        parts[gids] = owned
    for _, _, ghost_gids, ghost_parts in results:
        np.testing.assert_array_equal(ghost_parts, parts[ghost_gids])
    return parts


@pytest.mark.parametrize("strategy", ["hybrid", "random", "block"])
@pytest.mark.parametrize("nprocs", [1, 3])
def test_all_vertices_assigned(strategy, nprocs):
    g = rmat(8, 12, seed=2)
    parts = init_global(g, 8, nprocs, strategy)
    assert parts.min() >= 0 and parts.max() < 8


def test_hybrid_grows_connected_regions():
    # on a ring, hybrid init yields contiguous arcs (few cut edges)
    g = ring(64)
    parts = init_global(g, 4, 2)
    cut = int((parts != np.roll(parts, 1)).sum())
    assert cut <= 3 * 4  # roughly one boundary per part


def test_block_init_is_contiguous():
    g = ring(12)
    parts = init_global(g, 3, 2, strategy="block")
    np.testing.assert_array_equal(parts, np.repeat([0, 1, 2], 4))


def test_random_init_uses_all_parts():
    g = rmat(9, 12, seed=3)
    parts = init_global(g, 8, 2, strategy="random")
    assert set(np.unique(parts)) == set(range(8))


def test_deterministic_given_seed():
    g = rmat(8, 12, seed=5)
    a = init_global(g, 4, 2, seed=7)
    b = init_global(g, 4, 2, seed=7)
    np.testing.assert_array_equal(a, b)


def test_hybrid_handles_disconnected_leftovers():
    # two components + isolated vertices: everything must get a part
    src = np.concatenate([np.arange(19), np.arange(20, 39)])
    dst = src + 1
    g = from_edges(50, src, dst)  # vertices 40..49 isolated
    parts = init_global(g, 4, 2)
    assert parts.min() >= 0


def test_isolated_vertices_charge_no_bfs_work():
    """A rank owning only isolated vertices has nothing a BFS round can
    reach: it scans nothing and charges no work in any init round (its
    leftovers take random parts without a scan)."""
    src = np.arange(19)
    g = from_edges(40, src, src + 1)  # a path on 0..19; 20..39 isolated
    dist = make_distribution("block", g.n, 2)  # rank 1 owns 20..39

    def main(comm):
        dg = build_dist_graph(comm, g, dist)
        state = RankState(dg=dg, num_parts=4, params=PulpParams(seed=3))
        initialize(comm, state)
        return state.parts[: dg.n_local].copy()

    parts, stats = run_spmd(2, main)
    assert np.concatenate(parts).min() >= 0
    init = [e for e in stats.events if e.tag == "init"]
    assert len(init) > 2  # roots, then BFS rounds
    assert sum(e.work_units[0] for e in init) > 0
    assert all(e.work_units[1] == 0 for e in init)


def test_more_parts_than_vertices_rejected():
    g = ring(4)
    with pytest.raises(ValueError):
        init_global(g, 10, 2)


def test_reseed_dead_parts_revives():
    g = rmat(8, 12, seed=2)
    dist = make_distribution("random", g.n, 2, seed=0)
    params = PulpParams(seed=0)
    p = 4

    def main(comm):
        dg = build_dist_graph(comm, g, dist)
        state = RankState(dg=dg, num_parts=p, params=params)
        # construct a pathological assignment: all connected vertices in
        # part 0, isolated spread across 1..3
        deg = dg.degrees_full[: dg.n_local]
        owned = np.zeros(dg.n_local, dtype=np.int64)
        owned[deg == 0] = 1 + (np.arange(int((deg == 0).sum())) % (p - 1))
        state.parts[: dg.n_local] = owned
        from repro.core.exchange import exchange_updates

        exchange_updates(
            comm, dg, state.parts, np.arange(dg.n_local), state.wire
        )
        revived = reseed_dead_parts(comm, state)
        conn = state.parts[: dg.n_local][deg > 0]
        local = np.bincount(conn, minlength=p)
        alive = comm.Allreduce(local.astype(np.int64), op="sum")
        return revived, alive

    results = run_spmd(2, main)[0]
    revived, alive = results[0]
    assert revived == 3  # parts 1..3 had no connected members
    assert (alive > 0).all()


def test_reseed_noop_when_all_alive():
    g = ring(16)
    dist = make_distribution("block", g.n, 2)
    params = PulpParams()

    def main(comm):
        dg = build_dist_graph(comm, g, dist)
        state = RankState(dg=dg, num_parts=2, params=params)
        state.parts[: dg.n_local] = comm.rank
        from repro.core.exchange import exchange_updates

        exchange_updates(
            comm, dg, state.parts, np.arange(dg.n_local), state.wire
        )
        before = state.parts.copy()
        assert reseed_dead_parts(comm, state) == 0
        np.testing.assert_array_equal(state.parts, before)
        return True

    assert all(run_spmd(2, main)[0])
