"""Property tests on the distributed-graph layer."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.dist import build_dist_graph, make_distribution
from repro.graph import from_edges
from repro.simmpi import run_spmd


@st.composite
def dist_cases(draw):
    n = draw(st.integers(min_value=2, max_value=30))
    m = draw(st.integers(min_value=0, max_value=90))
    nprocs = draw(st.integers(min_value=1, max_value=4))
    kind = draw(st.sampled_from(["block", "random"]))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    g = from_edges(n, rng.integers(0, n, size=m), rng.integers(0, n, size=m))
    return g, nprocs, kind, seed % 1000


@settings(max_examples=40, deadline=None)
@given(dist_cases())
def test_build_invariants(case):
    g, nprocs, kind, seed = case
    dist = make_distribution(kind, g.n, nprocs, seed=seed)
    dgs = run_spmd(nprocs, lambda comm: build_dist_graph(comm, g, dist))[0]
    # partition of vertices
    all_owned = np.sort(np.concatenate([dg.owned_gids for dg in dgs]))
    np.testing.assert_array_equal(all_owned, np.arange(g.n))
    # edge conservation and adjacency correctness
    assert sum(dg.num_local_edges for dg in dgs) == g.num_directed_edges
    for dg in dgs:
        for lid in range(dg.n_local):
            gid = dg.l2g[lid]
            np.testing.assert_array_equal(
                np.sort(dg.l2g[dg.neighbors(lid)]), g.neighbors(int(gid))
            )
        # ghosts are precisely the off-rank one-hop neighborhood
        if dg.n_ghost:
            owners = dist.owner(dg.ghost_gids)
            assert np.all(owners != dg.rank)


@settings(max_examples=30, deadline=None)
@given(dist_cases())
def test_halo_pull_propagates_arbitrary_values(case):
    g, nprocs, kind, seed = case
    from repro.dist import ghost_plan

    dist = make_distribution(kind, g.n, nprocs, seed=seed)
    rng = np.random.default_rng(seed)
    truth = rng.random(g.n)

    def main(comm):
        dg = build_dist_graph(comm, g, dist)
        plan = ghost_plan(dg)
        vals = np.zeros(dg.n_total)
        vals[: dg.n_local] = truth[dg.owned_gids]
        plan.pull(comm, vals)
        np.testing.assert_allclose(vals[dg.n_local:], truth[dg.ghost_gids])
        return True

    assert all(run_spmd(nprocs, main)[0])
