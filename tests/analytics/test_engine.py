"""Analytics engine plumbing: runner validation, directed attachment,
work charging, helper correctness."""

import numpy as np
import pytest

from repro.analytics import pagerank, run_analytic, weakly_connected_components
from repro.analytics.engine import attach_directed, segment_sums
from repro.dist import build_dist_graph, make_distribution
from repro.graph import from_edges, rmat, webcrawl
from repro.graph.builders import symmetrize
from repro.simmpi import run_spmd


def test_segment_sums_reference():
    g = rmat(7, 8, seed=2)
    dist = make_distribution("block", g.n, 1)

    def main(comm):
        dg = build_dist_graph(comm, g, dist)
        vals = np.arange(dg.adj.size, dtype=np.float64)
        sums = segment_sums(dg, vals)
        for v in range(dg.n_local):
            lo, hi = dg.offsets[v], dg.offsets[v + 1]
            assert sums[v] == pytest.approx(vals[lo:hi].sum())
        return True

    assert run_spmd(1, main)[0] == [True]


def test_attach_directed_localizes_all_arcs():
    gd = webcrawl(512, 12, seed=3, directed=True)
    gs = symmetrize(gd)
    dist = make_distribution("random", gs.n, 3, seed=0)

    def main(comm):
        dg = build_dist_graph(comm, gs, dist)
        attach_directed(dg, gd)
        # out-arc count conservation
        total_out, total_in = comm.Allreduce(
            np.array([dg.dir_out_adj.size, dg.dir_in_adj.size]))
        assert total_out == gd.num_directed_edges
        assert total_in == gd.num_directed_edges
        # spot-check: localized out-neighbors match global ids
        for lid in range(min(dg.n_local, 20)):
            gid = dg.l2g[lid]
            expect = np.sort(gd.neighbors(gid))
            got = np.sort(
                dg.l2g[
                    dg.dir_out_adj[
                        dg.dir_out_offsets[lid]:dg.dir_out_offsets[lid + 1]
                    ]
                ]
            )
            np.testing.assert_array_equal(got, expect)
        return True

    assert all(run_spmd(3, main)[0])


def test_attach_directed_rejects_undirected():
    g = rmat(6, 6, seed=1)
    dist = make_distribution("block", g.n, 1)

    def main(comm):
        dg = build_dist_graph(comm, g, dist)
        with pytest.raises(ValueError):
            attach_directed(dg, g)
        return True

    assert run_spmd(1, main)[0] == [True]


def test_run_analytic_distribution_kinds():
    g = rmat(7, 8, seed=4)
    by_str = run_analytic(g, weakly_connected_components, nprocs=2,
                          distribution="block")
    dist = make_distribution("block", g.n, 2)
    by_obj = run_analytic(g, weakly_connected_components, nprocs=2,
                          distribution=dist)
    parts = np.arange(g.n) % 2
    by_parts = run_analytic(g, weakly_connected_components, nprocs=2,
                            distribution=parts)
    np.testing.assert_array_equal(by_str.values, by_obj.values)
    np.testing.assert_array_equal(by_str.values, by_parts.values)


def test_run_analytic_rejects_mismatched_directed():
    g = rmat(7, 8, seed=4)
    other = webcrawl(64, 8, seed=1, directed=True)
    with pytest.raises(ValueError):
        run_analytic(g, pagerank, nprocs=2, directed=other)


def test_analytic_result_carries_name_and_stats():
    g = rmat(7, 8, seed=4)
    r = run_analytic(g, pagerank, nprocs=2, iters=3, name="my_pr")
    assert r.name == "my_pr"
    assert r.stats.rounds > 0
    assert any(e.tag == "my_pr" for e in r.stats.events)


def test_work_charging_produces_deterministic_model():
    g = rmat(8, 10, seed=5)
    a = run_analytic(g, pagerank, nprocs=3, iters=5)
    b = run_analytic(g, pagerank, nprocs=3, iters=5)
    assert a.modeled_seconds == b.modeled_seconds
    # the kernel's events actually carry work units
    kernel_events = [e for e in a.stats.events if e.tag == "pagerank"]
    assert sum(e.max_work for e in kernel_events) > 0


def test_empty_rank_tolerated():
    # more ranks than vertices in a component: some ranks own nothing
    g = from_edges(5, np.array([0, 1, 2, 3]), np.array([1, 2, 3, 4]))
    r = run_analytic(g, weakly_connected_components, nprocs=4)
    assert np.all(r.values == 0)
