"""All six analytics cross-validated against networkx references."""

import numpy as np
import networkx as nx
import pytest

from repro.analytics import (
    harmonic_centrality,
    kcore_decomposition,
    label_propagation_communities,
    largest_scc,
    pagerank,
    run_analytic,
    weakly_connected_components,
)
from repro.graph import from_edges, rmat, webcrawl
from repro.graph.builders import symmetrize
from tests.graphs import to_networkx


@pytest.fixture(scope="module")
def g():
    return rmat(9, 12, seed=4)


@pytest.fixture(scope="module")
def nxg(g):
    return to_networkx(g)


@pytest.mark.parametrize("nprocs", [1, 2, 4])
@pytest.mark.parametrize("strategy", ["block", "random"])
def test_pagerank_matches_networkx(g, nxg, nprocs, strategy):
    r = run_analytic(
        g, pagerank, nprocs=nprocs, distribution=strategy, iters=60
    )
    ref = nx.pagerank(nxg, alpha=0.85, max_iter=300, tol=1e-13)
    ref_arr = np.array([ref[i] for i in range(g.n)])
    np.testing.assert_allclose(r.values, ref_arr, atol=1e-8)


def test_pagerank_sums_to_one(g):
    r = run_analytic(g, pagerank, nprocs=3, iters=40)
    assert r.values.sum() == pytest.approx(1.0, abs=1e-9)


def test_pagerank_validates_damping(g):
    with pytest.raises(ValueError):
        run_analytic(g, pagerank, nprocs=2, damping=1.5)


@pytest.mark.parametrize("nprocs", [1, 3])
def test_wcc_matches_networkx(g, nxg, nprocs):
    r = run_analytic(g, weakly_connected_components, nprocs=nprocs)
    ref = {frozenset(c) for c in nx.connected_components(nxg)}
    mine = {}
    for v, label in enumerate(r.values):
        mine.setdefault(label, set()).add(v)
    assert {frozenset(s) for s in mine.values()} == ref
    # labels are the minimum member gid
    for label, members in mine.items():
        assert label == min(members)


def test_wcc_on_disconnected_path():
    g2 = from_edges(7, np.array([0, 1, 4]), np.array([1, 2, 5]))
    r = run_analytic(g2, weakly_connected_components, nprocs=2)
    np.testing.assert_array_equal(r.values, [0, 0, 0, 3, 4, 4, 6])


@pytest.mark.parametrize("nprocs", [1, 4])
def test_kcore_matches_networkx(g, nxg, nprocs):
    r = run_analytic(g, kcore_decomposition, nprocs=nprocs)
    clean = nxg.copy()
    clean.remove_edges_from(nx.selfloop_edges(clean))
    ref = nx.core_number(clean)
    np.testing.assert_array_equal(
        r.values, [ref[i] for i in range(g.n)]
    )


def test_kcore_bounded_rounds(g):
    # severely capped rounds: still a valid upper bound on the core number
    r = run_analytic(g, kcore_decomposition, nprocs=2, max_rounds=1)
    full = run_analytic(g, kcore_decomposition, nprocs=2)
    assert np.all(r.values >= full.values)


@pytest.mark.parametrize("nprocs", [2, 4])
def test_scc_matches_networkx(nprocs):
    gd = webcrawl(512, 14, seed=9, directed=True)
    gs = symmetrize(gd)
    r = run_analytic(gs, largest_scc, nprocs=nprocs, directed=gd)
    nxd = nx.DiGraph()
    nxd.add_nodes_from(range(gd.n))
    src, dst = gd.edges()
    nxd.add_edges_from(zip(src.tolist(), dst.tolist()))
    giant = max(nx.strongly_connected_components(nxd), key=len)
    assert set(np.flatnonzero(r.values).tolist()) == giant


def test_scc_requires_directed(g):
    with pytest.raises(ValueError):
        run_analytic(g, largest_scc, nprocs=2)


def test_scc_trivial_graph():
    gd = from_edges(4, np.array([0, 1]), np.array([1, 2]), directed=True)
    gs = symmetrize(gd)
    r = run_analytic(gs, largest_scc, nprocs=2, directed=gd)
    # a DAG: every SCC is a singleton, trim kills everything
    assert r.values.sum() <= 1


def test_harmonic_centrality_exact(g, nxg):
    r = run_analytic(g, harmonic_centrality, nprocs=3, num_sources=8, seed=7)
    rng = np.random.default_rng(7)
    sources = rng.choice(g.n, size=8, replace=False)
    for s in sources:
        lengths = nx.single_source_shortest_path_length(nxg, int(s))
        expected = sum(1.0 / d for v, d in lengths.items() if d > 0)
        assert r.values[int(s)] == pytest.approx(expected)
    # non-sources left at zero
    non = np.setdiff1d(np.arange(g.n), sources)
    assert np.all(r.values[non] == 0)


def test_label_propagation_forms_communities(g):
    r = run_analytic(g, label_propagation_communities, nprocs=2, iters=8)
    n_comms = len(set(r.values.tolist()))
    assert 1 < n_comms < g.n  # grouped something, not everything


def test_label_propagation_deterministic(g):
    a = run_analytic(g, label_propagation_communities, nprocs=2, iters=5)
    b = run_analytic(g, label_propagation_communities, nprocs=2, iters=5)
    np.testing.assert_array_equal(a.values, b.values)


def test_results_independent_of_distribution(g):
    """Deterministic kernels must give identical answers under any layout
    (only the comm volume changes) — the Fig. 8 premise."""
    by_block = run_analytic(g, weakly_connected_components, nprocs=4,
                            distribution="block")
    by_random = run_analytic(g, weakly_connected_components, nprocs=4,
                             distribution="random")
    np.testing.assert_array_equal(by_block.values, by_random.values)


def test_partition_distribution_reduces_comm():
    g2 = webcrawl(4096, 16, seed=3)
    from repro.core import xtrapulp

    parts = xtrapulp(g2, 4, nprocs=4).parts
    good = run_analytic(g2, pagerank, nprocs=4, distribution=parts, iters=10)
    bad = run_analytic(
        g2, pagerank, nprocs=4, distribution="random", iters=10
    )
    good_bytes = good.stats.filtered(["pagerank"]).total_bytes
    bad_bytes = bad.stats.filtered(["pagerank"]).total_bytes
    assert good_bytes < 0.7 * bad_bytes


def test_modeled_seconds_excludes_setup(g):
    r = run_analytic(g, pagerank, nprocs=2, iters=5)
    from repro.simmpi.timing import TimeModel

    total = TimeModel(r.machine).total_time(r.stats)
    assert 0 < r.modeled_seconds < total
