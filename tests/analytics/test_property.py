"""Property tests: analytics agree with networkx on arbitrary graphs and
are invariant to the distribution used to run them."""

import numpy as np
import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.analytics import (
    kcore_decomposition,
    pagerank,
    run_analytic,
    weakly_connected_components,
)
from repro.graph import from_edges
from tests.graphs import to_networkx


@st.composite
def graph_cases(draw):
    n = draw(st.integers(min_value=3, max_value=28))
    m = draw(st.integers(min_value=1, max_value=70))
    nprocs = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    g = from_edges(n, rng.integers(0, n, size=m), rng.integers(0, n, size=m))
    return g, nprocs


@settings(max_examples=25, deadline=None)
@given(graph_cases())
def test_wcc_matches_networkx_everywhere(case):
    g, nprocs = case
    r = run_analytic(g, weakly_connected_components, nprocs=nprocs)
    nxg = to_networkx(g)
    ref = {frozenset(c) for c in nx.connected_components(nxg)}
    mine = {}
    for v, label in enumerate(r.values):
        mine.setdefault(label, set()).add(v)
    assert {frozenset(s) for s in mine.values()} == ref


@settings(max_examples=20, deadline=None)
@given(graph_cases())
def test_kcore_matches_networkx_everywhere(case):
    g, nprocs = case
    r = run_analytic(g, kcore_decomposition, nprocs=nprocs)
    nxg = to_networkx(g)
    nxg.remove_edges_from(nx.selfloop_edges(nxg))
    ref = nx.core_number(nxg)
    np.testing.assert_array_equal(r.values, [ref[i] for i in range(g.n)])


@settings(max_examples=15, deadline=None)
@given(graph_cases())
def test_pagerank_mass_conserved_everywhere(case):
    g, nprocs = case
    r = run_analytic(g, pagerank, nprocs=nprocs, iters=15)
    assert abs(r.values.sum() - 1.0) < 1e-9
    assert r.values.min() >= 0


@settings(max_examples=15, deadline=None)
@given(graph_cases(), st.integers(min_value=0, max_value=2**31))
def test_results_distribution_invariant(case, dist_seed):
    g, nprocs = case
    from repro.dist import RandomDistribution

    a = run_analytic(g, weakly_connected_components, nprocs=nprocs,
                     distribution="block")
    b = run_analytic(
        g, weakly_connected_components, nprocs=nprocs,
        distribution=RandomDistribution(g.n, nprocs, seed=dist_seed),
    )
    np.testing.assert_array_equal(a.values, b.values)
