"""Builders: edges/scipy conversions, cleanup semantics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from repro.graph import from_edges, to_scipy
from repro.graph.builders import symmetrize
from tests.graphs import is_symmetric, ring, to_networkx


def test_dedup_and_self_loops_removed():
    src = np.array([0, 0, 0, 1, 2])
    dst = np.array([1, 1, 0, 2, 2])
    g = from_edges(3, src, dst)
    assert g.num_edges == 2  # (0,1) and (1,2); dup and loops dropped
    assert not g.has_self_loops()


def test_keep_self_loops_if_requested():
    g = from_edges(2, np.array([0]), np.array([0]), drop_self_loops=False)
    assert g.has_self_loops()


def test_directed_no_symmetrize():
    g = from_edges(3, np.array([0, 1]), np.array([1, 2]), directed=True)
    assert g.directed
    assert g.num_edges == 2
    np.testing.assert_array_equal(g.neighbors(0), [1])
    assert g.neighbors(1).tolist() == [2]
    assert g.neighbors(2).size == 0


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        from_edges(2, np.array([0]), np.array([5]))
    with pytest.raises(ValueError):
        from_edges(2, np.array([-1]), np.array([0]))
    with pytest.raises(ValueError):
        from_edges(-1, np.array([]), np.array([]))


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        from_edges(3, np.array([0, 1]), np.array([1]))


def test_scipy_roundtrip():
    g = ring(6)
    m = to_scipy(g)
    assert sparse.issparse(m)
    assert (m != m.T).nnz == 0  # symmetric
    coo = m.tocoo()
    assert from_edges(g.n, coo.row, coo.col) == g


def test_networkx_roundtrip():
    import networkx as nx

    g = ring(7)
    nxg = to_networkx(g)
    assert nx.is_connected(nxg)
    src, dst = np.array(list(nxg.edges())).T
    assert from_edges(g.n, src, dst) == g


def test_networkx_directed():
    d = from_edges(3, np.array([0, 1]), np.array([1, 2]), directed=True)
    back = to_networkx(d)
    assert back.is_directed()
    assert set(back.edges()) == {(0, 1), (1, 2)}


def test_symmetrize():
    d = from_edges(3, np.array([0, 1]), np.array([1, 2]), directed=True)
    u = symmetrize(d)
    assert not u.directed
    assert is_symmetric(u)
    assert u.num_edges == 2
    # idempotent on undirected inputs
    assert symmetrize(u) is u


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=12).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=60,
            ),
        )
    ),
    st.booleans(),
)
def test_from_edges_matches_set_of_pairs(case, directed):
    """Against a brute-force set: duplicates collapse, self-loops go,
    undirected input yields both arcs, rows come out sorted."""
    n, pairs = case
    src = np.array([u for u, _ in pairs], dtype=np.int64)
    dst = np.array([v for _, v in pairs], dtype=np.int64)
    g = from_edges(n, src, dst, directed=directed)
    want = {(u, v) for u, v in pairs if u != v}
    if not directed:
        want |= {(v, u) for u, v in want}
    assert g.n == n and g.num_directed_edges == len(want)
    for u in range(n):
        assert g.neighbors(u).tolist() == sorted(v for s, v in want if s == u)
