"""Property-based CSR invariants for arbitrary edge lists."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graph import from_edges
from tests.graphs import is_symmetric


@st.composite
def edge_lists(draw, max_n=30, max_m=80):
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    src = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1), min_size=m, max_size=m
        )
    )
    dst = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1), min_size=m, max_size=m
        )
    )
    return n, np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)


@settings(max_examples=80, deadline=None)
@given(edge_lists())
def test_from_edges_invariants(case):
    n, src, dst = case
    g = from_edges(n, src, dst)
    # offsets monotone, adjacency within range, sorted per row
    assert g.offsets[0] == 0 and g.offsets[-1] == g.adj.size
    assert np.all(np.diff(g.offsets) >= 0)
    if g.adj.size:
        assert g.adj.min() >= 0 and g.adj.max() < n
    for v in range(n):
        row = g.neighbors(v)
        assert np.all(np.diff(row) > 0)  # strictly sorted = deduped
        assert v not in row  # no self loops
    # symmetric storage
    assert is_symmetric(g)
    # edge set equals the cleaned input edge set
    mask = src != dst
    expect = set()
    for u, v in zip(src[mask], dst[mask]):
        expect.add((min(u, v), max(u, v)))
    got = set(zip(*map(lambda a: a.tolist(), g.unique_edges())))
    assert got == expect


@settings(max_examples=50, deadline=None)
@given(edge_lists())
def test_degree_sum_equals_twice_edges(case):
    n, src, dst = case
    g = from_edges(n, src, dst)
    assert int(g.degrees.sum()) == 2 * g.num_edges


@settings(max_examples=50, deadline=None)
@given(edge_lists())
def test_reversed_involution(case):
    n, src, dst = case
    g = from_edges(n, src, dst)
    assert g.reversed().reversed() == g
