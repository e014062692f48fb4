"""Vectorized multi-range gather helpers (hot-path primitives)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graph.gather import (
    expand_ranges,
    neighbor_gather,
    neighbor_gather_with_sources,
    sorted_unique,
)
from repro.graph import rmat


def test_expand_ranges_basic():
    idx = expand_ranges(np.array([0, 10, 20]), np.array([2, 0, 3]))
    np.testing.assert_array_equal(idx, [0, 1, 20, 21, 22])


def test_expand_ranges_empty():
    assert expand_ranges(np.array([], dtype=int), np.array([], dtype=int)).size == 0
    assert expand_ranges(np.array([5]), np.array([0])).size == 0


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1000),
            st.integers(min_value=0, max_value=8),
        ),
        min_size=0,
        max_size=20,
    )
)
def test_expand_ranges_matches_python_loop(ranges):
    starts = np.array([r[0] for r in ranges], dtype=np.int64)
    counts = np.array([r[1] for r in ranges], dtype=np.int64)
    expected = [s + i for s, c in ranges for i in range(c)]
    np.testing.assert_array_equal(expand_ranges(starts, counts), expected)


def test_neighbor_gather_matches_loop():
    g = rmat(8, 10, seed=9)
    verts = np.array([0, 5, 17, 200])
    neigh, counts = neighbor_gather(g.offsets, g.adj, verts)
    expected = np.concatenate([g.neighbors(int(v)) for v in verts])
    np.testing.assert_array_equal(neigh, expected)
    np.testing.assert_array_equal(
        counts, [g.neighbors(int(v)).size for v in verts]
    )


def test_neighbor_gather_with_sources():
    g = rmat(8, 10, seed=9)
    verts = np.array([3, 100])
    neigh, sources, counts = neighbor_gather_with_sources(
        g.offsets, g.adj, verts
    )
    assert neigh.size == sources.size == counts.sum()
    # sources index *positions in verts*
    assert set(np.unique(sources)) <= {0, 1}
    np.testing.assert_array_equal(
        neigh[sources == 0], g.neighbors(3)
    )
    np.testing.assert_array_equal(
        neigh[sources == 1], g.neighbors(100)
    )


def _assert_same_as_np_unique(a):
    got, want = sorted_unique(a), np.unique(a)
    assert got.dtype == want.dtype == a.dtype
    np.testing.assert_array_equal(got, want)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([np.int64, np.int32, np.uint32]),
    st.lists(st.integers(min_value=-50, max_value=50), max_size=60),
    st.booleans(),
    st.booleans(),
)
def test_sorted_unique_matches_np_unique(dtype, values, wide, presorted):
    info = np.iinfo(dtype)
    if wide:  # spread to the dtype's extremes (negative where signed)
        values = [v * (info.max // 50) for v in values]
    a = np.array(values, dtype=np.int64).clip(info.min, info.max).astype(dtype)
    if presorted:
        a.sort()
    _assert_same_as_np_unique(a)


def test_sorted_unique_edge_shapes():
    for dtype in (np.int64, np.int32, np.uint32):
        _assert_same_as_np_unique(np.empty(0, dtype=dtype))
        _assert_same_as_np_unique(np.array([7], dtype=dtype))
        _assert_same_as_np_unique(np.full(9, 3, dtype=dtype))
    _assert_same_as_np_unique(np.array([-3, 5, -3, -9, 5], dtype=np.int64))
    # flattens like np.unique, and never aliases or reorders its input
    a = np.array([[4, 1], [1, 4]])
    _assert_same_as_np_unique(a)
    np.testing.assert_array_equal(a, [[4, 1], [1, 4]])
