"""Graph (CSR) invariants and operations."""

import numpy as np
import pytest

from repro.graph import Graph, from_edges
from tests.graphs import is_symmetric, path_graph, ring, star


def triangle():
    return from_edges(3, np.array([0, 1, 2]), np.array([1, 2, 0]))


def test_basic_counts():
    g = triangle()
    assert g.n == 3
    assert g.num_edges == 3
    assert g.num_directed_edges == 6
    np.testing.assert_array_equal(g.degrees, [2, 2, 2])
    assert g.avg_degree == pytest.approx(2.0)
    assert g.max_degree == 2


def test_neighbors_sorted_view():
    g = triangle()
    np.testing.assert_array_equal(g.neighbors(0), [1, 2])
    with pytest.raises(ValueError):
        g.neighbors(0)[0] = 5  # read-only


def test_empty_graph():
    g = from_edges(4, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    assert g.n == 4 and g.num_edges == 0
    assert g.max_degree == 0
    assert is_symmetric(g)


def test_validation_rejects_bad_offsets():
    with pytest.raises(ValueError):
        Graph(np.array([1, 2]), np.array([0]))
    with pytest.raises(ValueError):
        Graph(np.array([0, 2, 1]), np.array([0, 0]))
    with pytest.raises(ValueError):
        Graph(np.array([0, 1]), np.array([5]))  # target out of range


def test_edges_roundtrip():
    g = ring(5)
    src, dst = g.edges()
    g2 = from_edges(5, src, dst)
    assert g == g2


def test_unique_edges_each_once():
    g = ring(6)
    src, dst = g.unique_edges()
    assert len(src) == 6
    assert np.all(src < dst)


def test_is_symmetric_and_self_loops():
    g = ring(4)
    assert is_symmetric(g)
    assert not g.has_self_loops()
    d = from_edges(3, np.array([0]), np.array([1]), directed=True)
    assert not is_symmetric(d)


def test_reversed_directed():
    d = from_edges(3, np.array([0, 1]), np.array([1, 2]), directed=True)
    r = d.reversed()
    src, dst = r.edges()
    assert set(zip(src.tolist(), dst.tolist())) == {(1, 0), (2, 1)}


def test_reversed_undirected_is_same_edge_set():
    g = star(5)
    r = g.reversed()
    assert sorted(map(tuple, np.column_stack(g.edges()).tolist())) == sorted(
        map(tuple, np.column_stack(r.edges()).tolist())
    )


def test_neighbor_block_matches_loop():
    g = star(8)
    verts = np.array([0, 3, 7])
    neigh, counts = g.neighbor_block(verts)
    expected = np.concatenate([g.neighbors(v) for v in verts])
    np.testing.assert_array_equal(neigh, expected)
    np.testing.assert_array_equal(counts, [7, 1, 1])


def test_repr_and_iter():
    g = path_graph(3)
    assert "n=3" in repr(g)
    assert list(g) == [0, 1, 2]


def test_equality_and_hash():
    a, b = ring(4), ring(4)
    assert a == b
    assert a != path_graph(4)
    assert isinstance(hash(a), int)


def test_arrays_frozen():
    g = ring(4)
    with pytest.raises(ValueError):
        g.adj[0] = 99
    with pytest.raises(ValueError):
        g.offsets[0] = 1
