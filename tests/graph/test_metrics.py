"""BFS, diameter, Table I stats."""

import numpy as np
import pytest

from repro.graph import (
    bfs_levels,
    approximate_diameter,
    from_edges,
    graph_stats_row,
)
from tests.graphs import path_graph, ring, star


def test_bfs_levels_path():
    g = path_graph(5)
    np.testing.assert_array_equal(bfs_levels(g, 0), [0, 1, 2, 3, 4])
    np.testing.assert_array_equal(bfs_levels(g, 2), [2, 1, 0, 1, 2])


def test_bfs_levels_unreachable():
    g = from_edges(4, np.array([0]), np.array([1]))
    levels = bfs_levels(g, 0)
    np.testing.assert_array_equal(levels, [0, 1, -1, -1])


def test_bfs_validates_source():
    with pytest.raises(ValueError):
        bfs_levels(ring(4), 9)


def test_bfs_matches_networkx():
    import networkx as nx
    from repro.graph import rmat
    from tests.graphs import to_networkx

    g = rmat(9, 12, seed=2)
    nxg = to_networkx(g)
    levels = bfs_levels(g, 0)
    ref = nx.single_source_shortest_path_length(nxg, 0)
    for v in range(g.n):
        assert levels[v] == ref.get(v, -1)


def test_approximate_diameter_exact_on_path():
    g = path_graph(20)
    assert approximate_diameter(g, sweeps=4, seed=0) == 19


def test_approximate_diameter_ring():
    g = ring(20)
    assert approximate_diameter(g, sweeps=4, seed=0) == 10


def test_approximate_diameter_empty():
    g = from_edges(0, np.array([], dtype=int), np.array([], dtype=int))
    assert approximate_diameter(g) == 0


def test_graph_stats_row():
    g = ring(10)
    row = graph_stats_row("ring10", g, diameter_sweeps=4)
    assert row.n == 10 and row.m == 10
    assert row.davg == pytest.approx(2.0)
    assert row.dmax == 2
    assert row.diameter == 5
    assert "ring10" in row.formatted()
