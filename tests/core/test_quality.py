"""Quality metrics: cross-checked against networkx and hand computations."""

import numpy as np
import pytest

from repro.core.quality import (
    cut_edges_per_part,
    edge_balance,
    edge_counts,
    edge_cut,
    edge_cut_ratio,
    partition_quality,
    performance_ratios,
    scaled_max_cut_ratio,
    vertex_balance,
    vertex_counts,
)
from repro.graph import from_edges, rmat
from tests.graphs import ring


def test_edge_cut_ring():
    g = ring(8)
    parts = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    assert edge_cut(g, parts, 2) == 2
    assert edge_cut_ratio(g, parts, 2) == pytest.approx(2 / 8)


def test_edge_cut_matches_networkx():
    import networkx as nx
    from tests.graphs import to_networkx

    g = rmat(9, 12, seed=8)
    rng = np.random.default_rng(0)
    parts = rng.integers(0, 4, size=g.n)
    nxg = to_networkx(g)
    sets = [set(np.flatnonzero(parts == k).tolist()) for k in range(4)]
    ref = sum(
        nx.cut_size(nxg, sets[i], sets[j])
        for i in range(4)
        for j in range(i + 1, 4)
    )
    assert edge_cut(g, parts, 4) == ref


def test_cut_edges_per_part():
    g = ring(8)
    parts = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    np.testing.assert_array_equal(cut_edges_per_part(g, parts, 2), [2, 2])
    # each cut edge counted once per endpoint part
    assert scaled_max_cut_ratio(g, parts, 2) == pytest.approx(2 / (8 / 2))


def test_cut_per_part_sums():
    g = rmat(9, 12, seed=1)
    rng = np.random.default_rng(1)
    parts = rng.integers(0, 8, size=g.n)
    per_part = cut_edges_per_part(g, parts, 8)
    assert per_part.sum() == 2 * edge_cut(g, parts, 8)


def test_vertex_and_edge_counts():
    g = ring(6)
    parts = np.array([0, 0, 1, 1, 1, 1])
    np.testing.assert_array_equal(vertex_counts(g, parts, 2), [2, 4])
    np.testing.assert_array_equal(edge_counts(g, parts, 2), [4, 8])


def test_balance_metrics():
    g = ring(8)
    perfect = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    assert vertex_balance(g, perfect, 2) == pytest.approx(1.0)
    assert edge_balance(g, perfect, 2) == pytest.approx(1.0)
    skewed = np.array([0, 0, 0, 0, 0, 0, 1, 1])
    assert vertex_balance(g, skewed, 2) == pytest.approx(6 / 4)


def test_partition_quality_bundle():
    g = ring(8)
    parts = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    q = partition_quality(g, parts, 2)
    assert q.cut == 2
    assert q.cut_ratio == pytest.approx(0.25)
    assert q.vertex_balance == pytest.approx(1.0)
    assert "cut=2" in q.formatted()


def test_quality_validates_parts():
    g = ring(4)
    with pytest.raises(ValueError):
        edge_cut(g, np.array([0, 1]), 2)
    with pytest.raises(ValueError):
        edge_cut(g, np.array([0, 1, 2, 5]), 3)


def test_performance_ratios():
    # method A is best everywhere → ratio exactly 1
    results = {"A": [1.0, 2.0], "B": [2.0, 4.0]}
    ratios = performance_ratios(results)
    assert ratios["A"] == pytest.approx(1.0)
    assert ratios["B"] == pytest.approx(2.0)


def test_performance_ratios_geometric():
    results = {"A": [1.0, 4.0], "B": [2.0, 2.0]}
    ratios = performance_ratios(results)
    # per-test best is the column minimum: (1.0, 2.0)
    assert ratios["A"] == pytest.approx(np.sqrt(1.0 * 2.0))
    assert ratios["B"] == pytest.approx(np.sqrt(2.0 * 1.0))


def test_performance_ratios_validation():
    assert performance_ratios({}) == {}
    with pytest.raises(ValueError):
        performance_ratios({"A": []})


def test_disconnected_graph_metrics():
    g = from_edges(4, np.array([0]), np.array([1]))
    parts = np.array([0, 1, 0, 1])
    assert edge_cut(g, parts, 2) == 1
    assert edge_cut_ratio(g, parts, 2) == 1.0
