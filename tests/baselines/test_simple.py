"""Random / vertex-block / edge-block partitioning."""

import numpy as np
import pytest

from repro.baselines import (
    edge_block_partition,
    random_partition,
    vertex_block_partition,
)
from repro.core.quality import (
    edge_counts,
    edge_cut_ratio,
    vertex_balance,
)
from repro.graph import rmat, webcrawl
from tests.graphs import ring, star


def test_random_partition_range_and_seed():
    g = rmat(9, 12, seed=1)
    a = random_partition(g, 7, seed=3)
    b = random_partition(g, 7, seed=3)
    c = random_partition(g, 7, seed=4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.min() >= 0 and a.max() < 7


def test_random_partition_cut_near_theory():
    # expected cut ratio ≈ (p-1)/p (the paper's reference point)
    g = rmat(11, 16, seed=2)
    for p in (2, 8):
        ratio = edge_cut_ratio(g, random_partition(g, p, seed=0), p)
        assert ratio == pytest.approx((p - 1) / p, abs=0.03)


def test_vertex_block_balanced_vertices():
    g = rmat(9, 12, seed=1)
    parts = vertex_block_partition(g, 6)
    assert vertex_balance(g, parts, 6) <= 1.01
    # contiguous ids
    assert np.all(np.diff(parts) >= 0)


def test_edge_block_balanced_edges():
    g = webcrawl(4096, 16, seed=2)
    parts = edge_block_partition(g, 8)
    counts = edge_counts(g, parts, 8)
    assert counts.max() / (counts.sum() / 8) < 1.3
    assert np.all(np.diff(parts) >= 0)  # still contiguous


def test_edge_block_on_star():
    # the hub dominates: its block must absorb nearly all edges
    g = star(100)
    parts = edge_block_partition(g, 4)
    counts = edge_counts(g, parts, 4)
    assert counts[parts[0]] >= counts.sum() / 2


def test_block_partitions_exploit_crawl_locality():
    g = webcrawl(4096, 16, seed=5)
    p = 8
    block = edge_cut_ratio(g, vertex_block_partition(g, p), p)
    rand = edge_cut_ratio(g, random_partition(g, p, seed=0), p)
    assert block < 0.5 * rand  # the WDC12 signature from §V.B


def test_validation():
    g = ring(6)
    for fn in (random_partition, vertex_block_partition, edge_block_partition):
        with pytest.raises(ValueError):
            fn(g, 0)


def test_edge_block_zero_edges_falls_back():
    from repro.graph import from_edges

    g = from_edges(5, np.array([], dtype=int), np.array([], dtype=int))
    parts = edge_block_partition(g, 2)
    assert vertex_balance(g, parts, 2) <= 1.2
