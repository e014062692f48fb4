"""Multilevel partitioner (ParMETIS/KaHIP stand-ins)."""

import numpy as np
import pytest

from repro.baselines import MultilevelResourceError, multilevel_partition
from repro.baselines.multilevel import _graph_growing
from repro.core.quality import edge_cut_ratio, vertex_balance
from repro.graph import from_edges, mesh3d, rmat, rand_hd, webcrawl
from repro.graph.builders import to_scipy
from repro.multilevel.kernels import contract, heavy_edge_matching
from tests.graphs import ring


def test_partition_valid_and_balanced():
    g = mesh3d(10, 10, 10)
    r = multilevel_partition(g, 8, seed=0)
    assert r.parts.shape == (g.n,)
    assert set(np.unique(r.parts)) <= set(range(8))
    assert vertex_balance(g, r.parts, 8) <= 1.04  # 3% constraint + rounding


def test_mesh_cut_quality():
    g = mesh3d(12, 12, 12)
    r = multilevel_partition(g, 8, seed=0)
    assert edge_cut_ratio(g, r.parts, 8) < 0.35


def test_high_quality_mode_coarsens_with_lp():
    g = mesh3d(10, 10, 10)
    d = multilevel_partition(g, 4, quality="default", seed=0)
    h = multilevel_partition(g, 4, quality="high", seed=0)
    assert d.quality_mode == "default" and h.quality_mode == "high"
    assert h.levels >= 2 and d.levels >= 2


def test_hierarchy_recorded():
    g = mesh3d(10, 10, 10)
    r = multilevel_partition(g, 4, seed=0)
    ns = [n for n, _ in r.history]
    assert ns[0] == g.n
    assert all(ns[i] > ns[i + 1] for i in range(len(ns) - 1))
    assert r.coarsest_n == ns[-1]


def test_deterministic():
    g = rmat(10, 12, seed=2)
    a = multilevel_partition(g, 4, seed=5)
    b = multilevel_partition(g, 4, seed=5)
    np.testing.assert_array_equal(a.parts, b.parts)


def test_skewed_graph_still_partitions():
    g = rmat(11, 16, seed=1)
    r = multilevel_partition(g, 8, seed=0)
    assert vertex_balance(g, r.parts, 8) <= 1.05


def test_validation():
    g = ring(8)
    with pytest.raises(ValueError):
        multilevel_partition(g, 0)
    with pytest.raises(ValueError):
        multilevel_partition(g, 9)
    with pytest.raises(ValueError):
        multilevel_partition(g, 2, quality="ultra")
    src = np.arange(8)
    directed = from_edges(8, src, (src + 1) % 8, directed=True)
    with pytest.raises(ValueError, match="undirected"):
        multilevel_partition(directed, 2)


def test_memory_budget_failure():
    g = rmat(11, 16, seed=1)
    with pytest.raises(MultilevelResourceError):
        multilevel_partition(g, 4, memory_budget_factor=0.5, seed=0)


def test_budget_error_reports_level_and_allocation():
    g = rmat(11, 16, seed=1)
    with pytest.raises(MultilevelResourceError) as exc:
        multilevel_partition(g, 4, memory_budget_factor=0.5, seed=0)
    err = exc.value
    # the error pinpoints WHERE the hierarchy refused to fit: the level
    # being built and the coarse-edge allocation that overflowed
    assert err.level >= 1
    assert err.requested > 0
    assert f"level {err.level}" in str(err)
    assert str(err.requested) in str(err)
    assert "budget" in str(err)


def test_stagnation_error_reports_level_and_allocation():
    # a near-edgeless graph: matching merges almost nothing, so
    # coarsening stagnates far above the coarsest target
    n = 3000
    srcs = np.arange(0, 40, 2)
    dsts = np.arange(1, 40, 2)
    g = from_edges(n, srcs, dsts)
    with pytest.raises(MultilevelResourceError) as exc:
        multilevel_partition(g, 2, seed=0)
    err = exc.value
    assert err.level == 1
    assert err.requested >= 0
    assert "stagnated" in str(err)
    assert f"level {err.level}" in str(err)


def test_matching_produces_valid_pairing():
    g = mesh3d(6, 6, 6)
    adj = to_scipy(g)
    rng = np.random.default_rng(0)
    labels = heavy_edge_matching(adj, rng)
    # each label group has size 1 or 2
    _, counts = np.unique(labels, return_counts=True)
    assert counts.max() <= 2
    # matching shrinks the mesh substantially
    assert (counts == 2).sum() * 2 > 0.5 * g.n


def test_contract_preserves_total_vertex_weight():
    g = ring(10)
    adj = to_scipy(g)
    vw = np.ones(10)
    labels = np.array([0, 0, 1, 1, 2, 2, 3, 3, 4, 4])
    coarse, cvw, mapping = contract(adj, vw, labels)
    assert coarse.shape == (5, 5)
    assert cvw.sum() == 10
    np.testing.assert_array_equal(mapping, labels)
    # contracted ring of pairs is a 5-ring with edge weight 1 per side
    assert coarse.nnz == 10


def test_graph_growing_covers_all():
    g = mesh3d(6, 6, 6)
    adj = to_scipy(g)
    parts = _graph_growing(adj, np.ones(g.n), 4, np.random.default_rng(1))
    assert parts.min() >= 0 and parts.max() < 4
    counts = np.bincount(parts, minlength=4)
    assert counts.min() > 0


def test_ring_cut_is_near_optimal():
    g = ring(64)
    r = multilevel_partition(g, 4, seed=1)
    # optimal is 4 cut edges; accept a small factor
    assert edge_cut_ratio(g, r.parts, 4) * g.num_edges <= 12


def test_randhd_good_cut():
    g = rand_hd(2048, 8, seed=1)
    r = multilevel_partition(g, 8, seed=0)
    assert edge_cut_ratio(g, r.parts, 8) < 0.15


def test_webcrawl_completes():
    g = webcrawl(2048, 16, seed=1)
    r = multilevel_partition(g, 8, seed=0)
    assert vertex_balance(g, r.parts, 8) <= 1.06
