"""Distributed SpMV: correctness vs scipy, layout semantics, metering."""

import numpy as np
import pytest

from repro.baselines import random_partition, vertex_block_partition
from repro.graph import mesh3d, rmat, webcrawl
from repro.graph.builders import to_scipy
from repro.spmv import Layout2D, grid_shape, run_spmv
from repro.spmv.dist_spmv import reference_x


@pytest.fixture(scope="module")
def g():
    return rmat(10, 14, seed=3)


@pytest.fixture(scope="module")
def ref(g):
    return to_scipy(g) @ reference_x(g.n)


def test_grid_shape():
    assert grid_shape(16) == (4, 4)
    assert grid_shape(8) == (2, 4)
    assert grid_shape(7) == (1, 7)
    assert grid_shape(1) == (1, 1)
    with pytest.raises(ValueError):
        grid_shape(0)


@pytest.mark.parametrize("layout", ["1d", "2d"])
@pytest.mark.parametrize("nprocs", [1, 4, 6])
@pytest.mark.parametrize("strategy", ["block", "random"])
def test_spmv_matches_scipy(g, ref, layout, nprocs, strategy):
    parts = (
        vertex_block_partition(g, nprocs)
        if strategy == "block"
        else random_partition(g, nprocs, seed=0)
    )
    r = run_spmv(g, parts, layout=layout, nprocs=nprocs, iters=2)
    np.testing.assert_allclose(r.y, ref, atol=1e-10)


def test_spmv_partition_layout(g, ref):
    from repro.core import xtrapulp

    parts = xtrapulp(g, 4, nprocs=2).parts
    for layout in ("1d", "2d"):
        r = run_spmv(g, parts, layout=layout, nprocs=4, iters=2)
        np.testing.assert_allclose(r.y, ref, atol=1e-10)


def test_spmv_validation(g):
    with pytest.raises(ValueError):
        run_spmv(g, np.zeros(3, dtype=int), nprocs=2)
    with pytest.raises(ValueError):
        run_spmv(g, np.full(g.n, 5), nprocs=2)
    with pytest.raises(ValueError):
        run_spmv(g, np.zeros(g.n, dtype=int), layout="3d", nprocs=2)


def test_good_partition_lowers_1d_volume():
    g2 = webcrawl(4096, 16, seed=1)
    from repro.core import xtrapulp

    parts = xtrapulp(g2, 8, nprocs=4).parts
    rand = random_partition(g2, 8, seed=0)
    r_good = run_spmv(g2, parts, layout="1d", nprocs=8, iters=2)
    r_rand = run_spmv(g2, rand, layout="1d", nprocs=8, iters=2)
    vol = lambda r: r.stats.filtered(["spmv"]).total_bytes
    assert vol(r_good) < 0.6 * vol(r_rand)


def test_2d_caps_fanout_on_random_partition():
    """2-D layouts bound each x entry's fan-out by the grid dimensions —
    for a random partition at larger p, total expand+fold volume drops
    versus 1-D (Table III's 2D-Rand vs 1D-Rand effect)."""
    g2 = rmat(12, 16, seed=5)
    rand = random_partition(g2, 16, seed=0)
    r1 = run_spmv(g2, rand, layout="1d", nprocs=16, iters=2)
    r2 = run_spmv(g2, rand, layout="2d", nprocs=16, iters=2)
    vol = lambda r: r.stats.filtered(["spmv"]).total_bytes
    assert vol(r2) < vol(r1)


def test_mesh_block_1d_already_cheap():
    g2 = mesh3d(12, 12, 12)
    block = vertex_block_partition(g2, 8)
    rand = random_partition(g2, 8, seed=0)
    rb = run_spmv(g2, block, layout="1d", nprocs=8, iters=2)
    rr = run_spmv(g2, rand, layout="1d", nprocs=8, iters=2)
    vol = lambda r: r.stats.filtered(["spmv"]).total_bytes
    # "Regular meshes such as nlpkkt240 … 1D-Rand partitioning fares poorly"
    assert vol(rb) < 0.3 * vol(rr)


def test_layout2d_covers_all_nonzeros(g):
    parts = random_partition(g, 4, seed=1)
    total = 0
    for r in range(4):
        lay = Layout2D.build(g, parts, rank=r, nprocs=4)
        total += lay.matrix.nnz
    assert total == g.num_directed_edges


def test_modeled_per_iteration(g):
    parts = vertex_block_partition(g, 4)
    r = run_spmv(g, parts, nprocs=4, iters=10)
    assert r.modeled_per_iteration == pytest.approx(r.modeled_seconds / 10)
    assert r.iters == 10
