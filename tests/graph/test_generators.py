"""Generator structural properties per graph class."""

import numpy as np
import pytest

from repro.graph import erdos_renyi, mesh3d, rand_hd, rmat, social, webcrawl
from repro.graph.metrics import approximate_diameter
from tests.graphs import grid2d, is_symmetric, path_graph, ring, star


def test_rmat_size_and_determinism():
    g1 = rmat(10, 16, seed=3)
    g2 = rmat(10, 16, seed=3)
    g3 = rmat(10, 16, seed=4)
    assert g1.n == 1024
    assert g1 == g2
    assert g1 != g3
    # davg close to requested (dedup removes a bit)
    assert 8 <= g1.avg_degree <= 16


def test_rmat_skewed_degrees():
    g = rmat(12, 16, seed=1)
    # heavy-tail: max degree far above average
    assert g.max_degree > 10 * g.avg_degree


def test_rmat_validates():
    with pytest.raises(ValueError):
        rmat(0, 8)
    with pytest.raises(ValueError):
        rmat(4, 8, a=0.9, b=0.9, c=0.9)


def test_erdos_renyi_flat_degrees():
    g = erdos_renyi(4096, 16, seed=2)
    assert g.n == 4096
    # near-Poisson: max degree within a small factor of mean
    assert g.max_degree < 4 * g.avg_degree
    assert 10 <= g.avg_degree <= 16


def test_rand_hd_locality_and_diameter():
    g = rand_hd(2048, 8, seed=5)
    src, dst = g.edges()
    assert np.abs(src - dst).max() < 8
    # much larger diameter than a small-world graph of equal size
    d_hd = approximate_diameter(g, sweeps=4, seed=0)
    d_sw = approximate_diameter(erdos_renyi(2048, 8, seed=5), sweeps=4, seed=0)
    assert d_hd > 4 * d_sw


def test_rand_hd_validates():
    with pytest.raises(ValueError):
        rand_hd(0, 8)
    with pytest.raises(ValueError):
        rand_hd(10, 0)


def test_grid2d():
    g = grid2d(4, 5)
    assert g.n == 20
    assert g.num_edges == 4 * 4 + 3 * 5  # horizontal + vertical
    g9 = grid2d(4, 5, diagonals=True)
    assert g9.num_edges > g.num_edges


def test_mesh3d_stencils():
    g7 = mesh3d(6, 6, 6, stencil=7)
    g13 = mesh3d(6, 6, 6, stencil=13)
    g27 = mesh3d(6, 6, 6, stencil=27)
    assert g7.n == g13.n == g27.n == 216
    assert g7.num_edges < g13.num_edges < g27.num_edges
    # interior degree ~= 12-13 for the 13-point stencil (paper davg 13)
    assert 9 <= g13.avg_degree <= 13
    with pytest.raises(ValueError):
        mesh3d(4, 4, 4, stencil=5)


def test_mesh_is_connected_uniform_degree():
    g = mesh3d(5, 5, 5)
    assert g.degrees.min() >= 3
    levels_reachable = approximate_diameter(g, sweeps=2, seed=1)
    assert levels_reachable >= 4  # roughly the lattice diameter


def test_social_no_id_locality():
    g = social(2048, 16, seed=7)
    assert g.n == 2048
    src, dst = g.edges()
    # random permutation → endpoint distance spread over the whole range
    assert np.abs(src - dst).mean() > g.n / 10
    assert g.max_degree > 5 * g.avg_degree  # skew retained


def test_social_directed_flag():
    g = social(512, 12, seed=1, directed=True)
    assert g.directed


def test_webcrawl_block_locality():
    g = webcrawl(4096, 16, seed=3)
    src, dst = g.edges()
    # crawl order: most edges stay nearby (within-site)
    frac_near = float((np.abs(src - dst) < 256).mean())
    assert frac_near > 0.5


def test_webcrawl_validates():
    with pytest.raises(ValueError):
        webcrawl(100, 8, intra_fraction=1.5)


def test_tiny_shapes():
    assert ring(5).num_edges == 5
    assert path_graph(5).num_edges == 4
    assert star(5).num_edges == 4
    for bad in (ring, star):
        with pytest.raises(ValueError):
            bad(1)
    with pytest.raises(ValueError):
        path_graph(1)


@pytest.mark.parametrize("gen", [
    lambda: rmat(9, 12, seed=11),
    lambda: erdos_renyi(512, 12, seed=11),
    lambda: rand_hd(512, 8, seed=11),
    lambda: social(512, 12, seed=11),
    lambda: webcrawl(512, 12, seed=11),
    lambda: mesh3d(8, 8, 8),
])
def test_all_generators_produce_simple_symmetric_graphs(gen):
    g = gen()
    assert not g.directed
    assert is_symmetric(g)
    assert not g.has_self_loops()
    src, dst = g.edges()
    keys = src * g.n + dst
    assert np.unique(keys).size == keys.size  # no parallel edges
