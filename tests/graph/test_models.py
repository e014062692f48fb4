"""Watts–Strogatz / Barabási–Albert models."""

import pytest

from repro.graph import (
    barabasi_albert,
    bfs_levels,
    erdos_renyi,
    watts_strogatz,
)
from repro.graph.metrics import approximate_diameter


def test_ws_lattice_limit():
    g = watts_strogatz(100, 6, 0.0, seed=1)
    # pure lattice: every vertex has degree exactly k
    assert g.degrees.min() == 6 and g.degrees.max() == 6
    assert approximate_diameter(g, sweeps=4, seed=0) >= 100 // 6 - 1


def test_ws_small_world_effect():
    lattice = watts_strogatz(512, 8, 0.0, seed=2)
    rewired = watts_strogatz(512, 8, 0.2, seed=2)
    d_lat = approximate_diameter(lattice, sweeps=4, seed=0)
    d_sw = approximate_diameter(rewired, sweeps=4, seed=0)
    assert d_sw < d_lat / 2  # shortcuts collapse the diameter


def test_ws_determinism_and_validation():
    a = watts_strogatz(64, 4, 0.3, seed=9)
    b = watts_strogatz(64, 4, 0.3, seed=9)
    assert a == b
    with pytest.raises(ValueError):
        watts_strogatz(3, 4)
    with pytest.raises(ValueError):
        watts_strogatz(64, 3)  # odd k
    with pytest.raises(ValueError):
        watts_strogatz(64, 4, rewire=1.5)


def test_ba_power_law_skew():
    g = barabasi_albert(2048, 8, seed=3)
    # heavy tail relative to an ER graph of the same density
    er = erdos_renyi(2048, int(g.avg_degree), seed=3)
    assert g.max_degree > 3 * er.max_degree
    # early vertices dominate (preferential attachment)
    assert g.degrees[:16].mean() > 5 * g.degrees[-16:].mean()


def test_ba_connected():
    g = barabasi_albert(512, 4, seed=5)
    # attachment keeps it connected: vertex 0 reaches everything
    assert (bfs_levels(g, 0) >= 0).all()


def test_ba_validation_and_determinism():
    a = barabasi_albert(128, 4, seed=1)
    b = barabasi_albert(128, 4, seed=1)
    assert a == b
    with pytest.raises(ValueError):
        barabasi_albert(1, 4)
    with pytest.raises(ValueError):
        barabasi_albert(16, 0)
    # m_attach larger than n clamps rather than failing
    g = barabasi_albert(8, 100, seed=1)
    assert g.n == 8
