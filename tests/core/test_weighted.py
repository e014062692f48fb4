"""Vertex-weighted partitioning (the PuLP family's weighted extension)."""

import numpy as np
import pytest

from repro.core import PulpParams, xtrapulp
from repro.core.quality import vertex_balance, vertex_counts
from repro.graph import mesh3d, rmat
from tests.graphs import ring


@pytest.fixture(scope="module")
def g():
    return mesh3d(12, 12, 12)


def heavy_weights(n, seed=7):
    rng = np.random.default_rng(seed)
    return 1.0 + rng.pareto(2.0, n) * 3.0


def test_weighted_balance_constraint(g):
    w = heavy_weights(g.n)
    res = xtrapulp(g, 8, nprocs=4, vertex_weights=w)
    vb = vertex_balance(g, res.parts, 8, weights=w)
    assert vb <= 1.10 * 1.15  # the weighted constraint, small BSP slack


def test_weighted_beats_unweighted_on_weighted_metric(g):
    w = heavy_weights(g.n)
    unweighted = xtrapulp(g, 8, nprocs=4)
    weighted = xtrapulp(g, 8, nprocs=4, vertex_weights=w)
    vb_u = vertex_balance(g, unweighted.parts, 8, weights=w)
    vb_w = vertex_balance(g, weighted.parts, 8, weights=w)
    assert vb_w <= max(vb_u, 1.15)


def test_unit_weights_equal_default():
    g2 = rmat(10, 14, seed=2)
    a = xtrapulp(g2, 4, nprocs=2, params=PulpParams(seed=1))
    b = xtrapulp(
        g2, 4, nprocs=2, params=PulpParams(seed=1),
        vertex_weights=np.ones(g2.n),
    )
    np.testing.assert_array_equal(a.parts, b.parts)


def test_single_giant_weight():
    # one vertex holding ~an entire part's share must not break anything
    g2 = ring(64)
    w = np.ones(64)
    w[10] = 16.0
    res = xtrapulp(g2, 4, nprocs=2, vertex_weights=w)
    counts = vertex_counts(g2, res.parts, 4, weights=w)
    assert counts.sum() == pytest.approx(w.sum())
    # the giant's part carries it; others share the rest
    assert counts.max() <= 16.0 + 24.0  # giant + a few neighbors at worst


def test_weighted_quality_still_reasonable(g):
    w = heavy_weights(g.n)
    res = xtrapulp(g, 8, nprocs=4, vertex_weights=w)
    assert res.quality().cut_ratio < 0.35  # mesh stays well-cut


def test_weight_validation(g):
    with pytest.raises(ValueError):
        xtrapulp(g, 4, nprocs=2, vertex_weights=np.ones(3))
    bad = np.ones(g.n)
    bad[0] = 0.0
    with pytest.raises(ValueError):
        xtrapulp(g, 4, nprocs=2, vertex_weights=bad)
    with pytest.raises(ValueError):
        xtrapulp(g, 4, nprocs=2, vertex_weights=-np.ones(g.n))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_weights_rejected(g, value):
    w = np.ones(g.n)
    w[5] = value
    with pytest.raises(ValueError,
                       match=f"must be finite; 1 are not, the first "
                             f"{value} at vertex 5"):
        xtrapulp(g, 4, nprocs=2, vertex_weights=w)


def test_weighted_deterministic(g):
    w = heavy_weights(g.n)
    a = xtrapulp(g, 4, nprocs=3, vertex_weights=w)
    b = xtrapulp(g, 4, nprocs=3, vertex_weights=w)
    np.testing.assert_array_equal(a.parts, b.parts)


def test_weighted_with_initial_parts(g):
    from repro.baselines import vertex_block_partition

    w = heavy_weights(g.n)
    start = vertex_block_partition(g, 8)
    res = xtrapulp(
        g, 8, nprocs=2, vertex_weights=w, initial_parts=start,
        params=PulpParams(outer_iters=1, balance_iters=5, refine_iters=5),
    )
    vb_before = vertex_balance(g, start, 8, weights=w)
    vb_after = vertex_balance(g, res.parts, 8, weights=w)
    # balance may drift *within* the constraint while cut improves, but
    # must never leave the feasible region the start satisfied
    assert vb_after <= max(vb_before, 1.10) + 1e-2
    assert res.quality().cut_ratio <= 0.35


def test_edge_balance_blocks_targets_by_vertex_weight():
    """A heavy vertex must not be aimed at a part that has room for a unit
    vertex but not for *it*: the part is blocked for that vertex and its
    second choice gets the move (the edge stage used to test ``est + 1``,
    lose the admission on weight, and leave the vertex where it was).

    Vertex 0 (weight 3, part 0) has three neighbours in part 1 (weight 5
    of ``Maxv`` 7 — room for 1, not for 3) and one in part 2 (weight 2).
    """
    from repro.core.lp import SPECS, lp_phase
    from repro.core.state import RankState
    from repro.dist import build_dist_graph, make_distribution
    from repro.graph import from_edges
    from repro.simmpi import create_runtime

    edges = np.array([(0, 5), (0, 6), (0, 7), (0, 10), (10, 11), (11, 1),
                      (1, 2), (3, 4), (2, 3), (1, 4), (1, 3)])
    graph = from_edges(12, edges[:, 0], edges[:, 1])
    labels = np.array([0] * 5 + [1] * 5 + [2] * 2)
    weights = np.ones(12)
    weights[0] = 3.0

    def main(comm):
        dg = build_dist_graph(comm, graph, make_distribution("block", 12, 1))
        state = RankState(dg=dg, num_parts=3, params=PulpParams())
        state.parts[:] = labels
        state.set_vertex_weights(weights, float(weights.sum()))
        lp_phase(comm, state, SPECS["edge_balance"], 1)
        return state.parts.copy()

    rt = create_runtime("serial", nprocs=1)
    try:
        (parts,) = rt.run(main)
    finally:
        rt.close()
    assert parts[0] == 2
    assert np.bincount(parts, weights=weights).max() <= 7.0
