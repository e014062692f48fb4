"""RankState: targets, block iteration, tally matrices vs reference."""

import numpy as np
import pytest

from repro.core.params import PulpParams
from repro.core.state import UNASSIGNED, RankState
from repro.dist import build_dist_graph, make_distribution
from repro.graph import rmat, ring
from repro.simmpi import Runtime


def make_state(graph, p, nprocs=2, params=None, seed=0):
    dist = make_distribution("random", graph.n, nprocs, seed=seed)
    params = params or PulpParams(seed=seed)

    def main(comm):
        dg = build_dist_graph(comm, graph, dist)
        return RankState(dg=dg, num_parts=p, params=params), comm

    # single collection run: return states via Runtime
    states = Runtime(nprocs).run(
        lambda comm: RankState(
            dg=build_dist_graph(comm, graph, dist), num_parts=p, params=params
        )
    )
    return states


def test_initial_parts_unassigned():
    g = ring(12)
    for state in make_state(g, 3):
        assert np.all(state.parts == UNASSIGNED)
        assert state.parts.size == state.dg.n_total


def test_targets_match_formula():
    g = rmat(8, 10, seed=1)
    (state, *_rest) = make_state(g, 4, nprocs=1)
    assert state.target_max_vertices == pytest.approx(1.10 * g.n / 4)
    assert state.target_max_edges == pytest.approx(
        1.10 * 2 * g.num_edges / 4
    )


def test_iter_blocks_covers_all_vertices():
    g = rmat(8, 10, seed=1)
    (state,) = make_state(g, 4, nprocs=1, params=PulpParams(block_size=37))
    seen = np.concatenate([lids for lids, _ in state.iter_blocks()])
    np.testing.assert_array_equal(seen, np.arange(state.dg.n_local))
    # every block but the last has exactly block_size entries
    sizes = [lids.size for lids, _ in state.iter_blocks()]
    assert all(s == 37 for s in sizes[:-1])


def test_block_part_counts_against_reference():
    g = rmat(8, 10, seed=3)
    (state,) = make_state(g, 5, nprocs=1)
    rng = np.random.default_rng(0)
    state.parts[: state.dg.n_local] = rng.integers(0, 5, state.dg.n_local)
    lids = np.arange(40, dtype=np.int64)
    weighted, plain = state.block_part_counts(lids, degree_weighted=True)
    for i, lid in enumerate(lids):
        neigh = state.dg.neighbors(int(lid))
        for k in range(5):
            members = neigh[state.parts[neigh] == k]
            assert plain[i, k] == members.size
            assert weighted[i, k] == pytest.approx(
                float(state.dg.degrees_full[members].sum())
            )


def test_block_part_counts_ignores_unassigned():
    g = ring(10)
    (state,) = make_state(g, 2, nprocs=1)
    state.parts[:] = UNASSIGNED
    state.parts[0] = 1
    lids = np.arange(state.dg.n_local, dtype=np.int64)
    _, plain = state.block_part_counts(lids, degree_weighted=False)
    assert plain.sum() == 2  # only vertex 0's two neighbors see a label


def test_compute_sizes_cross_check():
    g = rmat(9, 12, seed=4)
    p = 4
    dist = make_distribution("random", g.n, 3, seed=1)
    params = PulpParams(seed=1)

    def main(comm):
        dg = build_dist_graph(comm, g, dist)
        state = RankState(dg=dg, num_parts=p, params=params)
        rng = np.random.default_rng(42)  # same on all ranks
        global_parts = rng.integers(0, p, g.n)
        state.parts[: dg.n_local] = global_parts[dg.owned_gids]
        state.parts[dg.n_local:] = global_parts[dg.ghost_gids]
        return (
            state.compute_vertex_sizes(comm),
            state.compute_edge_sizes(comm),
            state.compute_cut_sizes(comm),
            global_parts,
        )

    sv, se, sc, parts = Runtime(3).run(main)[0]
    np.testing.assert_array_equal(sv, np.bincount(parts, minlength=p))
    np.testing.assert_array_equal(
        se,
        np.bincount(parts, weights=g.degrees.astype(float), minlength=p),
    )
    from repro.core.quality import cut_edges_per_part

    np.testing.assert_array_equal(sc, cut_edges_per_part(g, parts, p))


def test_mult_delegates_to_params():
    g = ring(8)
    (state, other) = make_state(g, 2, nprocs=2, params=PulpParams(x=2.0, y=2.0))

    class FakeComm:
        size = 2

    assert state.mult(FakeComm()) == pytest.approx(4.0)
    state.iter_tot = 10_000
    assert state.mult(FakeComm()) == pytest.approx(4.0)
    _ = other
