"""RankState: targets, block iteration, tally matrices vs reference."""

import numpy as np
import pytest

from repro.core.params import PulpParams
from repro.core.state import UNASSIGNED, RankState
from repro.dist import build_dist_graph, make_distribution
from repro.graph import from_edges, rmat
from repro.simmpi import run_spmd
from tests.graphs import ring


def make_state(graph, p, nprocs=2, params=None, seed=0):
    dist = make_distribution("random", graph.n, nprocs, seed=seed)
    params = params or PulpParams(seed=seed)

    def main(comm):
        dg = build_dist_graph(comm, graph, dist)
        return RankState(dg=dg, num_parts=p, params=params), comm

    # single collection run: return states via run_spmd
    states = run_spmd(
        nprocs,
        lambda comm: RankState(
            dg=build_dist_graph(comm, graph, dist), num_parts=p, params=params
        ),
    )[0]
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
        # the stacked rows equal the rows recounted one at a time
        stacked = state.part_totals(comm)
        for i, row in enumerate("vec"):
            np.testing.assert_array_equal(
                stacked[i], state.part_totals(comm, (row,))[0])
        return (*stacked, global_parts)

    sv, se, sc, parts = run_spmd(3, main)[0][0]
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


def general_gather(state, lids, tally):
    """``gather_block`` the long way: one arc at a time, no CSR slices."""
    dg, p = state.dg, state.num_parts
    key, w_arc = [], []
    for row, lid in enumerate(lids):
        for a in range(dg.offsets[lid], dg.offsets[lid + 1]):
            part = state.parts[dg.adj[a]]
            if part < 0:
                continue
            key.append(row * p + part)
            if isinstance(tally, str):
                w_arc.append(float(dg.degrees_full[dg.adj[a]]))
            else:
                w_arc.append(tally[a])
    counts = [dg.offsets[lid + 1] - dg.offsets[lid] for lid in lids]
    return key, (None if isinstance(tally, str) and tally == "unit"
                 else w_arc), counts


@pytest.fixture
def ragged_state():
    # 0 and 1 isolated, a star on 2, a path 3-4-5-6, 7 and 8 isolated
    src = np.array([2, 2, 2, 2, 3, 4, 5])
    dst = np.array([3, 4, 5, 6, 4, 5, 6])
    (state,) = make_state(from_edges(9, src, dst), 4, nprocs=1)
    # block distribution on one rank keeps lid == gid
    np.testing.assert_array_equal(state.dg.owned_gids, np.arange(9))
    state.parts[:] = [0, 1, 2, UNASSIGNED, 3, 3, UNASSIGNED, 1, 0]
    return state


@pytest.mark.parametrize("tally", ["unit", "degree", "per-arc"])
@pytest.mark.parametrize("lids", [
    np.arange(0, 9),            # the whole rank: degree-0 rows at both edges
    np.arange(2, 7),            # a run in the middle
    np.arange(1, 3),            # starts on a degree-0 row
    np.arange(5, 9),            # ends on degree-0 rows
    np.arange(4, 5),            # a single row
    np.arange(7, 9),            # only degree-0 rows
    np.arange(3, 3),            # an empty block
    np.array([2, 4, 6]),        # ascending with gaps
    np.array([0, 2, 1, 3]),     # run-like endpoints, unsorted
    np.array([5, 4, 3, 2]),     # descending
    np.array([2, 3, 3, 5]),     # run-like endpoints, a repeat
    np.array([4, 4, 4]),        # all the same row
], ids=lambda lids: "-".join(map(str, lids)) or "empty")
def test_gather_block_slices_equal_the_general_path(
        ragged_state, tally, lids):
    state = ragged_state
    lids = lids.astype(np.int64)
    if tally == "per-arc":
        tally = np.random.default_rng(2).choice(
            [0.1, 0.2, 0.7], state.dg.adj.size)
    want_key, want_w, want_counts = general_gather(state, lids, tally)
    state.work_pending = state.edges_touched = 0.0
    key, w_arc, counts = state.gather_block(lids, tally)
    np.testing.assert_array_equal(key, np.array(want_key, dtype=np.int64))
    assert key.dtype == np.int64 and key.flags.writeable
    if want_w is None:
        assert w_arc is None
    else:
        np.testing.assert_array_equal(w_arc, np.array(want_w))
        assert w_arc.dtype == np.float64
    np.testing.assert_array_equal(
        counts, np.array(want_counts, dtype=np.int64))
    assert state.edges_touched == len(want_key)
    assert state.work_pending == 2.0 * len(want_key) + lids.size + 4


def test_gather_block_on_a_real_graph_runs_and_scattered_lids():
    g = rmat(8, 10, seed=3)
    (state,) = make_state(g, 7, nprocs=1)
    rng = np.random.default_rng(1)
    state.parts[:] = rng.integers(-1, 7, state.dg.n_total)
    ew = rng.random(state.dg.adj.size)
    blocks = [np.arange(0, 256), np.arange(17, 93), np.arange(200, 256),
              np.sort(rng.choice(256, 90, replace=False)),
              rng.integers(0, 256, 40)]
    for tally in ("unit", "degree", ew):
        for lids in blocks:
            lids = lids.astype(np.int64)
            want_key, want_w, want_counts = general_gather(state, lids, tally)
            key, w_arc, counts = state.gather_block(lids, tally)
            np.testing.assert_array_equal(key, want_key)
            np.testing.assert_array_equal(counts, want_counts)
            if want_w is not None:
                np.testing.assert_array_equal(w_arc, want_w)


def test_degree_vectors_are_built_once_not_per_phase():
    (state,) = make_state(rmat(7, 8, seed=2), 3, nprocs=1)
    dg = state.dg
    np.testing.assert_array_equal(dg.local_degrees, np.diff(dg.offsets))
    assert dg.local_degrees is dg.local_degrees  # a slot, not a recompute
    assert not dg.local_degrees.flags.writeable
    deg = state.degrees_f64
    assert deg is state.degrees_f64 and deg.dtype == np.float64
    np.testing.assert_array_equal(deg, dg.degrees_full)
    np.testing.assert_array_equal(deg[: dg.n_local], dg.local_degrees)
    from repro.core.frontier import DIRT_FRACTION, FrontierSweeper

    assert state.dirt_thresholds is None
    first = FrontierSweeper(state, phase="vertex_balance")._thresh
    assert FrontierSweeper(state, phase="edge_refine")._thresh is first
    np.testing.assert_array_equal(
        first, np.maximum(DIRT_FRACTION * dg.local_degrees, 1.0))
