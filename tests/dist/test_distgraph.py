"""DistGraph API details beyond the construction tests."""

import numpy as np
import pytest

from repro.dist import build_dist_graph, make_distribution
from repro.graph import rmat
from repro.simmpi import run_spmd
from tests.graphs import ring, star


def build_one(graph, nprocs=2, kind="block", seed=0):
    dist = make_distribution(kind, graph.n, nprocs, seed=seed)
    return run_spmd(
        nprocs,
        lambda comm: build_dist_graph(comm, graph, dist),
    )[0]


def test_n_total_and_gid_views():
    g = ring(12)
    for dg in build_one(g, 3):
        assert dg.n_total == dg.n_local + dg.n_ghost
        np.testing.assert_array_equal(
            dg.l2g, np.concatenate([dg.owned_gids, dg.ghost_gids])
        )
        # owned and ghost gid sets are disjoint and sorted
        assert np.all(np.diff(dg.owned_gids) > 0)
        assert np.all(np.diff(dg.ghost_gids) > 0)
        assert not set(dg.owned_gids) & set(dg.ghost_gids)


def test_local_degrees_match_global():
    g = rmat(8, 10, seed=1)
    for dg in build_one(g, 4, kind="random", seed=3):
        np.testing.assert_array_equal(
            dg.local_degrees, g.degrees[dg.owned_gids]
        )
        # ... and they are the local row lengths: every incident edge of
        # an owned vertex is stored locally (local_degrees is a view of
        # degrees_full, which leans on exactly this)
        np.testing.assert_array_equal(dg.local_degrees, np.diff(dg.offsets))
        assert not dg.local_degrees.flags.writeable


def test_owned_lids_roundtrip():
    g = ring(10)
    for dg in build_one(g, 2):
        lids = dg.owned_lids(dg.owned_gids)
        np.testing.assert_array_equal(lids, np.arange(dg.n_local))


def _send_ranks(dg, lid):
    """The off-rank owners an owned vertex's updates go to (``toSend``)."""
    return dg.send_rank_adj[
        dg.send_rank_offsets[lid]:dg.send_rank_offsets[lid + 1]]


def test_star_hub_neighbor_ranks():
    g = star(16)
    dgs = build_one(g, 4)
    # the hub (vertex 0, owned by rank 0) neighbors every other rank
    hub_owner = dgs[0]
    lid = int(hub_owner.owned_lids(np.array([0]))[0])
    np.testing.assert_array_equal(_send_ranks(hub_owner, lid), [1, 2, 3])
    # leaves on other ranks neighbor only rank 0
    for dg in dgs[1:]:
        for leaf in range(dg.n_local):
            np.testing.assert_array_equal(_send_ranks(dg, leaf), [0])


def test_arrays_read_only():
    g = ring(8)
    dg = build_one(g, 2)[0]
    for arr in (dg.offsets, dg.adj, dg.l2g, dg.degrees_full):
        with pytest.raises(ValueError):
            arr[0] = 99


def test_global_metadata():
    g = rmat(8, 10, seed=2)
    for dg in build_one(g, 3):
        assert dg.global_n == g.n
        assert dg.global_m == g.num_edges


def test_directed_slots_default_none():
    g = ring(8)
    dg = build_one(g, 2)[0]
    assert dg.dir_out_offsets is None
    assert dg.dir_in_adj is None
