"""Distributed graph construction: ghosts, id maps, edge conservation."""

import numpy as np
import pytest

from repro.dist import DistGraph, build_dist_graph, make_distribution
from repro.dist import build as dist_build
from repro.dist import distgraph as dist_graph
from repro.dist.build import _localize
from repro.dist.distgraph import ghost_incidence
from repro.dist.distribution import (
    BlockDistribution, PartitionDistribution, RandomDistribution,
)
from repro.dist.wire import stored_dtype
from repro.graph import from_edges, mesh3d, rmat
from repro.graph.csr import Graph
from repro.graph.gather import neighbor_gather, sorted_unique
from repro.simmpi import run_spmd
from tests.graphs import ring


def build_all(graph, nprocs, kind="block", seed=0):
    dist = make_distribution(kind, graph.n, nprocs, seed=seed)
    return run_spmd(
        nprocs, lambda comm: build_dist_graph(comm, graph, dist)
    )[0], dist


@pytest.mark.parametrize("kind", ["block", "random"])
@pytest.mark.parametrize("nprocs", [1, 2, 4])
def test_edge_conservation(kind, nprocs):
    g = rmat(9, 12, seed=3)
    dgs, _ = build_all(g, nprocs, kind)
    assert sum(dg.num_local_edges for dg in dgs) == g.num_directed_edges
    assert sum(dg.n_local for dg in dgs) == g.n


def test_local_adjacency_matches_global():
    g = rmat(8, 10, seed=5)
    dgs, dist = build_all(g, 3, "random", seed=1)
    for dg in dgs:
        for lid in range(dg.n_local):
            gid = dg.l2g[lid]
            local_neigh = dg.neighbors(lid)
            neigh_gids = np.sort(dg.l2g[local_neigh])
            np.testing.assert_array_equal(neigh_gids, g.neighbors(gid))


def test_ghosts_are_exactly_one_hop_remote():
    g = rmat(8, 10, seed=5)
    dgs, dist = build_all(g, 4, "block")
    for dg in dgs:
        ghosts = set(dg.ghost_gids.tolist())
        expected = set()
        for gid in dg.owned_gids:
            for u in g.neighbors(gid):
                if dist.owner(int(u)) != dg.rank:
                    expected.add(int(u))
        assert ghosts == expected
        # ghost owners correct
        for ggid, owner in zip(dg.ghost_gids, dg.ghost_owners):
            assert dist.owner(int(ggid)) == owner
            assert owner != dg.rank


def test_ghost_degrees_are_global_degrees():
    g = rmat(8, 10, seed=7)
    dgs, _ = build_all(g, 3, "random", seed=2)
    for dg in dgs:
        np.testing.assert_array_equal(dg.degrees_full, g.degrees[dg.l2g])


def test_send_rank_lists():
    g = ring(12)
    dgs, dist = build_all(g, 3, "block")
    for dg in dgs:
        for lid in range(dg.n_local):
            gid = dg.l2g[lid]
            expected = sorted(
                {
                    int(dist.owner(int(u)))
                    for u in g.neighbors(gid)
                    if dist.owner(int(u)) != dg.rank
                }
            )
            np.testing.assert_array_equal(
                dg.send_rank_adj[
                    dg.send_rank_offsets[lid]:dg.send_rank_offsets[lid + 1]],
                expected)


def test_boundary_mask():
    g = ring(12)
    dgs, _ = build_all(g, 3, "block")
    for dg in dgs:
        mask = np.diff(dg.send_rank_offsets) > 0
        # in a block-distributed ring only the two endpoints are boundary
        assert mask.sum() == 2
        assert mask[0] and mask[-1]


def test_ghost_lids_lookup():
    g = ring(8)
    dgs, _ = build_all(g, 2, "block")
    dg = dgs[0]
    lids = dg.ghost_lids(dg.ghost_gids)
    np.testing.assert_array_equal(
        lids, np.arange(dg.n_ghost) + dg.n_local
    )
    with pytest.raises(ValueError):
        dg.ghost_lids(dg.owned_gids[:1])


def test_single_rank_has_no_ghosts():
    g = rmat(8, 10, seed=1)
    dgs, _ = build_all(g, 1)
    assert dgs[0].n_ghost == 0
    assert dgs[0].n_local == g.n


def test_build_validates_inputs():
    g = ring(8)
    wrong_dist = make_distribution("block", 9, 2)
    with pytest.raises(ValueError):
        run_spmd(2, lambda comm: build_dist_graph(comm, g, wrong_dist))
    dist = make_distribution("block", 8, 3)
    with pytest.raises(ValueError):
        run_spmd(2, lambda comm: build_dist_graph(comm, g, dist))


def test_repr():
    g = ring(8)
    dgs, _ = build_all(g, 2, "block")
    assert "rank=0/2" in repr(dgs[0])


@pytest.mark.parametrize("kind", ["block", "random"])
@pytest.mark.parametrize("nprocs", [1, 2, 4])
def test_ghost_routing_table(kind, nprocs):
    """Every (vertex, rank) send pair's precomputed slot addresses exactly
    the destination rank's ghost copy of that vertex."""
    g = rmat(8, 10, seed=9)
    dgs, _ = build_all(g, nprocs, kind, seed=4)
    for dg in dgs:
        assert dg.send_ghost_slot.dtype == np.uint32
        assert dg.send_ghost_slot.shape == dg.send_rank_adj.shape
        for lid in range(dg.n_local):
            lo, hi = dg.send_rank_offsets[lid], dg.send_rank_offsets[lid + 1]
            for r, slot in zip(dg.send_rank_adj[lo:hi],
                               dg.send_ghost_slot[lo:hi]):
                peer = dgs[r]
                assert peer.ghost_gids[slot] == dg.l2g[lid]
                assert peer.ghost_owners[slot] == dg.rank


def test_max_ghost_global_is_global_max():
    g = rmat(8, 10, seed=9)
    dgs, _ = build_all(g, 3, "random", seed=4)
    true_max = max(dg.n_ghost for dg in dgs)
    assert all(dg.max_ghost_global == true_max for dg in dgs)


@pytest.mark.parametrize("kind", ["block", "random"])
def test_ghost_incidence_equals_lexsort_form(kind):
    """``ghost_incidence`` value-sorts packed ``(ghost, source)`` keys; that
    is the ``lexsort((sources, targets))`` transpose because arc sources
    come out of the local CSR already non-decreasing.  It is built on the
    first read, so reading it through the properties builds it."""
    g = rmat(9, 12, seed=3)
    dgs, _ = build_all(g, 4, kind, seed=2)
    for dg in dgs:
        assert dg._ghost_in is None
        src = np.repeat(np.arange(dg.n_local), dg.local_degrees)
        is_ghost = dg.adj >= dg.n_local
        targets = dg.adj[is_ghost] - dg.n_local
        sources = src[is_ghost]
        assert targets.size  # the case is not vacuous
        order = np.lexsort((sources, targets))
        np.testing.assert_array_equal(dg.ghost_in_adj, sources[order])
        np.testing.assert_array_equal(
            np.diff(dg.ghost_in_offsets),
            np.bincount(targets, minlength=dg.n_ghost),
        )
        assert not dg.ghost_in_adj.flags.writeable


@pytest.mark.parametrize("top_source", [5, 2 ** 40])
def test_ghost_incidence_packed_and_argsort_forms_agree(top_source):
    """Keys past 63 bits (here 41 source bits + 24 ghost bits) take the
    stable argsort; both forms equal the lexsort transpose."""
    rng = np.random.default_rng(1)
    sources = np.sort(rng.integers(0, top_source + 1, 500))
    targets = rng.integers(0, 2 ** 24, 500)
    targets[:3] = 2 ** 24 - 1
    offsets, adj = ghost_incidence(sources, targets, 2 ** 24)
    np.testing.assert_array_equal(
        adj, sources[np.lexsort((sources, targets))])
    assert adj.dtype == sources.dtype
    np.testing.assert_array_equal(
        np.diff(offsets), np.bincount(targets, minlength=2 ** 24))


# -- _localize: one gid -> lid table against the sort + binary searches ------

def _localize_by_search(dist, rank, owned_gids, neighbor_gids):
    """``_localize`` as it was until PR 18: ``sorted_unique`` for the ghost
    list, one ``searchsorted`` per side for the local ids."""
    mine = dist.owner(neighbor_gids) == rank
    local_adj = np.empty(neighbor_gids.size, dtype=np.int64)
    local_adj[mine] = dist.lid(rank, neighbor_gids[mine])
    remote = neighbor_gids[~mine]
    ghost_gids = sorted_unique(remote)
    local_adj[~mine] = np.searchsorted(ghost_gids, remote) + owned_gids.size
    return local_adj, ghost_gids, dist.owner(ghost_gids).astype(np.int32)


def _two_cliques():
    # ranks 0 and 1 each own one clique: neither has a ghost
    u, v = np.triu_indices(4, k=1)
    return from_edges(8, np.concatenate([u, u + 4]), np.concatenate([v, v + 4]))


CASES = pytest.mark.parametrize("graph,dist", [
    (rmat(9, 12, seed=3), RandomDistribution(512, 4, seed=1)),
    (mesh3d(7, 7, 7), BlockDistribution(343, 3)),
    (_two_cliques(), BlockDistribution(8, 2)),
    # rank 1 owns nothing (and rank 2 everything)
    (rmat(6, 6, seed=2), PartitionDistribution(np.full(64, 2), 3)),
], ids=["rmat-random", "mesh-block", "no-ghosts", "empty-rank"])


@CASES
def test_localize_matches_sort_and_search(graph, dist):
    for rank in range(dist.nprocs):
        owned = dist.owned(rank)
        neighbor_gids, _ = neighbor_gather(graph.offsets, graph.adj, owned)
        got = _localize(dist, owned, neighbor_gids)
        want = _localize_by_search(dist, rank, owned, neighbor_gids)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)


# -- dtype election: stored tables narrow, index arrays int64 ----------------

def test_stored_dtype_elects_int32_while_values_fit():
    assert stored_dtype(-1) == stored_dtype(2 ** 31 - 1) == np.int32
    assert stored_dtype(2 ** 31) == np.int64


@CASES
def test_stored_tables_are_narrow_and_equal_an_int64_build(graph, dist,
                                                           monkeypatch):
    """``ghost_in_adj``, ``send_rank_adj`` and ``degrees_full`` are only
    gathered from, so they are stored in the elected int32 with the values
    of a build that elects int64; the index tables of an int64 input stay
    int64 (a "narrow everything" change fails here, not in a profile)."""
    def build(comm):
        return build_dist_graph(comm, graph, dist)

    narrow = run_spmd(dist.nprocs, build)[0]
    for dg in narrow:
        dg.ghost_in_adj  # built on first read: under the elected dtype
    for module in (dist_build, dist_graph):
        monkeypatch.setattr(module, "stored_dtype",
                            lambda max_value: np.dtype(np.int64))
    wide = run_spmd(dist.nprocs, build)[0]
    for a, b in zip(narrow, wide):
        for name in ("ghost_in_adj", "send_rank_adj", "degrees_full"):
            assert getattr(a, name).dtype == np.int32
            assert getattr(b, name).dtype == np.int64
        for name in ("adj", "offsets", "l2g"):
            assert getattr(a, name).dtype == np.int64
        for name in DistGraph.__slots__ + ("ghost_in_offsets", "ghost_in_adj"):
            have, want = getattr(a, name), getattr(b, name)
            if isinstance(have, np.ndarray):
                np.testing.assert_array_equal(have, want)


@CASES
def test_local_adjacency_takes_the_input_width(graph, dist):
    """A 4-byte input adjacency (a coarse V-cycle level's) gives a 4-byte
    local ``adj`` with the values of the int64 build; the other index
    tables stay int64."""
    narrow_graph = Graph(graph.offsets, graph.adj.astype(np.int32))
    assert narrow_graph.adj.dtype == np.int32

    def build(g):
        return run_spmd(dist.nprocs,
                        lambda comm: build_dist_graph(comm, g, dist))[0]

    for a, b in zip(build(narrow_graph), build(graph)):
        assert a.adj.dtype == np.int32 and b.adj.dtype == np.int64
        for name in ("offsets", "l2g"):
            assert getattr(a, name).dtype == np.int64
        for name in DistGraph.__slots__ + ("ghost_in_offsets", "ghost_in_adj"):
            have, want = getattr(a, name), getattr(b, name)
            if isinstance(have, np.ndarray):
                np.testing.assert_array_equal(have, want)
