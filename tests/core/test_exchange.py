"""ExchangeUpdates (Algorithm 3) and buffer packing."""

import numpy as np
import pytest

from repro.core.exchange import exchange_updates
from repro.dist import build_dist_graph, make_distribution
from repro.dist.packing import bucket_by_rank, pack_fields_by_rank
from repro.dist.wire import make_wire_spec
from repro.graph import rmat
from repro.simmpi import run_spmd
from tests.graphs import ring


def test_bucket_by_rank_matches_stable_argsort():
    rng = np.random.default_rng(0)
    for nprocs in (1, 3, 300):  # 300 exercises the uint16 key path
        dest = rng.integers(0, nprocs, size=500)
        order, counts = bucket_by_rank(nprocs, dest)
        np.testing.assert_array_equal(order, np.argsort(dest, kind="stable"))
        np.testing.assert_array_equal(counts, np.bincount(dest, minlength=nprocs))
    with pytest.raises(ValueError):
        bucket_by_rank(2, np.array([0, 2]))


def test_pack_fields_by_rank_preserves_dtypes():
    dest = np.array([1, 0, 1, 0])
    slots = np.array([9, 8, 7, 6], dtype=np.uint16)
    parts = np.array([1, 2, 3, 4], dtype=np.int16)
    (ps, pp), counts = pack_fields_by_rank(2, dest, (slots, parts))
    assert ps.dtype == np.uint16 and pp.dtype == np.int16
    np.testing.assert_array_equal(counts, [2, 2])  # records, not elements
    np.testing.assert_array_equal(ps, [8, 6, 9, 7])
    np.testing.assert_array_equal(pp, [2, 4, 1, 3])


def test_pack_validation():
    with pytest.raises(ValueError):
        pack_fields_by_rank(2, np.array([0, 3]), (np.array([1, 2]),))
    with pytest.raises(ValueError):
        pack_fields_by_rank(2, np.array([0]), (np.array([1, 2]),))
    with pytest.raises(ValueError):
        pack_fields_by_rank(2, np.array([0]), ())


@pytest.mark.parametrize("nprocs", [2, 4])
def test_exchange_updates_ghost_consistency(nprocs):
    g = rmat(8, 12, seed=4)
    dist = make_distribution("random", g.n, nprocs, seed=1)

    def main(comm):
        dg = build_dist_graph(comm, g, dist)
        parts = np.full(dg.n_total, -1, dtype=np.int64)
        # every rank labels its owned vertices with its rank and announces
        parts[: dg.n_local] = comm.rank
        wire = make_wire_spec(dg.max_ghost_global, nprocs)
        exchange_updates(comm, dg, parts, np.arange(dg.n_local), wire)
        # each ghost must now carry its owner's rank
        np.testing.assert_array_equal(
            parts[dg.n_local:], dg.ghost_owners.astype(np.int64)
        )
        return True

    assert all(run_spmd(nprocs, main)[0])


def test_exchange_updates_partial_and_empty():
    g = ring(12)
    dist = make_distribution("block", g.n, 3)

    def main(comm):
        dg = build_dist_graph(comm, g, dist)
        parts = np.zeros(dg.n_total, dtype=np.int64)
        if comm.rank == 0:
            # only boundary vertex 0 updated; interior updates don't travel
            parts[dg.owned_lids(np.array([0]))] = 42
            updated = dg.owned_lids(np.array([0]))
        else:
            updated = np.empty(0, dtype=np.int64)
        wire = make_wire_spec(dg.max_ghost_global, 64)
        received = exchange_updates(comm, dg, parts, updated, wire)
        return comm.rank, received, parts.copy(), dg

    out = run_spmd(3, main)[0]
    # vertex 0's ghost copy lives only at rank 2 (ring neighbor 11)
    for rank, received, parts, dg in out:
        if rank == 2:
            lid = dg.ghost_lids(np.array([0]))[0]
            np.testing.assert_array_equal(received, [lid])
            assert parts[lid] == 42
        elif rank == 1:
            assert received.size == 0


def test_exchange_updates_returns_updated_ghost_lids():
    g = ring(8)
    dist = make_distribution("block", g.n, 2)

    def main(comm):
        dg = build_dist_graph(comm, g, dist)
        parts = np.zeros(dg.n_total, dtype=np.int64)
        parts[: dg.n_local] = comm.rank + 1
        wire = make_wire_spec(dg.max_ghost_global, 3)
        got = exchange_updates(comm, dg, parts, np.arange(dg.n_local), wire)
        return got, dg.n_local, dg.n_ghost

    out = run_spmd(2, main)[0]
    # each rank has 2 ghosts (both block endpoints of the other rank);
    # the returned lids are exactly the rewritten ghost entries
    for got, n_local, n_ghost in out:
        assert got.size == 2
        np.testing.assert_array_equal(
            np.sort(got), np.arange(n_local, n_local + n_ghost)
        )
