"""Property test: ExchangeUpdates keeps ghosts consistent under arbitrary
update sequences — the contract every phase relies on."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.exchange import exchange_updates
from repro.dist import build_dist_graph, make_distribution
from repro.dist.wire import make_wire_spec
from repro.graph import from_edges
from repro.simmpi import run_spmd


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=24),
    m=st.integers(min_value=2, max_value=60),
    nprocs=st.integers(min_value=2, max_value=4),
    rounds=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_ghosts_track_owners_through_random_updates(n, m, nprocs, rounds, seed):
    rng_g = np.random.default_rng(seed)
    g = from_edges(
        n, rng_g.integers(0, n, size=m), rng_g.integers(0, n, size=m)
    )
    dist = make_distribution("random", g.n, nprocs, seed=seed % 97)

    def main(comm):
        dg = build_dist_graph(comm, g, dist)
        rng = np.random.default_rng(1000 + comm.rank)
        parts = np.zeros(dg.n_total, dtype=np.int64)
        parts[: dg.n_local] = dg.owned_gids  # start: part = gid
        wire = make_wire_spec(dg.max_ghost_global, 1000)
        exchange_updates(comm, dg, parts, np.arange(dg.n_local), wire)
        for _ in range(rounds):
            k = rng.integers(0, dg.n_local + 1) if dg.n_local else 0
            upd = (
                rng.choice(dg.n_local, size=int(k), replace=False)
                if k else np.empty(0, dtype=np.int64)
            )
            parts[upd] = rng.integers(0, 1000, size=upd.size)
            exchange_updates(comm, dg, parts, upd, wire)
        return (
            dg.owned_gids.copy(), parts[: dg.n_local].copy(),
            dg.ghost_gids.copy(), parts[dg.n_local:].copy(),
        )

    results = run_spmd(nprocs, main)[0]
    truth = np.empty(g.n, dtype=np.int64)
    for gids, owned, _, _ in results:
        truth[gids] = owned
    for _, _, ghost_gids, ghost_parts in results:
        np.testing.assert_array_equal(ghost_parts, truth[ghost_gids])
