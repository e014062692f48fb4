"""Cross-cutting end-to-end partitioner properties (incl. property tests)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import PulpParams, xtrapulp
from repro.core.quality import partition_quality
from repro.graph import from_edges, rmat
from tests.graphs import ring


def test_ghost_consistency_after_full_pipeline():
    """After the pipeline, every rank's ghost labels must equal the owner's
    labels — the ExchangeUpdates contract held through all phases."""
    from repro.core.driver import _rank_main
    from repro.dist.distribution import make_distribution
    from repro.simmpi import run_spmd

    g = rmat(9, 12, seed=2)
    dist = make_distribution("random", g.n, 3, seed=5)
    params = PulpParams(seed=5)

    def main(comm):
        from repro.core.initialization import initialize
        from repro.core.lp import SPECS, lp_phase
        from repro.core.state import RankState
        from repro.dist.build import build_dist_graph

        dg = build_dist_graph(comm, g, dist)
        state = RankState(dg=dg, num_parts=4, params=params)
        initialize(comm, state)
        for _ in range(params.outer_iters):
            for spec in (SPECS["vertex_balance"], SPECS["vertex_refine"]):
                lp_phase(comm, state, spec, getattr(params, spec.iters))
        state.iter_tot = 0
        for _ in range(params.outer_iters):
            for spec in (SPECS["edge_balance"], SPECS["edge_refine"]):
                lp_phase(comm, state, spec, getattr(params, spec.iters))
        return (
            dg.owned_gids.copy(),
            state.parts[: dg.n_local].copy(),
            dg.ghost_gids.copy(),
            state.parts[dg.n_local:].copy(),
        )

    results = run_spmd(3, main)[0]
    global_parts = np.empty(g.n, dtype=np.int64)
    for gids, owned, _, _ in results:
        global_parts[gids] = owned
    for _, _, ghost_gids, ghost_parts in results:
        np.testing.assert_array_equal(ghost_parts, global_parts[ghost_gids])


def test_p_equals_one():
    g = rmat(8, 10, seed=1)
    res = xtrapulp(g, 1, nprocs=2)
    assert np.all(res.parts == 0)
    assert res.quality().cut == 0


def test_p_equals_n():
    g = ring(8)
    res = xtrapulp(g, 8, nprocs=2)
    # everything is cut in a ring with singleton parts
    q = res.quality()
    assert q.vertex_balance <= 8.0
    assert set(res.parts.tolist()) <= set(range(8))


def test_tiny_graph():
    g = ring(4)
    res = xtrapulp(g, 2, nprocs=1)
    assert res.parts.shape == (4,)
    assert res.quality().cut_ratio <= 1.0


def test_more_ranks_than_vertices():
    g = ring(6)
    res = xtrapulp(g, 2, nprocs=8)  # some ranks own nothing
    assert res.parts.min() >= 0


@settings(max_examples=12, deadline=None)
@given(
    n=st.integers(min_value=8, max_value=60),
    m=st.integers(min_value=4, max_value=150),
    p=st.integers(min_value=1, max_value=4),
    nprocs=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_partition_invariants_random_graphs(n, m, p, nprocs, seed):
    """Fuzz the whole pipeline on arbitrary graphs: every vertex labeled,
    labels in range, bookkeeping consistent with an independent recount."""
    rng = np.random.default_rng(seed)
    g = from_edges(
        n,
        rng.integers(0, n, size=m),
        rng.integers(0, n, size=m),
    )
    params = PulpParams(seed=seed % 1000, outer_iters=1)
    res = xtrapulp(g, min(p, n), nprocs=nprocs, params=params)
    assert res.parts.shape == (n,)
    assert res.parts.min() >= 0
    assert res.parts.max() < min(p, n)
    q = partition_quality(g, res.parts, min(p, n))
    assert 0 <= q.cut_ratio <= 1.0


def test_all_parts_populated_on_connected_graph():
    g = ring(64)
    res = xtrapulp(g, 8, nprocs=2)
    counts = np.bincount(res.parts, minlength=8)
    assert counts.min() > 0


def test_results_stable_under_block_size():
    """Different block sizes change within-sweep granularity but must keep
    all invariants (this is the ablation's correctness side)."""
    g = rmat(9, 12, seed=3)
    for bs in (16, 256, 10_000):
        res = xtrapulp(g, 4, nprocs=2, params=PulpParams(block_size=bs))
        q = res.quality()
        assert q.vertex_balance < 1.6
        counts = np.bincount(res.parts, minlength=4)
        assert counts.sum() == g.n


def test_single_objective_faster_than_full():
    g = rmat(10, 14, seed=4)
    full = xtrapulp(g, 8, nprocs=2)
    single = xtrapulp(g, 8, nprocs=2, params=PulpParams(single_objective=True))
    assert single.stats.rounds < full.stats.rounds
    assert single.modeled_seconds < full.modeled_seconds


def test_wall_and_modeled_reported():
    g = ring(32)
    res = xtrapulp(g, 4, nprocs=2)
    assert res.wall_seconds > 0
    assert res.modeled_seconds > 0
    # deterministic work charging → identical modeled time across runs
    res2 = xtrapulp(g, 4, nprocs=2)
    assert res.modeled_seconds == pytest.approx(res2.modeled_seconds)
