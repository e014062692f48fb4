"""What a V-cycle keeps alive: a level's global ``Graph`` and ``eweights``
live until the next level is contracted from them, a level until the
partition has been projected through it; a contraction holds one live copy
of each of its working arrays.  A coarse level is held once per address
space where it can be, and at the width of its values."""

import gc
import tracemalloc

import numpy as np

from repro.core import PulpParams, xtrapulp
from repro.dist import make_distribution
from repro.graph import mesh3d
from repro.graph.csr import Graph
from repro.core import driver
from repro.core.lp import SPECS
from repro.multilevel import coarsen, hierarchy
from repro.simmpi import run_spmd


def live_graphs():
    gc.collect()
    return sum(isinstance(o, Graph) for o in gc.get_objects())


def test_uncoarsening_holds_no_coarse_graph_and_the_peak_is_pinned(monkeypatch):
    g = mesh3d(24, 24, 24)
    params = PulpParams(seed=3, multilevel=True, ml_coarsen="hem")
    run = lambda graph: xtrapulp(  # noqa: E731
        graph, 16, nprocs=4, backend="serial", params=params)
    run(mesh3d(6, 6, 6))  # imports and caches are not the run's memory
    seen, built = [], []
    real, real_build = driver.lp_phase, hierarchy.build_hierarchy

    def keep(*args, **kwargs):
        levels = yield from real_build(*args, **kwargs)
        built.append(levels)
        return levels

    def spy(comm, state, spec, iters, **kwargs):
        # first call: every rank has left build_hierarchy (initialize, just
        # before, is collective) and all eight levels are still in place
        if not seen:
            assert spec is SPECS["vertex_balance"]
            seen.append(live_graphs())
            assert len(built) == 4
            for i in range(1, len(built[0])):
                coarse = [levels[i] for levels in built]
                # nothing has entered a coarse level yet: no incidence
                assert all(lv.dg._ghost_in is None for lv in coarse)
                # one owner table per level, not one per rank
                assert all(np.shares_memory(lv.dist.owner_table,
                                            coarse[0].dist.owner_table)
                           for lv in coarse)
                assert all(lv.ew_local.dtype.itemsize == 1 for lv in coarse)
        return real(comm, state, spec, iters, **kwargs)

    monkeypatch.setattr(hierarchy, "build_hierarchy", keep)
    monkeypatch.setattr(driver, "lp_phase", spy)
    before = live_graphs()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = run(g)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert result.multilevel.levels == 8
    assert seen == [before]  # the input graph and nothing coarser
    # 5.89 x the CSR with coarse levels held once, at the width of their
    # values, and no ghost incidence before a level is entered (10.26 x
    # before that; 11.76 x before a lean contraction and 4-byte edge
    # weights; 20.2 x when every level kept its graph to the end)
    assert peak <= 6.5 * (g.offsets.nbytes + g.adj.nbytes)


def test_contraction_transient_peak_per_fine_arc():
    """``_contract`` on level 0 of ``mesh3d(24, 24, 24)`` peaks at 20.0
    bytes per fine arc (47.6 with 8-byte endpoints and weights and three
    masked copies), its outputs included."""
    g = mesh3d(24, 24, 24)
    params = PulpParams(seed=7, multilevel=True, ml_coarsen="hem")
    dist = make_distribution("random", g.n, 1, seed=7)

    def cluster(comm):
        level = yield from coarsen.make_level0(comm, g, dist, None)
        labels = coarsen.hem_cluster_labels(comm, level, params, 0)
        return level, labels

    level, labels = run_spmd(1, cluster, backend="serial")[0][0]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        nc, arrays = coarsen._contract(level, 0, 16, labels)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert arrays is not None and nc < g.n
    assert peak <= 24 * g.adj.size
