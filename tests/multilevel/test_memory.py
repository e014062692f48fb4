"""What a V-cycle keeps alive (ISSUE 21): a level's global ``Graph`` and
``eweights`` live until the next level is contracted from them, a level
until the partition has been projected through it."""

import gc
import tracemalloc

from repro.core import PulpParams, xtrapulp
from repro.graph import mesh3d
from repro.graph.csr import Graph
from repro.core import driver
from repro.core.lp import SPECS


def live_graphs():
    gc.collect()
    return sum(isinstance(o, Graph) for o in gc.get_objects())


def test_uncoarsening_holds_no_coarse_graph_and_the_peak_is_pinned(monkeypatch):
    g = mesh3d(24, 24, 24)
    params = PulpParams(seed=3, multilevel=True, ml_coarsen="hem")
    run = lambda graph: xtrapulp(  # noqa: E731
        graph, 16, nprocs=4, backend="serial", params=params)
    run(mesh3d(6, 6, 6))  # imports and caches are not the run's memory
    seen = []
    real = driver.lp_phase

    def spy(comm, state, spec, iters, **kwargs):
        # first call: every rank has left build_hierarchy (initialize, just
        # before, is collective) and all eight levels are still in place
        if not seen:
            assert spec is SPECS["vertex_balance"]
            seen.append(live_graphs())
        return real(comm, state, spec, iters, **kwargs)

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
    # 12.7 x the CSR; 20.2 x when every level kept its graph to the end
    assert peak <= 16 * (g.offsets.nbytes + g.adj.nbytes)
