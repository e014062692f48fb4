"""End-to-end multilevel V-cycle: backend bit-identity and result metadata.

Extends the repo's headline oracle to the multilevel pipeline: a
fixed-seed ``xtrapulp(multilevel=True)`` run must produce bit-identical
partitions, communication signatures, and :class:`MultilevelInfo`
metadata on every execution backend, for both coarsening modes.
"""

import numpy as np
import pytest

from repro.core import PulpParams, xtrapulp
from repro.core.driver import PARTITION_PHASES
from repro.core.quality import partition_quality
from repro.graph import generators, mesh3d

BACKENDS = ("serial", "threads", "procs")
PARTS = 4
NPROCS = 3


@pytest.fixture(scope="module")
def graphs():
    return {
        "rmat": generators.rmat(8, avg_degree=8, seed=7),
        "mesh": mesh3d(8, 8, 8),
    }


@pytest.fixture(scope="module")
def runs(graphs):
    out = {}
    for gname, g in graphs.items():
        for mode in ("lp", "hem"):
            params = PulpParams(multilevel=True, ml_coarsen=mode, seed=123)
            out[(gname, mode)] = {
                b: xtrapulp(g, PARTS, nprocs=NPROCS, params=params,
                            backend=b)
                for b in BACKENDS
            }
    return out


def test_identical_partitions_across_backends(runs):
    for key, by_backend in runs.items():
        ref = by_backend["serial"].parts
        for b in BACKENDS[1:]:
            np.testing.assert_array_equal(by_backend[b].parts, ref, err_msg=str(key))


def test_identical_signatures_across_backends(runs):
    for by_backend in runs.values():
        ref = by_backend["serial"].stats.signature()
        for b in BACKENDS[1:]:
            assert by_backend[b].stats.signature() == ref


def test_identical_multilevel_info_across_backends(runs):
    for by_backend in runs.values():
        ref = by_backend["serial"].multilevel
        for b in BACKENDS[1:]:
            assert by_backend[b].multilevel == ref


def test_multilevel_info_describes_the_hierarchy(runs, graphs):
    for (gname, mode), by_backend in runs.items():
        g = graphs[gname]
        res = by_backend["serial"]
        info = res.multilevel
        assert info is not None
        assert info.coarsen_mode == mode
        assert info.levels >= 2
        assert len(info.level_sizes) == info.levels
        assert info.level_sizes[0] == (g.n, g.num_edges)
        ns = [n for n, _ in info.level_sizes]
        assert all(ns[i] > ns[i + 1] for i in range(len(ns) - 1))
        assert info.coarsest_n == ns[-1]


def test_balance_constraints_hold(runs, graphs):
    for (gname, mode), by_backend in runs.items():
        g = graphs[gname]
        res = by_backend["serial"]
        q = partition_quality(g, res.parts, PARTS)
        # finest level enforces the verbatim constraint (+ rounding slack)
        assert q.vertex_balance <= 1.10 + 0.02
        if gname == "mesh":
            # the edge constraint is only satisfiable on the mesh at this
            # scale: a 256-vertex rmat's hubs defeat even the flat
            # pipeline (1.18 at the same seed); the benchmark gate checks
            # edge balance at the scale where it is achievable
            assert q.edge_balance <= 1.10 + 0.02


def test_flat_run_emits_no_multilevel_phases(graphs):
    res = xtrapulp(graphs["rmat"], PARTS, nprocs=NPROCS,
                   params=PulpParams(seed=123))
    assert res.multilevel is None
    tags = {e.tag for e in res.stats.events}
    assert not tags & {"coarsen", "ml_refine", "project"}


def test_multilevel_run_emits_the_new_phases(runs):
    res = runs[("rmat", "lp")]["serial"]
    tags = {e.tag for e in res.stats.events}
    assert {"coarsen", "ml_refine", "project"} <= tags
    # beyond the partition phases only infrastructure tags appear
    assert tags <= set(PARTITION_PHASES) | {"build", "plan", "checkpoint"}


def test_tiny_graph_degenerates_to_single_level(graphs):
    # far below the coarsening target: no hierarchy, but still a valid run
    g = generators.rmat(5, avg_degree=4, seed=3)
    res = xtrapulp(g, 2, nprocs=2,
                   params=PulpParams(multilevel=True, seed=9))
    assert res.multilevel.levels == 1
    assert set(np.unique(res.parts)) <= {0, 1}


def test_initial_parts_rejected(graphs):
    g = graphs["rmat"]
    with pytest.raises(ValueError, match="initial_parts"):
        xtrapulp(g, PARTS, nprocs=NPROCS,
                 params=PulpParams(multilevel=True),
                 initial_parts=np.zeros(g.n, dtype=np.int64))


def test_param_validation():
    with pytest.raises(ValueError):
        PulpParams(ml_coarsen="metis")
    with pytest.raises(ValueError):
        PulpParams(ml_levels=0)
    with pytest.raises(ValueError):
        PulpParams(ml_refine_iters=0)
