"""End-to-end xtrapulp(): constraints, determinism, modes, metering."""

import numpy as np
import pytest

from repro.core import PulpParams, xtrapulp
from repro.core.driver import PARTITION_PHASES
from repro.dist.distribution import make_distribution
from repro.graph import erdos_renyi, mesh3d, rand_hd, rmat, social, webcrawl


@pytest.fixture(scope="module")
def small_rmat():
    return rmat(11, 16, seed=1)


def test_every_vertex_assigned(small_rmat):
    res = xtrapulp(small_rmat, 8, nprocs=4)
    assert res.parts.shape == (small_rmat.n,)
    assert res.parts.min() >= 0 and res.parts.max() < 8


def test_balance_constraints_near_target(small_rmat):
    res = xtrapulp(small_rmat, 8, nprocs=4)
    q = res.quality()
    assert q.vertex_balance <= 1.10 * 1.15  # small BSP slack over the 10%
    assert q.edge_balance <= 1.10 * 1.25


def test_single_objective_skips_edge_phase(small_rmat):
    res = xtrapulp(
        small_rmat, 8, nprocs=2,
        params=PulpParams(single_objective=True),
    )
    tags = {e.tag for e in res.stats.events}
    assert "edge_balance" not in tags and "edge_refine" not in tags
    assert "vertex_balance" in tags


def test_deterministic(small_rmat):
    a = xtrapulp(small_rmat, 4, nprocs=3, params=PulpParams(seed=9))
    b = xtrapulp(small_rmat, 4, nprocs=3, params=PulpParams(seed=9))
    np.testing.assert_array_equal(a.parts, b.parts)


def test_seed_changes_result(small_rmat):
    a = xtrapulp(small_rmat, 4, nprocs=2, params=PulpParams(seed=1))
    b = xtrapulp(small_rmat, 4, nprocs=2, params=PulpParams(seed=2))
    assert not np.array_equal(a.parts, b.parts)


def test_better_than_random_cut_on_structured_graphs():
    from repro.baselines import random_partition
    from repro.core.quality import edge_cut_ratio

    for g in (webcrawl(2048, 16, seed=3), mesh3d(10, 10, 10)):
        res = xtrapulp(g, 8, nprocs=2)
        rand = edge_cut_ratio(g, random_partition(g, 8, seed=0), 8)
        assert res.quality().cut_ratio < 0.7 * rand


def test_mesh_cut_is_low():
    g = mesh3d(12, 12, 12)
    res = xtrapulp(g, 8, nprocs=4)
    assert res.quality().cut_ratio < 0.30


def test_rand_hd_with_block_init():
    g = rand_hd(2048, 16, seed=4)
    res = xtrapulp(g, 8, nprocs=4, params=PulpParams(init_strategy="block"))
    q = res.quality()
    assert q.cut_ratio < 0.05
    assert q.vertex_balance <= 1.15


def test_explicit_distribution(small_rmat):
    dist = make_distribution("block", small_rmat.n, 2)
    res = xtrapulp(small_rmat, 4, nprocs=2, distribution=dist)
    assert res.parts.min() >= 0


def test_distribution_mismatch_rejected(small_rmat):
    dist = make_distribution("block", small_rmat.n, 3)
    with pytest.raises(ValueError):
        xtrapulp(small_rmat, 4, nprocs=2, distribution=dist)


def test_input_validation(small_rmat):
    with pytest.raises(ValueError):
        xtrapulp(small_rmat, 0, nprocs=2)
    with pytest.raises(ValueError):
        xtrapulp(small_rmat, small_rmat.n + 1, nprocs=2)
    directed = social(256, 8, seed=1, directed=True)
    with pytest.raises(ValueError):
        xtrapulp(directed, 4, nprocs=2)


def test_modeled_time_positive_and_phased(small_rmat):
    res = xtrapulp(small_rmat, 8, nprocs=4)
    assert res.modeled_seconds > 0
    by_phase = res.modeled_seconds_by_phase()
    assert set(by_phase) == set(PARTITION_PHASES)
    assert sum(by_phase.values()) == pytest.approx(res.modeled_seconds, rel=1e-6)
    # build is metered but excluded from the partitioning-time total
    from repro.simmpi.timing import TimeModel

    full = TimeModel(res.machine).total_time(res.stats)
    assert res.modeled_seconds < full


def test_comm_volume_scales_with_ranks(small_rmat):
    r2 = xtrapulp(small_rmat, 8, nprocs=2)
    r8 = xtrapulp(small_rmat, 8, nprocs=8)
    # more ranks → more boundary → more off-rank traffic
    assert r8.stats.total_bytes > r2.stats.total_bytes


def test_prebuilt_backend_keeps_its_communicator(small_rmat):
    """``params.comm=None`` means "not chosen here": a backend built with a
    communicator keeps it; an explicit ``params.comm`` still wins."""
    from repro.simmpi import create_runtime

    rt = create_runtime("serial", nprocs=4, comm="hierarchical:2")
    res = xtrapulp(small_rmat, 4, nprocs=4, backend=rt)
    assert rt.comm_strategy.name == res.comm == "hierarchical"
    assert res.stats.tiered
    assert all(ev.tiers is not None for ev in res.stats.events)

    rt = create_runtime("serial", nprocs=4, comm="hierarchical:2")
    res = xtrapulp(small_rmat, 4, nprocs=4, backend=rt,
                   params=PulpParams(comm="flat"))
    assert rt.comm_strategy is None and res.comm == "flat"
    assert not res.stats.tiered


def test_num_parts_independent_of_nprocs(small_rmat):
    res = xtrapulp(small_rmat, 13, nprocs=4)  # p != nprocs, p not power of 2
    assert set(np.unique(res.parts)) <= set(range(13))
    assert res.quality().vertex_balance <= 1.5


def test_er_graph_end_to_end():
    g = erdos_renyi(2048, 16, seed=6)
    res = xtrapulp(g, 8, nprocs=4)
    q = res.quality()
    assert q.vertex_balance <= 1.25
