"""Shared-memory PuLP baseline."""

import numpy as np
import pytest

from repro.baselines import pulp
from repro.baselines.pulp_shared import SHARED_MEMORY_NODE
from repro.core import PulpParams, xtrapulp
from repro.graph import rmat, webcrawl


@pytest.fixture(scope="module")
def g():
    return rmat(11, 16, seed=1)


def test_pulp_valid_partition(g):
    res = pulp(g, 8, threads=4)
    assert res.parts.shape == (g.n,)
    q = res.quality()
    assert q.vertex_balance <= 1.25


def test_pulp_uses_shared_memory_machine(g):
    res = pulp(g, 4, threads=4)
    assert res.machine is SHARED_MEMORY_NODE
    assert res.params.x == res.params.y == 1.0  # exact size updates


def test_pulp_no_network_cheaper_than_distributed(g):
    from repro.simmpi.timing import TimeModel

    shared = pulp(g, 8, threads=4)
    dist = xtrapulp(g, 8, nprocs=4)
    # same engine, but the shared-memory machine has ~no network: the
    # communication share of the modeled time must be far smaller
    def comm_time(res):
        b = TimeModel(res.machine).breakdown(res.stats)
        return b["latency"] + b["bandwidth"]

    assert comm_time(shared) < 0.5 * comm_time(dist)


def test_pulp_single_objective(g):
    res = pulp(g, 4, threads=2, single_objective=True)
    tags = {e.tag for e in res.stats.events}
    assert "edge_balance" not in tags


def test_pulp_deterministic(g):
    a = pulp(g, 4, threads=4, seed=3)
    b = pulp(g, 4, threads=4, seed=3)
    np.testing.assert_array_equal(a.parts, b.parts)


def test_pulp_custom_params():
    g2 = webcrawl(1024, 12, seed=2)
    res = pulp(g2, 4, params=PulpParams(outer_iters=1, x=3.0, y=0.25,
                                        seed=0), threads=2)
    # exact size updates despite custom params
    assert res.params.x == res.params.y == 1.0
    assert res.params.outer_iters == 1
    assert res.parts.min() >= 0
