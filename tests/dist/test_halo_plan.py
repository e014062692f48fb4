"""The halo plan read off the build is the plan a gid round trip connects.

:func:`ghost_plan` takes no round: it buckets the build's ghost owners and
send pairs.  :func:`connect_plan` over the ghost layer asks every owner
for its ghosts with one ``Alltoallv``.  On graphs with isolated vertices
and several components, at 1 to 8 ranks, under random, block and
partition distributions and on every backend, the two plans hold the same
four arrays and move the same values.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dist import build_dist_graph, connect_plan, ghost_plan
from repro.dist.distribution import make_distribution
from repro.graph import from_edges
from repro.simmpi import run_spmd

#: Examples per backend: ``procs`` forks every rank of every example.
EXAMPLES = {"serial": 40, "threads": 20, "procs": 6}


@st.composite
def _cases(draw):
    """A graph of a few random components plus isolated vertices, a rank
    count and a distribution of it."""
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=4))
    isolated = draw(st.integers(0, 6))
    n = sum(sizes) + isolated
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    src, dst, start = [], [], 0
    for size in sizes:  # edges only inside each component
        m = int(rng.integers(0, 3 * size + 1))
        src.append(start + rng.integers(0, size, size=m))
        dst.append(start + rng.integers(0, size, size=m))
        start += size
    graph = from_edges(n, np.concatenate(src), np.concatenate(dst))
    nprocs = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["random", "block", "partition"]))
    parts = rng.integers(0, nprocs, size=n) if kind == "partition" else None
    dist = make_distribution(kind, n, nprocs, seed=seed % 1000, parts=parts)
    return graph, dist, seed


def _body(comm, graph, dist, seed):
    dg = build_dist_graph(comm, graph, dist)
    read = ghost_plan(dg)
    asked = connect_plan(comm, dg.ghost_gids, dg.ghost_owners,
                         np.arange(dg.n_local, dg.n_total), dg.owned_gids)
    for name in ("copy_slots", "copy_counts", "owned_slots", "owned_counts"):
        np.testing.assert_array_equal(getattr(read, name),
                                      getattr(asked, name), err_msg=name)
    rng = np.random.default_rng(seed + comm.rank)
    values = rng.random(dg.n_total)
    pulled = [plan.pull(comm, values.copy()) for plan in (read, asked)]
    pushed = [plan.push(comm, values.copy(), op="sum")
              for plan in (read, asked)]
    np.testing.assert_array_equal(*pulled)
    np.testing.assert_array_equal(*pushed)
    return True


@pytest.mark.parametrize("backend", sorted(EXAMPLES))
def test_ghost_plan_is_the_connected_plan(backend):
    @settings(max_examples=EXAMPLES[backend], deadline=None)
    @given(case=_cases())
    def check(case):
        graph, dist, seed = case
        out, _ = run_spmd(dist.nprocs, _body, graph, dist, seed,
                          backend=backend)
        assert all(out)

    check()
