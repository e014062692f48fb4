"""Frontier (active-set) sweep engine correctness.

The oracle is the paper's exhaustive schedule — every iteration scores
every owned vertex — which lives in ``tests/reference/exhaustive.py``.
Three guarantees are enforced here:

1. that reference reproduces the partition and communication record
   captured from the ``frontier=False`` option before it was removed;
2. the active set satisfies the same balance constraints as exhaustive
   sweeps, with edge cut within 5% (hypothesis property test over random
   RMAT / Erdős–Rényi graphs);
3. the ghost→owned reverse incidence matches the forward CSR, and the
   active set provably shrinks (edges touched drop vs exhaustive).
"""

import hashlib
from contextlib import nullcontext

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import PulpParams, xtrapulp
from repro.core.initialization import initialize
from repro.core.lp import SPECS, lp_phase
from repro.core.state import RankState
from repro.dist import build_dist_graph, make_distribution
from repro.graph import generators
from repro.simmpi import run_spmd
from tests.reference.exhaustive import exhaustive_sweeps


def _run(graph, *, exhaustive=False, num_parts=8, nprocs=3, seed=123):
    with exhaustive_sweeps() if exhaustive else nullcontext():
        return xtrapulp(
            graph, num_parts, nprocs=nprocs, params=PulpParams(seed=seed),
        )


# -- 1. the exhaustive reference ---------------------------------------------


def test_exhaustive_sweeps_pinned_digests():
    # captured from ``frontier=False`` on serial ranks: the schedule every
    # exhaustive-sweep comparison in this file is made against (the record
    # and its modeled time retaken, parts unmoved, when initialization
    # stopped broadcasting roots and exchanging what every rank knew,
    # again when its BFS rounds stopped scanning isolated vertices, again
    # when each LP iteration's delta sum began riding its exchange, and
    # again when the build's two scalar rounds began to be metered by
    # their nbytes)
    r = _run(generators.rmat(10, avg_degree=8, seed=11), exhaustive=True)
    assert hashlib.sha256(r.parts.tobytes()).hexdigest() == (
        "75b64793dd0b730115f110e4cc3f33ad0864b1d35c6b7b5c512a20554fe3da7b")
    assert hashlib.sha256(
        repr(r.stats.signature()).encode()
    ).hexdigest() == (
        "374eefb358d14eeab4d7d78028a12b630a95d5be6a44179a77a92fa5204f92ef")
    assert r.modeled_seconds == 0.0006972716666666666


def test_frontier_modes_are_deterministic():
    g = generators.rmat(8, avg_degree=8, seed=5)
    for exhaustive in (False, True):
        a = _run(g, exhaustive=exhaustive)
        b = _run(g, exhaustive=exhaustive)
        np.testing.assert_array_equal(a.parts, b.parts)
        assert a.stats.bytes_by_tag() == b.stats.bytes_by_tag()


# -- 2. active-set quality stays within tolerance ---------------------------


@settings(max_examples=6, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(["rmat", "er"]),
    scale=st.integers(min_value=9, max_value=10),
    seed=st.integers(min_value=0, max_value=2**20),
)
def test_frontier_preserves_balance_and_cut(family, scale, seed):
    if family == "rmat":
        g = generators.rmat(scale, avg_degree=8, seed=seed)
    else:
        g = generators.erdos_renyi(2**scale, avg_degree=8, seed=seed)
    p = 8
    # a single BSP trajectory's cut has seed-to-seed noise comparable to
    # the tolerance under test at these scales, so compare means over a
    # few partition seeds — the 5% claim is about the approximation, not
    # about out-lucking one particular legacy trajectory
    cut_a = cut_l = 0.0
    for s in range(seed % 1000, seed % 1000 + 3):
        active = _run(g, num_parts=p, seed=s)
        legacy = _run(g, exhaustive=True, num_parts=p, seed=s)
        qa, ql = active.quality(g), legacy.quality(g)
        cut_a += qa.cut
        cut_l += ql.cut
        # same vertex-balance constraint, every run: the active-set run
        # may not be meaningfully worse-balanced than the exhaustive run
        # (vertex_balance = max part size / (n/p), 1.10 is the constraint)
        slack = p / g.n  # one vertex of headroom
        assert qa.vertex_balance <= max(ql.vertex_balance, 1.10) * 1.02 + slack
    # edge cut within 5% (the active-set approximation's quality budget)
    assert cut_a <= cut_l * 1.05 + 8


# -- 3. structure + work reduction ------------------------------------------


def test_ghost_incidence_matches_forward_adjacency():
    g = generators.rmat(9, avg_degree=8, seed=3)
    dist = make_distribution("random", g.n, 3, seed=3)

    def main(comm):
        dg = build_dist_graph(comm, g, dist)
        # reverse incidence: for every ghost, its owned neighbors —
        # rebuilt here by scanning the forward CSR
        expect = {
            int(gl): set() for gl in range(dg.n_local, dg.n_total)
        }
        for u in range(dg.n_local):
            for v in dg.neighbors(u):
                if v >= dg.n_local:
                    expect[int(v)].add(u)
        for gl in range(dg.n_local, dg.n_total):
            got = dg.ghost_touch_sources(np.array([gl], dtype=np.int64))
            assert set(got.tolist()) == expect[gl]
            # sorted ascending within each ghost's slice (determinism)
            assert np.all(np.diff(got) >= 0)
        return True

    assert all(run_spmd(3, main)[0])


def test_frontier_shrinks_edges_touched():
    g = generators.rmat(10, avg_degree=8, seed=9)
    p = 8

    def sweep_edges(exhaustive):
        params = PulpParams(seed=7)
        dist = make_distribution("random", g.n, 2, seed=7)

        def main(comm):
            dg = build_dist_graph(comm, g, dist)
            state = RankState(dg=dg, num_parts=p, params=params)
            initialize(comm, state)
            state.edges_touched = 0.0
            lp_phase(comm, state, SPECS["vertex_balance"], 5)
            lp_phase(comm, state, SPECS["vertex_refine"], 10)
            return state.edges_touched, state.sweep_log

        with exhaustive_sweeps() if exhaustive else nullcontext():
            return run_spmd(2, main)[0]

    active_runs = sweep_edges(False)
    legacy_runs = sweep_edges(True)
    active_total = sum(e for e, _ in active_runs)
    legacy_total = sum(e for e, _ in legacy_runs)
    assert active_total < legacy_total
    for _, log in active_runs:
        refine = [
            (a, nl) for ph, _, a, nl, _ in log if ph == "vertex_refine"
        ]
        n_local = refine[0][1]
        # iteration 0 and the late cleanup pass (iters - 3) are exhaustive
        assert refine[0][0] == n_local
        assert refine[len(refine) - 3][0] == n_local
        # the remaining active sweeps shrank well below a full sweep
        assert min(a for a, _ in refine) < n_local // 2
    # the exhaustive schedule logs full sweeps every iteration
    for _, log in legacy_runs:
        assert all(active == n_local for _, _, active, n_local, _ in log)
