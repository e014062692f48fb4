"""Property tests on the distributed coarsener (ISSUE 10 satellite).

The contraction invariants, per hierarchy level:

- **vertex-weight conservation** — coarse vertex mass sums to the fine
  graph's (the simulator's unit weights: exactly ``n`` at every level);
- **edge-weight conservation** — the coarse level's total edge weight
  equals the fine level's inter-cluster weight (intra-cluster weight is
  folded into vertices, never lost);
- **distribution consistency** — each coarse level's ranks jointly own
  every vertex exactly once and each ghost's recorded owner matches the
  level's distribution (the ghost-count conservation check: ghosts exist
  precisely where the one-hop neighborhood crosses ranks).

All replicated per-level arrays must also be bit-identical across ranks:
the hierarchy is a pure function of ``(graph, dist, params)``, which is
what makes checkpoint resume re-execute it deterministically.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from repro.core import PulpParams, xtrapulp
from repro.dist import make_distribution
from repro.dist.wire import stored_dtype
from repro.graph import from_edges, mesh3d, rmat, webcrawl
from repro.multilevel import coarsen, hierarchy
from repro.multilevel.coarsen import local_eweights
from repro.multilevel.kernels import heavy_edge_matching
from repro.multilevel.hierarchy import build_hierarchy
from repro.simmpi import run_spmd
from tests.reference.contraction import reference_contract

#: a coarsening target below ``hierarchy.COARSEST_FACTOR``, so these small
#: graphs still coarsen through several levels
COARSEST_FACTOR = 8


def _arc_sources(graph):
    """Source vertex of every CSR arc (global view)."""
    return np.repeat(np.arange(graph.n), np.diff(graph.offsets))


def walk_hierarchy(comm, graph, dist, num_parts, params):
    """``build_hierarchy``'s loop over ``contract_level``, minus the release
    of each level's global ``graph`` / ``eweights``: the invariants below
    are stated on them.  Returns ``(levels, owned labels per contraction)``."""
    levels, labels = [coarsen.make_level0(comm, graph, dist, None)], []
    target = max(COARSEST_FACTOR * num_parts, 2 * comm.size)
    while len(levels) < params.ml_levels and levels[-1].size[0] > target:
        lvl = len(levels) - 1
        if params.ml_coarsen == "lp":
            owned = coarsen.lp_cluster_labels(
                comm, levels[-1], num_parts, params, lvl)
        else:
            owned = coarsen.hem_cluster_labels(comm, levels[-1], params, lvl)
        nxt = coarsen.contract_level(
            comm, levels[-1], owned, params, lvl,
            min_vertices=max(num_parts, comm.size))
        if nxt is None:
            break
        levels.append(nxt)
        labels.append(owned)
    return levels, labels


@st.composite
def hierarchy_cases(draw):
    scale = draw(st.integers(min_value=6, max_value=8))
    deg = draw(st.integers(min_value=4, max_value=10))
    seed = draw(st.integers(min_value=0, max_value=500))
    nprocs = draw(st.integers(min_value=1, max_value=4))
    mode = draw(st.sampled_from(["lp", "hem"]))
    return scale, deg, seed, nprocs, mode


def _build(scale, deg, seed, nprocs, mode):
    g = rmat(scale, deg, seed=seed)
    params = PulpParams(
        multilevel=True, ml_coarsen=mode, ml_levels=4, seed=seed,
    )
    dist = make_distribution("random", g.n, nprocs, seed=seed % 97)
    per_rank = run_spmd(
        nprocs, lambda comm: walk_hierarchy(comm, g, dist, 2, params)[0],
    )[0]
    return g, per_rank


@settings(max_examples=15, deadline=None)
@given(hierarchy_cases())
def test_contraction_invariants(case):
    g, per_rank = _build(*case)
    levels = per_rank[0]
    assert levels[0].graph.n == g.n
    for i in range(1, len(levels)):
        fine, coarse = levels[i - 1], levels[i]
        f2c = coarse.fine2coarse
        # a total surjective map onto the coarse id range
        assert f2c.shape == (fine.graph.n,)
        assert np.array_equal(
            np.unique(f2c), np.arange(coarse.graph.n)
        )
        assert coarse.graph.n < fine.graph.n
        # vertex mass conserved exactly (unit fine weights => n everywhere)
        assert coarse.vweights.sum() == g.n
        np.testing.assert_array_equal(
            coarse.vweights,
            np.bincount(f2c, weights=fine.vweights,
                        minlength=coarse.graph.n),
        )
        # edge weight conserved: coarse total == fine inter-cluster weight
        srcs = _arc_sources(fine.graph)
        inter = fine.eweights[f2c[srcs] != f2c[fine.graph.adj]].sum()
        assert coarse.eweights.sum() == inter
        # contraction folds intra-cluster arcs: no coarse self loops
        csrcs = _arc_sources(coarse.graph)
        assert np.all(csrcs != coarse.graph.adj)


@settings(max_examples=15, deadline=None)
@given(hierarchy_cases())
def test_hierarchy_distribution_and_replication(case):
    g, per_rank = _build(*case)
    depth = len(per_rank[0])
    assert all(len(lv) == depth for lv in per_rank)
    for i in range(depth):
        ref = per_rank[0][i]
        # replicated arrays bit-identical on every rank
        for lv in per_rank[1:]:
            np.testing.assert_array_equal(lv[i].graph.adj, ref.graph.adj)
            np.testing.assert_array_equal(lv[i].eweights, ref.eweights)
            np.testing.assert_array_equal(lv[i].vweights, ref.vweights)
            if i:
                np.testing.assert_array_equal(
                    lv[i].fine2coarse, ref.fine2coarse
                )
        # ranks jointly own every vertex exactly once
        owned = np.sort(np.concatenate(
            [lv[i].dg.owned_gids for lv in per_rank]
        ))
        np.testing.assert_array_equal(owned, np.arange(ref.graph.n))
        for lv in per_rank:
            dg = lv[i].dg
            # ghosts carry the distribution's owner, never the local rank
            for gid, owner in zip(dg.ghost_gids, dg.ghost_owners):
                assert lv[i].dist.owner(int(gid)) == owner
                assert owner != dg.rank
            # the local arc weights are the global slice for this rank
            np.testing.assert_array_equal(
                lv[i].ew_local,
                local_eweights(lv[i].graph, lv[i].eweights, dg),
            )


def test_hierarchy_is_deterministic():
    a = _build(7, 8, 11, 3, "lp")[1]
    b = _build(7, 8, 11, 3, "lp")[1]
    assert len(a[0]) == len(b[0]) >= 2
    for la, lb in zip(a[0], b[0]):
        np.testing.assert_array_equal(la.graph.adj, lb.graph.adj)
        np.testing.assert_array_equal(la.eweights, lb.eweights)


@pytest.mark.parametrize("mode", ["lp", "hem"])
@pytest.mark.parametrize(
    "graph",
    [rmat(9, 8, seed=3), mesh3d(9, 9, 9), webcrawl(1024, 12, seed=5)],
    ids=["rmat", "mesh", "webcrawl"],
)
def test_contract_level_matches_unique_reference(graph, mode):
    """The shared COO -> CSR aggregation + bitmap relabel yield exactly the
    values of the ``np.unique``-based contraction they replaced, at the
    coarse level's widths: ids (``adj``, ``fine2coarse``, the local
    ``adj``) in ``stored_dtype`` of the largest id, and edge weights at
    ``np.min_scalar_type`` of the largest weight, not the oracle's int64 /
    float64."""
    nprocs = 3
    params = PulpParams(
        multilevel=True, ml_coarsen=mode, ml_levels=4, seed=7,
    )
    dist = make_distribution("random", graph.n, nprocs, seed=7)
    per_rank = run_spmd(
        nprocs, lambda comm: walk_hierarchy(comm, graph, dist, 2, params),
    )[0]
    levels = per_rank[0][0]
    assert len(levels) >= 2
    for i in range(1, len(levels)):
        fine, coarse = levels[i - 1], levels[i]
        full = np.empty(fine.graph.n, dtype=np.int64)
        for r in range(nprocs):
            full[fine.dist.owned(r)] = per_rank[r][1][i - 1]
        offsets, adj, cw, cvw, f2c = reference_contract(
            fine.graph, fine.eweights, fine.vweights, full
        )
        id_dtype = stored_dtype(coarse.graph.n - 1)
        for got, want, want_dtype in [
            (coarse.graph.offsets, offsets, np.int64),
            (coarse.graph.adj, adj, id_dtype),
            (coarse.eweights, cw, np.min_scalar_type(int(cw.max()))),
            (coarse.vweights, cvw, np.float64),
            (coarse.fine2coarse, f2c, id_dtype),
        ]:
            assert got.dtype == want_dtype
            np.testing.assert_array_equal(got, want)
        for r in range(nprocs):
            mine = per_rank[r][0][i]
            assert mine.dg.adj.dtype == id_dtype
            assert mine.ew_local.dtype == coarse.eweights.dtype


@pytest.mark.parametrize("backend", ["serial", "threads"])
def test_coarse_arcs_are_aggregated_once_per_level(monkeypatch, backend):
    """The replicated half of a contraction runs where the label Allgatherv
    executes — once per level per address space, not once per rank."""
    calls = []
    real = coarsen.aggregate_coarse_arcs

    def counting(cs, cd, weights, nc):
        calls.append(nc)
        return real(cs, cd, weights, nc)

    monkeypatch.setattr(coarsen, "aggregate_coarse_arcs", counting)
    result = xtrapulp(
        mesh3d(16, 16, 16), 4, nprocs=4, backend=backend,
        params=PulpParams(seed=5, multilevel=True, ml_coarsen="hem"),
    )
    sizes = [n for n, _ in result.multilevel.level_sizes]
    assert calls == sizes[1:]
    assert len(calls) == 7  # it was 28: 7 levels x 4 ranks


def test_lost_edge_weight_names_the_level_and_both_sums(monkeypatch):
    """A conservation failure now surfaces from inside a collective; it
    must say where and by how much."""
    real = coarsen.aggregate_coarse_arcs

    def lossy(cs, cd, weights, nc):
        csr = real(cs, cd, weights, nc)
        csr.data[0] += 64.0
        return csr

    monkeypatch.setattr(coarsen, "aggregate_coarse_arcs", lossy)
    g = mesh3d(6, 6, 6)
    with pytest.raises(AssertionError) as info:
        xtrapulp(g, 2, nprocs=2, backend="serial",
                 params=PulpParams(seed=5, multilevel=True, ml_coarsen="hem"))
    msg = str(info.value)
    assert "level 0 lost edge weight" in msg
    assert repr(float(g.adj.size)) in msg            # the fine total
    assert repr(float(g.adj.size) + 64.0) in msg     # what was kept


def test_one_lost_unit_of_edge_weight_fails_its_own_level(monkeypatch):
    """Edge weights are integer counts of fine edges, so conservation is
    checked exactly: one unit lost out of 155 664 arcs, inside a relative
    tolerance of 1e-5, is caught at the level that lost it."""
    real = coarsen.aggregate_coarse_arcs

    def lossy(cs, cd, weights, nc):
        csr = real(cs, cd, weights, nc)
        csr.data[0] -= 1
        return csr

    monkeypatch.setattr(coarsen, "aggregate_coarse_arcs", lossy)
    g = mesh3d(24, 24, 24)
    with pytest.raises(AssertionError) as info:
        xtrapulp(g, 2, nprocs=2, backend="serial",
                 params=PulpParams(seed=5, multilevel=True, ml_coarsen="hem"))
    msg = str(info.value)
    assert "level 0 lost edge weight" in msg
    assert f"{float(g.adj.size)!r} -> {float(g.adj.size - 1)!r}" in msg


@pytest.mark.parametrize("mode", ["lp", "hem"])
def test_build_hierarchy_keeps_only_what_uncoarsening_reads(
        mode, monkeypatch):
    """``build_hierarchy`` is the walk above with every level's global
    ``graph`` / ``eweights`` released once contracted (level 0's ``Graph``
    stays the caller's); what uncoarsening reads is untouched."""
    monkeypatch.setattr(hierarchy, "COARSEST_FACTOR", COARSEST_FACTOR)
    g = mesh3d(9, 9, 9)
    nprocs = 3
    params = PulpParams(
        multilevel=True, ml_coarsen=mode, ml_levels=4, seed=7,
    )
    dist = make_distribution("random", g.n, nprocs, seed=7)
    built = run_spmd(
        nprocs, lambda comm: build_hierarchy(comm, g, dist, 2, params, None),
    )[0]
    walked = run_spmd(
        nprocs, lambda comm: walk_hierarchy(comm, g, dist, 2, params)[0],
    )[0]
    for got, want in zip(built, walked):
        assert len(got) == len(want) >= 2
        for a, b in zip(got, want):
            assert a.graph is None and a.eweights is None
            assert a.size == b.size == (b.graph.n, b.graph.num_edges)
            np.testing.assert_array_equal(a.dg.adj, b.dg.adj)
            np.testing.assert_array_equal(a.dg.l2g, b.dg.l2g)
            np.testing.assert_array_equal(a.ew_local, b.ew_local)
            np.testing.assert_array_equal(a.vweights, b.vweights)
            if b.fine2coarse is not None:
                np.testing.assert_array_equal(a.fine2coarse, b.fine2coarse)


def _hem_by_coo(level, params, level_index):
    """``hem_cluster_labels`` as it built its subgraph until the row
    compaction: a COO -> CSR rebuild (``tocsr`` sorts and sums duplicate
    arcs) from int64 endpoints."""
    dg, n = level.dg, level.dg.n_local
    srcs = np.repeat(np.arange(n, dtype=np.int64), dg.local_degrees)
    owned_arc = dg.adj < n
    sub = sparse.csr_matrix(
        (level.ew_local[owned_arc].astype(np.int64),
         (srcs[owned_arc], dg.adj[owned_arc].astype(np.int64))),
        shape=(n, n),
    )
    match = heavy_edge_matching(
        sub, coarsen._cluster_rng(params, dg.rank, level_index))
    return dg.owned_gids[match] if n else np.empty(0, dtype=np.int64)


@pytest.mark.parametrize("graph", [
    mesh3d(9, 9, 9),
    # parallel arcs: the compacted rows are not canonical, scipy sums them
    from_edges(300, *np.random.default_rng(3).integers(0, 300, (2, 2400)),
               dedup=False),
], ids=["mesh", "multigraph"])
def test_hem_row_compaction_matches_the_coo_route(graph):
    """The owned subgraph compacted from the local rows (4-byte indices,
    the level's weight width) matches every level's COO rebuild."""
    nprocs = 3
    params = PulpParams(multilevel=True, ml_coarsen="hem", ml_levels=4,
                        seed=7)
    dist = make_distribution("random", graph.n, nprocs, seed=7)
    per_rank = run_spmd(
        nprocs, lambda comm: walk_hierarchy(comm, graph, dist, 2, params),
    )[0]
    assert len(per_rank[0][0]) >= 2
    for levels, labels in per_rank:
        for i, owned in enumerate(labels):
            np.testing.assert_array_equal(
                owned, _hem_by_coo(levels[i], params, i))
