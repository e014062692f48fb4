"""The block scorer: dense and sparse kernels against each other and
against a per-row loop, for the five phase configurations."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import scoring
from repro.core.params import PulpParams
from repro.core.state import RankState
from repro.dist import build_dist_graph, make_distribution
from repro.graph import from_edges, rmat
from repro.simmpi import create_runtime
from tests.graphs import ring

PHASES = ("vertex_balance", "vertex_refine", "edge_balance", "edge_refine",
          "ml_refine")


def one_rank_state(graph, p, **params):
    dist = make_distribution("block", graph.n, 1)
    rt = create_runtime("serial", nprocs=1)
    try:
        (state,) = rt.run(
            lambda comm: RankState(
                dg=build_dist_graph(comm, graph, dist),
                num_parts=p, params=PulpParams(**params),
            )
        )
    finally:
        rt.close()
    return state


def phase_config(phase, state, lids, rng, tight):
    """Scorer arguments shaped like ``phase``'s call, with random per-part
    vectors; ``tight`` draws limits low enough to block many entries."""
    p = state.num_parts
    est = rng.integers(0, 6, p).astype(np.float64)
    vw = rng.integers(1, 4, lids.size).astype(np.float64)
    limit = float(rng.integers(1, 5) if tight else 50)
    vertex = (est, vw, limit)
    if phase == "vertex_balance":
        return dict(tally="degree", constraints=[vertex],
                    part_weight=rng.integers(0, 3, p) / 2.0)
    if phase == "vertex_refine":
        return dict(tally="unit", constraints=[vertex])
    if phase == "ml_refine":
        # sums of these depend on the order of addition
        ew = rng.choice([0.1, 0.2, 0.3, 0.7, 1.0], state.dg.adj.size)
        return dict(tally=ew, constraints=[vertex])
    deg = state.dg.local_degrees[lids].astype(np.float64)
    edge = (rng.integers(0, 20, p).astype(np.float64), deg,
            float(rng.integers(5, 25) if tight else 500))
    if phase == "edge_balance":
        return dict(tally="degree", constraints=[vertex, edge],
                    part_weight=rng.integers(0, 4, p) / 3.0,
                    plain_counts=True)
    assert phase == "edge_refine"
    cut = (rng.integers(0, 10, p).astype(np.float64),
           float(rng.integers(0, 12) if tight else 100))
    return dict(tally="unit", constraints=[vertex, edge], cut=cut)


def reference(state, lids, tally="unit", part_weight=None, constraints=(),
              cut=None, plain_counts=False):
    """The contract, one row and one part at a time."""
    dg, p = state.dg, state.num_parts
    cand, target, n_x, n_w = [], [], [], []
    for i, lid in enumerate(lids):
        score = [0.0] * p
        plain = [0] * p
        for a in range(dg.offsets[lid], dg.offsets[lid + 1]):
            k = state.parts[dg.adj[a]]
            if k < 0:
                continue
            plain[k] += 1
            if isinstance(tally, str):
                score[k] += (
                    float(dg.degrees_full[dg.adj[a]])
                    if tally == "degree" else 1.0
                )
            else:
                score[k] += tally[a]
        deg = float(dg.offsets[lid + 1] - dg.offsets[lid])
        for k in range(p):
            if part_weight is not None:
                score[k] *= part_weight[k]
            if any(e[k] + add[i] > lim for e, add, lim in constraints):
                score[k] = 0.0
            if cut is not None and cut[0][k] + (deg - 2.0 * plain[k]) > cut[1]:
                score[k] = 0.0
        best = max(range(p), key=lambda k: (score[k], -k))
        here = state.parts[lid]
        if score[best] > score[here]:
            cand.append(i)
            target.append(best)
            n_x.append(plain[here])
            n_w.append(plain[best])
    if not (plain_counts or cut is not None):
        return cand, target, None, None
    return cand, target, n_x, n_w


def both_kernels(state, lids, tally="unit", part_weight=None,
                 constraints=(), cut=None, plain_counts=False):
    """Both kernels on the block's arcs (at least one, as they require);
    each gets its own copy of the key, which the sparse one sorts in place."""
    key, w_arc, counts = state.gather_block(lids, tally)
    head = (lids.size, state.num_parts, state.parts[lids])
    tail = (w_arc, part_weight, constraints, cut, counts,
            plain_counts or cut is not None)
    return (scoring.score_dense(*head, key.copy(), *tail),
            scoring.score_sparse(*head, key.copy(), *tail))


def assert_same(got, want, exact_dtype):
    for g, w in zip(got, want):
        if w is None:
            assert g is None
            continue
        np.testing.assert_array_equal(g, np.asarray(w, dtype=np.int64))
        if exact_dtype:
            assert g.dtype == w.dtype


@st.composite
def labelled_graphs(draw):
    n = draw(st.integers(1, 24))
    p = draw(st.integers(1, 9))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=60))
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    labels = np.array(
        draw(st.lists(st.integers(-1, p - 1), min_size=n, max_size=n)),
        dtype=np.int64)
    return from_edges(n, src, dst), p, labels, draw(st.integers(0, 2 ** 31))


@settings(max_examples=120, deadline=None)
@given(labelled_graphs(), st.sampled_from(PHASES), st.booleans())
def test_kernels_agree_with_each_other_and_the_loop(case, phase, tight):
    graph, p, labels, seed = case
    state = one_rank_state(graph, p)
    state.parts[:] = labels
    # a block scores assigned vertices; their neighbours need not be
    lids = np.flatnonzero(labels >= 0).astype(np.int64)
    if lids.size == 0:
        return
    kwargs = phase_config(phase, state, lids, np.random.default_rng(seed),
                          tight)
    want = reference(state, lids, **kwargs)
    if state.gather_block(lids)[0].size == 0:
        # no labelled arc: the entry point answers before any kernel runs
        assert want[0] == []
        assert_same(scoring.score_block(state, lids, **kwargs), want,
                    exact_dtype=False)
        return
    dense, sparse = both_kernels(state, lids, **kwargs)
    assert_same(sparse, dense, exact_dtype=True)
    assert_same(dense, want, exact_dtype=False)


def test_ties_go_to_the_lowest_part_id():
    # vertex 0 of a star sees one neighbour in each of parts 3, 1, 2
    graph = from_edges(4, np.array([0, 0, 0]), np.array([1, 2, 3]))
    state = one_rank_state(graph, 5)
    state.parts[:] = [0, 3, 1, 2]
    lids = np.array([0], dtype=np.int64)
    for out in both_kernels(state, lids, plain_counts=True):
        assert_same(out, ([0], [1], [0], [1]), exact_dtype=False)


def test_blocked_rows_and_absent_current_part():
    graph = ring(6)
    state = one_rank_state(graph, 4)
    state.parts[:] = [0, 1, 1, 1, 2, 3]
    lids = np.arange(6, dtype=np.int64)
    add = np.ones(6)
    # part 1 closed to everyone.  Vertex 2 (both neighbours in 1) has every
    # entry blocked and stays; 1 and 3 sit in the closed part, so their
    # own score is 0 and one neighbour elsewhere wins; 0, 4 and 5 have no
    # neighbour in their own part (score 0 by absence), and 5's 1-1 tie
    # between parts 0 and 2 goes to 0
    closed_1 = (np.array([0.0, 9.0, 0.0, 0.0]), add, 5.0)
    want = ([0, 1, 3, 4, 5], [3, 0, 2, 3, 0], [0, 1, 1, 0, 0], [1] * 5)
    for out in both_kernels(
            state, lids, constraints=[closed_1], plain_counts=True):
        assert_same(out, want, exact_dtype=False)
    # every part closed: nothing moves
    shut = (np.zeros(4), add, 0.5)
    for out in both_kernels(state, lids, constraints=[shut]):
        assert_same(out, ([], [], None, None), exact_dtype=False)


@pytest.mark.parametrize("graph, labels, lids", [
    # every neighbour of the block is still unlabelled
    (ring(6), [0, -1, -1, 1, -1, -1], [0, 3]),
    # a block of degree-0 rows
    (from_edges(4, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)),
     [0, 1, 2, 0], [0, 1, 2, 3]),
])
def test_empty_arc_list_yields_no_candidates(graph, labels, lids):
    state = one_rank_state(graph, 3)
    state.parts[:] = labels
    lids = np.array(lids, dtype=np.int64)
    assert state.gather_block(lids)[0].size == 0
    assert_same(scoring.score_block(state, lids),
                ([], [], None, None), exact_dtype=False)
    assert_same(scoring.score_block(state, lids, plain_counts=True),
                ([], [], [], []), exact_dtype=False)


def test_sorted_runs_is_stable_without_room_to_pack_the_index():
    rng = np.random.default_rng(3)
    key = rng.integers(0, 50, 400)
    w = rng.random(400)
    packed = scoring._sorted_runs(key.copy(), 50, w)
    # a bound this large leaves no bits for the arc index
    fallback = scoring._sorted_runs(key.copy(), 2 ** 62, w)
    for a, b in zip(packed, fallback):
        np.testing.assert_array_equal(a, b)
    order = np.argsort(key, kind="stable")
    np.testing.assert_array_equal(packed[2], w[order])


def test_score_block_picks_the_kernel_by_occupancy(monkeypatch):
    graph = rmat(9, 8, seed=4)
    calls = []
    for name in ("score_dense", "score_sparse"):
        kernel = getattr(scoring, name)
        monkeypatch.setattr(
            scoring, name,
            lambda *a, _k=kernel, _n=name: calls.append(_n) or _k(*a))
    outs = {}
    # narrow matrix; wide and mostly empty; wide but a third occupied
    for p, graph in ((16, graph), (256, graph), (64, rmat(7, 40, seed=4))):
        state = one_rank_state(graph, p)
        state.parts[:] = np.arange(state.dg.n_total) % p
        lids = np.arange(state.dg.n_local, dtype=np.int64)
        outs[p] = scoring.score_block(state, lids, tally="degree")
        arcs = state.dg.adj.size
        # work is charged by the gather, whichever kernel runs
        assert state.edges_touched == arcs
        assert state.work_pending == 2.0 * arcs + lids.size + p
    assert calls == ["score_dense", "score_sparse", "score_dense"]
    assert outs[256][0].size  # the sparse side found candidates


@pytest.mark.parametrize("p, kernel", [(8, "score_dense"),
                                       (256, "score_sparse")])
def test_unassigned_own_label_is_an_error_in_both_kernels(
        monkeypatch, p, kernel):
    # x = -1 would wrap to part p - 1 in the dense kernel and match no
    # entry in the sparse one: two different wrong answers, no complaint
    graph = rmat(8, 8, seed=2)
    state = one_rank_state(graph, p)
    state.parts[:] = np.arange(state.dg.n_total) % p
    lids = np.arange(40, 120, dtype=np.int64)
    ran = []
    monkeypatch.setattr(
        scoring, kernel,
        lambda *a, _k=getattr(scoring, kernel): ran.append(1) or _k(*a))
    scoring.score_block(state, lids)
    assert ran  # this p does reach the kernel in question
    state.parts[57] = -1
    with pytest.raises(ValueError, match=r"lid 57 is UNASSIGNED"):
        scoring.score_block(state, lids)
    # nothing was gathered or charged for the refused block
    state.work_pending = 0.0
    with pytest.raises(ValueError):
        scoring.score_block(state, lids, plain_counts=True)
    assert state.work_pending == 0.0
    # an UNASSIGNED *neighbour* outside the block stays legal
    scoring.score_block(state, np.arange(0, 40, dtype=np.int64))


# -- constraints tested only where they can bind ------------------------------

SHAPES = ("tie", "one_row", "one_part", "nothing", "everything", "mixed")


def shaped_constraint(rng, shape, scale, add, p, cell=(0, 0), plain=0):
    """``(est, add, limit)`` at magnitude ``scale`` whose blocked cells have
    the given shape.  ``add`` is used as drawn except for "one_row";
    "tie" puts ``cell`` = (row, part) exactly on the limit (for the cut
    rule, given the cell's ``plain`` count)."""
    est = rng.uniform(0.5, 4.0, p) * scale
    add = add * scale
    if shape == "one_row":
        add = add.copy()
        add[rng.integers(add.size)] = 8.0 * add.max()
    if shape == "one_part":
        est[rng.integers(p)] = 8.0 * est.max()
    if shape == "tie":
        # an occupied cell sits exactly on the limit and must stay open
        limit = est[cell[1]] + (add[cell[0]] - 2.0 * plain)
    elif shape == "nothing":
        limit = est.max() + add.max()     # the fullest cell ties: open
    elif shape == "everything":
        limit = (est.min() + add.min()) / 2.0
    elif shape == "one_row":
        limit = est.min() + np.sort(add)[-2]
    elif shape == "one_part":
        limit = np.sort(est)[-2] + add.max() if p > 1 else est[0]
    else:
        limit = rng.uniform(est.min() + add.min(), est.max() + add.max())
    return est, add, float(limit)


@settings(max_examples=150, deadline=None)
@given(labelled_graphs(), st.sampled_from(SHAPES), st.sampled_from(SHAPES),
       st.sampled_from([1e-3, 1.0, 1e6, 1e15]), st.booleans())
def test_pruned_constraints_equal_the_loop(case, shape, cut_shape, scale,
                                           weighted):
    graph, p, labels, seed = case
    state = one_rank_state(graph, p)
    state.parts[:] = labels
    lids = np.flatnonzero(labels >= 0).astype(np.int64)
    if lids.size == 0 or state.gather_block(lids)[0].size == 0:
        return
    rng = np.random.default_rng(seed)
    # a cell some row has neighbours in: closing it changes that row's scores
    key = state.gather_block(lids)[0]
    at = int(rng.choice(key))
    cell = divmod(at, p)
    vertex = shaped_constraint(
        rng, shape, scale, rng.uniform(0.5, 2.5, lids.size), p, cell)
    # the cut rule's addend is the row degree; rows with plain = 0
    # (isolated, or every neighbour UNASSIGNED) come with the graphs
    deg = state.dg.local_degrees[lids].astype(np.float64)
    est_c, _, maxc = shaped_constraint(
        rng, cut_shape, 1.0, deg, p, cell, np.count_nonzero(key == at))
    kwargs = dict(constraints=[vertex], cut=(est_c, maxc),
                  tally="degree" if weighted else "unit",
                  part_weight=rng.integers(0, 3, p) / 2.0)
    want = reference(state, lids, **kwargs)
    # blocks this small are below the pruning rule's size threshold
    with mock.patch.object(scoring, "PRUNE_MIN_CELLS", 0):
        dense, sparse = both_kernels(state, lids, **kwargs)
    assert_same(sparse, dense, exact_dtype=True)
    assert_same(dense, want, exact_dtype=False)
    unpruned = both_kernels(state, lids, **kwargs)
    assert_same(unpruned[0], dense, exact_dtype=True)
    assert_same(unpruned[1], dense, exact_dtype=True)


@pytest.mark.parametrize("shape", SHAPES)
def test_pruning_at_its_real_size_matches_the_full_test(shape):
    # 512 x 64 cells: above PRUNE_MIN_CELLS, so the corner path runs as
    # shipped; the reference is the same kernels with pruning turned off
    graph = rmat(9, 8, seed=4)
    p = 64
    state = one_rank_state(graph, p)
    rng = np.random.default_rng(9)
    state.parts[:] = rng.integers(0, p, state.dg.n_total)
    lids = np.arange(state.dg.n_local, dtype=np.int64)
    assert lids.size * p > scoring.PRUNE_MIN_CELLS
    deg = state.dg.local_degrees.astype(np.float64)
    vw = rng.uniform(0.5, 2.5, lids.size)
    kwargs = dict(
        constraints=[
            shaped_constraint(rng, shape, 3.0, vw, p),
            shaped_constraint(rng, "mixed", 1.0, deg, p),
        ],
        cut=shaped_constraint(rng, shape, 1.0, deg, p)[::2],
    )
    pruned = both_kernels(state, lids, **kwargs)
    with mock.patch.object(scoring, "PRUNE_MIN_CELLS", 2 ** 62):
        full = both_kernels(state, lids, **kwargs)
    for got in pruned:
        assert_same(got, full[0], exact_dtype=True)
    assert_same(full[1], full[0], exact_dtype=True)
    if shape not in ("everything", "nothing"):
        assert 0 < pruned[0][0].size
