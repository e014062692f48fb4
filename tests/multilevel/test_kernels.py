"""``segment_best_label``: one stable sort of a combined key + a segmented
first maximum, against the two-``lexsort`` version it replaced
(``tests/reference/segment_best.py``).  Equality is exact — labels *and*
weights: the grouping permutation is the same, so every group's weights
add in the same order, and the first maximum per source is the group a
stable descending sort puts first."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.multilevel.kernels import segment_best_label
from tests.reference.segment_best import segment_best_label as reference


def _assert_same(src, lab, w, n):
    got = segment_best_label(src, lab, w, n)
    want = reference(src, lab, w, n)
    for g, r in zip(got, want):
        assert g.dtype == r.dtype
        np.testing.assert_array_equal(g, r)
    return got


@st.composite
def arc_lists(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    m = draw(st.integers(min_value=1, max_value=160))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # vertices without arcs at both ends of the id range (and in between)
    lo = draw(st.integers(0, n - 1))
    hi = draw(st.integers(lo, n - 1))
    src = rng.integers(lo, hi + 1, size=m)
    # few labels: repeated (src, lab) pairs; many: ``lab`` far beyond ``n``
    n_labels = draw(st.sampled_from([1, 2, 5, 40, 10 ** 6]))
    lab = rng.integers(0, n_labels, size=m)
    if draw(st.booleans()):
        # integer weights: ties between a vertex's labels everywhere
        w = rng.integers(1, 4, size=m).astype(np.float64)
    else:
        w = rng.uniform(1.0, 10.0, size=m) * 10.0 ** rng.integers(-3, 12, m)
    order = draw(st.sampled_from(["sorted", "shuffled", "by_src"]))
    if order == "sorted":      # CSR order, the matcher's input
        perm = np.lexsort((lab, src))
    elif order == "by_src":    # LP clustering: sources sorted, labels not
        perm = np.argsort(src, kind="stable")
    else:
        perm = rng.permutation(m)
    return src[perm], lab[perm], w[perm], n


@settings(max_examples=300, deadline=None)
@given(arc_lists())
def test_matches_the_lexsort_reference(case):
    _assert_same(*case)


def test_first_maximum_wins_ties():
    # vertex 0: labels 7 and 3 tie at 2.0 (3 is smaller -> wins); vertex 2:
    # label 9 reaches 3.0 only by summing its repeated arcs
    src = np.array([0, 0, 0, 2, 2, 2, 2])
    lab = np.array([7, 3, 5, 9, 4, 9, 9])
    w = np.array([2.0, 2.0, 1.0, 1.0, 2.5, 1.0, 1.0])
    best, weight = _assert_same(src, lab, w, 4)
    np.testing.assert_array_equal(best, [3, -1, 9, -1])
    np.testing.assert_array_equal(weight, [2.0, 0.0, 3.0, 0.0])


def test_one_vertex_and_empty_input():
    _assert_same(np.array([0, 0]), np.array([5, 5]), np.array([1.0, 2.0]), 1)
    empty = np.empty(0, dtype=np.int64)
    best, weight = _assert_same(empty, empty, np.empty(0), 3)
    np.testing.assert_array_equal(best, [-1, -1, -1])
    np.testing.assert_array_equal(weight, [0.0, 0.0, 0.0])


def test_key_overflow_and_negative_labels_raise():
    src = np.array([0, 1])
    w = np.ones(2)
    # n * (max label + 1) must stay below 2**63
    with pytest.raises(ValueError, match="labels must lie in"):
        segment_best_label(src, np.array([0, 2 ** 61 - 1]), w, 4)
    best, _ = segment_best_label(src, np.array([0, 2 ** 61 - 2]), w, 4)
    np.testing.assert_array_equal(best, [0, 2 ** 61 - 2, -1, -1])
    with pytest.raises(ValueError, match="labels must lie in"):
        segment_best_label(src, np.array([-1, 3]), w, 2)
