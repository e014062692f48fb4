"""Capacity-limited move admission (the vectorized per-move-update analog)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.capacity import enforce_count_capacity, enforce_weight_capacity


def test_count_capacity_basic():
    tgt = np.array([0, 0, 0, 1, 1])
    cap = np.array([2.0, 1.0])
    keep = enforce_count_capacity(tgt, cap)
    np.testing.assert_array_equal(keep, [True, True, False, True, False])


def test_count_capacity_scan_order_wins():
    # earlier candidates (lower index) win, mirroring the sequential scan
    tgt = np.array([1, 0, 1, 0, 1])
    cap = np.array([1.0, 2.0])
    keep = enforce_count_capacity(tgt, cap)
    np.testing.assert_array_equal(keep, [True, True, True, False, False])


def test_count_capacity_closed_parts():
    tgt = np.array([0, 1, 0])
    keep = enforce_count_capacity(tgt, np.array([0.0, -3.0]))
    assert not keep.any()


def test_count_capacity_fractional_floor():
    tgt = np.array([0, 0])
    keep = enforce_count_capacity(tgt, np.array([1.9]))
    np.testing.assert_array_equal(keep, [True, False])


def test_count_capacity_empty():
    assert enforce_count_capacity(np.array([], dtype=int), np.array([1.0])).size == 0


def test_weight_capacity_basic():
    tgt = np.array([0, 0, 0])
    w = np.array([2.0, 3.0, 1.0])
    keep = enforce_weight_capacity(tgt, w, np.array([5.0]))
    # running sums 2, 5, 6 → third exceeds
    np.testing.assert_array_equal(keep, [True, True, False])


def test_weight_capacity_negative_weights_allowed():
    # cut deltas can be negative; running sum can dip and recover
    tgt = np.array([0, 0, 0])
    w = np.array([4.0, -3.0, 4.0])
    keep = enforce_weight_capacity(tgt, w, np.array([5.0]))
    np.testing.assert_array_equal(keep, [True, True, True])


def test_weight_capacity_per_part_independent():
    tgt = np.array([0, 1, 0, 1])
    w = np.array([5.0, 1.0, 5.0, 1.0])
    keep = enforce_weight_capacity(tgt, w, np.array([5.0, 10.0]))
    np.testing.assert_array_equal(keep, [True, True, False, True])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=3), max_size=30),
    st.lists(st.floats(min_value=0, max_value=10), min_size=4, max_size=4),
)
def test_count_capacity_matches_sequential_simulation(targets, caps):
    tgt = np.array(targets, dtype=np.int64)
    cap = np.array(caps)
    keep = enforce_count_capacity(tgt, cap)
    # sequential reference
    used = np.zeros(4)
    expected = []
    for t in targets:
        ok = used[t] + 1 <= np.floor(max(cap[t], 0.0)) or (
            used[t] < np.floor(max(cap[t], 0.0))
        )
        ok = used[t] < np.floor(max(cap[t], 0.0))
        expected.append(bool(ok))
        if ok:
            used[t] += 1
    np.testing.assert_array_equal(keep, expected)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),
            st.floats(min_value=-5, max_value=5),
        ),
        max_size=25,
    ),
    st.lists(st.floats(min_value=0, max_value=12), min_size=3, max_size=3),
)
def test_weight_capacity_matches_sequential_simulation(moves, caps):
    tgt = np.array([m[0] for m in moves], dtype=np.int64)
    w = np.array([m[1] for m in moves])
    cap = np.array(caps)
    keep = enforce_weight_capacity(tgt, w, cap)
    running = np.zeros(3)
    expected = []
    for t, weight in moves:
        # NOTE: admission checks the running sum *including* every prior
        # candidate of this part (admitted or not has no effect here —
        # rejected ones are not subtracted), matching the implementation's
        # prefix-sum rule
        running[t] += weight
        expected.append(bool(running[t] <= max(cap[t], 0.0)))
    np.testing.assert_array_equal(keep, expected)


def test_weight_capacity_many_parts_few_candidates():
    # p = 256 with one crowded target among mostly empty parts: padding
    # every part to the widest group would be degenerate, so this takes
    # the per-part path, which must visit the non-empty groups only and
    # still agree with the sequential rule (float weights, sums in order)
    p = 256
    rng = np.random.default_rng(5)
    tgt = np.concatenate([np.full(40, 17), rng.integers(0, p, 12)])
    rng.shuffle(tgt)
    w = rng.uniform(-1.0, 3.0, tgt.size)
    cap = rng.uniform(0.0, 20.0, p)
    assert p * np.bincount(tgt).max() > max(8 * tgt.size, 4096)
    keep = enforce_weight_capacity(tgt, w, cap)
    running = np.zeros(p)
    expected = []
    for t, weight in zip(tgt, w):
        running[t] += weight
        expected.append(bool(running[t] <= cap[t]))
    np.testing.assert_array_equal(keep, expected)
