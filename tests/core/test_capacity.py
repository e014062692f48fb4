"""Capacity-limited move admission (the vectorized per-move-update analog)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.capacity import enforce_weight_capacity


def test_count_capacity_closed_parts():
    # "at most cap[k] candidates" is the unit-weight case; zero and
    # negative capacities both mean closed
    tgt = np.array([0, 1, 0])
    keep = enforce_weight_capacity(
        tgt, [(np.ones(3), np.array([0.0, -3.0]))])
    assert not keep.any()


def test_count_capacity_empty():
    keep = enforce_weight_capacity(
        np.array([], dtype=int), [(np.array([]), np.array([1.0]))])
    assert keep.size == 0 and keep.dtype == bool


def test_weight_capacity_basic():
    tgt = np.array([0, 0, 0])
    w = np.array([2.0, 3.0, 1.0])
    keep = enforce_weight_capacity(tgt, [(w, np.array([5.0]))])
    # running sums 2, 5, 6 → third exceeds
    np.testing.assert_array_equal(keep, [True, True, False])


def test_weight_capacity_negative_weights_allowed():
    # cut deltas can be negative; running sum can dip and recover
    tgt = np.array([0, 0, 0])
    w = np.array([4.0, -3.0, 4.0])
    keep = enforce_weight_capacity(tgt, [(w, np.array([5.0]))])
    np.testing.assert_array_equal(keep, [True, True, True])


def test_weight_capacity_per_part_independent():
    tgt = np.array([0, 1, 0, 1])
    w = np.array([5.0, 1.0, 5.0, 1.0])
    keep = enforce_weight_capacity(tgt, [(w, np.array([5.0, 10.0]))])
    np.testing.assert_array_equal(keep, [True, True, False, True])


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
    keep = enforce_weight_capacity(tgt, [(w, cap)])
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
    keep = enforce_weight_capacity(tgt, [(w, cap)])
    running = np.zeros(p)
    expected = []
    for t, weight in zip(tgt, w):
        running[t] += weight
        expected.append(bool(running[t] <= cap[t]))
    np.testing.assert_array_equal(keep, expected)


def sequential(tgt, pairs):
    """One candidate at a time: a Python running sum per part and pair."""
    running = [{} for _ in pairs]
    keep = []
    for i, t in enumerate(tgt):
        ok = True
        for seen, (w, cap) in zip(running, pairs):
            seen[t] = seen.get(t, 0.0) + float(w[i])
            ok &= seen[t] <= max(cap[t], 0.0)
        keep.append(ok)
    return keep


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=4), max_size=40),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2 ** 31),
)
def test_multi_pair_call_is_the_and_of_single_pair_calls(targets, k, seed):
    rng = np.random.default_rng(seed)
    tgt = np.array(targets, dtype=np.int64)
    # signed, non-integer weights: cut deltas dip and recover
    pairs = [(rng.uniform(-2.0, 5.0, tgt.size), rng.uniform(-1.0, 12.0, 5))
             for _ in range(k)]
    together = enforce_weight_capacity(tgt, pairs)
    one_by_one = np.ones(tgt.size, dtype=bool)
    for pair in pairs:
        one_by_one &= enforce_weight_capacity(tgt, [pair])
    np.testing.assert_array_equal(together, one_by_one)
    np.testing.assert_array_equal(together, sequential(tgt, pairs))


def test_compressed_rows_match_per_group_cumsum():
    # one group of 3000 + 120 groups of 1-3 at p = 256: too ragged to pad
    # every part, so only parts with candidates get a matrix row and the
    # giant group is summed on its own -- each group still a sequential sum
    p = 256
    rng = np.random.default_rng(11)
    small = rng.choice(np.delete(np.arange(p), 17), 120, replace=False)
    tgt = np.concatenate(
        [np.full(3000, 17), np.repeat(small, rng.integers(1, 4, 120))])
    rng.shuffle(tgt)
    n = tgt.size
    assert p * 3000 > max(8 * n, 4096)          # not the all-parts padding
    assert 3000 * 121 > 8 * n > 3 * 121         # 17 is wide, the rest pad
    pairs = [(rng.uniform(0.1, 3.0, n), rng.uniform(0.0, 40.0, p)),
             (rng.uniform(-1.0, 2.0, n), rng.uniform(0.0, 9.0, p))]
    pairs[0][1][17] = 2500.0
    keep = enforce_weight_capacity(tgt, pairs)
    # per-group np.cumsum reference
    want = np.ones(n, dtype=bool)
    for w, cap in pairs:
        for k in range(p):
            members = np.flatnonzero(tgt == k)
            want[members] &= np.cumsum(w[members]) <= max(cap[k], 0.0)
    np.testing.assert_array_equal(keep, want)
    np.testing.assert_array_equal(keep, sequential(tgt, pairs))
    assert 0 < keep[tgt == 17].sum() < 3000
