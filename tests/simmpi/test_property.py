"""Property-based tests: collective results equal a sequential reference
for arbitrary payloads."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.simmpi import run_spmd

small_ints = st.integers(min_value=-(2**31), max_value=2**31)


@settings(max_examples=25, deadline=None)
@given(
    nprocs=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_alltoallv_is_exact_redistribution(nprocs, data):
    # per-rank send counts matrix
    counts = [
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=5),
                min_size=nprocs, max_size=nprocs,
            )
        )
        for _ in range(nprocs)
    ]
    payloads = [
        [
            data.draw(
                st.lists(small_ints, min_size=c, max_size=c)
            )
            for c in counts[r]
        ]
        for r in range(nprocs)
    ]

    def fn(comm):
        my_counts = np.array(counts[comm.rank], dtype=np.int64)
        flat = [v for piece in payloads[comm.rank] for v in piece]
        buf = np.array(flat, dtype=np.int64)
        recv, rcounts = comm.Alltoallv(buf, my_counts)
        return recv.tolist(), rcounts.tolist()

    out, _ = run_spmd(nprocs, fn)
    for dst in range(nprocs):
        recv, rcounts = out[dst]
        expected_counts = [counts[src][dst] for src in range(nprocs)]
        expected = [v for src in range(nprocs) for v in payloads[src][dst]]
        assert rcounts == expected_counts
        assert recv == expected


@settings(max_examples=25, deadline=None)
@given(
    nprocs=st.integers(min_value=1, max_value=4),
    length=st.integers(min_value=1, max_value=16),
    data=st.data(),
)
def test_Allreduce_matches_numpy(nprocs, length, data):
    arrays = [
        np.array(
            data.draw(
                st.lists(small_ints, min_size=length, max_size=length)
            ),
            dtype=np.int64,
        )
        for _ in range(nprocs)
    ]

    def fn(comm):
        return comm.Allreduce(arrays[comm.rank], op="sum")

    out, _ = run_spmd(nprocs, fn)
    expected = np.sum(arrays, axis=0)
    for o in out:
        np.testing.assert_array_equal(o, expected)


@settings(max_examples=25, deadline=None)
@given(
    nprocs=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_Allgatherv_concatenates_in_rank_order(nprocs, data):
    pieces = [
        np.array(
            data.draw(st.lists(small_ints, min_size=0, max_size=6)),
            dtype=np.int64,
        )
        for _ in range(nprocs)
    ]

    def fn(comm):
        merged, counts = comm.Allgatherv(pieces[comm.rank])
        return merged.tolist(), counts.tolist()

    out, _ = run_spmd(nprocs, fn)
    expected = [v for p in pieces for v in p.tolist()]
    for merged, counts in out:
        assert merged == expected
        assert counts == [p.size for p in pieces]
