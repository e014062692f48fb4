"""Property-based tests: collective results equal a sequential reference
for arbitrary payloads."""

import functools
import operator

import numpy as np
import pytest
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


#: (ranks, backend): both sides of the 8-element block at which NumPy
#: starts to sum a contiguous axis pairwise, on every backend, and
#: hundreds of ranks where they are not processes
_FOLD_CASES = [(p, b) for p in (8, 9) for b in ("serial", "threads", "procs")]
_FOLD_CASES += [(64, "serial"), (256, "serial")]


def _fold_body(comm, values, shape):
    """Each draw's value, reduced by an ``Allreduce`` and as the operand of
    an idle exchange; the bytes of both totals."""
    idle = np.zeros(comm.size, dtype=np.int64)
    out = []
    for v in values[:, comm.rank]:
        x = np.full(shape, v)
        total = yield from comm.Allreduce(x)
        *_, fused = yield from comm.Alltoallv_fields(
            (np.empty(0, np.int64),), idle, x)
        out.append((total.tobytes(), fused.tobytes()))
    return out


@pytest.mark.parametrize("shape", [(), (1,)], ids=["0d", "one"])
@pytest.mark.parametrize("nprocs,backend", _FOLD_CASES)
def test_scalar_sums_are_the_left_fold(nprocs, backend, shape):
    """A sum over the ranks is the left fold in rank order, bit for bit,
    however many ranks there are: a one-element or 0-d float64 operand
    comes back from ``Allreduce`` and from a fused exchange operand as
    the Python ``((x0 + x1) + x2) + ...``."""
    @settings(max_examples=3 if backend == "procs" else 6, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def check(seed):
        rng = np.random.default_rng(seed)
        # magnitudes twelve decades apart, so the order of the sum shows
        values = rng.standard_normal((8, nprocs)) * 10.0 ** rng.integers(
            -6, 7, size=(8, nprocs))
        out, _ = run_spmd(nprocs, _fold_body, values, shape,
                          backend=backend)
        for i, row in enumerate(values):
            fold = functools.reduce(operator.add, map(float, row))
            want = np.float64(fold).tobytes()
            assert {rank[i] for rank in out} == {(want, want)}, (i, seed)

    check()
