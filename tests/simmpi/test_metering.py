"""A round meters itself: every event's bytes, messages and tier metering
are the per-rank rule, on every backend.

Each collective's ``execute`` reads the round's traffic off the
contributions, and ``Backend._record`` turns it into the event.  This
property test drives every collective ``SimComm`` emits through random
programs — irregular ``sendcounts`` with all-zero and self-only rows,
zero-length contributions in other dtypes, one rank and several, flat
and ``hierarchical:2`` — and holds each event to the rule written out one
rank at a time below, and its tiers to ``tests/reference/tiers.py``.
"""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.simmpi import run_spmd
from repro.simmpi.topology import create_communicator
from tests.reference.tiers import tier_metering

#: Examples per backend: ``procs`` forks every rank of every example.
EXAMPLES = {"serial": 40, "threads": 25, "procs": 10}
DTYPES = (np.int64, np.int32, np.uint16, np.float64, np.float32)
#: the event op of each step kind
OPS = {"barrier": "barrier", "checkpoint": "checkpoint",
       "allgather": "allgather", "allreduce": "allreduce",
       "Allreduce": "allreduce", "Allgatherv": "allgatherv",
       "Alltoallv": "alltoallv"}

_objects = st.one_of(st.integers(-2**40, 2**40), st.text(max_size=6),
                     st.tuples(st.integers(0, 9), st.booleans()), st.none())


@st.composite
def _dtypes_for(draw, lengths):
    """One dtype shared by the non-empty entries of ``lengths``; an empty
    one may take any dtype (zero-length contributions are exempt)."""
    shared = draw(st.sampled_from(DTYPES))
    return [shared if n else draw(st.sampled_from(DTYPES)) for n in lengths]


@st.composite
def _sendcounts(draw, nprocs):
    """A ``nprocs x nprocs`` count matrix whose rows are random, all-zero
    or self-only."""
    rows = []
    for r in range(nprocs):
        kind = draw(st.sampled_from(("random", "zero", "self")))
        row = [0] * nprocs
        if kind == "random":
            row = draw(st.lists(st.sampled_from([0, 0, 1, 3]),
                                min_size=nprocs, max_size=nprocs))
        elif kind == "self":
            row[r] = draw(st.integers(1, 3))
        rows.append(row)
    return rows


@st.composite
def _steps(draw, nprocs):
    kind = draw(st.sampled_from(sorted(OPS)))
    per_rank = st.lists  # one entry per rank
    if kind == "checkpoint":
        return kind, draw(per_rank(st.integers(0, 40), min_size=nprocs,
                                   max_size=nprocs))
    if kind in ("allgather", "allreduce"):
        values = st.integers(-99, 99) if kind == "allreduce" else _objects
        return kind, draw(per_rank(values, min_size=nprocs, max_size=nprocs))
    if kind == "Allreduce":
        return kind, draw(st.integers(0, 5)), draw(st.sampled_from(DTYPES))
    if kind == "Allgatherv":
        lengths = draw(per_rank(st.integers(0, 3), min_size=nprocs,
                                max_size=nprocs))
        return kind, lengths, draw(_dtypes_for(lengths))
    if kind == "Alltoallv":
        counts = draw(_sendcounts(nprocs))
        nfields = draw(st.integers(1, 2))
        records = [sum(row) for row in counts]
        fields = [draw(_dtypes_for(records)) for _ in range(nfields)]
        return kind, counts, [list(ds) for ds in zip(*fields)]
    return (kind,)


@st.composite
def _programs(draw):
    nprocs = draw(st.integers(1, 4))
    return nprocs, draw(st.lists(_steps(nprocs), min_size=1, max_size=5))


def _body(comm, steps):
    r = comm.rank
    for kind, *data in steps:
        if kind == "barrier":
            comm.barrier()
        elif kind == "checkpoint":
            comm.Checkpoint(b"x" * data[0][r], {}, lambda contribs: None)
        elif kind == "allgather":
            comm.allgather(data[0][r])
        elif kind == "allreduce":
            comm.allreduce(data[0][r])
        elif kind == "Allreduce":
            comm.Allreduce(np.ones(data[0], dtype=data[1]))
        elif kind == "Allgatherv":
            comm.Allgatherv(np.arange(data[0][r], dtype=data[1][r]))
        else:
            counts, dtypes = data
            cts = np.array(counts[r], dtype=np.int64)
            comm.Alltoallv_fields(
                [np.zeros(int(cts.sum()), dtype=d) for d in dtypes[r]], cts)


def _rule(step, nprocs):
    """``(bytes per rank, messages per rank or None, bytes per
    destination or None)`` of one step, rank by rank."""
    kind, *data = step
    dest = messages = None
    if kind == "barrier":
        sent = [0] * nprocs
    elif kind == "checkpoint":
        sent = list(data[0])
    elif kind in ("allgather", "allreduce"):
        sent = [len(pickle.dumps(v, protocol=pickle.HIGHEST_PROTOCOL))
                for v in data[0]]
    elif kind == "Allreduce":
        sent = [data[0] * np.dtype(data[1]).itemsize] * nprocs
    elif kind == "Allgatherv":
        sent = [n * np.dtype(d).itemsize for n, d in zip(*data)]
    else:
        counts, dtypes = data
        dest = []
        for r in range(nprocs):
            record = sum(np.dtype(d).itemsize for d in dtypes[r])
            dest.append([0 if d == r else c * record
                         for d, c in enumerate(counts[r])])
        sent = [sum(row) for row in dest]
        messages = [sum(1 for b in row if b) for row in dest]
    if nprocs == 1:  # a lone rank sends nothing off-rank
        sent = [0]
        messages = None if messages is None else [0]
    return sent, messages, dest


@pytest.mark.parametrize("backend", sorted(EXAMPLES))
def test_every_round_meters_the_per_rank_rule(backend):
    @settings(max_examples=EXAMPLES[backend], deadline=None)
    @given(program=_programs(),
           spec=st.sampled_from(("flat", "hierarchical:2")))
    def check(program, spec):
        nprocs, steps = program
        _, stats = run_spmd(nprocs, _body, steps, backend=backend, comm=spec)
        assert [e.op for e in stats.events] == [OPS[s[0]] for s in steps]
        topo = create_communicator(spec, nprocs=nprocs)
        for event, step in zip(stats.events, steps):
            sent, messages, dest = _rule(step, nprocs)
            assert event.bytes_sent.tolist() == sent
            assert (None if event.messages is None
                    else event.messages.tolist()) == messages
            if topo is None or nprocs == 1:
                assert event.tiers is None
                continue
            traffic = np.array(sent if dest is None else dest,
                               dtype=np.int64)
            assert dataclasses.asdict(event.tiers) == tier_metering(
                topo.topology, event.op, traffic)

    check()
