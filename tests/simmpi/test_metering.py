"""A round meters itself: every event's bytes, messages and tier metering
are the per-rank rule, on every backend.

Each collective's ``execute`` reads the round's traffic off the
contributions, and ``Backend._record`` turns it into the event.  This
property test drives every collective ``SimComm`` emits through random
programs — irregular ``sendcounts`` with all-zero and self-only rows,
zero-length contributions in other dtypes, exchanges that carry a
reduction operand (all idle, or with records), one rank and several,
flat and ``hierarchical:2`` — and holds each event to the rule written
out one rank at a time below, and its tiers to
``tests/reference/tiers.py``.
"""

import dataclasses

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
OPS = {"barrier": "barrier", "Allreduce": "allreduce",
       "Allgatherv": "allgatherv", "Alltoallv": "alltoallv",
       "Alltoallv+sum": "alltoallv"}


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
    if kind == "Allreduce":
        return kind, draw(st.integers(0, 5)), draw(st.sampled_from(DTYPES))
    if kind == "Allgatherv":
        lengths = draw(per_rank(st.integers(0, 3), min_size=nprocs,
                                max_size=nprocs))
        return kind, lengths, draw(_dtypes_for(lengths))
    if kind in ("Alltoallv", "Alltoallv+sum"):
        counts = draw(_sendcounts(nprocs))
        if kind == "Alltoallv+sum" and draw(st.booleans()):
            counts = [[0] * nprocs] * nprocs  # all idle: the operand alone
        nfields = draw(st.integers(1, 2))
        records = [sum(row) for row in counts]
        fields = [draw(_dtypes_for(records)) for _ in range(nfields)]
        step = [kind, counts, [list(ds) for ds in zip(*fields)]]
        if kind == "Alltoallv+sum":
            # every rank's operand: one shape and dtype, possibly empty
            step += [draw(st.integers(0, 5)), draw(st.sampled_from(DTYPES))]
        return tuple(step)
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
        elif kind == "Allreduce":
            comm.Allreduce(np.ones(data[0], dtype=data[1]))
        elif kind == "Allgatherv":
            comm.Allgatherv(np.arange(data[0][r], dtype=data[1][r]))
        else:
            counts, dtypes, *operand = data
            cts = np.array(counts[r], dtype=np.int64)
            comm.Alltoallv_fields(
                [np.zeros(int(cts.sum()), dtype=d) for d in dtypes[r]], cts,
                np.ones(*operand) if operand else None)


def _rule(step, nprocs):
    """``(bytes per rank, messages per rank or None, bytes per
    destination or None, operand bytes per rank or None)`` of one step,
    rank by rank."""
    kind, *data = step
    dest = messages = reduced = None
    if kind == "barrier":
        sent = [0] * nprocs
    elif kind == "Allreduce":
        sent = [data[0] * np.dtype(data[1]).itemsize] * nprocs
    elif kind == "Allgatherv":
        sent = [n * np.dtype(d).itemsize for n, d in zip(*data)]
    else:
        counts, dtypes, *operand = data
        dest = []
        for r in range(nprocs):
            record = sum(np.dtype(d).itemsize for d in dtypes[r])
            dest.append([0 if d == r else c * record
                         for d, c in enumerate(counts[r])])
        # the operand adds its bytes, and no message
        if operand:
            reduced = [operand[0] * np.dtype(operand[1]).itemsize] * nprocs
        sent = [sum(row) + (reduced[r] if reduced else 0)
                for r, row in enumerate(dest)]
        messages = [sum(1 for b in row if b) for row in dest]
    if nprocs == 1:  # a lone rank sends nothing off-rank
        sent = [0]
        messages = None if messages is None else [0]
    return sent, messages, dest, reduced


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
            sent, messages, dest, reduced = _rule(step, nprocs)
            assert event.bytes_sent.tolist() == sent
            assert (None if event.messages is None
                    else event.messages.tolist()) == messages
            if topo is None or nprocs == 1:
                assert event.tiers is None
                continue
            traffic = np.array(sent if dest is None else dest,
                               dtype=np.int64)
            assert dataclasses.asdict(event.tiers) == tier_metering(
                topo.topology, event.op, traffic,
                None if reduced is None else np.array(reduced))

    check()


@pytest.mark.parametrize("backend", sorted(EXAMPLES))
@pytest.mark.parametrize("records", [0, 2], ids=["idle", "records"])
@pytest.mark.parametrize("length", [0, 3], ids=["empty", "operand"])
def test_exchange_with_an_operand_meters_records_plus_operand(
        backend, records, length):
    """The two edge rounds the property may draw rarely, always held: an
    all-idle exchange, and one with no records but a non-empty operand,
    beside the ordinary ones — on every backend, flat and tiered.  The
    sum is what an Allreduce of the operands returns."""
    nprocs = 3
    counts = [[0, records, 0], [0, 0, records], [records, 0, 0]]
    step = ("Alltoallv+sum", counts, [[np.int32]] * nprocs,
            length, np.float64)

    def body(comm):
        _body(comm, [step])
        return comm.Alltoallv_fields(
            [np.zeros(records, np.int32)],
            np.array(counts[comm.rank], dtype=np.int64),
            np.full(length, comm.rank + 0.5))[2]

    for spec in ("flat", "hierarchical:2"):
        totals, stats = run_spmd(nprocs, body, backend=backend, comm=spec)
        for total in totals:
            assert total.tolist() == [4.5] * length
        sent, messages, dest, reduced = _rule(step, nprocs)
        for event in stats.events:
            assert event.op == "alltoallv"
            assert event.bytes_sent.tolist() == sent
            assert event.messages.tolist() == messages
        if spec == "flat":
            continue
        topo = create_communicator(spec, nprocs=nprocs).topology
        want = tier_metering(topo, "alltoallv", np.array(dest),
                             np.array(reduced))
        assert dataclasses.asdict(stats.events[0].tiers) == want
        if not records:
            # nobody sends a record: the wires of the operand's reduction
            assert want == tier_metering(topo, "allreduce", np.array(reduced))
