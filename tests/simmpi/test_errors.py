"""Error-type contracts: pickling across process boundaries, rank list
formatting, and the diagnostic content of deadlock/mismatch messages.

Every error the procs backend can ship from a rank process to the
supervisor must survive a pickle round-trip with its attributes intact.
The keyword-only attributes need no custom ``__reduce__``:
``BaseException.__reduce__`` returns ``(cls, args, __dict__)``, so the
message rebuilds the instance and the attribute dict is restored onto it.
"""

import pickle

import numpy as np
import pytest

from repro.simmpi import run_spmd
from repro.simmpi.errors import (
    DeadlockError,
    HungRankError,
    PayloadCorruptionError,
    UnpicklableRankError,
    format_ranks,
)


# -- format_ranks ------------------------------------------------------------


def test_format_ranks_singular_and_plural():
    assert format_ranks([3]) == "rank 3"
    assert format_ranks([3, 1]) == "ranks 1, 3"
    assert format_ranks([]) == "no ranks"


def test_format_ranks_dedupes_and_sorts():
    assert format_ranks([5, 1, 5, 1]) == "ranks 1, 5"


def test_format_ranks_elides_long_lists():
    out = format_ranks(range(100), limit=4)
    assert out == "ranks 0, 1, 2, 3, ... (96 more)"


# -- pickle round-trips ------------------------------------------------------


def test_unpicklable_rank_error_round_trips():
    exc = UnpicklableRankError(
        "rank 2's SomeError could not be pickled",
        original_type="SomeError",
        original_args=("detail", "<unpicklable: Thread>"),
        original_traceback="Traceback (most recent call last): ...",
    )
    back = pickle.loads(pickle.dumps(exc))
    assert isinstance(back, UnpicklableRankError)
    assert str(back) == str(exc)
    assert back.original_type == "SomeError"
    assert back.original_args == ("detail", "<unpicklable: Thread>")
    assert back.original_traceback.startswith("Traceback")


def test_hung_rank_error_round_trips():
    exc = HungRankError("rank 1 made no progress", ranks=(1, 3),
                        phase="vertex_refine", detection_seconds=2.25)
    back = pickle.loads(pickle.dumps(exc))
    assert isinstance(back, HungRankError)
    assert str(back) == str(exc)
    assert back.ranks == (1, 3)
    assert back.phase == "vertex_refine"
    assert back.detection_seconds == 2.25


def test_payload_corruption_error_round_trips():
    exc = PayloadCorruptionError("crc mismatch on slot", rank=2,
                                 location="slot '/x_req_2'")
    back = pickle.loads(pickle.dumps(exc))
    assert isinstance(back, PayloadCorruptionError)
    assert str(back) == str(exc)
    assert back.rank == 2
    assert back.location == "slot '/x_req_2'"


# -- diagnostic message content ----------------------------------------------


@pytest.mark.parametrize("backend", ["serial", "threads"])
def test_deadlock_message_names_blocked_ranks(backend):
    """One rank returns early while the rest rendezvous: the error names
    who is stuck (operators at scale triage from the message alone)."""
    def fn(comm):
        if comm.rank == 0:
            return None  # leaves without the collective
        return comm.Allreduce(np.array([1.0]))

    with pytest.raises(DeadlockError) as ei:
        run_spmd(3, fn, backend=backend)
    msg = str(ei.value)
    assert "rank" in msg
    assert "allreduce" in msg.lower() or "blocked" in msg or "stuck" in msg


@pytest.mark.parametrize("backend", ["serial", "threads", "procs"])
def test_mismatch_message_names_both_ops_and_superstep(backend):
    def fn(comm):
        comm.barrier()  # one aligned superstep first
        if comm.rank == 0:
            comm.Allreduce(np.ones(1))
        else:
            comm.barrier()

    with pytest.raises(Exception) as ei:
        run_spmd(2, fn, backend=backend)
    msg = str(ei.value)
    assert "allreduce" in msg and "barrier" in msg
    assert "superstep" in msg or "collective" in msg
