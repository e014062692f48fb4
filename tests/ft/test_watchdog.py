"""Active failure detection: heartbeats, collective deadlines, containment.

The liveness oracle: a run with one rank stalled far past the watchdog
deadline must (a) surface a typed :class:`HungRankError` well before the
stall would have ended on its own, and (b) under supervision recover
bit-identically to the uninterrupted reference run — a detected hang is
just another recoverable rank failure.
"""

import logging
import time

import numpy as np
import pytest

from repro.core import xtrapulp
from repro.ft import CkptPolicy, FaultPlan, FaultSpec
from repro.ft.recovery import RetryPolicy, run_with_retries
from repro.ft.watchdog import (
    STARTUP_GRACE,
    WARN_FRACTION,
    HeartbeatBoard,
    StallClock,
    slice_seconds,
)
from repro.simmpi import create_runtime
from repro.simmpi.errors import HungRankError

from tests.ft.conftest import NPROCS, PARTS

BACKENDS = ("serial", "threads", "procs")

#: Injected stall far longer than any watchdog deadline used here: if
#: detection ever regresses to "wait it out", the test times out loudly.
STALL = 30.0


def _no_sleep():
    slept = []
    return slept, RetryPolicy(max_retries=2, sleep=slept.append)


def _hang_plan(delay=STALL):
    return FaultPlan([FaultSpec(1, "vertex_refine", 2, action="delay",
                                delay=delay)])


def _stall_one_rank(comm):
    """Rank function with a genuine (non-fault-machinery) stall."""
    for _ in range(3):
        comm.Allreduce(np.ones(1))
    if comm.rank == 1:
        time.sleep(STALL)
    return comm.Allreduce(np.ones(1))


# -- the watchdog is a number of seconds --------------------------------------


def test_negative_timeout_is_rejected(ft_graph):
    with pytest.raises(ValueError, match="timeout"):
        create_runtime("serial", nprocs=2, watchdog=-1.0)
    with pytest.raises(ValueError, match="timeout"):
        xtrapulp(ft_graph, 2, nprocs=2, backend="serial", watchdog=-1)


@pytest.mark.parametrize("backend", BACKENDS)
def test_non_finite_timeout_is_rejected(ft_graph, backend):
    """An infinite or NaN deadline is refused up front, as a negative one
    is, instead of failing inside the run's waits."""
    for timeout in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="timeout"):
            create_runtime(backend, nprocs=2, watchdog=timeout)
        with pytest.raises(ValueError, match="timeout"):
            xtrapulp(ft_graph, 2, nprocs=2, backend=backend,
                     watchdog=timeout)


def test_slice_is_a_fraction_of_the_deadline():
    assert slice_seconds(1.0) == pytest.approx(0.25)
    # clamped at both ends: huge deadlines don't slow stall detection,
    # tiny ones don't busy-spin
    assert slice_seconds(1000.0) == 0.25
    assert slice_seconds(0.004) == 0.002


def test_watchdog_is_seconds_and_zero_turns_it_off():
    rt = create_runtime("serial", nprocs=2, watchdog=2.5)
    try:
        assert rt.watchdog == 2.5
        # None leaves a pre-built backend's watchdog as it is; 0 turns it off
        assert create_runtime(rt, nprocs=2).watchdog == 2.5
        assert create_runtime(rt, nprocs=2, watchdog=0).watchdog is None
    finally:
        rt.close()
    rt = create_runtime("serial", nprocs=2, watchdog=0)
    try:
        assert rt.watchdog is None
    finally:
        rt.close()


def test_backends_default_to_no_watchdog():
    rt = create_runtime("serial", nprocs=2)
    try:
        assert rt.watchdog is None
    finally:
        rt.close()


# -- heartbeat board ---------------------------------------------------------


def test_heartbeat_board_round_trips():
    board = HeartbeatBoard(3)
    assert board.steps() == [-1, -1, -1]
    board.beat(1, 7, "vertex_refine")
    assert board.steps() == [-1, 7, -1]
    assert board.phase_of(1) == "vertex_refine"
    assert board.phase_of(0) == ""
    board.beat(1, 8, "x" * 100)  # over-long phase names are truncated
    assert board.steps()[1] == 8
    assert len(board.phase_of(1)) < 100


# -- the stall clock, on an injected time source -----------------------------


def _started_clock(timeout=1.0):
    """A clock whose run made its first progress at t = 0."""
    clock = StallClock(timeout, now=-1.0, scope="test")
    assert clock.tick(1, 0.0) is None
    return clock


def test_clock_warns_at_the_warn_fraction(caplog):
    clock = _started_clock()
    with caplog.at_level(logging.WARNING, logger="repro.ft.watchdog"):
        clock.tick(1, WARN_FRACTION - 0.01)
        assert not caplog.records
        clock.tick(1, WARN_FRACTION)
        clock.tick(1, WARN_FRACTION + 0.01)  # once per stall
    (warning,) = caplog.records
    assert "[watchdog:test] no rank progress for 0.50s" in warning.message


def test_clock_declares_at_the_deadline_and_resets():
    clock = _started_clock()
    assert clock.tick(1, 0.999) is None
    assert clock.tick(1, 1.0) == 1.0
    assert clock.detection_seconds == 1.0
    # timed again from the declaration: the next one is a deadline later
    assert clock.tick(1, 1.999) is None
    assert clock.tick(1, 2.25) == pytest.approx(1.25)
    assert clock.detection_seconds == 1.0  # the first declaration's


def test_clock_allows_startup_grace_before_the_first_progress():
    clock = StallClock(1.0, now=0.0, scope="test")
    assert clock.tick(0, 1.0) is None
    assert clock.tick(0, STARTUP_GRACE - 0.01) is None
    assert clock.tick(0, STARTUP_GRACE) == STARTUP_GRACE
    # after the first progress the deadline is the timeout again
    assert clock.tick(3, 6.0) is None
    assert clock.tick(3, 7.0) == 1.0


def test_clock_progress_after_the_warning_restarts_the_timeline():
    clock = _started_clock()
    first, second = 0.6, 0.8  # past the warning, short of the deadline
    clock.tick(1, first)
    assert clock.tick(4, (first + second) / 2) is None
    assert clock.heartbeats_seen == 4
    restart = (first + second) / 2
    assert clock.tick(4, restart + first - 0.01) is None
    assert clock.tick(4, restart + second) is None
    assert clock.tick(4, restart + 0.999) is None
    assert clock.tick(4, restart + 1.0) == pytest.approx(1.0)


def test_clock_declaration_is_a_watchdog_log_record(caplog):
    clock = _started_clock()
    with caplog.at_level(logging.WARNING, logger="repro.ft.watchdog"):
        clock.declare([2], "at superstep 7", 1.5)
    (record,) = caplog.records
    assert record.name == "repro.ft.watchdog"
    assert "declaring [2] hung at superstep 7 after 1.50s" in record.message


# -- detection: the stall surfaces as a typed hang, fast ---------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_stall_past_deadline_raises_hung_rank(ft_graph, ft_params, backend):
    """A rank stalled for STALL seconds under a ~1s deadline errors out in
    seconds, typed, naming the hung rank — on every backend."""
    t0 = time.monotonic()
    with pytest.raises(HungRankError) as ei:
        xtrapulp(ft_graph, PARTS, nprocs=NPROCS, params=ft_params,
                 backend=backend, fault_plan=_hang_plan(), watchdog=1.0)
    wall = time.monotonic() - t0
    assert wall < STALL / 2, f"detection took {wall:.1f}s"
    assert 1 in ei.value.ranks
    assert ei.value.detection_seconds > 0


def test_stall_without_watchdog_would_wait(ft_graph, ft_params, reference):
    """Sub-deadline delays are latency, not hangs: the run completes and
    the record is untouched (the no-false-positive half of the oracle)."""
    res = xtrapulp(ft_graph, PARTS, nprocs=NPROCS, params=ft_params,
                   backend="serial", fault_plan=_hang_plan(delay=0.02),
                   watchdog=5.0)
    assert np.array_equal(res.parts, reference.parts)
    assert res.stats.signature() == reference.stats.signature()


def test_threads_peer_stall_detected_by_waiters():
    """A genuine stall (no fault machinery): one rank naps before the
    rendezvous its peers wait in, and the supervisor's stall clock trips
    the deadline."""
    def fn(comm):
        if comm.rank == 0:
            time.sleep(5.0)
        return comm.Allreduce(np.ones(1))

    rt = create_runtime("threads", nprocs=3, watchdog=0.5)
    try:
        with pytest.raises(HungRankError) as ei:
            rt.run(fn)
    finally:
        rt.close()
    assert ei.value.detection_seconds >= 0.5
    assert 0 in ei.value.ranks  # the napper is blamed, not the waiters


def _nap_plain(comm):
    with comm.phase("warmup"):
        comm.barrier()
    with comm.phase("napping"):
        comm.barrier()
        if comm.rank == 0:
            time.sleep(1.25)
        return comm.Allreduce(np.ones(1))


def _nap_generator(comm):
    with comm.phase("warmup"):
        yield from comm.barrier()
    with comm.phase("napping"):
        yield from comm.barrier()
        if comm.rank == 0:
            time.sleep(1.25)
        return (yield from comm.Allreduce(np.ones(1)))


@pytest.mark.parametrize("body", [_nap_plain, _nap_generator],
                         ids=["plain", "generator"])
def test_serial_stall_blames_the_missing_rank(body):
    """A genuine stall on ``serial``: rank 0 naps before the last
    rendezvous.  Whether its body is plain (rank threads) or a generator
    (one stepping worker), the calling thread supervises: the stall clock
    trips the deadline and the report blames the rank missing from the
    rendezvous, not the ranks waiting in it.  The nap ends inside the
    abandon window (timeout + grace after the failure), so every thread
    ends and the run raises the supervisor's report."""
    rt = create_runtime("serial", nprocs=3, watchdog=0.5)
    t0 = time.monotonic()
    try:
        with pytest.raises(HungRankError) as ei:
            rt.run(body)
    finally:
        rt.close()
    assert time.monotonic() - t0 < 4.0
    assert ei.value.ranks == (0,)
    assert ei.value.phase == "napping"
    assert ei.value.detection_seconds >= 0.5
    assert "missing from collective 'allreduce'" in str(ei.value)


def test_a_rank_wedged_inside_execute_still_surfaces():
    """The executor sleeps inside the collective it executes, holding the
    engine's mutex: the supervisor never waits on it, so the stall is
    still reported, against every rank, since all of them deposited."""
    def wedge(merged, counts):
        time.sleep(1.25)
        return merged, counts

    def body(comm):
        yield from comm.barrier()
        return (yield from comm.Allgatherv(np.arange(2), then=wedge))

    rt = create_runtime("serial", nprocs=3, watchdog=0.5)
    t0 = time.monotonic()
    try:
        with pytest.raises(HungRankError) as ei:
            rt.run(body)
    finally:
        rt.close()
    assert time.monotonic() - t0 < 4.0
    assert ei.value.ranks == (0, 1, 2)
    assert ei.value.detection_seconds >= 0.5
    assert "executing collective 'allgatherv'" in str(ei.value)


def test_procs_watchdog_kills_the_hung_process(ft_graph, ft_params, caplog):
    """procs detection is a real kill: the HungRankError comes from the
    supervisor-side watchdog, with the stall phase on it — and the
    declaration is a ``repro.ft.watchdog`` log record, not a print."""
    with caplog.at_level(logging.WARNING, logger="repro.ft.watchdog"):
        with pytest.raises(HungRankError) as ei:
            xtrapulp(ft_graph, PARTS, nprocs=NPROCS, params=ft_params,
                     backend="procs", fault_plan=_hang_plan(), watchdog=1.0)
    assert ei.value.ranks == (1,)
    assert ei.value.phase == "vertex_refine"
    assert "watchdog" in str(ei.value)
    declared = [r for r in caplog.records if "declaring [1] hung" in r.message]
    assert declared
    assert all(r.name == "repro.ft.watchdog" and r.levelno == logging.WARNING
               for r in declared)


# -- containment: a detected hang is a recoverable failure -------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_hang_recovery_is_bit_identical(ft_graph, ft_params, reference,
                                        tmp_path, backend):
    slept, retry = _no_sleep()
    res = run_with_retries(
        ft_graph, PARTS, checkpoint=CkptPolicy(dir=str(tmp_path / "run")),
        fault_plan=_hang_plan(), retry=retry,
        nprocs=NPROCS, params=ft_params, backend=backend, watchdog=1.0,
    )
    assert np.array_equal(res.parts, reference.parts)
    res_part = [s for s in res.stats.signature() if s[1] != "checkpoint"]
    assert res_part == reference.stats.signature()
    (ev,) = res.stats.recoveries
    assert ev.failure_class == "hang"
    assert ev.detection_seconds > 0


def test_procs_health_counters_populate(ft_graph, ft_params, tmp_path):
    """The recovered run's stats carry the liveness evidence: heartbeats
    were observed, and the resume splice keeps the counters (they live on
    the engine, not the event record)."""
    _, retry = _no_sleep()
    res = run_with_retries(
        ft_graph, PARTS, checkpoint=CkptPolicy(dir=str(tmp_path / "run")),
        fault_plan=_hang_plan(), retry=retry,
        nprocs=NPROCS, params=ft_params, backend="procs", watchdog=1.0,
    )
    assert res.stats.heartbeats_seen > 0


def test_procs_stalled_run_counts_heartbeats():
    """A failing stalled run's own stats record the heartbeats its
    supervisor saw before declaring the stall."""
    rt = create_runtime("procs", nprocs=NPROCS, watchdog=1.0)
    try:
        with pytest.raises(HungRankError):
            rt.run(_stall_one_rank)
        assert rt.stats.heartbeats_seen > 0
    finally:
        rt.close()


# -- chaos matrix: every fault action contained on the CI backend ------------


#: The V-cycle under a tiered strategy, its fault planted in the
#: uncoarsening sweep (the flat arm's is in the flat pipeline).
ML_HIER = {"multilevel": True, "comm": "hierarchical:2"}

_ACTIONS = ("raise", "die", "delay", "corrupt")


@pytest.fixture(scope="module")
def ml_hier_reference(ft_graph, ft_params):
    """Uninterrupted, checkpoint-free run of the V-cycle arm (serial)."""
    return xtrapulp(ft_graph, PARTS, nprocs=NPROCS,
                    params=ft_params.with_(**ML_HIER), backend="serial")


@pytest.mark.parametrize("action,arm", [
    *[pytest.param(a, "flat", id=a) for a in _ACTIONS],
    *[pytest.param(a, "ml-hier", id=f"{a}-ml-hier") for a in _ACTIONS],
])
def test_chaos_every_action_recovers_bit_identically(ft_graph, ft_params,
                                                     reference, tmp_path,
                                                     request, action, arm):
    """One supervised run per fault action on the environment-selected
    backend (CI exports REPRO_BACKEND per job): all four failure modes
    end in the same partition and record as the fault-free run — on the
    flat pipeline, and on the V-cycle under ``hierarchical:2`` with the
    fault in ``ml_refine``, whose tier metering must splice back the
    same per event too (``signature()`` leaves it out)."""
    params, phase = ft_params, "vertex_refine"
    if arm == "ml-hier":
        params, phase = ft_params.with_(**ML_HIER), "ml_refine"
        reference = request.getfixturevalue("ml_hier_reference")
    delay = STALL if action == "delay" else 0.0
    plan = FaultPlan([FaultSpec(1, phase, 2, action=action, delay=delay)])
    _, retry = _no_sleep()
    res = run_with_retries(
        ft_graph, PARTS, checkpoint=CkptPolicy(dir=str(tmp_path / "run")),
        fault_plan=plan, retry=retry,
        nprocs=NPROCS, params=params, watchdog=1.0, integrity="crc",
    )
    assert np.array_equal(res.parts, reference.parts)
    res_part = [s for s in res.stats.signature() if s[1] != "checkpoint"]
    assert res_part == reference.stats.signature()
    assert ([e.tiers for e in res.stats.events if e.tag != "checkpoint"]
            == [e.tiers for e in reference.stats.events])
    if arm == "ml-hier":
        assert reference.stats.tiered and reference.multilevel is not None
    assert len(res.stats.recoveries) == 1
    assert res.stats.recoveries[0].failure_class in (
        "hang", "corruption", "crash", "exception"
    )
