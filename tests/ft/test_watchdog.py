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
from repro.ft import (
    CkptPolicy,
    FaultPlan,
    FaultSpec,
    WatchdogConfig,
    as_watchdog_config,
    default_watchdog,
)
from repro.ft.recovery import RetryPolicy, run_with_retries
from repro.ft.watchdog import WATCHDOG_ENV_VAR, HeartbeatBoard
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
    return FaultPlan([FaultSpec(1, "vertex_refine", 4, action="delay",
                                delay=delay)])


def _stall_one_rank(comm):
    """Rank function with a genuine (non-fault-machinery) stall."""
    for _ in range(3):
        comm.allreduce(1)
    if comm.rank == 1:
        time.sleep(STALL)
    return comm.allreduce(1)


# -- config plumbing ---------------------------------------------------------


def test_config_rejects_nonpositive_timeout():
    with pytest.raises(ValueError, match="timeout"):
        WatchdogConfig(timeout=0.0)
    with pytest.raises(ValueError, match="timeout"):
        WatchdogConfig(timeout=-1.0)


def test_config_rejects_bad_warn_fraction():
    with pytest.raises(ValueError, match="warn_fraction"):
        WatchdogConfig(timeout=1.0, warn_fraction=1.5)


def test_slice_is_a_fraction_of_the_deadline():
    assert WatchdogConfig(timeout=1.0).slice_seconds() == pytest.approx(0.25)
    # clamped at both ends: huge deadlines don't slow stall detection,
    # tiny ones don't busy-spin
    assert WatchdogConfig(timeout=1000.0).slice_seconds() == 0.25
    assert WatchdogConfig(timeout=0.004).slice_seconds() == 0.002


def test_as_watchdog_config_coercions():
    assert as_watchdog_config(None) is None
    assert as_watchdog_config(0) is None  # 0 = disabled, like the env var
    cfg = as_watchdog_config(2.5)
    assert isinstance(cfg, WatchdogConfig) and cfg.timeout == 2.5
    assert as_watchdog_config(cfg) is cfg


def test_default_watchdog_reads_environment(monkeypatch):
    monkeypatch.delenv(WATCHDOG_ENV_VAR, raising=False)
    assert default_watchdog() is None
    monkeypatch.setenv(WATCHDOG_ENV_VAR, "3.5")
    assert default_watchdog().timeout == 3.5
    monkeypatch.setenv(WATCHDOG_ENV_VAR, "0")
    assert default_watchdog() is None
    monkeypatch.setenv(WATCHDOG_ENV_VAR, "soon")
    with pytest.raises(ValueError, match=WATCHDOG_ENV_VAR):
        default_watchdog()


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
    assert board.age_of(1) < 1.0
    assert board.age_of(0) == 0.0  # never beat
    board.beat(1, 8, "x" * 100)  # over-long phase names are truncated
    assert board.steps()[1] == 8
    assert len(board.phase_of(1)) < 100


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
    rendezvous, its peers' sliced waits trip the deadline."""
    def fn(comm):
        if comm.rank == 0:
            time.sleep(5.0)
        return comm.allreduce(1)

    rt = create_runtime("threads", nprocs=3, watchdog=0.5)
    try:
        with pytest.raises(HungRankError) as ei:
            rt.run(fn)
    finally:
        rt.close()
    assert ei.value.detection_seconds >= 0.5
    assert 0 in ei.value.ranks  # the napper is blamed, not the waiters


def test_serial_baton_holder_stall_blames_the_holder():
    """A genuine stall on ``serial``: rank 0 naps while it holds the baton,
    so nobody else can run; the parked ranks' sliced waits trip the deadline
    and blame the holder, not themselves.  The nap ends inside the abandon
    window (timeout + grace after the failure), so the report is the parked
    rank's, not the join's "thread abandoned"."""
    def fn(comm):
        with comm.phase("warmup"):
            comm.barrier()
        with comm.phase("napping"):
            comm.barrier()  # rank 2 executes it and runs on to its return
            if comm.rank == 0:
                time.sleep(1.25)  # woken with the baton, parks nobody
            return comm.allreduce(1)

    rt = create_runtime("serial", nprocs=3, watchdog=0.5)
    t0 = time.monotonic()
    try:
        with pytest.raises(HungRankError) as ei:
            rt.run(fn)
    finally:
        rt.close()
    assert time.monotonic() - t0 < 4.0
    assert ei.value.ranks == (0,)
    assert ei.value.phase == "napping"
    assert ei.value.detection_seconds >= 0.5
    assert "held the scheduling baton" in str(ei.value)


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


def test_procs_stalled_run_counts_probes():
    """A failing stalled run's own stats record the escalation: probe
    re-checks between the warning and the deadline count as extensions."""
    rt = create_runtime("procs", nprocs=NPROCS, watchdog=1.0)
    try:
        with pytest.raises(HungRankError):
            rt.run(_stall_one_rank)
        assert rt.stats.heartbeats_seen > 0
        assert rt.stats.deadline_extensions > 0
    finally:
        rt.close()


# -- chaos matrix: every fault action contained on the CI backend ------------


@pytest.mark.parametrize("action", ["raise", "die", "delay", "corrupt"])
def test_chaos_every_action_recovers_bit_identically(ft_graph, ft_params,
                                                     reference, tmp_path,
                                                     action):
    """One supervised run per fault action on the environment-selected
    backend (CI exports REPRO_BACKEND per job): all four failure modes
    end in the same partition and record as the fault-free run."""
    delay = STALL if action == "delay" else 0.0
    plan = FaultPlan([FaultSpec(1, "vertex_refine", 4, action=action,
                                delay=delay)])
    _, retry = _no_sleep()
    res = run_with_retries(
        ft_graph, PARTS, checkpoint=CkptPolicy(dir=str(tmp_path / "run")),
        fault_plan=plan, retry=retry,
        nprocs=NPROCS, params=ft_params, watchdog=1.0, integrity="crc",
    )
    assert np.array_equal(res.parts, reference.parts)
    res_part = [s for s in res.stats.signature() if s[1] != "checkpoint"]
    assert res_part == reference.stats.signature()
    assert len(res.stats.recoveries) == 1
    assert res.stats.recoveries[0].failure_class in (
        "hang", "corruption", "crash", "exception"
    )
