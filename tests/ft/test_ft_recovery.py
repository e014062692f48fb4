"""Crash → resume bit-identity, and the supervised retry loop.

The oracle for every test here is the uninterrupted reference run: a run
killed at an injected fault and resumed from its last committed epoch must
reproduce the reference *partition* by array equality and the reference
*communication record* by ``CommStats.signature()``.
"""

import numpy as np
import pytest

from repro.core import xtrapulp
from repro.ft import CkptPolicy, FaultPlan, FaultSpec
from repro.ft.recovery import RetryPolicy, backoff, run_with_retries
from repro.simmpi.errors import InjectedFault, RankFailure

from tests.ft.conftest import NPROCS, PARTS

BACKENDS = ("serial", "threads", "procs")


def _no_sleep():
    slept = []
    return slept, RetryPolicy(max_retries=2, sleep=slept.append)


# -- manual crash → resume (no supervisor) -----------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_crash_resume_bit_identity(ft_graph, ft_params, reference, tmp_path,
                                   backend):
    d = str(tmp_path / "run")
    plan = FaultPlan([FaultSpec(1, "edge_balance", 5)])
    with pytest.raises(RankFailure) as ei:
        xtrapulp(ft_graph, PARTS, nprocs=NPROCS, params=ft_params,
                 backend=backend, checkpoint=CkptPolicy(dir=d),
                 fault_plan=plan)
    assert ei.value.run_dir == d and ei.value.epoch is not None
    res = xtrapulp(ft_graph, PARTS, nprocs=NPROCS, params=ft_params,
                   backend=backend, resume=d)
    assert np.array_equal(res.parts, reference.parts)
    # the spliced record matches the *checkpointed* uninterrupted run:
    # reference is checkpoint-free, so compare partition-phase events only
    ref_part = reference.stats.signature()
    res_part = [s for s in res.stats.signature() if s[1] != "checkpoint"]
    assert res_part == ref_part


def test_resumed_record_matches_checkpointed_run_exactly(
        ft_graph, ft_params, tmp_path):
    """Including the checkpoint events themselves: the spliced record of a
    resumed run is indistinguishable from one that never crashed — from
    epoch 0 (step 6), and from epoch 2 (step 14), whose snapshots already
    hold sweep-log entries, so every later snapshot pickles restored and
    live entries together."""
    ref = xtrapulp(ft_graph, PARTS, nprocs=NPROCS, params=ft_params,
                   backend="serial",
                   checkpoint=CkptPolicy(dir=str(tmp_path / "ref")))
    for step in (6, 14):
        d = str(tmp_path / f"crash{step}")
        plan = FaultPlan([FaultSpec(2, "vertex_refine", step)])
        with pytest.raises(RankFailure):
            xtrapulp(ft_graph, PARTS, nprocs=NPROCS, params=ft_params,
                     backend="serial", checkpoint=CkptPolicy(dir=d),
                     fault_plan=plan)
        res = xtrapulp(ft_graph, PARTS, nprocs=NPROCS, params=ft_params,
                       backend="serial", resume=d,
                       checkpoint=CkptPolicy(dir=d))
        assert np.array_equal(res.parts, ref.parts)
        assert res.stats.signature() == ref.stats.signature(), step


def test_resumed_tier_record_matches_uninterrupted_run(ft_graph, ft_params,
                                                       tmp_path):
    """``signature()`` leaves tier metering out, so hold it directly: a
    ``hierarchical:2`` run killed at a fault and resumed splices the same
    ``TierMetering`` per event as one that never crashed.  On the default
    backend, so the ft job runs it on every backend of its matrix."""
    params = ft_params.with_(comm="hierarchical:2")
    ref = xtrapulp(ft_graph, PARTS, nprocs=NPROCS, params=params,
                   checkpoint=CkptPolicy(dir=str(tmp_path / "ref")))
    d = str(tmp_path / "crash")
    plan = FaultPlan([FaultSpec(2, "vertex_refine", 6)])
    with pytest.raises(RankFailure) as ei:
        xtrapulp(ft_graph, PARTS, nprocs=NPROCS, params=params,
                 checkpoint=CkptPolicy(dir=d), fault_plan=plan)
    assert ei.value.epoch is not None
    res = xtrapulp(ft_graph, PARTS, nprocs=NPROCS, params=params,
                   resume=d, checkpoint=CkptPolicy(dir=d))
    assert np.array_equal(res.parts, ref.parts)
    assert res.stats.signature() == ref.stats.signature()
    assert res.stats.tiered
    assert ([e.tiers for e in res.stats.events]
            == [e.tiers for e in ref.stats.events])


def test_resume_from_midrun_epoch_not_just_init(ft_graph, ft_params,
                                                reference, tmp_path):
    """A fault late in the run resumes from a mid-run epoch (not epoch 0),
    re-entering the outer loop mid-flight."""
    d = str(tmp_path / "run")
    plan = FaultPlan([FaultSpec(0, "edge_refine", 5)])
    with pytest.raises(RankFailure) as ei:
        xtrapulp(ft_graph, PARTS, nprocs=NPROCS, params=ft_params,
                 backend="serial",
                 checkpoint=CkptPolicy(dir=d, every="phase"),
                 fault_plan=plan)
    assert ei.value.epoch is not None and ei.value.epoch > 0
    res = xtrapulp(ft_graph, PARTS, nprocs=NPROCS, params=ft_params,
                   backend="serial", resume=d)
    assert np.array_equal(res.parts, reference.parts)


# -- supervised re-execution -------------------------------------------------


@pytest.mark.parametrize("backend,action", [
    ("serial", "raise"),
    ("threads", "raise"),
    ("procs", "raise"),
    ("procs", "die"),  # real child-process death mid-superstep
])
def test_run_with_retries_recovers_bit_identically(ft_graph, ft_params,
                                                   reference, tmp_path,
                                                   backend, action):
    slept, retry = _no_sleep()
    plan = FaultPlan([FaultSpec(1, "edge_balance", 5, action=action)])
    res = run_with_retries(
        ft_graph, PARTS, checkpoint=CkptPolicy(dir=str(tmp_path / "run")),
        fault_plan=plan, retry=retry,
        nprocs=NPROCS, params=ft_params, backend=backend,
    )
    assert np.array_equal(res.parts, reference.parts)
    res_part = [s for s in res.stats.signature() if s[1] != "checkpoint"]
    assert res_part == reference.stats.signature()
    # the recovery is on the record: one retry, resumed from an epoch
    assert len(res.stats.recoveries) == 1
    ev = res.stats.recoveries[0]
    assert ev.attempt == 1 and ev.epoch is not None
    assert "njected" in ev.error or "rank" in ev.error.lower()
    assert slept == [backoff(0)]


def test_retry_budget_exhaustion_reraises(ft_graph, ft_params, tmp_path):
    """Faults armed on every attempt exhaust the budget; the last failure
    propagates as RankFailure."""
    slept, retry = _no_sleep()
    plan = FaultPlan([FaultSpec(1, "vertex_refine", 2, attempt=a)
                      for a in range(retry.max_retries + 1)])
    with pytest.raises(RankFailure):
        run_with_retries(
            ft_graph, PARTS, checkpoint=CkptPolicy(dir=str(tmp_path / "run")),
            fault_plan=plan, retry=retry,
            nprocs=NPROCS, params=ft_params, backend="serial",
        )
    assert slept == [backoff(a) for a in range(retry.max_retries)]


def test_backoff_schedule_is_capped():
    sched = [backoff(a) for a in range(8)]
    assert sched == [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0, 2.0]


def test_repeated_faults_consume_multiple_retries(ft_graph, ft_params,
                                                  reference, tmp_path):
    """Two consecutive attempts fail before the third succeeds; both
    recoveries are recorded in order."""
    slept, retry = _no_sleep()
    plan = FaultPlan([
        FaultSpec(0, "vertex_balance", 3, attempt=0),
        FaultSpec(2, "edge_refine", 2, attempt=1),
    ])
    res = run_with_retries(
        ft_graph, PARTS, checkpoint=CkptPolicy(dir=str(tmp_path / "run")),
        fault_plan=plan, retry=retry,
        nprocs=NPROCS, params=ft_params, backend="serial",
    )
    assert np.array_equal(res.parts, reference.parts)
    assert [ev.attempt for ev in res.stats.recoveries] == [1, 2]
    assert len(slept) == 2


def test_retries_without_committed_epoch_restart_from_scratch(
        ft_graph, ft_params, reference, tmp_path):
    """A fault during init — before any epoch commits — recovers by plain
    re-execution (resume=None), still bit-identically."""
    slept, retry = _no_sleep()
    plan = FaultPlan([FaultSpec(1, "init", 1)])
    res = run_with_retries(
        ft_graph, PARTS, checkpoint=CkptPolicy(dir=str(tmp_path / "run")),
        fault_plan=plan, retry=retry,
        nprocs=NPROCS, params=ft_params, backend="serial",
    )
    assert np.array_equal(res.parts, reference.parts)
    assert res.stats.recoveries[0].epoch is None
