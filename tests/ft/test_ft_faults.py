"""FaultSpec/FaultPlan semantics and the --inject-fault parser."""

import numpy as np
import pytest

from repro.core import xtrapulp
from repro.ft import FaultPlan, FaultSpec, parse_fault_spec
from repro.simmpi import create_runtime
from repro.simmpi.errors import (
    InjectedFault,
    PayloadCorruptionError,
    RankFailure,
)

from tests.ft.conftest import NPROCS, PARTS


# -- spec validation ---------------------------------------------------------


def test_spec_rejects_unknown_action():
    with pytest.raises(ValueError, match="action"):
        FaultSpec(0, "init", 0, action="explode")


@pytest.mark.parametrize("kwargs", [
    dict(rank=-1, phase="init", step=0),
    dict(rank=0, phase="init", step=-2),
    dict(rank=0, phase="init", step=0, attempt=-1),
])
def test_spec_rejects_negative_fields(kwargs):
    with pytest.raises(ValueError, match="negative"):
        FaultSpec(**kwargs)


# -- parser ------------------------------------------------------------------


def test_parse_minimal():
    spec = parse_fault_spec("2:vertex_refine:5")
    assert spec == FaultSpec(2, "vertex_refine", 5, action="raise")


def test_parse_with_action():
    spec = parse_fault_spec("0:edge_balance:3:die")
    assert spec == FaultSpec(0, "edge_balance", 3, action="die")


def test_parse_delay_with_seconds():
    spec = parse_fault_spec("1:vertex_refine:4:delay:30")
    assert spec == FaultSpec(1, "vertex_refine", 4, action="delay",
                             delay=30.0)
    assert parse_fault_spec("1:p:0:delay").delay == 0.0


@pytest.mark.parametrize("text", [
    "", "2", "2:phase", "a:phase:0", "2:phase:b", "2:phase:0:die:extra",
    "2:phase:0:explode", "2:phase:0:delay:soon", "2:phase:0:die:5",
    "0:*:0:delay:-1", "0:*:0:delay:inf", "0:*:0:delay:nan",
])
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_fault_spec(text)


# -- firing semantics --------------------------------------------------------


def test_fires_at_exact_superstep():
    plan = FaultPlan([FaultSpec(1, "vertex_refine", 2)])
    # other ranks, other phases, earlier steps: quiet
    plan.check(0, "Allreduce", "vertex_refine")
    plan.check(1, "Allreduce", "vertex_balance")
    plan.check(1, "Allreduce", "vertex_refine")  # step 0
    plan.check(1, "Allreduce", "vertex_refine")  # step 1
    with pytest.raises(InjectedFault, match="rank 1.*vertex_refine.*2"):
        plan.check(1, "Allreduce", "vertex_refine")  # step 2


def test_wildcard_phase_matches_any_tag():
    """``phase="*"`` matches every tag; steps still count within each
    tag, so a step-1 spec fires at the second collective of any phase."""
    plan = FaultPlan([FaultSpec(0, "*", 1)])
    plan.check(0, "Allreduce", "edge_balance")  # step 0 of that tag
    with pytest.raises(InjectedFault):
        plan.check(0, "Barrier", "edge_balance")  # step 1
    with pytest.raises(InjectedFault):
        FaultPlan([FaultSpec(0, "*", 0)]).check(0, "Allreduce", "anything")


def test_counters_are_per_rank_and_per_tag():
    plan = FaultPlan([FaultSpec(0, "init", 1)])
    for _ in range(5):
        plan.check(1, "Allreduce", "init")   # rank 1 never trips rank 0's bomb
        plan.check(0, "Allreduce", "other")  # other tags don't advance "init"
    plan.check(0, "Allreduce", "init")  # step 0
    with pytest.raises(InjectedFault):
        plan.check(0, "Allreduce", "init")  # step 1


def test_attempt_gating():
    """A spec fires on the attempt it names and stays quiet on retries."""
    plan = FaultPlan([FaultSpec(0, "init", 0, attempt=0)])
    plan.current_attempt = 1
    for _ in range(3):
        plan.check(0, "Allreduce", "init")  # armed for attempt 0 only
    plan.current_attempt = 0
    with pytest.raises(InjectedFault):
        plan.check(0, "Allreduce", "init")


def test_die_downgrades_to_raise_without_can_die():
    """In-process backends pass can_die=False; the rank must not take the
    whole test process down."""
    plan = FaultPlan([FaultSpec(0, "init", 0, action="die")])
    with pytest.raises(InjectedFault):
        plan.check(0, "Allreduce", "init", can_die=False)


def test_random_plans_are_reproducible():
    kw = dict(nprocs=4, phases=["vertex_balance", "edge_refine"], max_step=20)
    a = FaultPlan.random(11, **kw)
    b = FaultPlan.random(11, **kw)
    c = FaultPlan.random(12, **kw)
    assert a.specs == b.specs
    assert a.specs[0].rank < 4 and a.specs[0].step < 20
    assert a.specs[0].phase in kw["phases"]
    assert a.specs != c.specs  # rank 0 at step 15 vs rank 2 at step 19


@pytest.mark.parametrize("backend", ["serial", "threads", "procs"])
def test_delay_fault_does_not_change_the_record(ft_graph, ft_params,
                                                reference, backend):
    """Latency injection perturbs wall time only — parts and the metered
    record stay bit-identical to the fault-free run, on every backend
    (the procs leg exercises a real sleeping child process)."""
    plan = FaultPlan([FaultSpec(1, "vertex_balance", 2, action="delay",
                                delay=0.01)])
    res = xtrapulp(ft_graph, PARTS, nprocs=NPROCS, params=ft_params,
                   backend=backend, fault_plan=plan)
    assert np.array_equal(res.parts, reference.parts)
    assert res.stats.signature() == reference.stats.signature()


@pytest.mark.parametrize("backend", ["serial", "threads"])
def test_raise_fault_surfaces_as_plain_injected_fault(ft_graph, ft_params,
                                                      backend):
    """Without checkpoint/resume requested, an injected fault propagates
    unwrapped (no RankFailure envelope)."""
    plan = FaultPlan([FaultSpec(1, "vertex_refine", 2)])
    with pytest.raises(InjectedFault):
        xtrapulp(ft_graph, PARTS, nprocs=NPROCS, params=ft_params,
                 backend=backend, fault_plan=plan)


def test_fault_wrapped_in_rank_failure_when_checkpointing(ft_graph, ft_params,
                                                          tmp_path):
    plan = FaultPlan([FaultSpec(1, "vertex_refine", 2)])
    with pytest.raises(RankFailure) as ei:
        xtrapulp(ft_graph, PARTS, nprocs=NPROCS, params=ft_params,
                 backend="serial", fault_plan=plan,
                 checkpoint=str(tmp_path))
    assert ei.value.run_dir == str(tmp_path)
    assert ei.value.epoch == 0  # init epoch committed before the fault
    assert isinstance(ei.value.__cause__, InjectedFault)


# -- an exchange is one rendezvous and one step of the plan -----------------

BACKENDS = ("serial", "threads", "procs")


def _exchange_then_reduce(comm):
    """Steps of phase "x": 0 the exchange, 1 the Allreduce."""
    with comm.phase("x"):
        cts = np.ones(comm.size, dtype=np.int64)
        comm.Alltoallv(np.arange(comm.size, dtype=np.int64), cts)
        comm.Allreduce(np.ones(1))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("step,op", [(0, "alltoallv"), (1, "allreduce")])
def test_exchange_takes_one_step_of_the_plan(backend, step, op):
    """An exchange is one metered round, so one step: a spec aimed at the
    exchange or past it fires at the (phase, step) — and names the op."""
    rt = create_runtime(backend, nprocs=3)
    rt.fault_plan = FaultPlan([FaultSpec(1, "x", step)])
    try:
        with pytest.raises(
                InjectedFault,
                match=rf"rank 1, phase 'x', superstep {step} \(op '{op}'"):
            rt.run(_exchange_then_reduce)
    finally:
        rt.close()


def _second_exchange(reference, phase):
    """``(exchange step, next step)`` of ``phase``'s second exchange —
    an iteration's one round, its delta sum riding it, so the next step
    is the following iteration's exchange."""
    ops = [e.op for e in reference.stats.events if e.tag == phase]
    step = ops.index("alltoallv", ops.index("alltoallv") + 1)
    assert ops[step + 1] == "alltoallv"
    return step, step + 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_corrupt_at_the_header_step_is_detected(ft_graph, ft_params,
                                                reference, backend):
    """The counts ride in the exchange's one deposit, under its checksum:
    corruption aimed at the exchange's step is detected."""
    step, _ = _second_exchange(reference, "vertex_balance")
    plan = FaultPlan([FaultSpec(1, "vertex_balance", step,
                                action="corrupt")])
    with pytest.raises(PayloadCorruptionError):
        xtrapulp(ft_graph, PARTS, nprocs=NPROCS, params=ft_params,
                 backend=backend, fault_plan=plan, integrity="crc")


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("which", ["payload", "after"])
def test_crash_inside_an_exchange_resumes_bit_identically(
        ft_graph, ft_params, reference, tmp_path, backend, which):
    """A crash at an exchange's step, or at the exchange right after it."""
    steps = dict(zip(("payload", "after"),
                     _second_exchange(reference, "edge_balance")))
    d = str(tmp_path / "run")
    plan = FaultPlan([FaultSpec(2, "edge_balance", steps[which])])
    with pytest.raises(RankFailure):
        xtrapulp(ft_graph, PARTS, nprocs=NPROCS, params=ft_params,
                 backend=backend, checkpoint=d, fault_plan=plan)
    res = xtrapulp(ft_graph, PARTS, nprocs=NPROCS, params=ft_params,
                   backend=backend, resume=d)
    assert np.array_equal(res.parts, reference.parts)
    assert [s for s in res.stats.signature()
            if s[1] != "checkpoint"] == reference.stats.signature()
