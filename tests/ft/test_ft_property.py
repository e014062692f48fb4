"""Property: recovery is bit-identical from *any* fault point.

Hypothesis draws (rank, phase, superstep) triples, each superstep below
the count of collectives a rank makes in that phase — read off the
uninterrupted reference record, so every drawn fault fires; for each, a
supervised run crashes there, resumes from the last committed epoch (or
from scratch when the fault predates the first commit), and must
reproduce the reference partition and partition-phase record exactly.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ft import CkptPolicy, FaultPlan, FaultSpec
from repro.ft.recovery import RetryPolicy, run_with_retries

from tests.ft.conftest import NPROCS, PARTS

PHASES = ("init", "vertex_balance", "vertex_refine",
          "edge_balance", "edge_refine")


def _steps_per_phase(reference):
    """Collectives per rank in each phase of the reference run (BSP: the
    same on every rank); supersteps are counted per phase tag."""
    return Counter(e.tag for e in reference.stats.events)


def _recovered_once(res, reference):
    assert np.array_equal(res.parts, reference.parts)
    res_part = [s for s in res.stats.signature() if s[1] != "checkpoint"]
    assert res_part == reference.stats.signature()
    # the fault fired: exactly one recovery is on record
    assert [r.attempt for r in res.stats.recoveries] == [1]


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rank=st.integers(0, NPROCS - 1),
       phase=st.sampled_from(PHASES),
       data=st.data())
def test_any_fault_point_recovers_bit_identically(ft_graph, ft_params,
                                                  reference, tmp_path_factory,
                                                  rank, phase, data):
    count = _steps_per_phase(reference)[phase]
    step = data.draw(st.integers(0, count - 1), label="step")
    d = str(tmp_path_factory.mktemp("prop"))
    plan = FaultPlan([FaultSpec(rank, phase, step)])
    slept = []
    res = run_with_retries(
        ft_graph, PARTS, checkpoint=CkptPolicy(dir=d, every="phase"),
        fault_plan=plan, retry=RetryPolicy(max_retries=2, sleep=slept.append),
        nprocs=NPROCS, params=ft_params, backend="serial",
    )
    _recovered_once(res, reference)


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**31 - 1), phase=st.sampled_from(PHASES))
def test_random_plan_seed_recovers(ft_graph, ft_params, reference,
                                   tmp_path_factory, seed, phase):
    """Same property through FaultPlan.random, the seeded constructor the
    CLI-style tooling uses, drawing a step below the phase's count."""
    d = str(tmp_path_factory.mktemp("seeded"))
    plan = FaultPlan.random(seed, nprocs=NPROCS, phases=(phase,),
                            max_step=_steps_per_phase(reference)[phase])
    res = run_with_retries(
        ft_graph, PARTS, checkpoint=CkptPolicy(dir=d, every="phase"),
        fault_plan=plan,
        retry=RetryPolicy(max_retries=2, sleep=lambda _s: None),
        nprocs=NPROCS, params=ft_params, backend="serial",
    )
    _recovered_once(res, reference)
