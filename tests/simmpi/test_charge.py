"""Deterministic work charging through the comm layer."""

import time

import numpy as np
import pytest

from repro.simmpi import MachineModel, TimeModel, run_spmd


def test_charge_attaches_to_next_collective():
    def fn(comm):
        comm.charge(100 * (comm.rank + 1))
        comm.barrier()
        comm.barrier()  # no charge in between

    _, stats = run_spmd(3, fn)
    first, second = stats.events
    np.testing.assert_array_equal(first.work_units, [100, 200, 300])
    np.testing.assert_array_equal(second.work_units, [0, 0, 0])
    assert first.max_work == 300


def test_charge_accumulates_within_superstep():
    def fn(comm):
        comm.charge(5)
        comm.charge(7)
        comm.barrier()

    _, stats = run_spmd(2, fn)
    assert stats.events[0].max_work == 12


def test_gamma_prices_work():
    def fn(comm):
        comm.charge(1000)
        comm.barrier()

    _, stats = run_spmd(2, fn)
    model = TimeModel(MachineModel(alpha=0.0, beta=0.0, gamma=1e-3))
    assert model.total_time(stats) == pytest.approx(1.0)


def test_work_in_breakdown():
    def fn(comm):
        comm.charge(500)
        comm.allreduce(1)

    _, stats = run_spmd(2, fn)
    model = TimeModel(MachineModel(alpha=1e-6, beta=1e-9, gamma=2e-6))
    b = model.breakdown(stats)
    assert b["work"] == pytest.approx(2e-6 * 500)
    assert b["total"] == pytest.approx(
        b["work"] + b["latency"] + b["bandwidth"]
    )


def test_measured_compute_is_not_priced():
    """A rank spinning the CPU between two collectives changes no modeled
    time: the model prices charged work, latency and bandwidth only."""
    def fn(comm):
        comm.charge(100 * (comm.rank + 1))
        comm.barrier()
        if comm.rank == 0:
            t0 = time.thread_time()
            while time.thread_time() - t0 < 0.02:
                pass
        comm.charge(50)
        comm.barrier()

    machine = MachineModel(alpha=1e-6, beta=1e-9, gamma=2e-6)
    times = []
    for _ in range(2):
        _, stats = run_spmd(2, fn)
        assert not any(e.compute_seconds.any() for e in stats.events)
        times.append(TimeModel(machine).total_time(stats))
    # two barriers: one latency hop each on 2 ranks, no payload bytes
    predicted = machine.gamma * (200 + 50) + 2 * machine.alpha
    assert times[0] == times[1] == pytest.approx(predicted, rel=1e-12)


def test_charge_single_rank():
    def fn(comm):
        comm.charge(42)
        comm.barrier()

    _, stats = run_spmd(1, fn)
    assert stats.events[0].max_work == 42


def test_charged_runs_are_deterministic():
    def fn(comm):
        rng = np.random.default_rng(comm.rank)
        data = rng.random(1000)
        comm.charge(data.size)
        total = comm.Allreduce(data)
        return float(total.sum())

    model = TimeModel(MachineModel(alpha=1e-6, beta=1e-9, gamma=4e-9))
    times = []
    for _ in range(3):
        out, stats = run_spmd(4, fn)
        times.append(model.total_time(stats))
    assert times[0] == times[1] == times[2]
