"""The machine model's pricing rule, one event at a time — the oracle for
:meth:`MachineModel.cost_parts_batch`, which prices every event of a run
at once.

These are the scalar ``cost_parts`` / ``collective_cost`` /
``superstep_time`` methods as the models used to carry them, moved here
verbatim (``self`` became the first argument; ``superstep_time`` has
since lost the measured-compute term the model no longer prices, and
``cost_parts`` prices an exchange as the sparse NBX round it became):
nothing in ``src/`` priced one event at a time.

An exchange that carries a reduction operand is priced by the same rule:
its ``bytes_sent`` hold the operand's bytes beside the records', and its
``messages`` the records' destinations only.  :func:`merged` is that
round written as the pair it replaces — the exchange's event and the
separate Allreduce's, summed per rank.
"""

import dataclasses
from math import ceil, log2
from typing import Tuple

from repro.simmpi.metrics import CollectiveEvent
from repro.simmpi.timing import MachineModel, TimeModel


def cost_parts(machine: MachineModel, event: CollectiveEvent,
               nprocs: int) -> Tuple[float, float]:
    """``(latency, bandwidth)`` cost components of one collective."""
    if nprocs <= 1:
        return 0.0, 0.0
    # every round ends in a log-depth tree (an exchange's consensus
    # barrier); an exchange first sends one message per non-empty
    # off-rank destination, so its busiest sender adds its count
    hops = max(1, ceil(log2(nprocs)))
    if event.messages is not None:
        hops += int(event.messages.max())
    return machine.alpha * hops, machine.beta * event.max_bytes


def collective_cost(machine: MachineModel, event: CollectiveEvent,
                    nprocs: int) -> float:
    """Communication cost (seconds) of one matched collective."""
    latency, bandwidth = cost_parts(machine, event, nprocs)
    return latency + bandwidth


def superstep_time(model: TimeModel, event: CollectiveEvent,
                   nprocs: int) -> float:
    return (
        model.machine.gamma * event.max_work
        + collective_cost(model.machine, event, nprocs)
    )


def merged(exchange: CollectiveEvent,
           reduction: CollectiveEvent) -> CollectiveEvent:
    """The one flat event of an exchange whose consensus carries the
    operand of ``reduction``, a separate Allreduce that followed it: bytes
    and work summed per rank, the exchange's messages."""
    return dataclasses.replace(
        exchange,
        bytes_sent=exchange.bytes_sent + reduction.bytes_sent,
        work_units=exchange.work_units + reduction.work_units,
        compute_seconds=exchange.compute_seconds + reduction.compute_seconds)
