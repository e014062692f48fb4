"""The machine models' pricing rule, one event at a time — the oracle for
:meth:`MachineModel.cost_parts_batch` / :meth:`TieredMachineModel.
cost_parts_batch`, which price every event of a run at once.

These are the scalar ``cost_parts`` / ``collective_cost`` /
``superstep_time`` methods as the models used to carry them, moved here
verbatim (``self`` became the first argument; ``superstep_time`` has
since lost the measured-compute term the model no longer prices,
``cost_parts`` prices an exchange as the sparse NBX round it became, and
reads a tiered event's busiest rank / node loads off its
``TierMetering``, which the strategy reduced at record time — that
reduction's oracle is ``tests/reference/tiers.py``): nothing in ``src/``
priced one event at a time.

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
    tiers = event.tiers
    if tiers is not None and hasattr(machine, "alpha_intra"):
        latency = (machine.alpha_intra * tiers.intra_hops
                   + machine.alpha * tiers.inter_hops)
        bandwidth = (machine.beta_intra * tiers.max_wire_intra
                     + machine.beta * tiers.max_node_wire_inter)
        return latency, bandwidth
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
    and work summed per rank, the exchange's messages.  (A tiered round's
    busiest-rank / node loads are not sums of the pair's; its oracle is
    ``tests/reference/tiers.py``.)"""
    return dataclasses.replace(
        exchange,
        bytes_sent=exchange.bytes_sent + reduction.bytes_sent,
        work_units=exchange.work_units + reduction.work_units,
        compute_seconds=exchange.compute_seconds + reduction.compute_seconds)
