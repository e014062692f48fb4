"""The machine models' pricing rule, one event at a time — the oracle for
:meth:`MachineModel.cost_parts_batch` / :meth:`TieredMachineModel.
cost_parts_batch`, which price every event of a run at once.

These are the scalar ``cost_parts`` / ``collective_cost`` /
``superstep_time`` methods and the ``TierMetering.max_*`` accessors as the
models used to carry them, moved here verbatim (``self`` became the first
argument; ``superstep_time`` has since lost the measured-compute term the
model no longer prices): nothing in ``src/`` priced one event at a time.
"""

from math import ceil, log2
from typing import Tuple

import numpy as np

from repro.simmpi.metrics import CollectiveEvent, TierMetering
from repro.simmpi.timing import _PAIRWISE_OPS, MachineModel, TimeModel


def max_wire_intra(tiers: TierMetering) -> int:
    return int(tiers.wire_intra.max()) if tiers.wire_intra.size else 0


def max_node_wire_inter(tiers: TierMetering) -> int:
    """Busiest *node's* injected inter-node wire bytes — the bandwidth
    bound of the inter tier (a node's NIC carries the sum of its ranks'
    inter traffic, which under two-level is leader-injected)."""
    if tiers.wire_inter.size == 0:
        return 0
    per_node = np.bincount(tiers.node_of, weights=tiers.wire_inter)
    return int(per_node.max()) if per_node.size else 0


def max_rack_wire_xrack(tiers: TierMetering) -> int:
    """Busiest *rack's* injected cross-rack wire bytes — the bandwidth
    bound of the rack tier (cross-rack traffic is rack-leader injected, so
    a rack's uplink carries the sum of its ranks' ``wire_xrack``).  Zero on
    one rack."""
    if tiers.wire_xrack.size == 0:
        return 0
    per_rack = np.bincount(tiers.rack_of, weights=tiers.wire_xrack)
    return int(per_rack.max()) if per_rack.size else 0


def cost_parts(machine: MachineModel, event: CollectiveEvent,
               nprocs: int) -> Tuple[float, float]:
    """``(latency, bandwidth)`` cost components of one collective."""
    tiers = event.tiers
    if tiers is not None and hasattr(machine, "alpha_intra"):
        latency = (machine.alpha_intra * tiers.intra_hops
                   + machine.alpha * tiers.inter_hops
                   + machine.alpha_rack * tiers.xrack_hops)
        bandwidth = (machine.beta_intra * max_wire_intra(tiers)
                     + machine.beta * max_node_wire_inter(tiers)
                     + machine.beta_rack * max_rack_wire_xrack(tiers))
        return latency, bandwidth
    if nprocs <= 1:
        return 0.0, 0.0
    if event.op in _PAIRWISE_OPS:
        hops = nprocs - 1
    else:
        hops = max(1, ceil(log2(nprocs)))
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
