"""Topology-aware communication metering for the simulated MPI runtime.

A *communicator strategy* decides how the simulator's collectives map onto
a machine topology: what the two-level exchange protocol would actually
put on each wire — shared memory inside a node, the network between
nodes.  There are two, requested by a spec string that
:func:`create_communicator` (ChainerMN's ``create_communicator`` factory
shape) turns into the runtime's strategy::

    rt = create_runtime("threads", nprocs=64, comm="hierarchical:8")
    rt.comm_strategy  # HierarchicalCommunicator: 8 nodes of 8

=============  ==========================  =====================================
spec           topology                    metering
=============  ==========================  =====================================
flat           one rank = one node         single tier: no strategy object
hierarchical   ranks grouped into nodes    two tiers: intra-node / inter-node
                                           wire model
=============  ==========================  =====================================

``flat`` is the absence of a strategy: :func:`create_communicator` returns
None and events carry ``tiers=None``.  ``hierarchical[:R]`` returns a
:class:`~repro.simmpi.topology.hierarchical.HierarchicalCommunicator` over
``R`` ranks per node, every node on one network
(:class:`~repro.simmpi.topology.model.Topology`, parsed by
:func:`~repro.simmpi.topology.model.parse_comm_spec`).

The strategy never touches payload movement: every collective still runs as
one rendezvous with the exact same ``execute`` closure, so results and the
:meth:`~repro.simmpi.metrics.CommStats.signature` record are bit-identical
across strategies.  What changes is *supplementary* metering — the
:class:`~repro.simmpi.metrics.TierMetering` attached to each event, two
wire-byte totals that the reports read and no machine model prices.

A runtime meters ``flat`` unless a strategy is asked for, through
``PulpParams.comm``, ``--comm`` or ``create_runtime(comm=)``.
"""

from __future__ import annotations

from typing import Optional

from repro.simmpi.topology.hierarchical import HierarchicalCommunicator
from repro.simmpi.topology.model import (
    DEFAULT_RANKS_PER_NODE,
    Topology,
    make_topology,
    parse_comm_spec,
)


def create_communicator(
    spec: str, *, nprocs: int
) -> Optional[HierarchicalCommunicator]:
    """The metering strategy for a spec over ``nprocs`` simulated ranks:
    None for ``flat``, else a :class:`HierarchicalCommunicator`.

    ``spec`` is ``"flat"`` or ``"hierarchical[:R]"`` (``R`` ranks per
    node, default 8).
    """
    name, rpn = parse_comm_spec(spec)
    if name == "flat":
        return None
    if name != HierarchicalCommunicator.name:
        raise ValueError(
            f"unknown communicator strategy {spec!r}; valid choices: "
            f"{sorted(('flat', HierarchicalCommunicator.name))}"
        )
    return HierarchicalCommunicator(make_topology(nprocs, rpn))


__all__ = [
    "Topology",
    "make_topology",
    "parse_comm_spec",
    "DEFAULT_RANKS_PER_NODE",
    "HierarchicalCommunicator",
    "create_communicator",
]
