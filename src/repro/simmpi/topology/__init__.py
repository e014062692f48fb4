"""Topology-aware communication metering for the simulated MPI runtime.

A *communicator strategy* decides how the simulator's collectives map onto
a machine topology: which bytes stay inside a node, which cross the
network, and what the two-level exchange protocol would actually put on
each wire.  There are two, requested by a spec string through
:func:`create_communicator` (ChainerMN's ``create_communicator`` factory
shape)::

    comm = create_communicator("hierarchical:8", nprocs=64)
    rt = create_runtime("threads", nprocs=64, comm=comm)

=============  ==========================  =====================================
spec           topology                    metering
=============  ==========================  =====================================
flat           one rank = one node         single tier: no strategy object
hierarchical   ranks grouped into nodes    two-level: intra/inter split + wire
=============  ==========================  =====================================

``flat`` is the absence of a strategy: :func:`create_communicator` returns
None, ranks deposit no per-destination vectors and events carry
``tiers=None``.  ``hierarchical[:R[xK]]`` returns a
:class:`~repro.simmpi.topology.hierarchical.HierarchicalCommunicator` over
``R`` ranks per node and, optionally, ``K`` nodes per rack
(:class:`~repro.simmpi.topology.model.Topology`, parsed by
:func:`~repro.simmpi.topology.model.parse_comm_spec`).

The strategy never touches payload movement: every collective still runs as
one rendezvous with the exact same ``execute`` closure, so results and the
:meth:`~repro.simmpi.metrics.CommStats.signature` record are bit-identical
across strategies.  What changes is *supplementary* metering — the
:class:`~repro.simmpi.metrics.TierMetering` attached to each event — which
the tiered machine models price per tier.

The default strategy (used when ``comm=None``) is ``flat``, overridable
with the ``REPRO_COMM`` environment variable — the same pattern as
``REPRO_BACKEND``.
"""

from __future__ import annotations

import os
from typing import Optional, Union

from repro.simmpi.topology.hierarchical import (
    COUNT_WIRE_BYTES,
    HierarchicalCommunicator,
)
from repro.simmpi.topology.model import (
    DEFAULT_RANKS_PER_NODE,
    Topology,
    make_topology,
    parse_comm_spec,
)

#: Environment variable consulted when ``create_communicator(None, ...)``.
COMM_ENV_VAR = "REPRO_COMM"

#: Fallback when neither the caller nor the environment picks a strategy.
DEFAULT_COMM = "flat"


def default_comm() -> str:
    """The spec used when no strategy is requested explicitly."""
    return os.environ.get(COMM_ENV_VAR) or DEFAULT_COMM


def create_communicator(
    comm: Union[str, None, HierarchicalCommunicator] = None,
    *,
    nprocs: int,
    ranks_per_node: Optional[int] = None,
    nodes_per_rack: Optional[int] = None,
) -> Optional[HierarchicalCommunicator]:
    """The metering strategy for a spec: None for ``flat``, else a
    :class:`HierarchicalCommunicator`.

    Parameters
    ----------
    comm:
        Spec string (``"flat"``, ``"hierarchical"``, ``"hierarchical:16"``,
        ``"hierarchical:8x4"``, ...), an already-constructed
        :class:`HierarchicalCommunicator` (passed through after a
        rank-count check), or None to use ``$REPRO_COMM`` falling back to
        ``"flat"``.
    nprocs:
        Number of simulated MPI ranks the strategy will meter.
    ranks_per_node, nodes_per_rack:
        Topology overrides; a ``:RxK`` suffix in the spec wins over these.
    """
    if isinstance(comm, HierarchicalCommunicator):
        if comm.topology.nprocs != nprocs:
            raise ValueError(
                f"communicator instance is for "
                f"{comm.topology.nprocs} ranks, requested {nprocs}"
            )
        return comm
    spec = comm if comm is not None else default_comm()
    name, rpn, npr = parse_comm_spec(spec)
    if name == DEFAULT_COMM:
        return None
    if name != HierarchicalCommunicator.name:
        raise ValueError(
            f"unknown communicator strategy {spec!r}; valid choices: "
            f"{sorted((DEFAULT_COMM, HierarchicalCommunicator.name))}"
        )
    return HierarchicalCommunicator(make_topology(
        nprocs,
        rpn if rpn is not None else ranks_per_node,
        npr if npr is not None else nodes_per_rack,
    ))


__all__ = [
    "Topology",
    "make_topology",
    "parse_comm_spec",
    "DEFAULT_RANKS_PER_NODE",
    "HierarchicalCommunicator",
    "create_communicator",
    "default_comm",
    "COMM_ENV_VAR",
    "DEFAULT_COMM",
    "COUNT_WIRE_BYTES",
]
