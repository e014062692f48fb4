"""Topology-aware communication subsystem for the simulated MPI runtime.

Public surface:

* :class:`~repro.simmpi.topology.model.Topology` /
  :func:`~repro.simmpi.topology.model.make_topology` /
  :func:`~repro.simmpi.topology.model.parse_comm_spec` — the machine model
  (ranks grouped into nodes, optionally racks) and the
  ``name[:ranks_per_node[xnodes_per_rack]]`` spec grammar;
* :func:`~repro.simmpi.topology.registry.create_communicator` and friends —
  the ChainerMN-style strategy registry (``flat`` / ``hierarchical``);
* :class:`~repro.simmpi.topology.hierarchical.HierarchicalCommunicator` —
  the two-level exchange metering strategy.
"""

from repro.simmpi.topology.model import (
    DEFAULT_RANKS_PER_NODE,
    Topology,
    make_topology,
    parse_comm_spec,
)
from repro.simmpi.topology.registry import (
    COMM_ENV_VAR,
    DEFAULT_COMM,
    Communicator,
    FlatCommunicator,
    available_communicators,
    create_communicator,
    default_comm,
    register_communicator,
)
from repro.simmpi.topology.hierarchical import (
    COUNT_WIRE_BYTES,
    HierarchicalCommunicator,
)

__all__ = [
    "Topology",
    "make_topology",
    "parse_comm_spec",
    "DEFAULT_RANKS_PER_NODE",
    "Communicator",
    "FlatCommunicator",
    "HierarchicalCommunicator",
    "create_communicator",
    "register_communicator",
    "available_communicators",
    "default_comm",
    "COMM_ENV_VAR",
    "DEFAULT_COMM",
    "COUNT_WIRE_BYTES",
]
