"""Machine topology model: simulated ranks grouped into nodes.

The paper's runs place one MPI task per Blue Waters node, so the flat
simulator historically equated *rank* with *node* — every pair of ranks
communicated at one modeled cost.  Real machines are hierarchical: ranks
that share a node exchange data through shared memory at a fraction of the
network's latency and many times its bandwidth, and modern distributed
partitioners (dKaMinPar, Tera-Scale Multilevel) lean on node-aware message
aggregation to reach their scaling regime.

:class:`Topology` captures that structure for the simulator: ``nprocs``
simulated ranks packed into nodes of ``ranks_per_node`` (the last node may
be short), all nodes on one network.  Rank 0 of each node is its
*leader* — the rank that injects the node's aggregated traffic into the
inter-node network under the hierarchical exchange protocol (see
:mod:`repro.simmpi.topology.hierarchical`).

A topology-aware communicator is requested with a compact spec string
(``PulpParams.comm`` / ``--comm`` / ``create_runtime(comm=)``)::

    flat                    today's single-tier behavior (default)
    hierarchical            8 ranks/node
    hierarchical:16         16 ranks/node

:func:`parse_comm_spec` validates the grammar without needing a rank
count; :func:`make_topology` instantiates the concrete grouping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

#: Default node width when a hierarchical spec names none (the paper's
#: XE6 nodes run 16 integer cores; 8 is the common dual-socket MPI split).
DEFAULT_RANKS_PER_NODE = 8


def parse_comm_spec(spec: str) -> Tuple[str, Optional[int]]:
    """Split a communicator spec into ``(name, ranks_per_node)``.

    Only the grammar is checked here (``name[:R]`` with positive integer
    ``R``); whether ``name`` is a strategy is the factory's concern, so
    specs can be validated by :class:`~repro.core.params.PulpParams`
    without importing the strategy implementations.
    """
    if not isinstance(spec, str) or not spec:
        raise ValueError(f"communicator spec must be a non-empty string, got {spec!r}")
    name, sep, rest = spec.partition(":")
    if not name:
        raise ValueError(f"communicator spec {spec!r} has an empty name")
    if not sep:
        return name, None
    # int() tolerates surrounding whitespace and sign characters; the
    # grammar does not (" 8" is a typo, not a spec)
    if not rest.isdigit() or int(rest) < 1:
        raise ValueError(
            f"malformed communicator spec {spec!r}; expected NAME[:R] "
            f"with integer R >= 1 ranks/node"
        )
    return name, int(rest)


@dataclass(frozen=True)
class Topology:
    """Ranks packed into nodes of ``ranks_per_node`` (the last node may be
    short)."""

    nprocs: int
    ranks_per_node: int

    def __post_init__(self) -> None:
        if self.nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {self.nprocs}")
        if self.ranks_per_node < 1:
            raise ValueError(
                f"ranks_per_node must be >= 1, got {self.ranks_per_node}"
            )

    @property
    def n_nodes(self) -> int:
        return -(-self.nprocs // self.ranks_per_node)

    @property
    def multi_node(self) -> bool:
        return self.n_nodes > 1

    def node_of_ranks(self) -> np.ndarray:
        """``(nprocs,)`` int32 map rank -> node id."""
        return (np.arange(self.nprocs, dtype=np.int32)
                // np.int32(self.ranks_per_node))


def make_topology(
    nprocs: int, ranks_per_node: Optional[int] = None
) -> Topology:
    """Build a :class:`Topology` from a spec's node width: 8-wide nodes
    when it names none (clamped so a tiny run is still one full node
    rather than an error)."""
    rpn = ranks_per_node if ranks_per_node is not None else DEFAULT_RANKS_PER_NODE
    return Topology(nprocs=nprocs, ranks_per_node=min(rpn, max(nprocs, 1)))
