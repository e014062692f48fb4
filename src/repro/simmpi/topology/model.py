"""Machine topology model: simulated ranks grouped into nodes (and racks).

The paper's runs place one MPI task per Blue Waters node, so the flat
simulator historically equated *rank* with *node* — every pair of ranks
communicated at one modeled cost.  Real machines are hierarchical: ranks
that share a node exchange data through shared memory at a fraction of the
network's latency and many times its bandwidth, and modern distributed
partitioners (dKaMinPar, Tera-Scale Multilevel) lean on node-aware message
aggregation to reach their scaling regime.

:class:`Topology` captures that structure for the simulator: ``nprocs``
simulated ranks packed into nodes of ``ranks_per_node`` (the last node may
be short), optionally grouped further into racks of ``nodes_per_rack``
nodes.  Rank 0 of each node is its *leader* — the rank that injects the
node's aggregated traffic into the inter-node network under the two-level
exchange protocol (see :mod:`repro.simmpi.topology.hierarchical`).

A topology-aware communicator is requested with a compact spec string
(``PulpParams.comm`` / ``--comm`` / ``$REPRO_COMM``)::

    flat                    today's single-tier behavior (default)
    hierarchical            two-level, 8 ranks/node
    hierarchical:16         two-level, 16 ranks/node
    hierarchical:8x4        two-level, 8 ranks/node, 4 nodes/rack

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


def parse_comm_spec(spec: str) -> Tuple[str, Optional[int], Optional[int]]:
    """Split a communicator spec into ``(name, ranks_per_node, nodes_per_rack)``.

    Only the grammar is checked here (``name[:R[xK]]`` with positive
    integer ``R``/``K``); whether ``name`` is a strategy is the factory's
    concern, so specs can be validated by :class:`~repro.core.params.PulpParams`
    without importing the strategy implementations.
    """
    if not isinstance(spec, str) or not spec:
        raise ValueError(f"communicator spec must be a non-empty string, got {spec!r}")
    name, sep, rest = spec.partition(":")
    if not name:
        raise ValueError(f"communicator spec {spec!r} has an empty name")
    if not sep:
        return name, None, None
    rpn_s, xsep, npr_s = rest.partition("x")
    if not rest or (xsep and not npr_s):
        raise ValueError(
            f"malformed communicator spec {spec!r}; expected NAME[:R[xK]] "
            f"with integer R ranks/node and K nodes/rack"
        )
    # int() tolerates surrounding whitespace and sign characters; the
    # grammar does not ("8 x 4" is a typo, not a spec)
    if not rpn_s.isdigit() or (npr_s and not npr_s.isdigit()):
        raise ValueError(
            f"malformed communicator spec {spec!r}; expected NAME[:R[xK]] "
            f"with integer R ranks/node and K nodes/rack"
        )
    rpn = int(rpn_s)
    npr = int(npr_s) if npr_s else None
    if rpn < 1 or (npr is not None and npr < 1):
        raise ValueError(f"communicator spec {spec!r}: R and K must be >= 1")
    return name, rpn, npr


@dataclass(frozen=True)
class Topology:
    """Ranks packed into nodes of ``ranks_per_node`` (last node may be
    short), nodes optionally packed into racks of ``nodes_per_rack``.

    ``nodes_per_rack=0`` means no rack tier (one flat sea of nodes).
    """

    nprocs: int
    ranks_per_node: int
    nodes_per_rack: int = 0

    def __post_init__(self) -> None:
        if self.nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {self.nprocs}")
        if self.ranks_per_node < 1:
            raise ValueError(
                f"ranks_per_node must be >= 1, got {self.ranks_per_node}"
            )
        if self.nodes_per_rack < 0:
            raise ValueError(
                f"nodes_per_rack must be >= 0, got {self.nodes_per_rack}"
            )

    # -- node tier ---------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return -(-self.nprocs // self.ranks_per_node)

    @property
    def multi_node(self) -> bool:
        return self.n_nodes > 1

    @property
    def max_node_size(self) -> int:
        """Ranks on the fullest node (the intra-tier fan-in bound)."""
        return min(self.ranks_per_node, self.nprocs)

    def node_of(self, rank: int) -> int:
        return rank // self.ranks_per_node

    def node_of_ranks(self) -> np.ndarray:
        """``(nprocs,)`` int32 map rank -> node id."""
        return (np.arange(self.nprocs, dtype=np.int32)
                // np.int32(self.ranks_per_node))

    def node_size(self, node: int) -> int:
        lo = node * self.ranks_per_node
        if not 0 <= lo < self.nprocs:
            raise ValueError(f"no node {node} in {self}")
        return min(self.ranks_per_node, self.nprocs - lo)

    def leader_of(self, rank: int) -> int:
        """The node leader: lowest rank of ``rank``'s node."""
        return (rank // self.ranks_per_node) * self.ranks_per_node

    def is_leader(self, rank: int) -> bool:
        return rank % self.ranks_per_node == 0

    # -- rack tier ---------------------------------------------------------

    @property
    def has_racks(self) -> bool:
        return self.nodes_per_rack > 0

    @property
    def n_racks(self) -> int:
        if not self.has_racks:
            return 1
        return -(-self.n_nodes // self.nodes_per_rack)

    @property
    def multi_rack(self) -> bool:
        return self.has_racks and self.n_racks > 1

    @property
    def ranks_per_rack(self) -> int:
        """Rank stride of one rack (full racks; the last may be short)."""
        if not self.has_racks:
            return self.nprocs
        return self.ranks_per_node * self.nodes_per_rack

    @property
    def max_nodes_per_rack(self) -> int:
        """Nodes in the fullest rack (the rack tier's fan-in bound)."""
        if not self.has_racks:
            return self.n_nodes
        return min(self.nodes_per_rack, self.n_nodes)

    def rack_of(self, rank: int) -> int:
        if not self.has_racks:
            return 0
        return self.node_of(rank) // self.nodes_per_rack

    def rack_of_ranks(self) -> np.ndarray:
        """``(nprocs,)`` int32 map rank -> rack id (all zero without racks)."""
        if not self.has_racks:
            return np.zeros(self.nprocs, dtype=np.int32)
        return self.node_of_ranks() // np.int32(self.nodes_per_rack)

    def rack_span(self, rack: int) -> Tuple[int, int]:
        """Contiguous rank range ``[lo, hi)`` of ``rack`` (ranks are packed
        node-major, so a rack is always one slice of the rank axis)."""
        stride = self.ranks_per_rack
        lo = rack * stride
        if not 0 <= lo < self.nprocs:
            raise ValueError(f"no rack {rack} in {self}")
        return lo, min(lo + stride, self.nprocs)

    def rack_leader_of(self, rank: int) -> int:
        """The rack leader: lowest rank of ``rank``'s rack (the rank that
        injects the rack's aggregated cross-rack traffic)."""
        return self.rack_of(rank) * self.ranks_per_rack

    def is_rack_leader(self, rank: int) -> bool:
        return self.has_racks and rank % self.ranks_per_rack == 0

    def same_node(self, a: int, b: int) -> bool:
        return self.node_of(a) == self.node_of(b)

    def same_rack(self, a: int, b: int) -> bool:
        return self.rack_of(a) == self.rack_of(b)

    def describe(self) -> str:
        rack = (f" x {self.nodes_per_rack} nodes/rack ({self.n_racks} racks)"
                if self.has_racks else "")
        return (f"{self.nprocs} ranks = {self.n_nodes} nodes "
                f"x {self.ranks_per_node} ranks/node{rack}")


def make_topology(
    nprocs: int,
    ranks_per_node: Optional[int] = None,
    nodes_per_rack: Optional[int] = None,
) -> Topology:
    """Build a :class:`Topology`, defaulting to 8-wide nodes (clamped so a
    tiny run is still one full node rather than an error)."""
    rpn = ranks_per_node if ranks_per_node is not None else DEFAULT_RANKS_PER_NODE
    return Topology(
        nprocs=nprocs,
        ranks_per_node=min(rpn, max(nprocs, 1)),
        nodes_per_rack=nodes_per_rack or 0,
    )
