"""Machine topology model: simulated ranks grouped into nodes and racks.

The paper's runs place one MPI task per Blue Waters node, so the flat
simulator historically equated *rank* with *node* — every pair of ranks
communicated at one modeled cost.  Real machines are hierarchical: ranks
that share a node exchange data through shared memory at a fraction of the
network's latency and many times its bandwidth, and modern distributed
partitioners (dKaMinPar, Tera-Scale Multilevel) lean on node-aware message
aggregation to reach their scaling regime.

:class:`Topology` captures that structure for the simulator: ``nprocs``
simulated ranks packed into nodes of ``ranks_per_node`` (the last node may
be short), and nodes packed into racks of ``nodes_per_rack`` nodes — one
rack holding every node unless the spec names a rack width.  Rank 0 of
each node is its *leader* — the rank that injects the node's aggregated
traffic into the inter-node network under the hierarchical exchange
protocol (see :mod:`repro.simmpi.topology.hierarchical`); the lowest rank
of a rack likewise injects the rack's cross-rack traffic.

A topology-aware communicator is requested with a compact spec string
(``PulpParams.comm`` / ``--comm`` / ``create_runtime(comm=)``)::

    flat                    today's single-tier behavior (default)
    hierarchical            8 ranks/node, one rack
    hierarchical:16         16 ranks/node, one rack
    hierarchical:8x4        8 ranks/node, 4 nodes/rack

:func:`parse_comm_spec` validates the grammar without needing a rank
count; :func:`make_topology` instantiates the concrete grouping.
"""

from __future__ import annotations

import sys
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
    """Ranks packed into nodes of ``ranks_per_node`` (the last node may be
    short), nodes packed into racks of ``nodes_per_rack`` (the last rack
    may be short).

    A rack at least as wide as the run is the one rack holding every
    node, and ``nodes_per_rack`` is clamped to ``n_nodes``: the default
    (what a spec without an ``xK`` suffix asks for) and an oversized
    width are the same topology.
    """

    nprocs: int
    ranks_per_node: int
    nodes_per_rack: int = sys.maxsize

    def __post_init__(self) -> None:
        if self.nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {self.nprocs}")
        if self.ranks_per_node < 1:
            raise ValueError(
                f"ranks_per_node must be >= 1, got {self.ranks_per_node}"
            )
        if self.nodes_per_rack < 1:
            raise ValueError(
                f"nodes_per_rack must be >= 1, got {self.nodes_per_rack}"
            )
        object.__setattr__(self, "nodes_per_rack",
                           min(self.nodes_per_rack, self.n_nodes))

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
    def n_racks(self) -> int:
        return -(-self.n_nodes // self.nodes_per_rack)

    @property
    def multi_rack(self) -> bool:
        return self.n_racks > 1

    @property
    def ranks_per_rack(self) -> int:
        """Rank stride of one rack (full racks; the last may be short)."""
        return self.ranks_per_node * self.nodes_per_rack

    def rack_of(self, rank: int) -> int:
        return self.node_of(rank) // self.nodes_per_rack

    def rack_of_ranks(self) -> np.ndarray:
        """``(nprocs,)`` int32 map rank -> rack id."""
        return self.node_of_ranks() // np.int32(self.nodes_per_rack)

    def rack_span(self, rack: int) -> Tuple[int, int]:
        """Contiguous rank range ``[lo, hi)`` of ``rack`` (ranks are packed
        node-major, so a rack is always one slice of the rank axis)."""
        stride = self.ranks_per_rack
        lo = rack * stride
        if not 0 <= lo < self.nprocs:
            raise ValueError(f"no rack {rack} in {self}")
        return lo, min(lo + stride, self.nprocs)

    def is_rack_leader(self, rank: int) -> bool:
        """Whether ``rank`` is its rack's lowest rank, the one that injects
        the rack's aggregated cross-rack traffic."""
        return rank % self.ranks_per_rack == 0


def make_topology(
    nprocs: int,
    ranks_per_node: Optional[int] = None,
    nodes_per_rack: Optional[int] = None,
) -> Topology:
    """Build a :class:`Topology` from a spec's widths: 8-wide nodes when it
    names none (clamped so a tiny run is still one full node rather than
    an error), one rack when it names no rack width."""
    rpn = ranks_per_node if ranks_per_node is not None else DEFAULT_RANKS_PER_NODE
    return Topology(
        nprocs=nprocs,
        ranks_per_node=min(rpn, max(nprocs, 1)),
        nodes_per_rack=nodes_per_rack or sys.maxsize,
    )
