"""Distributed graph substrate (the paper's §III.A graph representation).

A :class:`~repro.dist.distgraph.DistGraph` is one rank's view of the global
graph under a 1-D vertex distribution: the owned vertices' adjacency in
local CSR form, a ghost layer (one-hop neighbors owned elsewhere), and the
global↔local id maps.  :mod:`repro.dist.build` constructs it inside a
simmpi SPMD program; :mod:`repro.dist.ops` provides the static exchange plan
and distributed BFS on top.
"""

from repro.dist.distribution import (
    BlockDistribution,
    Distribution,
    PartitionDistribution,
    RandomDistribution,
    make_distribution,
)
from repro.dist.distgraph import DistGraph
from repro.dist.build import build_dist_graph
from repro.dist.ops import (
    ExchangePlan,
    connect_plan,
    distributed_bfs_levels,
    ghost_plan,
)
from repro.dist.wire import WireSpec, make_wire_spec

__all__ = [
    "Distribution",
    "BlockDistribution",
    "RandomDistribution",
    "PartitionDistribution",
    "make_distribution",
    "DistGraph",
    "build_dist_graph",
    "ExchangePlan",
    "connect_plan",
    "ghost_plan",
    "distributed_bfs_levels",
    "WireSpec",
    "make_wire_spec",
]
