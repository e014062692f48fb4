"""Graph substrate: CSR storage, builders, generators, I/O, and metrics.

Everything downstream (the distributed graph, the partitioner, the
baselines, the analytics) consumes the frozen NumPy-backed
:class:`~repro.graph.csr.Graph`.  Generators cover the paper's graph
classes: R-MAT, Erdős–Rényi, the paper's high-diameter random graph
(``rand_hd``), meshes (nlpkkt-like stencils), and synthetic stand-ins for
the social-network and web-crawl suites (Table I).
"""

from repro.graph.csr import Graph
from repro.graph.builders import from_edges, to_scipy
from repro.graph.generators import (
    barabasi_albert,
    erdos_renyi,
    mesh3d,
    rmat,
    rand_hd,
    social,
    watts_strogatz,
    webcrawl,
)
from repro.graph.metrics import approximate_diameter, bfs_levels, graph_stats_row
from repro.graph import io

__all__ = [
    "Graph",
    "from_edges",
    "to_scipy",
    "rmat",
    "erdos_renyi",
    "watts_strogatz",
    "barabasi_albert",
    "rand_hd",
    "mesh3d",
    "social",
    "webcrawl",
    "bfs_levels",
    "approximate_diameter",
    "graph_stats_row",
    "io",
]
