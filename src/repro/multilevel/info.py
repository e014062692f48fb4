"""Result metadata of a multilevel run (leaf module: no repro imports).

Its own module so :class:`repro.core.driver.PartitionResult` can reference
the type without an import cycle (``core.driver`` loads
:mod:`repro.multilevel.hierarchy` lazily, inside the rank function).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple


@dataclass
class MultilevelInfo:
    """Per-run multilevel metadata threaded onto ``PartitionResult``.

    Attributes
    ----------
    levels:
        Number of hierarchy levels including the input graph (``1`` means
        the input was already below the coarsening threshold and the run
        degenerated to the flat pipeline plus one refine pass).
    coarsen_mode:
        ``"lp"`` or ``"hem"`` — the clustering used by the coarsener.
    level_sizes:
        ``(n_vertices, n_undirected_edges)`` per level, finest first.
    coarsest_n:
        Vertex count of the level handed to the flat pipeline.
    """

    levels: int
    coarsen_mode: str
    level_sizes: List[Tuple[int, int]] = field(default_factory=list)
    coarsest_n: int = 0
