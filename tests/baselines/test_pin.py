"""The multilevel baseline's partitions, pinned by digest.

The baseline coarsens through the kernels of :mod:`repro.multilevel.kernels`
that the V-cycle runs too, so a change to a shared kernel (the contraction,
the LP admission round, heavy-edge matching) that moves a baseline
partition fails here, not only in the figures that compare partitioners.
A digest that moves on purpose is re-pinned together with the regenerated
``results/fig4_quality_vs_parts.csv`` and ``fig6_single_objective.csv``,
whose baseline cut columns move with it.
"""

import hashlib

import numpy as np
import pytest

from repro.baselines import multilevel_partition
from repro.suite import get_graph

#: sha256 of ``multilevel_partition(g, 16, quality=q, seed=0).parts`` as
#: int64 bytes, ``g`` the suite graph at ``small`` scale
PINNED = {
    ("mesh", "default"):
        "579b52f28d0029253b43a00fb8b7bc32e3c256da6a6c52c03429775fa461d046",
    ("mesh", "high"):
        "a9b46bb0937ee316281aa43a1bb6c244cfe023e7c2af4880cd42af0f63587029",
    ("social", "default"):
        "aba96166e38abe681b43924bf9608747ea1abb59422d130430ca281d49018acb",
    ("social", "high"):
        "16fec73031a80b966c9541b8adced1caf61af44cc39603400874c6a464cb584f",
}


@pytest.mark.parametrize("name, quality", sorted(PINNED))
def test_baseline_partition_is_pinned(name, quality):
    r = multilevel_partition(get_graph(name, "small"), 16, quality=quality,
                             seed=0)
    digest = hashlib.sha256(r.parts.astype(np.int64).tobytes()).hexdigest()
    assert digest == PINNED[name, quality]
