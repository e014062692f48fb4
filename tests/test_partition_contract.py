"""One partition contract: every partitioner the figures compare returns a
:class:`~repro.core.quality.Partition`, and only a valid label vector can
be one."""

import numpy as np
import pytest

from repro.baselines import multilevel_partition, pulp
from repro.core import Partition, xtrapulp
from repro.core.quality import partition_quality
from repro.graph import rmat


@pytest.mark.parametrize("parts, num_parts", [
    ([0, 1, -1, 0], 2),          # a label below 0
    ([0, 1, 2, 0], 2),           # a label equal to num_parts
    ([[0, 1], [1, 0]], 2),       # 2-D parts
    ([0, 0, 0, 0], 0),           # no parts
])
def test_invalid_partition_cannot_be_built(parts, num_parts):
    with pytest.raises(ValueError):
        Partition(np.array(parts), num_parts)


def test_every_partitioner_returns_a_partition():
    g = rmat(9, 8, seed=1)
    results = [
        xtrapulp(g, 4, nprocs=2),
        pulp(g, 4, threads=2),
        multilevel_partition(g, 4, seed=0),
    ]
    for r in results:
        assert isinstance(r, Partition)
        assert r.quality(g) == partition_quality(g, r.parts, r.num_parts)
