"""Destination bucketing at the sort-key width boundaries."""

import numpy as np
import pytest

from repro.dist.packing import bucket_by_rank


@pytest.mark.parametrize("nprocs", [255, 256, 257, 65536, 65537])
def test_bucket_by_rank_key_width_boundaries(nprocs):
    """Destinations are < nprocs, so 256 ranks fit a one-byte key and 257
    do not: a key one rank too narrow would wrap the last rank onto 0."""
    rng = np.random.default_rng(nprocs)
    dest = np.concatenate([
        rng.integers(0, nprocs, size=2000),
        [nprocs - 1, 0, nprocs - 1, nprocs - 2],
    ])
    order, counts = bucket_by_rank(nprocs, dest)
    np.testing.assert_array_equal(order, np.argsort(dest, kind="stable"))
    np.testing.assert_array_equal(counts, np.bincount(dest, minlength=nprocs))
    assert order.dtype == counts.dtype == np.int64
