"""Vertex distributions: ownership, locality, balance."""

import numpy as np
import pytest

from repro.dist import (
    BlockDistribution,
    PartitionDistribution,
    RandomDistribution,
    make_distribution,
)


@pytest.mark.parametrize("n,p", [(10, 3), (16, 4), (7, 7), (5, 1), (0, 2)])
def test_block_contiguous_and_balanced(n, p):
    d = BlockDistribution(n, p)
    counts = d.counts()
    assert counts.sum() == n
    assert counts.max() - counts.min() <= 1
    for r in range(p):
        owned = d.owned(r)
        if owned.size:
            np.testing.assert_array_equal(
                owned, np.arange(owned[0], owned[0] + owned.size)
            )


def test_block_owner_lookup():
    d = BlockDistribution(10, 3)  # sizes 4,3,3
    assert d.owner(0) == 0 and d.owner(3) == 0
    assert d.owner(4) == 1 and d.owner(9) == 2
    np.testing.assert_array_equal(d.owner(np.array([0, 4, 9])), [0, 1, 2])


def test_random_balanced_and_seeded():
    d1 = RandomDistribution(1000, 7, seed=3)
    d2 = RandomDistribution(1000, 7, seed=3)
    d3 = RandomDistribution(1000, 7, seed=4)
    counts = d1.counts()
    assert counts.sum() == 1000
    assert counts.max() - counts.min() <= 1
    for r in range(7):
        np.testing.assert_array_equal(d1.owned(r), d2.owned(r))
    assert any(
        not np.array_equal(d1.owned(r), d3.owned(r)) for r in range(7)
    )


def test_random_rejects_no_ranks():
    with pytest.raises(ValueError, match="nprocs must be >= 1"):
        RandomDistribution(10, 0)


def test_random_actually_shuffles():
    d = RandomDistribution(1000, 4, seed=0)
    block = BlockDistribution(1000, 4)
    assert not np.array_equal(d.owned(0), block.owned(0))


def test_partition_distribution():
    parts = np.array([2, 0, 1, 2, 0])
    d = PartitionDistribution(parts, 3)
    np.testing.assert_array_equal(d.owned(0), [1, 4])
    np.testing.assert_array_equal(d.owned(2), [0, 3])
    with pytest.raises(ValueError):
        PartitionDistribution(parts, 2)  # part 2 out of range


def test_lid_roundtrip():
    d = RandomDistribution(100, 5, seed=9)
    for r in range(5):
        owned = d.owned(r)
        lids = d.lid(r, owned)
        np.testing.assert_array_equal(lids, np.arange(owned.size))
    with pytest.raises(ValueError):
        d.lid(0, d.owned(1)[:1])  # not owned by rank 0


def test_lid_empty():
    d = BlockDistribution(10, 2)
    assert d.lid(0, np.array([], dtype=np.int64)).size == 0


def test_make_distribution_factory():
    assert isinstance(make_distribution("block", 10, 2), BlockDistribution)
    assert isinstance(make_distribution("random", 10, 2), RandomDistribution)
    assert isinstance(
        make_distribution("partition", 3, 2, parts=[0, 1, 0]),
        PartitionDistribution,
    )
    with pytest.raises(ValueError):
        make_distribution("partition", 3, 2)
    with pytest.raises(ValueError):
        make_distribution("nope", 3, 2)


def test_distribution_validation():
    with pytest.raises(ValueError):
        BlockDistribution(10, 0)
    with pytest.raises(ValueError):
        PartitionDistribution(np.array([[0, 1]]), 2)  # not 1-D


def test_owner_array_read_only():
    d = BlockDistribution(10, 2)
    with pytest.raises(ValueError):
        d._owner[0] = 1
    with pytest.raises(ValueError):
        d.owned(0)[0] = 5


@pytest.mark.parametrize("kind", ["block", "random", "partition"])
@pytest.mark.parametrize("n,p", [(1000, 7), (5, 8), (0, 3), (700, 300)])
def test_owned_lists_equal_the_mask_built_ones(kind, n, p):
    """The owned lists come from one sort of the owner table; they are the
    per-rank masks' gids exactly, empty for ranks that own nothing (n < p),
    and on 2-byte keys once p > 256."""
    parts = np.random.default_rng(n + p).integers(0, p, n)
    d = make_distribution(kind, n, p, seed=5, parts=parts)
    for r in range(p):
        want = np.flatnonzero(d.owner_table == r)
        got = d.owned(r)
        assert got.dtype == np.int64 and not got.flags.writeable
        np.testing.assert_array_equal(got, want)
    assert d.counts().tolist() == np.bincount(
        d.owner_table, minlength=p).tolist()


@pytest.mark.parametrize("n,k", [(10, 3), (7, 7), (5, 8), (0, 2), (1000, 64)])
def test_block_sizes_is_the_one_block_layout(n, k):
    """``block_sizes``: near-equal contiguous blocks, the remainder one each
    over the first; block distributions and partitions are laid out by it."""
    from repro.baselines.simple import vertex_block_partition
    from repro.dist.distribution import block_sizes
    from repro.graph.builders import from_edges

    sizes = block_sizes(n, k)
    assert sizes.dtype == np.int64 and sizes.size == k and sizes.sum() == n
    assert sizes.max() - sizes.min() <= 1 and (np.diff(sizes) <= 0).all()
    blocks = np.repeat(np.arange(k), sizes)
    np.testing.assert_array_equal(BlockDistribution(n, k).owner_table, blocks)
    np.testing.assert_array_equal(
        np.sort(RandomDistribution(n, k, seed=3).owner_table), blocks)
    none = np.empty(0, dtype=np.int64)
    graph = from_edges(n, none, none)
    np.testing.assert_array_equal(vertex_block_partition(graph, k), blocks)
