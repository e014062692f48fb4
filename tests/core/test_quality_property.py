"""Property tests tying the quality metrics together on arbitrary inputs."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.quality import (
    cut_edges_per_part,
    edge_counts,
    edge_cut,
    vertex_counts,
)
from repro.graph import from_edges


@st.composite
def partitioned_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    m = draw(st.integers(min_value=0, max_value=120))
    p = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    g = from_edges(n, rng.integers(0, n, size=m), rng.integers(0, n, size=m))
    parts = rng.integers(0, p, size=n)
    return g, parts, p


@settings(max_examples=80, deadline=None)
@given(partitioned_graphs())
def test_cut_plus_interior_equals_total(case):
    g, parts, p = case
    src, dst = g.unique_edges()
    interior = int((parts[src] == parts[dst]).sum())
    cut = edge_cut(g, parts, p)
    assert interior + cut == g.num_edges


@settings(max_examples=80, deadline=None)
@given(partitioned_graphs())
def test_per_part_cut_sums_to_twice_cut(case):
    g, parts, p = case
    assert cut_edges_per_part(g, parts, p).sum() == 2 * edge_cut(g, parts, p)


@settings(max_examples=80, deadline=None)
@given(partitioned_graphs())
def test_vertex_and_edge_count_conservation(case):
    g, parts, p = case
    assert vertex_counts(g, parts, p).sum() == g.n
    assert edge_counts(g, parts, p).sum() == 2 * g.num_edges
