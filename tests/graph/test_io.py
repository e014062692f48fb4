"""Graph I/O round-trips and format validation."""

import numpy as np
import pytest

from repro.graph import from_edges, io, rmat
from repro.graph.csr import Graph
from tests.graphs import ring


def test_edge_list_roundtrip(tmp_path):
    g = rmat(8, 10, seed=1)
    path = tmp_path / "g.txt"
    io.write_edge_list(g, path)
    g2 = io.read_edge_list(path, n=g.n)
    assert g == g2


def test_edge_list_directed(tmp_path):
    d = from_edges(3, np.array([0, 2]), np.array([1, 1]), directed=True)
    path = tmp_path / "d.txt"
    io.write_edge_list(d, path)
    d2 = io.read_edge_list(path, n=3, directed=True)
    assert d == d2


def test_edge_list_directed_roundtrip_from_header(tmp_path):
    # the header records the kind; reading must not silently symmetrize
    d = from_edges(4, np.array([0, 2, 3]), np.array([1, 1, 0]), directed=True)
    path = tmp_path / "d.txt"
    io.write_edge_list(d, path)
    d2 = io.read_edge_list(path)
    assert d2.directed and d == d2
    # an explicit argument still wins over the header
    u = io.read_edge_list(path, directed=False)
    assert not u.directed and u.num_directed_edges == 6


def test_edge_list_headerless_defaults(tmp_path):
    path = tmp_path / "g.txt"
    io.write_edge_list(ring(5), path, header=False)
    g = io.read_edge_list(path)
    assert not g.directed and g == ring(5)
    # first line is data, not a header: it must not be skipped
    path.write_text("3 4\n0 1\n")
    g = io.read_edge_list(path)
    assert g.n == 5 and g.num_edges == 2
    assert io.read_edge_list(path, directed=True).num_directed_edges == 2


def test_edge_list_infers_n(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 5\n2 3\n")
    g = io.read_edge_list(path)
    assert g.n == 6


def test_metis_roundtrip(tmp_path):
    g = ring(8)
    path = tmp_path / "g.metis"
    io.write_metis(g, path)
    g2 = io.read_metis(path)
    assert g == g2
    # 1-indexed format with correct header
    head = path.read_text().splitlines()[0]
    assert head == "8 8"


def test_metis_rejects_directed_and_loops(tmp_path):
    d = from_edges(2, np.array([0]), np.array([1]), directed=True)
    with pytest.raises(ValueError):
        io.write_metis(d, tmp_path / "x")
    loops = from_edges(
        2, np.array([0, 0]), np.array([0, 1]), drop_self_loops=False
    )
    with pytest.raises(ValueError):
        io.write_metis(loops, tmp_path / "y")


def test_metis_header_validation(tmp_path):
    path = tmp_path / "bad.metis"
    path.write_text("3 5\n2\n1\n3\n")  # says 5 edges, adjacency gives 2
    with pytest.raises(ValueError):
        io.read_metis(path)
    path.write_text("")
    with pytest.raises(ValueError):
        io.read_metis(path)


@pytest.mark.parametrize("text", [
    "2 1 1\n2 1\n1 1\n",          # edge weights: loaded as one edge
    "3 2 1\n2 1\n1 1 3 1\n2 1\n",  # edge weights: an edge-count mismatch
    "2 1 0 1\n2\n1\n",            # an ncon field
], ids=["fmt1-two-vertices", "fmt1-path", "ncon"])
def test_metis_rejects_weighted_formats(tmp_path, text):
    path = tmp_path / "weighted.metis"
    path.write_text(text)
    with pytest.raises(ValueError, match="unsupported METIS format"):
        io.read_metis(path)
    # a zero fmt field declares no weights
    path.write_text("2 1 000\n2\n1\n")
    assert io.read_metis(path).num_edges == 1


def test_metis_trailing_isolated_vertices(tmp_path):
    # vertex 3 (1-indexed) isolated: blank line may be present or absent
    path = tmp_path / "iso.metis"
    path.write_text("3 1\n2\n1\n")
    g = io.read_metis(path)
    assert g.n == 3 and g.num_edges == 1
    assert g.degrees[2] == 0


def test_npz_roundtrip(tmp_path):
    g = rmat(8, 10, seed=2)
    path = tmp_path / "g.npz"
    io.save_npz(g, path)
    g2 = io.load_npz(path)
    assert g == g2
    assert g2.directed == g.directed


def test_npz_preserves_directed_flag(tmp_path):
    d = from_edges(4, np.array([0, 1]), np.array([1, 2]), directed=True)
    path = tmp_path / "d.npz"
    io.save_npz(d, path)
    assert io.load_npz(path).directed


def test_npz_rejects_an_asymmetric_undirected_csr(tmp_path):
    # the 4-cycle stored in one direction only (0->1->2->3->0)
    one_way = Graph(np.arange(5), np.array([1, 2, 3, 0]), directed=False)
    path = tmp_path / "one_way.npz"
    io.save_npz(one_way, path)
    with pytest.raises(ValueError, match="in both directions"):
        io.load_npz(path)
    # the same arcs are a valid directed graph
    io.save_npz(Graph(one_way.offsets, one_way.adj, directed=True), path)
    assert io.load_npz(path).num_edges == 4
