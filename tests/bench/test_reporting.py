"""Experiment table formatting and persistence."""

import csv

import pytest

from repro.bench import ExperimentTable, format_table, save_table
from repro.bench.harness import geometric_mean, speedup_series


def test_table_add_and_column():
    t = ExperimentTable("exp", ["a", "b"])
    t.add(1, 2.0)
    t.add(3, 4.0)
    assert t.rows == [[1, 2.0], [3, 4.0]]


def test_row_width_checked():
    t = ExperimentTable("exp", ["a", "b"])
    with pytest.raises(ValueError):
        t.add(1)


def test_format_contains_everything():
    t = ExperimentTable("fig_x", ["graph", "time_s"], notes="shape only")
    t.add("rmat", 0.125)
    text = format_table(t)
    assert "fig_x" in text and "shape only" in text
    assert "rmat" in text and "0.125" in text


def test_save_and_reload(tmp_path):
    t = ExperimentTable("t1", ["k", "v"])
    t.add("x", 1.5)
    path = save_table(t, tmp_path)
    with open(path) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["k", "v"]
    assert rows[1] == ["x", "1.5"]


def test_emit_prints_and_saves(tmp_path, capsys):
    t = ExperimentTable("t2", ["k"])
    t.add(42)
    path = t.emit(tmp_path)
    out = capsys.readouterr().out
    assert "t2" in out and path.endswith("t2.csv")


def test_speedup_series():
    s = speedup_series({1: 10.0, 2: 5.0, 4: 2.5})
    assert s == {1: 1.0, 2: 2.0, 4: 4.0}
    assert speedup_series({}) == {}


def test_geometric_mean():
    import numpy as np

    assert geometric_mean(np.array([1.0, 4.0])) == pytest.approx(2.0)
    assert geometric_mean(np.array([])) == 0.0
    assert geometric_mean(np.array([0.0, 2.0])) == pytest.approx(2.0)
