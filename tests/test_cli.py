"""CLI end-to-end tests."""

import numpy as np
import pytest

from repro.cli import main
from repro.graph import io, rmat


@pytest.fixture()
def graph_file(tmp_path):
    g = rmat(8, 10, seed=1)
    path = tmp_path / "g.txt"
    io.write_edge_list(g, path)
    return str(path), g


def test_cli_partitions_and_writes(graph_file, tmp_path, capsys):
    path, g = graph_file
    out = tmp_path / "parts.txt"
    rc = main([path, "-p", "4", "-r", "2", "-o", str(out)])
    assert rc == 0
    parts = np.loadtxt(out, dtype=np.int64)
    assert parts.shape == (g.n,)
    assert parts.min() >= 0 and parts.max() < 4
    captured = capsys.readouterr().out
    assert "cut=" in captured and "modeled parallel time" in captured


def test_cli_metis_input(tmp_path):
    g = rmat(7, 8, seed=2)
    path = tmp_path / "g.metis"
    io.write_metis(g, path)
    assert main([str(path), "-p", "2", "-r", "1"]) == 0


def test_cli_npz_input(tmp_path):
    g = rmat(7, 8, seed=2)
    path = tmp_path / "g.npz"
    io.save_npz(g, path)
    assert main([str(path), "-p", "2", "-r", "1", "--single-objective"]) == 0


def test_cli_missing_file(tmp_path, capsys):
    assert main([str(tmp_path / "nope.txt")]) == 2
    assert "error reading" in capsys.readouterr().err


def test_cli_too_many_parts(graph_file, capsys):
    path, g = graph_file
    assert main([path, "-p", str(g.n + 5)]) == 2
    assert "cannot cut" in capsys.readouterr().err


def test_cli_zero_ranks_is_usage_error(tmp_path, capsys):
    path = tmp_path / "ring.txt"
    path.write_text("0 1\n1 2\n2 3\n3 0\n")
    assert main([str(path), "-p", "2", "-r", "0"]) == 2
    assert "--ranks must be >= 1, got 0" in capsys.readouterr().err


def test_cli_options(graph_file):
    path, _ = graph_file
    assert main([
        path, "-p", "4", "-r", "2", "--init", "block",
        "--vert-imbalance", "0.2", "--edge-imbalance", "0.2",
        "--distribution", "block", "--seed", "7",
    ]) == 0


def test_cli_multilevel_reports_hierarchy(graph_file, capsys):
    path, _ = graph_file
    rc = main([path, "-p", "4", "-r", "2", "--backend", "serial",
               "--multilevel", "--ml-coarsen", "hem", "--ml-levels", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "multilevel:" in out and "hem coarsening" in out
    assert "cut trajectory" in out


def test_cli_multilevel_matches_library(graph_file, tmp_path):
    path, g = graph_file
    out = tmp_path / "parts.txt"
    rc = main([path, "-p", "4", "-r", "2", "--backend", "serial",
               "--multilevel", "-o", str(out)])
    assert rc == 0
    from repro.core import PulpParams, xtrapulp

    ref = xtrapulp(g, 4, nprocs=2, params=PulpParams(multilevel=True),
                   backend="serial")
    np.testing.assert_array_equal(
        np.loadtxt(out, dtype=np.int64), ref.parts
    )


# -- fault-tolerance flags and exit codes ------------------------------------

FT = ["-p", "4", "-r", "2", "--backend", "serial"]


def test_cli_checkpoint_dir_writes_epochs(graph_file, tmp_path):
    path, _ = graph_file
    ckpt = tmp_path / "ckpt"
    assert main([path, *FT, "--checkpoint-dir", str(ckpt)]) == 0
    epochs = sorted(p.name for p in ckpt.iterdir())
    assert epochs and all(e.startswith("epoch_") for e in epochs)
    assert all((ckpt / e / "MANIFEST.json").exists() for e in epochs)


def test_cli_injected_fault_exits_3_then_resume_exits_4(graph_file, tmp_path,
                                                        capsys):
    path, _ = graph_file
    ckpt = tmp_path / "ckpt"
    out_a, out_b = tmp_path / "a.txt", tmp_path / "b.txt"
    rc = main([path, *FT, "--checkpoint-dir", str(ckpt),
               "--inject-fault", "1:vertex_refine:4"])
    assert rc == 3  # failed, but a committed epoch is available
    err = capsys.readouterr().err
    assert f"--resume {ckpt}" in err
    rc = main([path, *FT, "--resume", str(ckpt), "-o", str(out_a)])
    assert rc == 4  # resumed successfully
    assert "resumed from checkpoint" in capsys.readouterr().out
    # resumed partition is bit-identical to an uninterrupted run
    assert main([path, *FT, "-o", str(out_b)]) == 0
    assert np.array_equal(np.loadtxt(out_a, dtype=np.int64),
                          np.loadtxt(out_b, dtype=np.int64))


def test_cli_fault_without_checkpoint_exits_1(graph_file, capsys):
    path, _ = graph_file
    rc = main([path, *FT, "--inject-fault", "0:vertex_balance:2"])
    assert rc == 1  # no checkpoint dir: plain failure, nothing to resume
    assert "error" in capsys.readouterr().err


def test_cli_malformed_inject_fault_is_usage_error(graph_file, capsys):
    path, _ = graph_file
    assert main([path, *FT, "--inject-fault", "not-a-spec"]) == 2
    assert "RANK:PHASE:STEP" in capsys.readouterr().err
    # a negative delay is refused at parse time, not by the planted rank
    assert main([path, *FT, "--inject-fault", "0:*:0:delay:-1"]) == 2
    assert "delay" in capsys.readouterr().err


def test_cli_resume_against_wrong_graph_is_usage_error(graph_file, tmp_path,
                                                       capsys):
    path, _ = graph_file
    ckpt = tmp_path / "ckpt"
    assert main([path, *FT, "--checkpoint-dir", str(ckpt)]) == 0
    other = rmat(8, 10, seed=99)
    other_path = tmp_path / "other.txt"
    io.write_edge_list(other, other_path)
    assert main([str(other_path), *FT, "--resume", str(ckpt)]) == 2
    assert "graph_signature" in capsys.readouterr().err


def test_cli_resume_with_no_checkpoint_is_usage_error(graph_file, tmp_path,
                                                      capsys):
    path, _ = graph_file
    assert main([path, *FT, "--resume", str(tmp_path / "empty")]) == 2
    assert "no committed" in capsys.readouterr().err


def test_cli_help_documents_exit_codes(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    assert "exit codes" in out
    assert "--resume" in out and "--inject-fault" in out
