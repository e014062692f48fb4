"""Checkpoint format, epoch-commit protocol, and validation negatives."""

import hashlib
import json
import os
import pickle
import tracemalloc

import numpy as np
import pytest

from repro.core import PulpParams, xtrapulp
from repro.core.driver import step_plan
from repro.core.state import RankState
from repro.dist import build_dist_graph, make_distribution
from repro.ft import CheckpointError, CkptPolicy, find_latest_committed
from repro.ft.checkpoint import (
    MANIFEST_NAME,
    MANIFEST_TMP,
    STATS_NAME,
    checkpoint_after,
    dist_signature,
    graph_signature,
    inputs_signature,
    load_checkpoint,
    load_manifest,
    validate_manifest,
)
from repro.graph import generators
from repro.simmpi import run_spmd

from tests.ft.conftest import NPROCS, PARTS


# -- step plan ---------------------------------------------------------------


def test_step_plan_shape():
    plan = step_plan(PulpParams(outer_iters=3))
    assert plan[0] == ("init", -1, "init")
    assert len(plan) == 1 + 3 * 2 + 3 * 2
    assert plan[1:3] == [("vertex", 0, "vertex_balance"),
                         ("vertex", 0, "vertex_refine")]
    assert plan[-1] == ("edge", 2, "edge_refine")


def test_step_plan_single_objective():
    plan = step_plan(PulpParams(outer_iters=2, single_objective=True))
    assert all(stage != "edge" for stage, _, _ in plan)
    assert len(plan) == 1 + 2 * 2


def test_checkpoint_after_granularities():
    plan = step_plan(PulpParams(outer_iters=2))
    outer = [i for i in range(len(plan))
             if checkpoint_after(plan, i, "outer")]
    # init + each refine step
    assert outer == [0, 2, 4, 6, 8]
    assert [i for i in range(len(plan))
            if checkpoint_after(plan, i, "phase")] == list(range(len(plan)))
    assert not any(checkpoint_after(plan, i, "off")
                   for i in range(len(plan)))


def test_policy_rejects_unknown_granularity(tmp_path):
    with pytest.raises(ValueError, match="every"):
        CkptPolicy(dir=str(tmp_path), every="sometimes")


# -- epoch layout + commit protocol ------------------------------------------


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, ft_graph, ft_params):
    d = tmp_path_factory.mktemp("ckpt_run")
    xtrapulp(ft_graph, PARTS, nprocs=NPROCS, params=ft_params,
             backend="serial", checkpoint=CkptPolicy(dir=str(d)))
    return str(d)


def test_epoch_layout(run_dir):
    epochs = sorted(os.listdir(run_dir))
    assert epochs == [f"epoch_{e:04d}" for e in (0, 2, 4, 6, 8)]
    for e in epochs:
        edir = os.path.join(run_dir, e)
        names = sorted(os.listdir(edir))
        assert MANIFEST_NAME in names
        assert MANIFEST_TMP not in names  # commit renamed it away
        assert STATS_NAME in names
        assert [n for n in names if n.endswith(".ckpt")] == [
            f"rank{r:02d}.ckpt" for r in range(NPROCS)
        ]


def test_manifest_contents(run_dir):
    latest = find_latest_committed(run_dir)
    m = load_manifest(latest)
    assert m["epoch"] == 8 and m["next_step"] == 9
    assert m["nprocs"] == NPROCS and m["num_parts"] == PARTS
    assert m["step"] == ["edge", 1, "edge_refine"]
    assert m["n_build"] > 0
    assert set(m["rank_files"]) == {str(r) for r in range(NPROCS)}
    for entry in m["rank_files"].values():
        assert len(entry["sha256"]) == 64 and entry["bytes"] > 0


def test_stats_sidecar_is_record_prefix(run_dir, ft_graph, ft_params,
                                        tmp_path):
    latest = find_latest_committed(run_dir)
    data = load_checkpoint(latest)
    assert len(data.base_events) == data.manifest["base_events"]
    assert data.base_events[-1].op == "checkpoint"
    # the prefix must agree with a fresh identical run's record
    fresh = xtrapulp(ft_graph, PARTS, nprocs=NPROCS, params=ft_params,
                     backend="serial",
                     checkpoint=CkptPolicy(dir=str(tmp_path / "again")))
    sig = [(e.op, e.tag, e.bytes_sent.tolist()) for e in data.base_events]
    ref = [(e.op, e.tag, e.bytes_sent.tolist())
           for e in fresh.stats.events[:len(sig)]]
    assert sig == ref


def test_torn_epoch_is_not_loadable(run_dir, tmp_path):
    """A written-but-uncommitted epoch (MANIFEST.tmp only) is invisible."""
    import shutil

    d = tmp_path / "torn"
    shutil.copytree(run_dir, d)
    for e in sorted(os.listdir(d))[-2:]:
        edir = d / e
        os.replace(edir / MANIFEST_NAME, edir / MANIFEST_TMP)
    latest = find_latest_committed(str(d))
    assert latest is not None and latest.endswith("epoch_0004")
    with pytest.raises(CheckpointError, match="torn|no committed"):
        load_manifest(str(d / "epoch_0008"))


def test_no_epochs_raises(tmp_path):
    with pytest.raises(CheckpointError, match="no committed"):
        load_checkpoint(str(tmp_path))


# -- validation negatives ----------------------------------------------------


def _kwargs_from(manifest):
    return dict(
        nprocs=manifest["nprocs"],
        num_parts=manifest["num_parts"],
        graph_sig=manifest["graph_signature"],
        dist_sig=manifest["dist_signature"],
        params_repr=manifest["params_repr"],
        inputs_sig=manifest["inputs_signature"],
    )


def test_validate_accepts_matching(run_dir):
    m = load_manifest(find_latest_committed(run_dir))
    validate_manifest(m, **_kwargs_from(m))


@pytest.mark.parametrize("field_name,patch", [
    ("nprocs", dict(nprocs=5)),
    ("num_parts", dict(num_parts=7)),
    ("graph_signature", dict(graph_sig="deadbeef")),
    ("dist_signature", dict(dist_sig="deadbeef")),
    ("params", dict(params_repr="PulpParams(other)")),
    ("inputs_signature", dict(inputs_sig="deadbeef")),
])
def test_validate_rejects_mismatch(run_dir, field_name, patch):
    m = load_manifest(find_latest_committed(run_dir))
    kwargs = {**_kwargs_from(m), **patch}
    with pytest.raises(CheckpointError, match=field_name):
        validate_manifest(m, **kwargs)


def test_resume_rejects_wrong_graph(run_dir, ft_params):
    from repro.graph import generators

    other = generators.rmat(8, avg_degree=8, seed=99)
    with pytest.raises(CheckpointError, match="graph_signature"):
        xtrapulp(other, PARTS, nprocs=NPROCS, params=ft_params,
                 backend="serial", resume=run_dir)


def test_resume_rejects_wrong_nprocs(run_dir, ft_graph, ft_params):
    with pytest.raises(CheckpointError, match="nprocs"):
        xtrapulp(ft_graph, PARTS, nprocs=NPROCS + 1, params=ft_params,
                 backend="serial", resume=run_dir)


def test_truncated_rank_file_rejected(run_dir, tmp_path):
    import shutil

    d = tmp_path / "trunc"
    shutil.copytree(run_dir, d)
    latest = find_latest_committed(str(d))
    victim = os.path.join(latest, "rank01.ckpt")
    with open(victim, "rb") as f:
        blob = f.read()
    with open(victim, "wb") as f:
        f.write(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError, match="truncated or corrupt"):
        load_checkpoint(latest)


def test_corrupt_rank_file_rejected(run_dir, tmp_path):
    import shutil

    d = tmp_path / "flip"
    shutil.copytree(run_dir, d)
    latest = find_latest_committed(str(d))
    victim = os.path.join(latest, "rank00.ckpt")
    blob = bytearray(open(victim, "rb").read())
    blob[len(blob) // 2] ^= 0xFF
    open(victim, "wb").write(bytes(blob))
    with pytest.raises(CheckpointError, match="truncated or corrupt"):
        load_checkpoint(latest)


def test_missing_sidecar_rejected(run_dir, tmp_path):
    import shutil

    d = tmp_path / "nosidecar"
    shutil.copytree(run_dir, d)
    latest = find_latest_committed(str(d))
    os.remove(os.path.join(latest, STATS_NAME))
    with pytest.raises(CheckpointError, match="sidecar"):
        load_checkpoint(latest)


def test_unsupported_format_version_rejected(run_dir, tmp_path):
    import shutil

    d = tmp_path / "futurefmt"
    shutil.copytree(run_dir, d)
    latest = find_latest_committed(str(d))
    mpath = os.path.join(latest, MANIFEST_NAME)
    m = json.load(open(mpath))
    m["format_version"] = 99
    json.dump(m, open(mpath, "w"))
    with pytest.raises(CheckpointError, match="format"):
        load_checkpoint(latest)


def test_stale_runtime_rejected(ft_graph, ft_params, tmp_path):
    """Checkpointing needs a fresh CommStats or splicing would corrupt."""
    from repro.simmpi.backends import create_runtime

    rt = create_runtime("serial", nprocs=NPROCS)
    rt.run(lambda comm: comm.barrier())
    with pytest.raises(ValueError, match="fresh runtime"):
        xtrapulp(ft_graph, PARTS, nprocs=NPROCS, params=ft_params,
                 backend=rt, checkpoint=str(tmp_path))


# -- signatures: hashed in place, the digests of the tobytes() form ---------


def _sha_of_copies(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(b"none" if a is None else np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def test_signatures_equal_their_tobytes_form(ft_graph):
    """Arrays are hashed through the buffer protocol; the digests are those
    of the ``tobytes()`` copies hashed before, so existing run directories
    still validate (hex digests taken on the copying code)."""
    dist = make_distribution("random", ft_graph.n, NPROCS, seed=1)
    parts = np.arange(ft_graph.n) % PARTS
    weights = np.linspace(1, 2, ft_graph.n)[::-1]   # not contiguous
    got = [
        graph_signature(ft_graph),
        dist_signature(dist),
        inputs_signature(None, None),
        inputs_signature(parts, weights),
    ]
    assert got == [
        _sha_of_copies(np.int64(ft_graph.n), ft_graph.offsets, ft_graph.adj),
        _sha_of_copies(np.int64(NPROCS), dist.owner(np.arange(ft_graph.n))),
        _sha_of_copies(None, None),
        _sha_of_copies(parts, weights),
    ]
    assert [d[:16] for d in got] == [
        "15fbdaa3233cac5c", "fb27d3ccae9d134f",
        "29d7a9e04047a19a", "af1e2764cff9e739",
    ]


def test_checkpointed_procs_run_copies_no_input_in_the_parent(tmp_path):
    """The parent of a checkpointed run signs the graph and the owner table
    without a copy of either: its traced peak stays well under the CSR
    (``tobytes()`` signing read 1.10 x, in-place 0.39 x)."""
    g = generators.rmat(15, avg_degree=16, seed=7)
    csr = g.offsets.nbytes + g.adj.nbytes
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        xtrapulp(g, PARTS, nprocs=2, params=PulpParams(seed=1, outer_iters=1),
                 backend="procs",
                 checkpoint=CkptPolicy(dir=str(tmp_path), every="phase"))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 0.6 * csr


# -- state snapshot/restore --------------------------------------------------


def test_rank_state_snapshot_roundtrip(ft_graph, ft_params):
    dist = make_distribution("random", ft_graph.n, NPROCS, seed=1)

    def main(comm):
        dg = build_dist_graph(comm, ft_graph, dist)
        state = RankState(dg=dg, num_parts=PARTS, params=ft_params)
        state.parts[:] = np.arange(dg.n_total) % PARTS
        state.iter_tot = 17
        state.edges_touched = 123.5
        state.rng.integers(1000)  # advance the stream
        snap = pickle.loads(pickle.dumps(state.snapshot()))
        fresh = RankState(dg=dg, num_parts=PARTS, params=ft_params)
        fresh.restore(snap)
        assert np.array_equal(fresh.parts, state.parts)
        assert fresh.iter_tot == 17 and fresh.edges_touched == 123.5
        # restored RNG continues the original stream
        assert fresh.rng.integers(10**9) == state.rng.integers(10**9)
        return True

    assert all(run_spmd(NPROCS, main)[0])


def test_rank_state_restore_rejects_mismatch(ft_graph, ft_params):
    dist = make_distribution("random", ft_graph.n, NPROCS, seed=1)

    def main(comm):
        dg = build_dist_graph(comm, ft_graph, dist)
        state = RankState(dg=dg, num_parts=PARTS, params=ft_params)
        snap = state.snapshot()
        snap["rank"] = (snap["rank"] + 1) % NPROCS
        try:
            state.restore(snap)
            return False
        except ValueError:
            return True

    assert all(run_spmd(NPROCS, main)[0])
